"""Which package functions the traced run times, and the per-layer metrics
derived from what the tracer recorded.

The layers are the package modules ``model``, ``classify``, ``solver``,
``sercon``, ``oracle``, ``ilp``, ``evaluate`` and ``datagen``, plus
``solve_lp.parse_lp`` from the LP script.  ``cli`` is left out: it only adds
argument parsing and file I/O around the same calls.
"""
from __future__ import annotations

import importlib

from tracing import ROOT, Target, Tracer

FORCE_STEP_BUDGET_EXHAUSTED = "force-step budget exhausted"


def _on_classify(tracer: Tracer, cls, *args, **kwargs) -> None:
    tracer.count(f"classify.{cls.value}")


def _on_force_fit(tracer: Tracer, result, *args, **kwargs) -> None:
    if result.reason == FORCE_STEP_BUDGET_EXHAUSTED:
        tracer.count("solver.exhausted")


def _on_evict(tracer: Tracer, evicted, *args, **kwargs) -> None:
    tracer.count("solver.evicted", len(evicted))


def _on_balcon(tracer: Tracer, out, *args, **kwargs) -> None:
    report = out[1]
    tracer.count("solver.attempts", len(report.attempts))
    tracer.count("solver.accepted", sum(a.accepted for a in report.attempts))


def _on_sercon_original(tracer: Tracer, out, *args, **kwargs) -> None:
    tracer.count("sercon.sercon_original.attempts", len(out[1].attempts))


def _on_oracle(tracer: Tracer, result, *args, **kwargs) -> None:
    tracer.count("oracle.nodes", result.explored)


def _on_emit(tracer: Tracer, counts, kind, inst, weights, out) -> None:
    tracer.count(f"ilp.lp_bytes.{kind.value}", out.tell())


def _on_parse(tracer: Tracer, result, text) -> None:
    tracer.count("ilp.parsed_bytes", len(text))


def targets(solve_lp) -> list[Target]:
    mod = {n: importlib.import_module(f"balcon.{n}") for n in (
        "model", "classify", "solver", "sercon", "oracle", "ilp", "evaluate", "datagen")}
    mapping = mod["model"].Mapping

    def t(module: str, attr: str, **kw) -> Target:
        return Target(f"{module}.{attr}", mod[module], attr, **kw)

    return [
        t("datagen", "generate_instance"),
        t("model", "instance_to_dict"),
        t("model", "instance_from_dict"),
        t("model", "objective"),
        t("model", "migrated_memory"),
        t("model", "host_migration_cost"),
        t("model", "surrogate_load"),
        Target("model.Mapping.copy", mapping, "copy"),
        Target("model.Mapping.assign", mapping, "assign", timed=False),
        Target("model.Mapping.unassign", mapping, "unassign", timed=False),
        t("classify", "classify", on_result=_on_classify),
        t("solver", "balcon", on_result=_on_balcon),
        t("solver", "force_fit", on_result=_on_force_fit, span=True),
        t("solver", "best_fit"),
        t("solver", "choose_host_balanced"),
        t("solver", "choose_host_lopsided"),
        t("solver", "force_fit_balanced", on_result=_on_evict),
        t("solver", "force_fit_lopsided", on_result=_on_evict),
        t("sercon", "sercon_modified"),
        t("sercon", "sercon_original", on_result=_on_sercon_original),
        t("oracle", "brute_force_optimal", on_result=_on_oracle),
        t("evaluate", "evaluate_instance"),
        t("ilp", "emit_model", label=lambda kind, *a, **k: kind.value, on_result=_on_emit),
        t("ilp", "lp_entity_counts", on_result=_on_parse),
        t("ilp", "read_solution", label=lambda kind, *a, **k: kind.value),
        Target("solve_lp.parse_lp", solve_lp, "parse_lp", on_result=_on_parse),
    ]


# Per-layer metrics the benchmark reports on every workload.  Times are only
# listed for functions every workload calls, so none of them reads zero;
# the rest are counts and ratios, which are zero where a workload does not
# exercise a layer.  ``all_metrics`` prints every other layer figure too.
TIMED_EVERYWHERE = (
    "datagen.generate_instance",
    "model.instance_from_dict",
    "model.objective",
    "model.host_migration_cost",
    "model.Mapping.copy",
    "classify.classify",
    "solver.balcon",
    "solver.force_fit",
    "solver.best_fit",
)
COUNTED = (
    "model.migrated_memory",
    "model.surrogate_load",
    "model.Mapping.assign",
    "model.Mapping.unassign",
    "solver.choose_host_balanced",
    "solver.choose_host_lopsided",
    "solver.force_fit_balanced",
    "solver.force_fit_lopsided",
    "sercon.sercon_original",
    "oracle.brute_force_optimal",
    "evaluate.evaluate_instance",
    "ilp.lp_entity_counts",
    "solve_lp.parse_lp",
)
KINDS = ("alloc", "flow", "flowlb")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def all_metrics(tracer: Tracer, reps: int, untraced_pass_s: float, traced_pass_s: float) -> dict[str, tuple[float, str]]:
    """Every per-layer figure, per traced repetition (one setup plus one
    pass), as ``name -> (value, unit)``."""
    out: dict[str, tuple[float, str]] = {}
    self_times = tracer.self_times()
    for name in sorted(tracer.stats):
        stat = tracer.stats[name]
        out[f"{name}.calls"] = (stat.calls / reps, "count")
        if name not in ("model.Mapping.assign", "model.Mapping.unassign"):
            out[f"{name}.self_s"] = (stat.self_s / reps, "s")
    out[f"{ROOT}.self_s"] = (self_times[ROOT] / reps, "s")
    c = tracer.counters.get
    n_classify = sum(c(f"classify.{k}", 0) for k in ("ample", "balanced", "lopsided"))
    for k in ("ample", "balanced", "lopsided"):
        out[f"classify.{k}_share"] = (_ratio(c(f"classify.{k}", 0), n_classify), "ratio")
    calls = {name: stat.calls for name, stat in tracer.stats.items()}
    # every executed force step evicts through exactly one of these two
    steps = calls.get("solver.force_fit_balanced", 0) + calls.get("solver.force_fit_lopsided", 0)
    force_fits = calls.get("solver.force_fit", 0)
    out["solver.force_steps_executed"] = (steps / reps, "count")
    out["solver.exhausted_ratio"] = (_ratio(c("solver.exhausted", 0), force_fits), "ratio")
    out["solver.accepted_ratio"] = (_ratio(c("solver.accepted", 0), c("solver.attempts", 0)), "ratio")
    out["solver.evicted_per_step"] = (_ratio(c("solver.evicted", 0), steps), "ratio")
    out["sercon.sercon_original.attempts"] = (c("sercon.sercon_original.attempts", 0) / reps, "count")
    nodes = c("oracle.nodes", 0)
    out["oracle.nodes"] = (nodes / reps, "count")
    oracle = tracer.stats.get("oracle.brute_force_optimal")
    if oracle is not None and oracle.self_s > 0:
        out["oracle.nodes_per_s"] = (nodes / oracle.self_s, "1/s")
    emit_bytes = 0
    emit_s = 0.0
    for kind in KINDS:
        b = c(f"ilp.lp_bytes.{kind}", 0)
        out[f"ilp.lp_bytes.{kind}"] = (b / reps, "bytes")
        stat = tracer.stats.get(f"ilp.emit_model.{kind}")
        if stat is not None:
            emit_bytes += b
            emit_s += stat.self_s
    if emit_s > 0:
        out["ilp.emit_mb_per_s"] = (emit_bytes / 1e6 / emit_s, "MB/s")
    parse = [tracer.stats.get(n) for n in ("ilp.lp_entity_counts", "solve_lp.parse_lp")]
    parse_s = sum(s.self_s for s in parse if s is not None)
    if parse_s > 0:
        out["ilp.parse_mb_per_s"] = (c("ilp.parsed_bytes", 0) / 1e6 / parse_s, "MB/s")
    out["trace.wall_s"] = (tracer.wall_s / reps, "s")
    out["trace.self_sum_s"] = (sum(self_times.values()) / reps, "s")
    out["trace.overhead_ratio"] = (_ratio(traced_pass_s, untraced_pass_s), "ratio")
    return out


HIGHER_IS_BETTER = ("classify.ample_share", "solver.accepted_ratio")


def reported_metrics() -> list[tuple[str, str, str]]:
    """The per-layer metrics of BENCHMARK.json, as ``(name, unit, better)``.
    Less work and less time are better, except for the share of direct
    placements and of accepted releases."""
    names = [(f"{n}.calls", "count") for n in TIMED_EVERYWHERE + COUNTED]
    names += [(f"{n}.self_s", "s") for n in TIMED_EVERYWHERE]
    names += [(f"{ROOT}.self_s", "s")]
    names += [(f"classify.{k}_share", "ratio") for k in ("ample", "balanced", "lopsided")]
    names += [
        ("solver.force_steps_executed", "count"),
        ("solver.exhausted_ratio", "ratio"),
        ("solver.accepted_ratio", "ratio"),
        ("solver.evicted_per_step", "ratio"),
        ("sercon.sercon_original.attempts", "count"),
        ("oracle.nodes", "count"),
    ]
    names += [(f"ilp.lp_bytes.{kind}", "bytes") for kind in KINDS]
    names += [("trace.wall_s", "s"), ("trace.overhead_ratio", "ratio")]
    return [(n, u, "higher" if n in HIGHER_IS_BETTER else "lower") for n, u in names]
