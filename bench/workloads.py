"""The benchmark's workloads: seeded inputs, the calls of one pass, and the
checks on every output.

Every input is generated from the benchmark seed and passed through the JSON
instance format before use.  A pass is a generator that yields ``Call``s and
receives each call's output back, so later calls can use earlier outputs
(``ilp-roundtrip`` parses the text ``emit_model`` wrote).  Module functions
are always looked up on their module at call time, so a traced run sees the
patched names.
"""
from __future__ import annotations

import hashlib
import importlib.util
import io
import json
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Generator, Sequence

from balcon import datagen, evaluate, ilp, model, sercon, solver
from balcon.datagen import GenConfig, GenerationError
from balcon.model import ObjectiveWeights, ResourceVec


def _load_solve_lp():
    path = Path(__file__).resolve().parent.parent / "scripts" / "solve_lp.py"
    spec = importlib.util.spec_from_file_location("solve_lp", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules["solve_lp"] = module
    spec.loader.exec_module(module)
    return module


solve_lp = _load_solve_lp()

ALGOS = ("balcon", "sercon-mod", "sercon-orig")
SEED_STRIDE = 1000  # instance seeds of benchmark seed s are s*1000, s*1000+1, ...


@dataclass
class Checked:
    """What the checks made of one call's output."""

    failures: list[str]
    digest: str
    objective: Any = 0  # exact sum of final objectives in this output
    gaps: list[Fraction] = field(default_factory=list)


@dataclass
class Call:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], Checked]


Pass = Generator[Call, Any, None]


@dataclass
class Workload:
    name: str
    why: str
    setup: Callable[[int, bool], Any]  # (seed, smoke) -> inputs
    one_pass: Callable[[Any], Pass]


def digest(*parts: object) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(str(part).encode())
        h.update(b"\0")
    return h.hexdigest()


# -- inputs -------------------------------------------------------------------


def roundtrip(inst: model.Instance) -> model.Instance:
    """The instance as it comes back from its JSON document."""
    doc = json.loads(json.dumps(model.instance_to_dict(inst)))
    back = model.instance_from_dict(doc)
    if back != inst:
        raise RuntimeError("instance changed in the JSON round trip")
    return back


def generated(configs: Sequence[Callable[[int], GenConfig]], count: int, seed: int) -> list[model.Instance]:
    """The first ``count`` instance seeds from ``seed * SEED_STRIDE`` on whose
    configs all generate, one instance per config and instance seed (the
    configs of one seed are twins); seeds the generator gives up on are
    skipped."""
    out: list[model.Instance] = []
    s = seed * SEED_STRIDE
    while len(out) < count * len(configs):
        try:
            batch = [datagen.generate_instance(make(s)) for make in configs]
        except GenerationError:
            batch = []
        out.extend(roundtrip(inst) for inst in batch)
        s += 1
    return out


def tiny_corpus(total_hosts: int, seed: int) -> list[model.Instance]:
    """The tiny-corpus recipe of the test suite (<= 4 hosts, 2..8 VMs,
    alternating modes), started at ``seed * SEED_STRIDE`` and cut once the
    instances hold ``total_hosts`` hosts.  Cutting by hosts rather than by
    count fixes the number of release attempts per pass, which sets most of
    the run time."""
    out: list[model.Instance] = []
    hosts = 0
    s = seed * SEED_STRIDE
    while hosts < total_hosts:
        cfg = GenConfig(
            seed=s,
            num_hosts=2 + s % 3,
            host_capacity=ResourceVec(5, 6),
            num_flavors=4,
            target_fill=0.7,
            mode="lopsided" if s % 2 else "uniform",
        )
        s += 1
        inst = datagen.generate_instance(cfg)
        if 2 <= len(inst.vms) <= 8 and len(inst.hosts) <= 4:
            out.append(roundtrip(inst))
            hosts += len(inst.hosts)
    return out


# -- checks -------------------------------------------------------------------


def check_run(inst: model.Instance, params: solver.SolverParams, out) -> Checked:
    """A (mapping, report) pair from balcon, sercon-mod or sercon-orig."""
    mu, report = out
    fails = []
    mu0 = inst.initial_mapping()
    w = params.weights
    if report.mapping is not mu:
        fails.append("report.mapping is not the returned mapping")
    if not (mu.is_total() and mu.is_feasible() and mu.caches_consistent()):
        fails.append("mapping is not total and feasible")
    else:
        obj = model.objective(mu, mu0, w)
        if obj > model.objective(mu0, mu0, w):
            fails.append(f"objective {obj} above the initial one")
        if report.objective != obj:
            fails.append(f"report.objective {report.objective} != recomputed {obj}")
        if report.migrated_mem != model.migrated_memory(mu, mu0):
            fails.append("report.migrated_mem differs from its recomputation")
        if report.active_hosts != mu.active_count():
            fails.append("report.active_hosts differs from active_count")
    if report.force_steps != sum(a.force_steps for a in report.attempts):
        fails.append("force_steps is not the sum over its attempts")
    return Checked(
        fails,
        digest(
            report.algorithm,
            mu.assignment,
            report.active_hosts,
            report.migrated_mem,
            report.objective,
            report.force_steps,
            [sorted(a.class_counts.items()) for a in report.attempts],
        ),
        report.objective,
    )


def check_eval(inst: model.Instance, params: solver.SolverParams, out) -> Checked:
    """GapRecords of evaluate_instance plus the algorithm runs behind them."""
    records, runs = out
    fails: list[str] = []
    parts: list[str] = []
    total: Any = 0
    if [r.algorithm for r in records] != list(ALGOS) or [name for name, _ in runs] != list(ALGOS):
        fails.append("evaluate_instance did not run every algorithm once")
    for record, (name, run) in zip(records, runs):
        checked = check_run(inst, params, run)
        fails += [f"{name}: {f}" for f in checked.failures]
        parts.append(checked.digest)
        total += checked.objective
        if record.alg_objective != run[1].objective:
            fails.append(f"{name}: gap record objective differs from the run's")
        if record.ref_kind != "oracle" or record.ref_objective > record.alg_objective:
            fails.append(f"{name}: oracle objective above the algorithm's")
        g = record.gap
        if g is not None and not 0 <= g <= 1:
            fails.append(f"{name}: gap {g} outside [0, 1]")
        if (g is None) != (record.init_objective == record.ref_objective):
            fails.append(f"{name}: gap defined iff the instance allows improvement")
        parts.append((record.ref_objective, g, record.non_trivial))
    gaps = [r.gap for r in records if r.gap is not None and r.non_trivial]
    return Checked(fails, digest(*parts), total, gaps)


def capture_runs(fn: Callable[[], list]) -> Callable[[], tuple]:
    """Run ``fn`` with ``evaluate.ALGORITHMS`` recording every run's output,
    so the checks can see the mappings that ``evaluate_instance`` drops."""

    def run():
        runs: list = []
        saved = dict(evaluate.ALGORITHMS)

        def recorder(name, algo):
            def recorded(inst, params):
                out = algo(inst, params)
                runs.append((name, out))
                return out

            return recorded

        for name, algo in saved.items():
            evaluate.ALGORITHMS[name] = recorder(name, algo)
        try:
            records = fn()
        finally:
            evaluate.ALGORITHMS.update(saved)
        return records, runs

    return run


# -- workloads ----------------------------------------------------------------

INF = solver.SolverParams(ObjectiveWeights.from_mph(math.inf))
MPH10 = solver.SolverParams(ObjectiveWeights.from_mph(10))
MPH0 = solver.SolverParams(ObjectiveWeights.from_mph(0))


def _default(hosts: int, mode: str, fill: float = 0.9) -> Callable[[int], GenConfig]:
    return lambda s: GenConfig(seed=s, num_hosts=hosts, mode=mode, target_fill=fill)


FORCEFIT_HOSTS = (6, 12)
FORCEFIT_SEEDS = 3  # twin pairs per size


def forcefit_setup(seed: int, smoke: bool) -> list:
    if smoke:
        return generated([_default(4, "lopsided"), _default(4, "uniform")], 1, seed)
    insts = []
    for n in FORCEFIT_HOSTS:
        insts += generated([_default(n, "lopsided"), _default(n, "uniform")], FORCEFIT_SEEDS, seed)
    return insts


def forcefit_pass(insts) -> Pass:
    for inst in insts:
        yield Call(
            f"balcon/{len(inst.hosts)}h",
            lambda inst=inst: solver.balcon(inst, INF),
            lambda out, inst=inst: check_run(inst, INF, out),
        )


TINY_HOSTS = 60  # hosts per mph; about 21 instances


def tiny_setup(seed: int, smoke: bool) -> list:
    return tiny_corpus(6 if smoke else TINY_HOSTS, seed)


def tiny_pass(corpus) -> Pass:
    for params in (MPH0, MPH10):
        for i, inst in enumerate(corpus):
            yield Call(
                f"evaluate/mph{params.weights.mph}",
                capture_runs(
                    lambda inst=inst, params=params, i=i: evaluate.evaluate_instance(
                        str(i), inst, ALGOS, params
                    )
                ),
                lambda out, inst=inst, params=params: check_eval(inst, params, out),
            )


FREESPACE_HOSTS = 300
FREESPACE_COUNT = 16


def freespace_setup(seed: int, smoke: bool) -> list:
    if smoke:
        return generated([_default(20, "lopsided", 0.6)], 1, seed)
    return generated([_default(FREESPACE_HOSTS, "lopsided", 0.6)], FREESPACE_COUNT, seed)


def freespace_pass(insts) -> Pass:
    for inst in insts:
        for name, algo in (("sercon-mod", "sercon_modified"), ("sercon-orig", "sercon_original")):
            yield Call(
                f"{name}/{len(inst.hosts)}h",
                lambda inst=inst, algo=algo: getattr(sercon, algo)(inst, INF),
                lambda out, inst=inst: check_run(inst, INF, out),
            )


ILP_HOSTS = 100
ILP_COUNT = 4


def ilp_setup(seed: int, smoke: bool) -> list:
    if smoke:
        return generated([_default(8, "lopsided")], 1, seed)
    return generated([_default(ILP_HOSTS, "lopsided")], ILP_COUNT, seed)


def solution_dumps(mu: model.Mapping) -> dict[ilp.ModelKind, str]:
    """Variable dumps, as a MILP solver would write them, of ``mu`` in the
    allocation model and in the flavor-flow model."""
    inst = mu.inst
    alloc = [f"alloc_v{v}_h{mu.host_of(v)} 1" for v in range(len(inst.vms))]
    alloc += [f"active_h{h} 1" for h in mu.active_hosts()]
    alloc += [f"migr_v{v} 1" for v in range(len(inst.vms)) if mu.host_of(v) != inst.initial_host(v)]
    moves: dict[str, int] = {}
    for v in range(len(inst.vms)):
        src, dst = inst.initial_host(v), mu.host_of(v)
        if src != dst:
            f = inst.vms[v].flavor
            for key in (f"out_f{f}_h{src}", f"in_f{f}_h{dst}"):
                moves[key] = moves.get(key, 0) + 1
    flow = [f"{name} {n}" for name, n in sorted(moves.items())]
    flow += [f"active_h{h} 1" for h in mu.active_hosts()]
    return {
        ilp.ModelKind.ALLOCATION: "\n".join(alloc) + "\n",
        ilp.ModelKind.FLAVOR_FLOW: "\n".join(flow) + "\n",
    }


def _check_counts(expected: ilp.EmitCounts, text_of: Callable[[], str]) -> Callable[[Any], Checked]:
    def check(counts) -> Checked:
        fails = [] if counts == expected else [f"counts {counts} != expected {expected}"]
        return Checked(fails, digest(counts, hashlib.sha256(text_of().encode()).hexdigest()))

    return check


def _check_parsed(expected: ilp.EmitCounts) -> Callable[[Any], Checked]:
    def check(lp) -> Checked:
        got = ilp.EmitCounts(len(lp.order), len(lp.rows))
        fails = [] if got == expected else [f"parse_lp counted {got}, expected {expected}"]
        return Checked(fails, digest(got, sorted(lp.objective.items())))

    return check


def ilp_pass(insts) -> Pass:
    for inst in insts:
        yield from ilp_roundtrip(inst)


def ilp_roundtrip(inst: model.Instance) -> Pass:
    params = MPH10
    weights = params.weights
    out = yield Call(
        "sercon-mod",
        lambda: sercon.sercon_modified(inst, params),
        lambda out: check_run(inst, params, out),
    )
    mu = out[0]
    shape = (len(inst.vms), len(inst.hosts), len(inst.flavors))
    texts: dict[ilp.ModelKind, str] = {}
    for kind in ilp.ModelKind:
        buf = io.StringIO()
        expected = ilp.expected_counts(kind, *shape)
        yield Call(
            f"emit_model/{kind.value}",
            lambda kind=kind, buf=buf: ilp.emit_model(kind, inst, weights, buf),
            _check_counts(expected, buf.getvalue),
        )
        texts[kind] = buf.getvalue()
    for kind, text in texts.items():
        expected = ilp.expected_counts(kind, *shape)
        yield Call(
            f"lp_entity_counts/{kind.value}",
            lambda text=text: ilp.lp_entity_counts(text),
            _check_counts(expected, lambda text=text: text),
        )
        yield Call(f"parse_lp/{kind.value}", lambda text=text: solve_lp.parse_lp(text), _check_parsed(expected))
    want = model.objective(mu, inst.initial_mapping(), weights)
    for kind, dump in solution_dumps(mu).items():

        def check(sol, kind=kind) -> Checked:
            fails = []
            if sol.objective != want:
                fails.append(f"read_solution objective {sol.objective} != mapping objective {want}")
            if kind is ilp.ModelKind.ALLOCATION and sol.mapping != mu:
                fails.append("read_solution rebuilt a different mapping")
            return Checked(fails, digest(kind.value, sol.objective))

        yield Call(
            f"read_solution/{kind.value}",
            lambda kind=kind, dump=dump: ilp.read_solution(kind, inst, dump, weights),
            check,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "forcefit-scale",
            f"balcon at mph=inf on default lopsided/uniform twins of {FORCEFIT_HOSTS[0]} and {FORCEFIT_HOSTS[1]} hosts: budget-exhausting force steps dominate, each scanning every host",
            forcefit_setup,
            forcefit_pass,
        ),
        Workload(
            "tiny-eval",
            "evaluate_instance (oracle, balcon, sercon-mod, sercon-orig) at mph 0 and 10 on the tiny corpus: constant per-step cost, Balanced fires",
            tiny_setup,
            tiny_pass,
        ),
        Workload(
            "freespace-large",
            f"sercon-mod and sercon-orig at mph=inf on {FREESPACE_COUNT} lopsided fill-0.6 instances of {FREESPACE_HOSTS} hosts: no force steps, attempt bookkeeping and host scans",
            freespace_setup,
            freespace_pass,
        ),
        Workload(
            "ilp-roundtrip",
            f"emit the three LP models of {ILP_COUNT} instances of {ILP_HOSTS} hosts, parse them with both parsers, read back solution dumps: string work",
            ilp_setup,
            ilp_pass,
        ),
    )
}
