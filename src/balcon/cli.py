"""Command-line entry point.

Subcommands: solve, generate, oracle, export-ilp, solve-lp, eval, sweep.
Results go to files or stdout, diagnostics to stderr; exit status 0 on
success, 1 on usage errors, 2 on rejected input (malformed or infeasible
instances, oracle size refusals, unreadable or malformed LP files).
``solve-lp`` also exits 3 when HiGHS finds no optimum (infeasible or
unbounded) and 4 when scipy with MILP support is missing.

Memory is counted in abstract units with 1 unit = 1 MiB, so ``--mph``
accepts raw units or a binary suffix: 1TiB = 2**20 units.  ``--mph inf``
selects pure bin-packing mode.
"""
from __future__ import annotations

import argparse
import json
import math
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from pathlib import Path

from .datagen import GenConfig, GenerationError, generate_instance
from .evaluate import (
    ALGORITHMS,
    evaluate_instance,
    mean_gap,
    mph_sweep,
    performance_profile,
    write_gaps_csv,
    write_profile_csv,
    write_sweep_csv,
)
from .ilp import ModelKind, emit_model, lp_suffix, parse_lp, read_solution, solve
from .model import (
    ObjectiveWeights,
    ResourceVec,
    instance_with_mapping,
    load_instance,
    save_instance,
)
from .classify import DEFAULT_ALPHA
from .oracle import OracleLimits, brute_force_optimal
from .sercon import sercon_modified, sercon_original
from .solver import (
    DEFAULT_FORCE_STEP_LIMIT,
    DEFAULT_REPEAT_LIMIT,
    SolverParams,
    balcon,
)

__all__ = ["main", "entry_point", "parse_mph"]

_MPH_UNITS = {
    "KiB": Fraction(1, 1024),
    "MiB": Fraction(1),
    "GiB": Fraction(1024),
    "TiB": Fraction(1 << 20),
}


def parse_mph(text: str) -> Fraction | float:
    t = text.strip()
    if t.lower() in ("inf", "infinity"):
        return math.inf
    match = re.fullmatch(r"(\d+(?:\.\d+)?)(KiB|MiB|GiB|TiB)?", t)
    if match is None:
        raise ValueError(f"bad mph value {text!r}: expected units, a KiB/MiB/GiB/TiB suffix, or 'inf'")
    value = Fraction(match.group(1))
    if match.group(2):
        value *= _MPH_UNITS[match.group(2)]
    return value


def _mph_flag(text: str) -> Fraction | float:
    # argparse shows an ArgumentTypeError's own message; any other error
    # becomes "invalid <function name> value"
    try:
        return parse_mph(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _rational_flag(text: str) -> str:
    # the text as given, once it parses, so that a range error can quote it
    try:
        Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad rational value {text!r}") from exc
    return text


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1; rejected inputs exit 2 elsewhere
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_solver_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mph", type=_mph_flag, default=math.inf,
                        help="migration budget per released host (units, KiB/MiB/GiB/TiB suffix, or 'inf')")
    parser.add_argument("--alpha", type=_rational_flag, default=str(DEFAULT_ALPHA),
                        help="balanced/lopsided threshold (default 0.95)")
    parser.add_argument("--force-steps", type=int, default=DEFAULT_FORCE_STEP_LIMIT,
                        help=f"force-step budget per release attempt (default {DEFAULT_FORCE_STEP_LIMIT})")
    parser.add_argument("--gamma", type=int, default=DEFAULT_REPEAT_LIMIT,
                        help=f"max consecutive choices of one destination host (default {DEFAULT_REPEAT_LIMIT})")


def _at_least(flag: str, value: int, low: int) -> int:
    # a range error that names the flag, not the field it sets
    if value < low:
        raise ValueError(f"{flag} must be at least {low}, got {value}")
    return value


def _solver_params(args) -> SolverParams:
    alpha = Fraction(args.alpha)
    if not 0 <= alpha <= 1:
        raise ValueError(f"--alpha must lie in [0, 1], got {args.alpha}")
    return SolverParams(
        weights=ObjectiveWeights.from_mph(args.mph),
        alpha=alpha,
        force_step_limit=_at_least("--force-steps", args.force_steps, 0),
        repeat_limit=_at_least("--gamma", args.gamma, 1),
    )


def _emit_instance(inst, path: str | None) -> None:
    if path:
        save_instance(inst, path)
    else:
        from .model import instance_to_dict

        json.dump(instance_to_dict(inst), sys.stdout, indent=1)
        sys.stdout.write("\n")


def _report_dict(report) -> dict:
    def num(x):
        if x == math.inf:
            return "inf"
        if isinstance(x, Fraction):
            return str(x) if x.denominator != 1 else int(x)
        return x

    return {
        "algorithm": report.algorithm,
        "active_hosts": report.active_hosts,
        "migrated_mem": report.migrated_mem,
        "objective": num(report.objective),
        "force_steps": report.force_steps,
        "wall_time": report.wall_time,
        "attempts": [
            {
                "host": a.host,
                "accepted": a.accepted,
                "released": a.released,
                "force_steps": a.force_steps,
                "class_counts": a.class_counts,
                "outcome": a.outcome,
            }
            for a in report.attempts
        ],
    }


def cmd_solve(args) -> int:
    inst = load_instance(args.instance)
    params = _solver_params(args)
    trace = None
    if args.verbose:
        trace = lambda event: print(json.dumps(event), file=sys.stderr)
    if args.algo == "balcon":
        mapping, report = balcon(inst, params, trace=trace)
    elif args.algo == "sercon-mod":
        mapping, report = sercon_modified(inst, params)
    else:
        budget = args.max_migrations
        if budget is not None:
            _at_least("--max-migrations", budget, 0)
        mapping, report = sercon_original(inst, params, max_total_migrations=budget)
    _emit_instance(instance_with_mapping(inst, mapping), args.output)
    if args.report:
        Path(args.report).write_text(json.dumps(_report_dict(report), indent=1) + "\n")
    summary = _report_dict(report)
    summary.pop("attempts")
    print(json.dumps(summary), file=sys.stderr)
    return 0


def cmd_generate(args) -> int:
    if not 0 < args.fill <= 1:
        raise ValueError(f"--fill must lie in (0, 1], got {args.fill}")
    cfg = GenConfig(
        seed=args.seed,
        num_hosts=_at_least("--hosts", args.hosts, 1),
        host_capacity=ResourceVec(_at_least("--cpu", args.cpu, 1), _at_least("--mem", args.mem, 2)),
        num_flavors=_at_least("--flavors", args.flavors, 1),
        target_fill=args.fill,
        mode=args.mode,
    )
    inst = generate_instance(cfg)
    _emit_instance(inst, args.output)
    print(
        json.dumps({"hosts": len(inst.hosts), "vms": len(inst.vms), "flavors": len(inst.flavors)}),
        file=sys.stderr,
    )
    return 0


def cmd_oracle(args) -> int:
    inst = load_instance(args.instance)
    limits = OracleLimits(
        _at_least("--max-vms", args.max_vms, 1),
        _at_least("--max-hosts", args.max_hosts, 1),
        _at_least("--node-budget", args.node_budget, 1),
    )
    result = brute_force_optimal(inst, ObjectiveWeights.from_mph(args.mph), limits)
    _emit_instance(instance_with_mapping(inst, result.mapping), args.output)
    obj = result.objective
    print(
        json.dumps(
            {
                "objective": str(obj) if isinstance(obj, Fraction) and obj.denominator != 1 else int(obj),
                "active_hosts": result.mapping.active_count(),
                "explored": result.explored,
            }
        ),
        file=sys.stderr,
    )
    return 0


_MODEL_CHOICES = {
    "alloc": [ModelKind.ALLOCATION],
    "flow": [ModelKind.FLAVOR_FLOW],
    "flowlb": [ModelKind.RELAXED_FLAVOR_FLOW],
    "all": list(ModelKind),
}


def cmd_export_ilp(args) -> int:
    inst = load_instance(args.instance)
    weights = ObjectiveWeights.from_mph(args.mph)
    stem = Path(args.instance).stem
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for kind in _MODEL_CHOICES[args.model]:
        path = out_dir / f"{stem}{lp_suffix(kind)}"
        with open(path, "w") as fh:
            counts = emit_model(kind, inst, weights, fh)
        print(
            json.dumps(
                {
                    "model": kind.value,
                    "file": str(path),
                    "variables": counts.variables,
                    "constraints": counts.constraints,
                }
            ),
            file=sys.stderr,
        )
    return 0


def cmd_solve_lp(args) -> int:
    with open(args.model) as fh:
        model = parse_lp(fh.read())
    try:
        names, result = solve(model)
    except ImportError:
        print("error: scipy with MILP support is required", file=sys.stderr)
        return 4
    if not result.success:
        print(f"error: solver failed: {result.message}", file=sys.stderr)
        return 3
    objective = -result.fun if model.maximize else result.fun
    lines = [f"# objective {objective:.12g}"]
    for name, value in zip(names, result.x.tolist()):
        lines.append(f"{name} {0.0 if abs(value) < 1e-11 else value:.12g}")
    text = "\n".join(lines) + "\n"
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _algo_list(text: str) -> list[str]:
    names = [a.strip() for a in text.split(",") if a.strip()]
    for name in names:
        if name not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {name!r}; choose from {sorted(ALGORITHMS)}")
    return names


def _run_all(worker, payloads: list, jobs: int) -> list:
    """``worker`` over ``payloads`` in order, on at most ``jobs`` processes;
    a pool never has more workers than payloads."""
    workers = min(_at_least("--jobs", jobs, 1), len(payloads))
    if workers <= 1:
        return [worker(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, payloads))


def _eval_worker(payload):
    path, algorithms, params, lb_text = payload
    inst = load_instance(path)
    lb_obj = None
    if lb_text is not None:
        lb_obj = read_solution(
            ModelKind.RELAXED_FLAVOR_FLOW, inst, lb_text, params.weights
        ).objective
    return evaluate_instance(Path(path).stem, inst, algorithms, params, lb_objective=lb_obj)


def cmd_eval(args) -> int:
    params = _solver_params(args)
    payloads = []
    for path in args.instances:
        lb_text = None
        if args.lb_dir:
            lb_path = Path(args.lb_dir) / f"{Path(path).stem}.flowlb.sol"
            if lb_path.exists():
                lb_text = lb_path.read_text()
        payloads.append((path, args.algos, params, lb_text))
    per_instance = _run_all(_eval_worker, payloads, args.jobs)
    records = [r for batch in per_instance for r in batch]
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_gaps_csv(records, out_dir / "gaps.csv")
    thresholds = [Fraction(i, 20) for i in range(21)]
    write_profile_csv(performance_profile(records, thresholds), out_dir / "profile.csv")
    mg = mean_gap(records, non_trivial_only=not args.include_trivial)
    print(
        json.dumps(
            {
                "instances": len(args.instances),
                "records": len(records),
                "mean_gap": None if mg is None else float(mg),
            }
        ),
        file=sys.stderr,
    )
    return 0


def _sweep_worker(payload):
    inst, algorithms, mph, params = payload
    return mph_sweep(inst, algorithms, [mph], base_params=params)


def cmd_sweep(args) -> int:
    inst = load_instance(args.instance)
    params = _solver_params(args)
    grid = [parse_mph(v) for v in args.grid.split(",") if v.strip()]
    if not grid:
        raise ValueError(f"--grid: expected at least one mph value, got {args.grid!r}")
    payloads = [(inst, args.algos, mph, params) for mph in grid]
    batches = _run_all(_sweep_worker, payloads, args.jobs)
    points = [p for batch in batches for p in batch]
    write_sweep_csv(points, args.output)
    print(json.dumps({"points": len(points), "file": args.output}), file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="balcon", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", parents=[], help="run a consolidation heuristic")
    p.add_argument("instance")
    p.add_argument("--algo", choices=sorted(ALGORITHMS), default="balcon")
    _add_solver_flags(p)
    p.add_argument("--max-migrations", type=int, default=None,
                   help="total migration budget; --algo sercon-orig only")
    p.add_argument("-o", "--output", default=None, help="result mapping JSON (default stdout)")
    p.add_argument("--report", default=None, help="write the full run report JSON here")
    p.add_argument("-v", "--verbose", action="store_true", help="per-step trace on stderr")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("generate", help="generate a synthetic instance")
    p.add_argument("--mode", choices=("lopsided", "uniform"), default="lopsided")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--hosts", type=int, required=True)
    p.add_argument("--cpu", type=int, default=16, help="host cpu capacity (default 16)")
    p.add_argument("--mem", type=int, default=32, help="host mem capacity in units (default 32)")
    p.add_argument("--flavors", type=int, default=30)
    p.add_argument("--fill", type=float, default=0.9)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("oracle", help="exact optimum for a tiny instance")
    p.add_argument("instance")
    p.add_argument("--mph", type=_mph_flag, default=math.inf)
    p.add_argument("--max-vms", type=int, default=OracleLimits.max_vms)
    p.add_argument("--max-hosts", type=int, default=OracleLimits.max_hosts)
    p.add_argument("--node-budget", type=int, default=OracleLimits.node_budget)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("export-ilp", help="emit LP-format integer programs")
    p.add_argument("instance")
    p.add_argument("--model", choices=sorted(_MODEL_CHOICES), default="all")
    p.add_argument("--mph", type=_mph_flag, default=math.inf)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_export_ilp)

    p = sub.add_parser("solve-lp", help="solve an LP file with HiGHS and dump the variables")
    p.add_argument("model", help="LP-format model file")
    p.add_argument("-o", "--output", default=None, help="solution dump (default stdout)")
    p.set_defaults(func=cmd_solve_lp)

    p = sub.add_parser("eval", help="gap records and performance profile over instances")
    p.add_argument("instances", nargs="+")
    p.add_argument("--algos", type=_algo_list, default=list(ALGORITHMS))
    _add_solver_flags(p)
    p.add_argument("--lb-dir", default=None,
                   help="directory with <instance>.flowlb.sol lower-bound dumps")
    p.add_argument("--out-dir", default=".")
    p.add_argument("--include-trivial", action="store_true",
                   help="include no-improvement instances in the mean gap")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="sweep the migration budget on one instance")
    p.add_argument("instance")
    p.add_argument("--grid", required=True, help="comma-separated mph values, e.g. 0,4,1GiB,inf")
    p.add_argument("--algos", type=_algo_list, default=["balcon", "sercon-mod"])
    _add_solver_flags(p)
    p.add_argument("-o", "--output", default="sweep.csv")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "max_migrations", None) is not None and args.algo != "sercon-orig":
            parser.error(f"--max-migrations applies only to --algo sercon-orig, not {args.algo}")
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 1
    # malformed or infeasible instances, oversized oracle runs, bad solution
    # dumps and malformed LP files raise ValueError subclasses
    try:
        return args.func(args)
    except (ValueError, GenerationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
