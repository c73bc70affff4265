"""Evaluation harness: gap metric, performance profiles, MPH sweeps, CSVs.

The gap normalizes an algorithm's objective between a reference optimum (or
lower bound) and the do-nothing objective: 0 means optimal, 1 means no
improvement over the initial mapping.  References come from the exact oracle
when the instance is small enough, from an ingested externally solved lower
bound otherwise, and fall back to a distinctly labeled "initial" record when
neither is available.

CSV schemas (header rows included):
  gaps.csv    instance,algorithm,ref_kind,alg_objective,ref_objective,
              init_objective,gap,non_trivial
  profile.csv threshold,fraction
  sweep.csv   mph,algorithm,active_hosts,migrated_mem,force_steps,objective,
              gap,ref_kind
"""
from __future__ import annotations

import csv
import math
from dataclasses import astuple, dataclass, fields, replace
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .model import Instance, Mapping, ObjectiveWeights, objective
from .oracle import OracleSizeError, brute_force_optimal
from .sercon import sercon_modified, sercon_original
from .solver import RunReport, SolverParams, balcon

__all__ = [
    "ALGORITHMS",
    "GapRecord",
    "SweepPoint",
    "gap",
    "performance_profile",
    "mean_gap",
    "resolve_reference",
    "evaluate_instance",
    "mph_sweep",
    "write_gaps_csv",
    "write_profile_csv",
    "write_sweep_csv",
]

ALGORITHMS: dict[str, Callable[[Instance, SolverParams], tuple[Mapping, RunReport]]] = {
    "balcon": balcon,
    "sercon-mod": sercon_modified,
    "sercon-orig": sercon_original,
}


@dataclass(frozen=True)
class GapRecord:
    instance_id: str
    algorithm: str
    ref_kind: str  # "oracle" | "lb" | "initial"
    alg_objective: object
    ref_objective: object | None
    init_objective: object
    gap: Fraction | None
    non_trivial: bool


@dataclass(frozen=True)
class SweepPoint:
    mph: object
    algorithm: str
    active_hosts: int
    migrated_mem: int
    force_steps: int
    objective: object
    gap: Fraction | None
    ref_kind: str


def gap(alg_obj, ref_obj, init_obj) -> Fraction | None:
    """(alg - ref) / (init - ref); None when the instance allows no
    improvement (init == ref)."""
    if alg_obj < ref_obj:
        raise ValueError(
            f"algorithm objective {alg_obj} is below the reference {ref_obj}; "
            "the reference is not a valid optimum or lower bound"
        )
    if init_obj < ref_obj:
        raise ValueError("initial objective is below the reference")
    if init_obj == ref_obj:
        return None
    return (Fraction(alg_obj) - Fraction(ref_obj)) / (Fraction(init_obj) - Fraction(ref_obj))


def performance_profile(
    records: Sequence[GapRecord] | Sequence[Fraction],
    thresholds: Sequence[Fraction | float],
) -> list[tuple[Fraction, Fraction]]:
    """Fraction of records with gap <= t for each threshold t; skips records
    whose gap is undefined.  Empty input yields an empty series."""
    gaps = [r.gap if isinstance(r, GapRecord) else r for r in records]
    gaps = [g for g in gaps if g is not None]
    if not gaps:
        return []
    series = []
    for t in thresholds:
        t = Fraction(t)
        covered = sum(1 for g in gaps if g <= t)
        series.append((t, Fraction(covered, len(gaps))))
    return series


def mean_gap(records: Iterable[GapRecord], non_trivial_only: bool = True) -> Fraction | None:
    gaps = [
        r.gap
        for r in records
        if r.gap is not None and (r.non_trivial or not non_trivial_only)
    ]
    if not gaps:
        return None
    return sum(gaps, Fraction(0)) / len(gaps)


def resolve_reference(
    inst: Instance,
    weights: ObjectiveWeights,
    lb_objective: object | None = None,
) -> tuple[str, object | None]:
    """Pick the best available reference: oracle, then an external LB, then
    nothing (records labeled "initial")."""
    try:
        return "oracle", brute_force_optimal(inst, weights).objective
    except OracleSizeError:
        return ("initial", None) if lb_objective is None else ("lb", lb_objective)


def _scored(inst: Instance, algorithms: Sequence[str], params: SolverParams, lb_objective: object | None):
    """Yield the reference once, as ``(ref_kind, ref_objective, init_objective,
    initial_active_hosts)``, then ``(name, report, gap)`` for each algorithm
    in the given order, looked up in ``ALGORITHMS`` when it runs."""
    mu0 = inst.initial_mapping()
    init_obj = objective(mu0, mu0, params.weights)
    ref_kind, ref_obj = resolve_reference(inst, params.weights, lb_objective)
    yield ref_kind, ref_obj, init_obj, mu0.active_count()
    for name in algorithms:
        _, report = ALGORITHMS[name](inst, params)
        yield name, report, None if ref_obj is None else gap(report.objective, ref_obj, init_obj)


def evaluate_instance(
    instance_id: str,
    inst: Instance,
    algorithms: Sequence[str],
    params: SolverParams,
    lb_objective: object | None = None,
) -> list[GapRecord]:
    runs = _scored(inst, algorithms, params, lb_objective)
    ref_kind, ref_obj, init_obj, init_active = next(runs)
    return [
        GapRecord(instance_id, name, ref_kind, r.objective, ref_obj, init_obj, g, r.active_hosts < init_active)
        for name, r, g in runs
    ]


def mph_sweep(
    inst: Instance,
    algorithms: Sequence[str],
    mph_grid: Sequence[object],
    base_params: SolverParams,
) -> list[SweepPoint]:
    """One run per (mph, algorithm) on the same instance under ``base_params``
    with that mph's weights, each against the reference at that mph."""
    points: list[SweepPoint] = []
    for mph in mph_grid:
        runs = _scored(inst, algorithms, replace(base_params, weights=ObjectiveWeights.from_mph(mph)), None)
        ref_kind = next(runs)[0]
        points += (
            SweepPoint(mph, name, r.active_hosts, r.migrated_mem, r.force_steps, r.objective, g, ref_kind)
            for name, r, g in runs
        )
    return points


def _cell(value) -> str:
    if value is None:
        return ""
    if value == math.inf:
        return "inf"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return repr(float(value))
    return str(value)


def _write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    # rows hold their values in header order; ``_cell`` writes ints and
    # strings as csv itself would
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(header)
        out.writerows([_cell(value) for value in row] for row in rows)


def write_gaps_csv(records: Iterable[GapRecord], path: str | Path) -> None:
    # the record's fields, with instance_id headed "instance"
    header = ["instance", *(f.name for f in fields(GapRecord)[1:])]
    _write_csv(path, header, map(astuple, records))


def write_profile_csv(series: Iterable[tuple[Fraction, Fraction]], path: str | Path) -> None:
    _write_csv(path, ["threshold", "fraction"], series)


def write_sweep_csv(points: Iterable[SweepPoint], path: str | Path) -> None:
    _write_csv(path, [f.name for f in fields(SweepPoint)], map(astuple, points))
