"""Exact optimum for tiny instances by pruned exhaustive search.

The search enumerates per-VM host choices depth first in VM id order with
capacity pruning and a bound on the partial objective (current migrated
memory plus the volume lower bound on active hosts).  Among equally good
mappings it returns the lexicographically smallest assignment vector, which
makes results reproducible and comparable across runs.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .model import Instance, Mapping, ObjectiveWeights

__all__ = [
    "OracleLimits",
    "OracleSizeError",
    "OracleResult",
    "brute_force_optimal",
    "min_active_hosts_bound",
]


@dataclass(frozen=True)
class OracleLimits:
    max_vms: int = 10
    max_hosts: int = 4
    node_budget: int = 10_000_000

    def __post_init__(self) -> None:
        for name in ("max_vms", "max_hosts", "node_budget"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")


class OracleSizeError(ValueError):
    """The instance exceeds the oracle's enumeration limits."""


@dataclass
class OracleResult:
    mapping: Mapping
    objective: int | Fraction
    explored: int


def min_active_hosts_bound(inst: Instance) -> int:
    """Smallest k such that the k largest hosts per resource cover the total
    demand in that resource; a valid lower bound on active hosts for any
    total feasible mapping."""
    if not inst.vms:
        return 0
    bound = 0
    for totals, caps in (
        (sum(inst._vm_cpu), sorted(inst._cap_cpu, reverse=True)),
        (sum(inst._vm_mem), sorted(inst._cap_mem, reverse=True)),
    ):
        covered = 0
        k = 0
        while covered < totals:
            if k >= len(caps):
                raise ValueError("total demand exceeds total capacity; no feasible mapping exists")
            covered += caps[k]
            k += 1
        bound = max(bound, k)
    return bound


def brute_force_optimal(
    inst: Instance,
    weights: ObjectiveWeights,
    limits: OracleLimits = OracleLimits(),
) -> OracleResult:
    """The feasible total mapping minimizing the objective, exactly.

    Refuses instances beyond the configured limits rather than running an
    unbounded enumeration.
    """
    n_vms = len(inst.vms)
    n_hosts = len(inst.hosts)
    if n_vms > limits.max_vms:
        raise OracleSizeError(f"instance has {n_vms} VMs, oracle limit is {limits.max_vms}")
    if n_hosts > limits.max_hosts:
        raise OracleSizeError(f"instance has {n_hosts} hosts, oracle limit is {limits.max_hosts}")
    if n_hosts**n_vms > limits.node_budget:
        raise OracleSizeError(
            f"search space {n_hosts}^{n_vms} exceeds the node budget {limits.node_budget}"
        )

    w_a = weights.w_a
    w_m = weights.w_m
    vm_c, vm_m = inst._vm_cpu, inst._vm_mem
    cap_c, cap_m = inst._cap_cpu, inst._cap_mem
    home = inst._initial
    floor_active = min_active_hosts_bound(inst)

    load_c = [0] * n_hosts
    load_m = [0] * n_hosts
    occupants = [0] * n_hosts
    assign = [0] * n_vms
    best_obj: list = [None]
    best_assign: list = [None]
    explored = [0]

    def recurse(i: int, active: int, migrated: int) -> None:
        bound = w_a * max(active, floor_active) + w_m * migrated
        if best_obj[0] is not None and bound >= best_obj[0]:
            return
        if i == n_vms:
            obj = w_a * active + w_m * migrated
            if best_obj[0] is None or obj < best_obj[0]:
                best_obj[0] = obj
                best_assign[0] = assign.copy()
            return
        c, m = vm_c[i], vm_m[i]
        for h in range(n_hosts):
            if load_c[h] + c > cap_c[h] or load_m[h] + m > cap_m[h]:
                continue
            explored[0] += 1
            newly_active = 1 if occupants[h] == 0 else 0
            extra_mig = 0 if h == home[i] else m
            load_c[h] += c
            load_m[h] += m
            occupants[h] += 1
            assign[i] = h
            recurse(i + 1, active + newly_active, migrated + extra_mig)
            load_c[h] -= c
            load_m[h] -= m
            occupants[h] -= 1
    recurse(0, 0, 0)
    if best_assign[0] is None:
        raise RuntimeError("no feasible mapping found, but the initial mapping is feasible")
    return OracleResult(
        mapping=Mapping(inst, best_assign[0]),
        objective=best_obj[0],
        explored=explored[0],
    )
