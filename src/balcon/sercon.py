"""Sercon-style baselines: free-space-only consolidation without Force Steps.

``sercon_modified`` is exactly the main heuristic with a zero Force Step
budget: one pass over the hosts, each VM of a released host placed by Best
Fit into existing free space, acceptance by the same objective test.

``sercon_original`` reconstructs the older multi-pass scheme: it sweeps the
active hosts repeatedly until a pass releases nothing (or a pass budget of
|H| passes is hit), commits a release only when every VM of the host found a
placement, and additionally honors a total migration budget.  A host whose
last attempt failed with no release accepted since is not re-run: the
engine records that attempt again (``ReleaseEngine.replay``).  Both baselines
run on the release-attempt engine of the main heuristic, both place VMs by
the engine's Best Fit (``ReleaseEngine.best_fit``), and both let the engine
decide an attempt whose largest VM fits nowhere without opening it.  The
exact rule set of the historical heuristic is not published in a reusable
form, so this variant is an approximation and is kept out of the fidelity
gates.
"""
from __future__ import annotations

from dataclasses import replace

from .model import Instance, Mapping, migration_costs
from .solver import ForceFitResult, ReleaseEngine, RunReport, SolverParams, balcon

__all__ = ["sercon_modified", "sercon_original"]


def sercon_modified(inst: Instance, params: SolverParams) -> tuple[Mapping, RunReport]:
    """The main heuristic with the Force Step budget forced to zero."""
    return balcon(inst, replace(params, force_step_limit=0), algorithm="sercon-mod")


def sercon_original(
    inst: Instance,
    params: SolverParams,
    *,
    max_total_migrations: int | None = None,
) -> tuple[Mapping, RunReport]:
    """The multi-pass baseline; ``max_total_migrations`` caps the VMs moved
    over all accepted releases (None: unlimited)."""
    if max_total_migrations is not None and max_total_migrations < 0:
        raise ValueError("max_total_migrations must be non-negative")
    engine = ReleaseEngine(inst, params.weights)
    mu, mu0 = engine.mu, engine.mu0
    size = inst._size_num
    migrations_used = 0

    def over_budget(stashed: tuple[int, ...]) -> bool:
        return max_total_migrations is not None and (
            migrations_used + len(stashed) > max_total_migrations
        )

    def place(stashed: tuple[int, ...]) -> ForceFitResult:
        # all or nothing, largest VM first; the attempt ends at the first VM
        # that fits nowhere
        if over_budget(stashed):
            return ForceFitResult(0, {}, False, "migration budget exhausted")
        for v in sorted(stashed, key=lambda x: (-size[x], x)):
            if engine.best_fit(v) is None:
                return ForceFitResult(0, {}, False, f"vm {v} fits no host")
        return ForceFitResult(0, {}, True)

    def miss(v: int, stashed: tuple[int, ...]) -> ForceFitResult:
        # place's result when its first VM v fits no host, without placing
        if over_budget(stashed):
            return ForceFitResult(0, {}, False, "migration budget exhausted")
        return ForceFitResult(0, {}, False, f"vm {v} fits no host")

    for _ in range(len(inst.hosts)):
        released_any = False
        # ascending cost; a stable sort of the ascending ``active`` breaks
        # ties to the lower id
        order = sorted(engine.active, key=migration_costs(mu, mu0).__getitem__)
        for h in order:
            moving = len(mu.members(h))
            # a host that failed with nothing accepted since fails alike
            # (``place`` reads only the engine and the budget used)
            if (engine.replay(h) or engine.attempt(h, place, miss)).accepted:
                released_any = True
                migrations_used += moving
        if not released_any:
            break
    return engine.report("sercon-orig")
