"""The BalCon consolidation heuristic.

BalCon tries to release hosts one by one, cheapest migration cost first.  The
VMs of the host under release go into a stash; ForceFit drains the stash by
direct Best Fit placements when possible and by Force Steps otherwise.  A
Force Step picks a destination host according to the cluster state (Balanced
or Lopsided) and evicts some of its residents back into the stash to make
room.  A release is kept only when the resulting mapping is feasible and does
not increase the objective.
"""
from __future__ import annotations

import math
import time
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, cycle
from typing import Callable, Optional, Sequence

from .classify import DEFAULT_ALPHA, ClusterClass, Stash, fit_scan, split_class
from .model import (
    Instance,
    Mapping,
    ObjectiveWeights,
    load_key,
    migration_costs,
    objective,
)

__all__ = [
    "SolverParams",
    "RepeatsProhibitor",
    "ResourceToggle",
    "ReleaseAttempt",
    "RunReport",
    "ForceFitResult",
    "ReleaseEngine",
    "balcon",
    "force_fit",
    "best_fit",
    "choose_host_balanced",
    "choose_host_lopsided",
    "force_fit_balanced",
    "force_fit_lopsided",
    "DEFAULT_FORCE_STEP_LIMIT",
    "DEFAULT_REPEAT_LIMIT",
]

DEFAULT_FORCE_STEP_LIMIT = 4000
DEFAULT_REPEAT_LIMIT = 3
_BUDGET_EXHAUSTED = "force-step budget exhausted"
# the class names of ForceFitResult.class_counts and the trace events
_AMPLE = ClusterClass.AMPLE.value
_BALANCED = ClusterClass.BALANCED.value
_LOPSIDED = ClusterClass.LOPSIDED.value

# Why a release attempt ended (ReleaseAttempt.outcome), in the order the
# engine decides it.
SKIPPED = "skipped"
BUDGET_EXHAUSTED = "budget_exhausted"
UNPLACEABLE = "unplaceable"
OBJECTIVE_REJECTED = "objective_rejected"
ACCEPTED = "accepted"

TraceSink = Optional[Callable[[dict], None]]


@dataclass(frozen=True)
class SolverParams:
    """Run parameters: objective weights, the balanced/lopsided threshold
    alpha, the Force Step budget per release attempt, and the repeat limit
    for consecutive destination choices."""

    weights: ObjectiveWeights
    alpha: Fraction = DEFAULT_ALPHA
    force_step_limit: int = DEFAULT_FORCE_STEP_LIMIT
    repeat_limit: int = DEFAULT_REPEAT_LIMIT

    def __post_init__(self) -> None:
        if not 0 <= self.alpha <= 1:
            raise ValueError("alpha must lie in [0, 1]")
        if self.force_step_limit < 0:
            raise ValueError("force_step_limit must be non-negative")
        if self.repeat_limit < 1:
            raise ValueError("repeat_limit must be at least 1")


class RepeatsProhibitor:
    """Blocks a host from being chosen more than ``limit`` times in a row."""

    __slots__ = ("limit", "last", "count")

    def __init__(self, limit: int = DEFAULT_REPEAT_LIMIT) -> None:
        self.limit = limit
        self.last: int | None = None
        self.count = 0

    def filter(self, candidates: Sequence[int]) -> Sequence[int]:
        """``candidates`` without the blocked host; ``candidates`` itself, read-only, if none is."""
        if self.last is not None and self.count >= self.limit:
            return [h for h in candidates if h != self.last]
        return candidates

    def record(self, h: int) -> None:
        if h == self.last:
            self.count += 1
        else:
            self.last = h
            self.count = 1


class ResourceToggle:
    """The mutable resource selector used by the Lopsided heuristic."""

    __slots__ = ("r",)

    def __init__(self, r: str = "cpu") -> None:
        if r not in ("cpu", "mem"):
            raise ValueError("resource must be 'cpu' or 'mem'")
        self.r = r

    def flip(self) -> str:
        self.r = "mem" if self.r == "cpu" else "cpu"
        return self.r


@dataclass
class ForceFitResult:
    """What a placement policy did with a stash.  ``reason`` says why an
    incomplete placement stopped: one ending in "budget exhausted" makes the
    attempt's outcome ``budget_exhausted``, any other ``unplaceable``.
    ``cycle_period`` is the Force Steps per turn when a detected cycle ended
    the placement (see ``force_fit``), else None."""

    force_steps: int
    class_counts: dict[str, int]
    completed: bool
    reason: str | None = None
    cycle_period: int | None = None


@dataclass
class ReleaseAttempt:
    host: int
    accepted: bool
    released: bool
    force_steps: int
    class_counts: dict[str, int]
    objective_after: object
    migrated_after: int
    outcome: str  # one of the outcome constants above
    cycle_period: int | None = None  # ForceFitResult.cycle_period


@dataclass
class RunReport:
    algorithm: str
    mapping: Mapping
    active_hosts: int
    migrated_mem: int
    objective: object
    force_steps: int
    attempts: list[ReleaseAttempt] = field(default_factory=list)
    wall_time: float = 0.0


def _capacity_candidates(v: int, hosts: Sequence[int], inst: Instance) -> list[int]:
    # Hosts that could hold v even when empty; anything else can never work.
    vc = inst._vm_cpu[v]
    vm = inst._vm_mem[v]
    cap_c = inst._cap_cpu
    cap_m = inst._cap_mem
    return [h for h in hosts if vc <= cap_c[h] and vm <= cap_m[h]]


def best_fit(v: int, hosts: Sequence[int], mu: Mapping) -> int | None:
    """Assign v to the fitting host with the highest surrogate load (ties to
    the lower host id) and return the chosen host.

    Returns None, leaving ``mu`` untouched, when v fits none of the hosts.
    Only fitting hosts count, so ``hosts`` may be any ascending superset of
    the fitting ones: the choice is the same.  It is the choice of
    ``fit_scan``, the scan ``force_fit`` makes; ``ReleaseEngine.best_fit``
    makes it from its load-ordered room lists.
    """
    choice = fit_scan(v, hosts, mu, 0, 0)[0]
    if choice is not None:
        mu.assign(v, choice)
    return choice


def choose_host_balanced(
    v: int, hosts: Sequence[int], mu: Mapping, prohibitor: RepeatsProhibitor
) -> int | None:
    """Destination with the most residents strictly smaller than v.

    ``hosts`` are the candidates: the hosts that could hold v when empty,
    ascending (``force_fit`` keeps that list per VM demand for an attempt).
    Ties go to the higher surrogate load, then the lower host id.  Returns
    None when there is no candidate.
    """
    if not hosts:
        return None
    allowed = prohibitor.filter(hosts) or hosts
    inst = mu.inst
    sizes = inst._size_num
    target = sizes[v]
    choice = None
    best_count = best_key = -1
    for h in allowed:
        count = sum(1 for w in mu._members[h] if sizes[w] < target)
        if count < best_count:
            continue
        key = load_key(inst, h, mu._load_c[h], mu._load_m[h])
        if count > best_count or key > best_key:
            choice, best_count, best_key = h, count, key
    prohibitor.record(choice)
    return choice


def choose_host_lopsided(
    v: int,
    hosts: Sequence[int],
    mu: Mapping,
    prohibitor: RepeatsProhibitor,
    toggle: ResourceToggle,
) -> int | None:
    """Destination choice for the Lopsided state.

    When v's angle is extremal among the candidates' load angles, take the
    host with the most opposite angle and point the toggle at that host's
    larger load fraction.  Otherwise flip the toggle and take the host with
    the largest load in that resource.  Ties go to the lower host id.
    ``hosts`` and the None result are as in ``choose_host_balanced``.
    """
    if not hosts:
        return None
    inst = mu.inst
    allowed = prohibitor.filter(hosts) or hosts
    vc, vm = inst._vm_cpu[v], inst._vm_mem[v]
    load_c, load_m = mu._load_c, mu._load_m

    # One pass over the loaded candidates: extremal tests for v's angle and
    # the min/max-angle hosts (ties to the lower id via the ascending scan;
    # min_h is -1 until a loaded candidate is seen).  A host below the
    # minimum angle is below the maximum too, so it moves one of them at most.
    v_ge_all = v_le_all = True
    min_h = max_h = -1
    min_lc = min_lm = max_lc = max_lm = 0
    for h in allowed:
        lc = load_c[h]
        lm = load_m[h]
        if lc == 0 and lm == 0:
            continue
        side = vc * lm - lc * vm
        if side < 0:
            v_ge_all = False
        elif side > 0:
            v_le_all = False
        if min_h < 0:
            min_h = max_h = h
            min_lc = max_lc = lc
            min_lm = max_lm = lm
        elif lc * min_lm < min_lc * lm:
            min_h = h
            min_lc = lc
            min_lm = lm
        elif lc * max_lm > max_lc * lm:
            max_h = h
            max_lc = lc
            max_lm = lm

    if min_h >= 0 and (v_ge_all or v_le_all):
        choice, lc, lm = (min_h, min_lc, min_lm) if v_ge_all else (max_h, max_lc, max_lm)
        # the larger load fraction, lc / cap_c against lm / cap_m; ties to cpu
        toggle.r = "cpu" if lc * inst._cap_mem[choice] >= lm * inst._cap_cpu[choice] else "mem"
    else:
        toggle.flip()
        # the first of the largest loads, so ties go to the lower id
        choice = max(allowed, key=(load_c if toggle.r == "cpu" else load_m).__getitem__)
    prohibitor.record(choice)
    return choice


def _evict_place_readd(v: int, h: int, mu: Mapping, order: list[int]) -> list[int]:
    """Shared Force Step mechanics: exclude residents in ``order`` until v
    fits, place v, then re-add excluded residents in reverse order when they
    fit.  Returns the residents that stayed out.  An overloaded h, a corrupt
    mapping, raises ``RuntimeError``; one test up front covers every step,
    as excluding residents only lowers h's load."""
    inst, load_c, load_m = mu.inst, mu._load_c, mu._load_m
    cpu, mem, cc, cm = inst._vm_cpu, inst._vm_mem, inst._cap_cpu[h], inst._cap_mem[h]
    vc, vm = cpu[v], mem[v]
    if vc > cc or vm > cm:
        raise RuntimeError(f"vm {v} cannot fit host {h} even when empty")
    if load_c[h] > cc or load_m[h] > cm:
        raise RuntimeError(f"host {h} is overloaded; mapping state is corrupt")
    excluded: list[int] = []
    for w in order:
        if load_c[h] + vc <= cc and load_m[h] + vm <= cm:
            break
        mu.unassign(w)
        excluded.append(w)
    mu.assign(v, h)
    evicted: list[int] = []
    for w in reversed(excluded):
        if load_c[h] + cpu[w] <= cc and load_m[h] + mem[w] <= cm:
            mu.assign(w, h)
        else:
            evicted.append(w)
    return evicted


def force_fit_balanced(v: int, h: int, mu: Mapping) -> list[int]:
    """Eviction order: residents migrated to h first, then smaller memory,
    then lower id."""
    initial, mem = mu.inst._initial, mu.inst._vm_mem
    order = sorted(mu._members[h], key=lambda w: (initial[w] == h, mem[w], w))
    return _evict_place_readd(v, h, mu, order)


def force_fit_lopsided(v: int, h: int, mu: Mapping) -> list[int]:
    """Like the balanced eviction but preferring residents on the same
    angular side of v as the destination host."""
    initial, cpu, mem = mu.inst._initial, mu.inst._vm_cpu, mu.inst._vm_mem
    vc, vm = cpu[v], mem[v]
    # the zone is the side of v's angle (cpu / mem) where h's load lies, below
    # it or else strictly above: w is in it iff sign * (cpu[w] * vm - vc * mem[w]) > 0
    sign = -1 if mu._load_c[h] * vm < vc * mu._load_m[h] else 1
    order = sorted(
        mu._members[h],
        key=lambda w: (sign * (cpu[w] * vm - vc * mem[w]) <= 0, initial[w] == h, mem[w], w),
    )
    return _evict_place_readd(v, h, mu, order)


def _run_out_cycle(
    period: list[str],
    steps: int,
    counts: dict[str, int],
    limit: int,
    trace: TraceSink,
) -> ForceFitResult:
    """Finish an attempt whose loop state has come back to an earlier state.

    ``period`` holds the class names of the iterations from that earlier
    state up to now; as the state now equals it, the attempt would go round
    them until the budget ran out.  Whole turns are added arithmetically,
    then the last partial turn is replayed up to the classification that
    finds the budget spent, so the result equals the one the
    budget-exhausting loop returns, whichever repeat of the state ended the
    loop.  ``force_fit`` calls it at the first repeat, so the Force Steps of
    ``period`` are the cycle's length.  Every class in ``period`` has been
    counted already, so ``counts`` holds its key.
    """
    p = len(period) - period.count(_AMPLE)
    if trace is not None:
        trace({"event": "cycle", "step": steps, "period": p})
    turns = (limit - steps) // p
    for name in period:
        counts[name] += turns
    steps += turns * p
    for name in cycle(period):
        counts[name] += 1
        if name != _AMPLE:
            if steps >= limit:
                return ForceFitResult(steps, counts, False, _BUDGET_EXHAUSTED, p)
            steps += 1


def _moves_cancel(moves: list[tuple[int, int, Sequence[int]]]) -> bool:
    """Whether ``moves`` leave every VM on the host it started on.

    Each move ``(v, h, evicted)`` places the stashed v on h and evicts the
    VMs ``evicted`` from h to the stash, in that order."""
    start: dict[int, int | None] = {}
    end: dict[int, int | None] = {}
    for v, h, evicted in moves:
        start.setdefault(v, None)
        end[v] = h
        for w in evicted:
            start.setdefault(w, h)
            end[w] = None
    return start == end


def force_fit(
    stash: Stash,
    engine: ReleaseEngine,
    params: SolverParams,
) -> ForceFitResult:
    """Drain the stash of the release attempt ``engine`` has open
    (``ReleaseEngine.begin``) into the attempt's hosts, mutating ``engine.mu``,
    with the engine's trace sink (``engine.trace``) seeing every step.

    Each iteration first tries a direct Best Fit placement of the stash's
    largest VM v; the cluster is Ample exactly when one exists.  Only when v
    fits no host is Balanced told from Lopsided (``split_class``).  Direct
    placements are free; Balanced/Lopsided placements consume Force Steps up
    to the budget ``params.force_step_limit``.  On budget exhaustion, or when
    some VM fits no host even empty, the stash is left non-empty and the
    mapping stays partial, which the caller rejects.

    The budget is an upper bound on the work done.  The loop state between
    iterations is the assignment (its None entries fix the stash set, and
    heap keys are unique, so peek/pop depend on the set alone), the
    prohibitor's last host and its count capped at the limit (``filter``
    reads only count >= limit) and the toggle; the next iteration depends on
    nothing else.  From the first Force Step on, every state is recorded
    with the index of its iteration, and the classes and the moves of those
    iterations are listed.  The first time a state comes back, the attempt
    can only go round the iterations since its first visit until the budget
    runs out, so it ends at once with the report that running out the
    budget would have given (``_run_out_cycle``), with ``cycle_period`` the
    Force Steps of one turn.  Before the first Force Step only Ample
    placements happen and the stash strictly shrinks, so no state can
    repeat.

    A state is recorded without a copy of the assignment.  Its key is the
    small state and a running sum of ``hash((vm, host))`` that each move
    updates, so equal states have equal keys.  A key seen before is a
    repeat only when the moves since that visit leave every VM where it
    was (``_moves_cancel``); when they do not, another assignment holds the
    key and the search goes on under ``(key, index)``, as an equal state
    would, so every state is told apart exactly.  The record lives for one
    attempt and costs a constant per iteration since the first Force Step,
    plus the VMs each one evicted, whatever the number of VMs.  Without a
    repeat the budget bounds the iterations: each is a Force Step or places
    a VM that was stashed or evicted.

    The hosts that could hold a VM demand when empty, the candidates of a
    destination choice, depend on the attempt's hosts and the fixed
    capacities only, so each demand's list is built once per attempt.

    The attempt's hosts are built by ``engine.hosts()`` at the first Force
    Step decision, just before the first destination choice; an attempt
    that ends before it builds no host list.  Until the first Force Step the
    engine serves two scans:

    - Best Fit is ``engine.best_fit(v)``, which reads the head of v's
      load-ordered room list and the attempt's destinations instead of
      scanning the hosts;
    - when v fits none of them, ``engine.classify`` tells Balanced from
      Lopsided from its free-space angle index instead of ``classify``'s
      scan of the hosts.  It skips the Ample test, which is sound because
      Best Fit has just found no host of the attempt that fits v.

    Both rest on loads having changed only on the hosts the attempt moved
    VMs to or from.  A Force Step can lower a host's load by its evictions,
    after which a host may fit v that the room list left out, and every
    eviction adds a host the index must correct for, so from then on each
    iteration makes one ``fit_scan`` of the hosts, which finds the Best Fit
    host or, on a miss, the sums ``split_class`` decides from.
    """
    limit, alpha = params.force_step_limit, params.alpha
    steps = 0
    counts: dict[str, int] = {}
    prohibitor = RepeatsProhibitor(params.repeat_limit)
    toggle = ResourceToggle("cpu")
    balanced = ClusterClass.BALANCED
    mu, trace = engine.mu, engine.trace
    inst = mu.inst
    vm_cpu, vm_mem = inst._vm_cpu, inst._vm_mem
    hosts = None
    moved = 0  # sum of hash((vm, host)) over the moves since the first Force Step
    seen: dict[tuple, int] = {}  # state key -> index of its iteration
    classes: list[str] = []  # class names of those iterations
    moves: list[tuple[int, int, Sequence[int]]] = []  # their moves, as _moves_cancel reads them
    fitting: dict[tuple[int, int], list[int]] = {}  # demand -> candidates
    while stash:
        if steps:
            key = (moved, prohibitor.last, min(prohibitor.count, prohibitor.limit), toggle.r)
            while (i := seen.setdefault(key, len(classes))) < len(classes):
                if _moves_cancel(moves[i:]):
                    return _run_out_cycle(classes[i:], steps, counts, limit, trace)
                key = (key, i)  # another assignment holds this key: probe on
        v = stash.peek()
        if not steps:
            dest = engine.best_fit(v)
            if dest is None:
                cls = engine.classify(stash.cpu_total, stash.mem_total, alpha)
        else:
            s_cpu, s_mem = stash.cpu_total, stash.mem_total
            dest, cap_num, sum_c, sum_m = fit_scan(v, hosts, mu, s_cpu, s_mem)
            if dest is None:
                cls = split_class(cap_num, sum_c, sum_m, s_cpu, s_mem, alpha)
            else:
                mu.assign(v, dest)
        if dest is not None:
            counts[_AMPLE] = counts.get(_AMPLE, 0) + 1
            stash.pop()
            if steps:
                classes.append(_AMPLE)
                moved += hash((v, dest))
                moves.append((v, dest, ()))
            if trace is not None:
                trace({"event": "place", "class": _AMPLE, "vm": v, "host": dest})
            continue
        name = _BALANCED if cls is balanced else _LOPSIDED
        counts[name] = counts.get(name, 0) + 1
        if steps:
            classes.append(name)
        if steps >= limit:
            return ForceFitResult(steps, counts, False, _BUDGET_EXHAUSTED)
        if hosts is None:
            hosts = engine.hosts()
        demand = (vm_cpu[v], vm_mem[v])
        candidates = fitting.get(demand)
        if candidates is None:
            candidates = fitting[demand] = _capacity_candidates(v, hosts, inst)
        if cls is balanced:
            dest = choose_host_balanced(v, candidates, mu, prohibitor)
            evict = force_fit_balanced
        else:
            dest = choose_host_lopsided(v, candidates, mu, prohibitor, toggle)
            evict = force_fit_lopsided
        if dest is None:
            # no host can hold v even when empty; the attempt cannot succeed
            return ForceFitResult(steps, counts, False, f"vm {v} fits no destination")
        steps += 1
        stash.pop()
        evicted = evict(v, dest, mu)
        stash.extend(evicted)
        if steps > 1:  # the iteration began after the first Force Step
            moved += hash((v, dest))
            for w in evicted:
                moved -= hash((w, dest))
            moves.append((v, dest, evicted))
        if trace is not None:
            trace(
                {
                    "event": "force_step",
                    "class": name,
                    "vm": v,
                    "host": dest,
                    "evicted": list(evicted),
                }
            )
    return ForceFitResult(steps, counts, True, None)


class ReleaseEngine:
    """Release attempts on one mapping, each kept or undone by the objective
    test; shared by ``balcon`` and the Sercon baselines.

    ``attempt(h, place, miss)`` stashes the VMs of host h (``begin``) and
    hands them to the placement policy ``place(stashed)``, which places them
    on ``mu``; a policy that scans the attempt's hosts asks ``hosts()`` for
    them, and only when it scans them (``force_fit`` at its first Force Step
    decision), so an attempt that never scans builds no host list.  The
    result is kept when the policy completes, the mapping is feasible and
    the objective does not increase; otherwise the mapping is rolled back to
    where the attempt began.  An attempt on a non-empty host whose
    ``lower_bound`` exceeds the best objective is skipped before the mapping
    is touched.

    A policy that places the stash's largest VM first (by
    ``Instance._size_num``, ties to the lower id) and ends the attempt when
    that VM fits no host may also pass ``miss(v, stashed)``: its result in
    that case, computed without placing anything.  Before opening the
    attempt the engine then probes that VM v.  Until the first placement
    every host but h has its committed load, so v fits a host of the
    attempt iff v's room list holds a host other than h.  If it holds none,
    the attempt is recorded from ``miss`` and the mapping is not touched:
    no ``begin``, no unassign, no rollback.  ``balcon`` passes ``miss`` only
    with a zero Force Step budget; with a positive one a Force Step follows
    the miss.

    The engine keeps the active hosts in ascending order (``active``; see
    ``lower_bound`` for why dropping each released host keeps it exact) and,
    for every VM demand ``(cpu, mem)`` asked about so far, its room list
    (``rooms``): the active hosts that fit the demand in the committed
    mapping, ordered by committed surrogate load, highest first, ties to the
    lower id (``room``).  ``best_fit(v)`` serves the direct placements of an
    attempt from it until the attempt's first Force Step, in O(1 +
    destinations) rather than a scan of the list.  A commit moves each host
    the attempt moved within each built list, by binary searches at its old
    and its new load, so it costs O(moved hosts * log H) comparisons per
    built list rather than a rebuild.

    It also keeps a free-space angle index over ``active`` (``angles``: the
    committed free space sorted by fc / fm, with prefix sums), from which
    ``classify`` tells Balanced from Lopsided for a failed placement in
    O(log H + moved hosts) instead of a scan of every host; ``free_sums``
    states the decomposition and why it is exact.  ``force_fit`` asks it only
    before an attempt's first Force Step, so for ``sercon-mod``, which takes
    none, it serves every classification.

    An attempt costs what it touches, not O(|V| + |H|): ``Mapping.begin``
    opens an empty first-touch map, a rollback walks that map, and the
    judgement reads it against the running ``best_mig`` and ``active``
    (``objective`` and ``migrated_memory`` stay the reference a check
    recomputes).  ``replay`` records a host's failed attempt again without
    re-running it while nothing has been accepted since.
    """

    def __init__(self, inst: Instance, weights: ObjectiveWeights, trace: TraceSink = None) -> None:
        self.start = time.perf_counter()
        self.mu0 = inst.initial_mapping()
        self.mu = self.mu0.copy()
        self.weights = weights
        self.trace = trace
        self.best_obj = objective(self.mu, self.mu0, weights)
        self.best_mig = 0
        self.force_steps = 0
        self.attempts: list[ReleaseAttempt] = []
        # state of the lower bound: fixed demand, running capacity of the
        # active hosts and memory that left released hosts
        cap_c, cap_m, vm_mem = inst._cap_cpu, inst._cap_mem, inst._vm_mem
        self.demand_c, self.demand_m = sum(inst._vm_cpu), sum(vm_mem)
        self.init_mem = [0] * len(cap_c)
        for v, g in enumerate(inst._initial):
            self.init_mem[g] += vm_mem[v]
        self.active = active = self.mu.active_hosts()
        self.cap_active_c = sum(cap_c[g] for g in active)
        self.cap_active_m = sum(cap_m[g] for g in active)
        self.lost_mem = 0
        self.rooms: dict[tuple[int, int], list[tuple[int, int]]] = {}
        self.angles: tuple[list[int], list[int], list[int], list[int]] | None = None
        self.releasing: int | None = None  # the host of the current attempt
        self.dests: set[int] = set()  # where ``best_fit`` placed in this attempt
        # each host's last attempt, if it failed, since the last commit
        self.failed: dict[int, ReleaseAttempt] = {}

    def hosts(self) -> list[int]:
        """The hosts of the current attempt: ``active`` without the released
        host, ascending, as a fresh list.  It costs O(H), so a policy asks
        for it only when it scans the hosts."""
        hosts = self.active.copy()
        h = self.releasing
        i = bisect_left(hosts, h)
        if i < len(hosts) and hosts[i] == h:
            del hosts[i]
        return hosts

    def room(self, v: int) -> list[tuple[int, int]]:
        """The room list of VM v's demand: ``(-key, g)`` for each active host
        g that fits the demand at its committed load, with ``key`` the exact
        ``model.load_key`` of that load, ascending, so that the hosts come by
        committed surrogate load, highest first, ties to the lower id.  The
        list may hold the released host; it is the engine's own, so it must
        not be changed, and it is valid until the next commit.

        A list is built at its first query, from the loads as of ``begin()``
        (``Mapping.committed_loads``), so that it stays valid after a
        rollback; a commit moves each host it changed within the list.
        Until an attempt's first Force Step, loads change only by
        unassigning h's VMs and by direct placements, which only raise
        loads.  So a host of the attempt that fits v now fitted v's demand
        at the last commit and is listed, and every listed host that took no
        placement still has its listed load.
        """
        inst = self.mu.inst
        key = (inst._vm_cpu[v], inst._vm_mem[v])
        room = self.rooms.get(key)
        if room is None:
            c, m = key
            cap_c, cap_m = inst._cap_cpu, inst._cap_mem
            load_c, load_m = self.mu.committed_loads()
            room = self.rooms[key] = sorted(
                [
                    (-load_key(inst, g, load_c[g], load_m[g]), g)
                    for g in self.active
                    if cap_c[g] - load_c[g] >= c and cap_m[g] - load_m[g] >= m
                ]
            )
        return room

    def best_fit(self, v: int) -> int | None:
        """``best_fit(v, self.hosts(), self.mu)``, before the current
        attempt's first Force Step only, in O(1 + destinations).

        The hosts of the attempt that fit v are the listed ones (``room``).
        Those that took no placement in this attempt come in the list by
        their current load, so the best of them is the first listed entry
        whose host is neither h nor a destination, taken as it stands.  The
        destinations, the hosts this method placed on since the attempt
        began, enter by their entries at their current loads when they still
        fit v, and the smallest entry wins: the highest load, ties to the
        lower id.
        """
        mu = self.mu
        h, dests = self.releasing, self.dests
        best = None
        for entry in self.room(v):
            if entry[1] != h and entry[1] not in dests:
                best = entry
                break
        if dests:
            inst = mu.inst
            vc, vm = inst._vm_cpu[v], inst._vm_mem[v]
            cap_c, cap_m = inst._cap_cpu, inst._cap_mem
            load_c, load_m = mu._load_c, mu._load_m
            for g in dests:
                lc, lm = load_c[g], load_m[g]
                if cap_c[g] - lc >= vc and cap_m[g] - lm >= vm:
                    entry = (-load_key(inst, g, lc, lm), g)
                    if best is None or entry < best:
                        best = entry
        if best is None:
            return None
        choice = best[1]
        mu.assign(v, choice)
        dests.add(choice)
        return choice

    def classify(self, s_cpu: int, s_mem: int, alpha: Fraction) -> ClusterClass:
        """Balanced or Lopsided for a stash of total demand (s_cpu, s_mem)
        whose largest VM fits none of the current attempt's hosts; before
        the attempt's first Force Step only."""
        return split_class(*self.free_sums(s_cpu, s_mem), s_cpu, s_mem, alpha)

    def free_sums(self, s_cpu: int, s_mem: int) -> tuple[int, int, int]:
        """``(cap_num, sum_c, sum_m)`` of ``classify.split_class`` over the
        hosts of the current attempt at their current loads, for the stash
        totals s_cpu and s_mem, in O(log H + moved hosts) instead of a scan
        of H hosts.

        With S = (s_cpu, s_mem), ``cap_num = sum_g min(fc_g * s_mem, fm_g *
        s_cpu)``.  In the hosts sorted by free-space ratio fc / fm (fm = 0
        last), ``fc * s_mem < fm * s_cpu`` holds exactly on a prefix, the
        hosts whose ratio is below s_cpu / s_mem, so with PC and PM the
        prefix sums of fc and fm and k the prefix length (an inline binary
        search by integer cross-multiplication, with no call per probe)

            cap_num = s_mem * PC[k] + s_cpu * (PM[n] - PM[k]),
            sum_c = PC[n],  sum_m = PM[n].

        The index (``angles``: fc and fm in that order, PC and PM) covers
        ``active`` at the committed loads.  It is built at its first query
        from ``Mapping.committed_loads``, survives a rollback, which restores
        those loads, and is dropped by a commit that moved a VM.  The
        attempt's hosts (``hosts()``) are ``active`` without the released
        host h, and outside ``mu.moved_hosts() | {h}`` every current free
        space equals the committed one.  So the sums over the index, minus
        the committed term, fc and fm of each host of that set, plus the
        current ones of each such host but h, are exactly the sums over the
        attempt's hosts; ``moved_hosts`` gives the committed loads of that
        set.  With no attempt open, as for ``attempt``'s first-miss probe,
        no host has moved and h holds its committed load.
        """
        if self.angles is None:
            self._build_angles()
        fcs, fms, pc, pm = self.angles
        # k: the first index with fc * s_mem >= fm * s_cpu
        k, hi = 0, len(fcs)
        while k < hi:
            mid = (k + hi) // 2
            if fcs[mid] * s_mem < fms[mid] * s_cpu:
                k = mid + 1
            else:
                hi = mid
        sum_c, sum_m = pc[-1], pm[-1]
        cap_num = s_mem * pc[k] + s_cpu * (sum_m - pm[k])
        mu = self.mu
        inst = mu.inst
        cap_c, cap_m = inst._cap_cpu, inst._cap_mem
        load_c, load_m = mu._load_c, mu._load_m
        h = self.releasing
        moved = mu.moved_hosts() if mu._first is not None else {}
        moved.setdefault(h, (load_c[h], load_m[h]))
        for g, (old_c, old_m) in moved.items():
            fc, fm = cap_c[g] - old_c, cap_m[g] - old_m
            by_c, by_m = fc * s_mem, fm * s_cpu
            cap_num -= by_c if by_c < by_m else by_m
            sum_c -= fc
            sum_m -= fm
            if g != h:
                fc, fm = cap_c[g] - load_c[g], cap_m[g] - load_m[g]
                by_c, by_m = fc * s_mem, fm * s_cpu
                cap_num += by_c if by_c < by_m else by_m
                sum_c += fc
                sum_m += fm
        return cap_num, sum_c, sum_m

    def _build_angles(self) -> None:
        # the committed free space of the active hosts, sorted by fc / fm,
        # fm = 0 last: exact by ``model.load_key``'s lemma, fc * S // fm <= max cap_c * S
        inst = self.mu.inst
        cap_c, cap_m, scale = inst._cap_cpu, inst._cap_mem, inst._key_scale
        load_c, load_m = self.mu.committed_loads()
        free = [(cap_c[g] - load_c[g], cap_m[g] - load_m[g]) for g in self.active]
        last = (max(cap_c) + 1) * scale
        free.sort(key=lambda f: f[0] * scale // f[1] if f[1] else last)
        fcs = [fc for fc, _ in free]
        fms = [fm for _, fm in free]
        self.angles = (fcs, fms, [0, *accumulate(fcs)], [0, *accumulate(fms)])

    def _commit(self) -> None:
        # keep the attempt, drop the angle index and move each host whose
        # load changed within each built room list: out at its entry for the
        # load as of begin() if it fitted then, in at its new entry if it
        # fits now; a released host is empty and drops out
        mu = self.mu
        moved = mu.moved_hosts() if self.rooms or self.angles else ()
        mu.commit()
        if not moved:
            return
        self.angles = None
        inst = mu.inst
        cap_c, cap_m = inst._cap_cpu, inst._cap_mem
        load_c, load_m, members = mu._load_c, mu._load_m, mu._members
        # per moved host: free space and entry as of begin(), then now
        changes = [
            (
                cap_c[g] - old_c,
                cap_m[g] - old_m,
                (-load_key(inst, g, old_c, old_m), g),
                cap_c[g] - load_c[g],
                cap_m[g] - load_m[g],
                (-load_key(inst, g, load_c[g], load_m[g]), g) if members[g] else None,
            )
            for g, (old_c, old_m) in moved.items()
        ]
        for (c, m), room in self.rooms.items():
            for old_fc, old_fm, old, fc, fm, new in changes:
                if old_fc >= c and old_fm >= m:
                    del room[bisect_left(room, old)]
                if new is not None and fc >= c and fm >= m:
                    insort(room, new)

    def lower_bound(self, h: int) -> object:
        """A lower bound on the objective of any mapping that releasing the
        non-empty host h can accept: ``inf`` when the capacities of the
        active hosts A less h, where the attempt places VMs, cannot cover
        the total demand D in either resource (``cap_active - cap[h] <
        D``), else w_a * (|A| - 1) + w_m * (lost_mem + init_mem[h]).

        - Sound by the engine's invariant.  Placements go only to active
          hosts and a Force Step leaves its destination non-empty, so an
          accepted release of h leaves exactly |A| - 1 active hosts (as
          ``_judge`` counts them), none becomes active, and every VM whose
          initial host is h or a released host has migrated (``lost_mem``
          sums the initial memory ``init_mem`` of the released hosts).  An
          attempt is accepted iff its objective is at most the best one, so
          one whose bound is above it is skipped.  With w_a = mph and w_m =
          1 the skip reads: the memory still to migrate, ``init_mem[h] -
          (best_mig - lost_mem)``, exceeds mph.
        - At least the run-fixed L1 of Caprara and Toth (2001), max(ceil(D_c
          / max cap_c), ceil(D_m / max cap_m)) hosts: when the capacity test
          passes, (|A| - 1) * max cap >= D in each resource.
        - Exact with a zero Force Step budget: only VMs of released hosts
          have moved, so ``best_mig`` is ``lost_mem``, and a completed
          attempt moves only h's VMs, none back to a released host.  So the
          objective test then rejects nothing the bound lets through.

        ``attempt`` keeps this state on an accepted release: it drops h
        from ``active``, subtracts h's capacities and adds ``init_mem[h]``.
        """
        inst = self.mu.inst
        if (
            self.cap_active_c - inst._cap_cpu[h] < self.demand_c
            or self.cap_active_m - inst._cap_mem[h] < self.demand_m
        ):
            return math.inf
        w = self.weights
        return w.w_a * (len(self.active) - 1) + w.w_m * (self.lost_mem + self.init_mem[h])

    def begin(self, h: int) -> tuple[int, ...]:
        """Open a release attempt of host h: unassign h's VMs and return
        them, ascending, as the stash.  ``attempt`` closes it by commit or
        rollback; a caller outside ``attempt``, by ``mu.rollback()``."""
        self.releasing = h
        self.mu.begin()
        self.dests.clear()
        stashed = self.mu.vms_on(h)
        for v in stashed:
            self.mu.unassign(v)
        return stashed

    def attempt(
        self,
        h: int,
        place: Callable[[tuple[int, ...]], ForceFitResult],
        miss: Callable[[int, tuple[int, ...]], ForceFitResult] | None = None,
    ) -> ReleaseAttempt:
        mu, trace = self.mu, self.trace
        steps, counts, released, cycle_period = 0, {}, False, None
        if mu._members[h] and self.lower_bound(h) > self.best_obj:
            outcome = SKIPPED
        else:
            self.releasing = h  # for the first-miss probe, which opens nothing
            stashed = mu.vms_on(h)
            if trace is not None:
                trace({"event": "release_attempt", "host": h, "stash": list(stashed)})
            first = self._first_miss(stashed) if miss is not None and stashed else None
            if first is not None:
                result = miss(first, stashed)
            else:
                result = place(self.begin(h))
            steps, counts = result.force_steps, result.class_counts
            cycle_period = result.cycle_period
            self.force_steps += steps
            outcome = self._judge(result, emptied=bool(stashed))
            if outcome == ACCEPTED:
                self._commit()
                self.failed.clear()
                released = bool(stashed)
                if released:
                    self.active.remove(h)
                    inst = mu.inst
                    self.cap_active_c -= inst._cap_cpu[h]
                    self.cap_active_m -= inst._cap_mem[h]
                    self.lost_mem += self.init_mem[h]
            elif first is None:
                mu.rollback()
        accepted = outcome == ACCEPTED
        attempt = ReleaseAttempt(
            host=h,
            accepted=accepted,
            released=released,
            force_steps=steps,
            class_counts=counts,
            objective_after=self.best_obj,
            migrated_after=self.best_mig,
            outcome=outcome,
            cycle_period=cycle_period,
        )
        self.attempts.append(attempt)
        if not accepted:
            self.failed[h] = attempt
        if trace is not None:
            trace({"event": "release_result", "host": h, "accepted": accepted, "outcome": outcome})
        return attempt

    def _first_miss(self, stashed: tuple[int, ...]) -> int | None:
        # the largest VM of h's stash if it fits no host of the attempt,
        # else None; h's VMs are still on h and no other host has moved
        v = max(stashed, key=self.mu.inst._size_num.__getitem__)
        h = self.releasing
        for _, g in self.room(v):
            if g != h:
                return None
        return v

    def replay(self, h: int) -> ReleaseAttempt | None:
        """Record again, as a fresh copy, host h's last attempt if it failed
        and no attempt was accepted since; else None, recording nothing.

        Such an attempt would read the same committed mapping and engine
        state as before, so a caller whose placement policy depends on
        nothing else may take the copy in place of re-running the attempt:
        it is the record the re-run would give.  A replay emits no trace
        events.
        """
        last = self.failed.get(h)
        if last is None:
            return None
        attempt = ReleaseAttempt(
            last.host,
            last.accepted,
            last.released,
            last.force_steps,
            dict(last.class_counts),
            last.objective_after,
            last.migrated_after,
            last.outcome,
            last.cycle_period,
        )
        self.force_steps += attempt.force_steps
        self.attempts.append(attempt)
        return attempt

    def _judge(self, result: ForceFitResult, emptied: bool) -> str:
        # The outcome of a placement; an accepted one becomes the best.  It
        # costs what the attempt touched: the committed mapping is total and
        # feasible, so the candidate is total iff every touched VM has a host
        # and feasible iff every host that gained a VM is within capacity;
        # migrated memory changes only by the touched VMs; and the active
        # hosts are ``active`` less h when the attempt emptied h, the
        # invariant argued in ``lower_bound``.
        if not result.completed:
            return BUDGET_EXHAUSTED if result.reason.endswith("budget exhausted") else UNPLACEABLE
        mu, weights = self.mu, self.weights
        inst = mu.inst
        cap_c, cap_m, initial, vm_mem = inst._cap_cpu, inst._cap_mem, inst._initial, inst._vm_mem
        host_of, load_c, load_m = mu._host_of, mu._load_c, mu._load_m
        cand_mig = self.best_mig
        for v, old in mu.touched().items():
            new = host_of[v]
            if new == old:
                continue
            if new is None or load_c[new] > cap_c[new] or load_m[new] > cap_m[new]:
                return UNPLACEABLE
            g = initial[v]
            cand_mig += vm_mem[v] * ((new != g) - (old != g))
        # the same expression as ``objective``, so the same number type
        cand_obj = weights.w_a * (len(self.active) - emptied)
        if weights.w_m != 0:
            cand_obj = cand_obj + weights.w_m * cand_mig
        if cand_obj > self.best_obj:
            return OBJECTIVE_REJECTED
        if weights.w_m > 0:
            # accepted steps never spend more than mph new memory
            assert (cand_mig - self.best_mig) * weights.w_m <= weights.w_a, (
                "accepted release exceeded the per-host migration budget"
            )
        self.best_obj = cand_obj
        self.best_mig = cand_mig
        return ACCEPTED

    def report(self, algorithm: str) -> tuple[Mapping, RunReport]:
        mu = self.mu
        return mu, RunReport(
            algorithm=algorithm,
            mapping=mu,
            active_hosts=mu.active_count(),
            migrated_mem=self.best_mig,
            objective=self.best_obj,
            force_steps=self.force_steps,
            attempts=self.attempts,
            wall_time=time.perf_counter() - self.start,
        )


def balcon(
    inst: Instance,
    params: SolverParams,
    trace: TraceSink = None,
    algorithm: str = "balcon",
) -> tuple[Mapping, RunReport]:
    """Run the consolidation heuristic and return the best mapping found.

    Hosts are attempted once each, in ascending order of their initial
    migration cost, ties to the lower id; ForceFit places each attempt's
    stash and builds the attempt's host list only if it takes a Force Step
    decision.  The worst case returns the initial mapping unchanged.
    """
    engine = ReleaseEngine(inst, params.weights, trace)
    costs = migration_costs(engine.mu0, engine.mu0)

    def place(stashed: tuple[int, ...]) -> ForceFitResult:
        return force_fit(Stash(inst, stashed), engine, params)

    def miss(v: int, stashed: tuple[int, ...]) -> ForceFitResult:
        # force_fit's result on a zero budget when the stash's largest VM
        # fits no host: one classification of a stash of h's whole load
        cls = engine.classify(*engine.mu.load_parts(engine.releasing), params.alpha)
        return ForceFitResult(0, {cls.value: 1}, False, _BUDGET_EXHAUSTED)

    # a stable sort of the ascending ids breaks cost ties to the lower id
    for h in sorted(range(len(inst.hosts)), key=costs.__getitem__):
        engine.attempt(h, place, None if params.force_step_limit else miss)
    return engine.report(algorithm)
