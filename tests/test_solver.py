import math
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from balcon import (
    Flavor,
    GenConfig,
    Host,
    Instance,
    Mapping,
    ObjectiveWeights,
    RepeatsProhibitor,
    ResourceToggle,
    ResourceVec,
    SolverParams,
    Stash,
    VM,
    balcon,
    best_fit,
    choose_host_balanced,
    choose_host_lopsided,
    force_fit,
    force_fit_balanced,
    force_fit_lopsided,
    generate_instance,
    host_migration_cost,
    migrated_memory,
    objective,
    surrogate_load,
)
import balcon.solver as solver
from balcon.sercon import sercon_modified, sercon_original
from balcon.classify import (
    ClusterClass,
    capacity,
    classify,
    fit_scan,
    potential_capacity,
    split_class,
)
from balcon.model import load_key
from balcon.solver import ForceFitResult, ReleaseAttempt, ReleaseEngine, _capacity_candidates

from conftest import A, B, GREEN, RED, YELLOW, random_instance, tiny_instances
from test_golden_reports import BASELINE_GROUPS, BASELINES, GROUPS as GOLDEN_GROUPS

INF_PARAMS = SolverParams(weights=ObjectiveWeights.from_mph(math.inf))


def params_for(mph) -> SolverParams:
    return SolverParams(weights=ObjectiveWeights.from_mph(mph))


# (lopsided, balanced) class counts of the fig2 red-host attempt for the
# budgets 0..64, recorded from the loop that ran every force step out
FIG2_RED_COUNTS = [
    (1, 0), (2, 0), (2, 1), (3, 1), (3, 2), (4, 2), (4, 3), (5, 3), (5, 4), (6, 4),
    (6, 5), (7, 5), (7, 6), (8, 6), (8, 7), (9, 7), (9, 8), (10, 8), (10, 9), (11, 9),
    (11, 10), (12, 10), (12, 11), (13, 11), (13, 12), (14, 12), (14, 13), (15, 13),
    (15, 14), (16, 14), (16, 15), (17, 15), (17, 16), (18, 16), (18, 17), (19, 17),
    (19, 18), (20, 18), (20, 19), (21, 19), (21, 20), (22, 20), (22, 21), (23, 21),
    (23, 22), (24, 22), (24, 23), (25, 23), (25, 24), (26, 24), (26, 25), (27, 25),
    (27, 26), (28, 26), (28, 27), (29, 27), (29, 28), (30, 28), (30, 29), (31, 29),
    (31, 30), (32, 30), (32, 31), (33, 31), (33, 32),
]


class TestRepeatsProhibitor:
    def test_fresh_passes_everything(self):
        p = RepeatsProhibitor(3)
        assert p.filter([0, 1, 2]) == [0, 1, 2]

    def test_blocks_after_limit(self):
        p = RepeatsProhibitor(3)
        for _ in range(3):
            p.record(7)
        assert p.filter([5, 7, 9]) == [5, 9]

    def test_reset_on_other_choice(self):
        p = RepeatsProhibitor(3)
        p.record(1)
        p.record(1)
        p.record(2)
        p.record(1)
        assert p.count == 1
        assert p.filter([1, 2]) == [1, 2]


class TestBestFit:
    def test_single_fitting_host(self, fig2):
        mu = fig2.initial_mapping()
        mu.unassign(B)
        assert best_fit(B, [0, 1, 2], mu) == 2

    def test_prefers_higher_surrogate_load(self, fig2):
        mu = Mapping(fig2, [None, 1, None, None, None])
        # red fits everywhere; host1 has the only non-zero surrogate load
        assert best_fit(RED, [0, 1, 2], mu) == 1

    def test_tie_breaks_to_lower_id(self, fig2):
        mu = Mapping(fig2, [None, None, None, None, None])
        assert best_fit(RED, [0, 1, 2], mu) == 0

    def test_returns_none_when_nothing_fits(self, fig2):
        mu = fig2.initial_mapping()
        mu.unassign(RED)
        before = mu.copy()
        assert best_fit(RED, [1, 2], mu) is None
        assert mu == before
        assert [mu.load_parts(h) for h in range(3)] == [before.load_parts(h) for h in range(3)]
        assert mu.caches_consistent()


def _random_partial(seed: int):
    """A random instance with a random share of its VMs stashed: the
    mapping, the stash and a random ascending subset of the hosts."""
    rng = random.Random(seed)
    inst = random_instance(rng, max_hosts=6, max_vms=12)
    mu = inst.initial_mapping()
    stashed = [v for v in range(len(inst.vms)) if rng.random() < 0.5] or [0]
    for v in stashed:
        mu.unassign(v)
    hosts = sorted(rng.sample(range(len(inst.hosts)), rng.randint(0, len(inst.hosts))))
    return rng, inst, mu, Stash(inst, stashed), hosts


class TestOneScan:
    """``fit_scan``, and ``best_fit`` and ``classify`` through it, against
    the definitions: Best Fit is the argmax of the exact ``surrogate_load``
    over the fitting hosts, ties to the lower id; the class of a miss is
    Lopsided iff cap < 1 or cap < alpha * pcap (``classify.capacity``,
    ``classify.potential_capacity``)."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32), st.booleans(), st.integers(0, 20))
    def test_matches_the_definitions(self, seed, miss, alpha_20ths):
        rng, inst, mu, stash, hosts = _random_partial(seed)
        v = stash.peek()
        if miss:  # keep only the hosts v does not fit, so misses are common
            hosts = [h for h in range(len(inst.hosts)) if not mu.fits(v, h)]
        alpha = Fraction(alpha_20ths, 20)
        s_cpu, s_mem = stash.cpu_total, stash.mem_total
        before = mu.copy()
        choice, cap_num, sum_c, sum_m = fit_scan(v, hosts, mu, s_cpu, s_mem)
        assert mu == before
        fitting = [h for h in hosts if mu.fits(v, h)]
        if fitting:
            top = max(surrogate_load(h, mu) for h in fitting)
            assert choice == min(h for h in fitting if surrogate_load(h, mu) == top)
            assert classify(stash, hosts, mu, v, alpha) is ClusterClass.AMPLE
            assert best_fit(v, hosts, mu) == choice
            assert mu.host_of(v) == choice
        else:
            assert choice is None
            cap = capacity((s_cpu, s_mem), hosts, mu)
            pcap = potential_capacity((s_cpu, s_mem), hosts, mu)
            want = ClusterClass.LOPSIDED if cap < 1 or cap < alpha * pcap else ClusterClass.BALANCED
            assert split_class(cap_num, sum_c, sum_m, s_cpu, s_mem, alpha) is want
            assert classify(stash, hosts, mu, v, alpha) is want
            assert best_fit(v, hosts, mu) is None
            assert mu == before
            assert [mu.load_parts(h) for h in range(len(inst.hosts))] == [
                before.load_parts(h) for h in range(len(inst.hosts))
            ]
        assert mu.caches_consistent()


class TestChooseHostBalanced:
    def test_most_smaller_vms_wins(self, fig2):
        # red's size is 69/132; host1 holds one smaller vm (a, 35/132) while
        # host2 holds two (b 56/132, yellow 34/132)
        mu = fig2.initial_mapping()
        mu.unassign(RED)
        p = RepeatsProhibitor(3)
        assert choose_host_balanced(RED, [1, 2], mu, p) == 2
        assert (p.last, p.count) == (2, 1)

    def test_prohibited_host_skipped(self, fig2):
        mu = fig2.initial_mapping()
        mu.unassign(RED)
        p = RepeatsProhibitor(3)
        for _ in range(3):
            p.record(1)
        assert choose_host_balanced(RED, [1, 2], mu, p) == 2

    def test_all_prohibited_falls_back(self, fig2):
        mu = fig2.initial_mapping()
        mu.unassign(RED)
        p = RepeatsProhibitor(1)
        p.record(1)
        # only host 1 is a candidate: fallback ignores the prohibitor
        assert choose_host_balanced(RED, [1], mu, p) == 1

    def test_none_when_nothing_can_ever_hold(self):
        hosts = [Host(0, ResourceVec(2, 2)), Host(1, ResourceVec(9, 9))]
        flavors = [Flavor(0, ResourceVec(1, 1)), Flavor(1, ResourceVec(4, 4))]
        inst = Instance(hosts, flavors, [VM(0, 0), VM(1, 1)], [0, 1])
        mu = inst.initial_mapping()
        mu.unassign(1)
        p = RepeatsProhibitor(3)
        candidates = _capacity_candidates(1, [0], inst)
        assert candidates == []
        assert choose_host_balanced(1, candidates, mu, p) is None


class TestChooseHostLopsided:
    def build(self, loads, caps=None, vm_demand=(3, 3)):
        caps = caps or [(10, 10)] * len(loads)
        hosts = [Host(i, ResourceVec(*caps[i])) for i in range(len(loads))]
        hosts.append(Host(len(loads), ResourceVec(10, 10)))
        flavors = [Flavor(i, ResourceVec(*d)) for i, d in enumerate(loads)]
        flavors.append(Flavor(len(loads), ResourceVec(*vm_demand)))
        vms = [VM(i, i) for i in range(len(loads) + 1)]
        inst = Instance(hosts, flavors, vms, list(range(len(loads) + 1)))
        mu = inst.initial_mapping()
        v = len(loads)
        mu.unassign(v)
        return inst, mu, v

    def test_extremal_high_angle_goes_opposite(self):
        # v (6,1) has the max angle; host loads (1,6) and (3,3)
        inst, mu, v = self.build([(1, 6), (3, 3)], vm_demand=(6, 1))
        p, toggle = RepeatsProhibitor(3), ResourceToggle("cpu")
        assert choose_host_lopsided(v, [0, 1], mu, p, toggle) == 0
        assert toggle.r == "mem"  # host 0 load fraction mem 6/10 > cpu 1/10

    def test_extremal_low_angle_goes_opposite(self):
        inst, mu, v = self.build([(1, 6), (6, 1)], vm_demand=(1, 6))
        p, toggle = RepeatsProhibitor(3), ResourceToggle("cpu")
        assert choose_host_lopsided(v, [0, 1], mu, p, toggle) == 1
        assert toggle.r == "cpu"

    def test_intermediate_flips_toggle_and_takes_largest_load(self):
        inst, mu, v = self.build([(1, 6), (6, 1), (2, 5)], vm_demand=(3, 3))
        p, toggle = RepeatsProhibitor(3), ResourceToggle("cpu")
        assert choose_host_lopsided(v, [0, 1, 2], mu, p, toggle) == 0  # mem loads 6,1,5
        assert toggle.r == "mem"
        toggle2 = ResourceToggle("mem")
        p2 = RepeatsProhibitor(3)
        assert choose_host_lopsided(v, [0, 1, 2], mu, p2, toggle2) == 1  # cpu loads 1,6,2
        assert toggle2.r == "cpu"

    def test_single_candidate(self):
        inst, mu, v = self.build([(1, 6)], vm_demand=(6, 1))
        p, toggle = RepeatsProhibitor(3), ResourceToggle("cpu")
        assert choose_host_lopsided(v, [0], mu, p, toggle) == 0

    def test_equal_angles_use_weak_extremal_rule(self):
        # all hosts share v's angle: the >= max branch fires, min angle host
        inst, mu, v = self.build([(2, 2), (4, 4)], vm_demand=(3, 3))
        p, toggle = RepeatsProhibitor(3), ResourceToggle("cpu")
        # equal angles tie-break to the lower id
        assert choose_host_lopsided(v, [0, 1], mu, p, toggle) == 0

    def test_engine_candidates_are_loaded(self, monkeypatch):
        """The function requires candidates that hold a VM; every call
        ``force_fit`` makes on the Force Step runs below meets that."""
        calls = []
        real = solver.choose_host_lopsided

        def checked(v, hosts, mu, prohibitor, toggle):
            calls.append(all(mu._members[h] for h in hosts))
            return real(v, hosts, mu, prohibitor, toggle)

        monkeypatch.setattr(solver, "choose_host_lopsided", checked)
        for _, inst, weights in [*GOLDEN_GROUPS["twins-12-hosts"](), *BASELINE_GROUPS["lopsided-20-hosts"]()]:
            balcon(inst, SolverParams(weights=weights))
        assert calls and all(calls)


class TestForceFitBalanced:
    def test_no_eviction_needed(self, fig2):
        mu = fig2.initial_mapping()
        mu.unassign(YELLOW)
        evicted = force_fit_balanced(YELLOW, 0, mu)
        assert evicted == []
        assert mu.host_of(YELLOW) == 0

    def test_fig2_red_into_host1(self, fig2):
        # order by memory: a (2) before green (4); both must leave for red's
        # memory, then a fits back -> green evicted
        mu = fig2.initial_mapping()
        mu.unassign(RED)
        evicted = force_fit_balanced(RED, 1, mu)
        assert evicted == [GREEN]
        assert mu.host_of(RED) == 1
        assert mu.host_of(A) == 1
        assert mu.load_parts(1) == (4, 5)

    def test_migrated_residents_leave_first(self, fig2):
        # host1 holds red (migrated in) and a (original): red is excluded first
        mu = Mapping(fig2, [1, 1, None, None, 2])
        evicted = force_fit_balanced(B, 1, mu)
        assert mu.host_of(B) == 1
        assert mu.host_of(A) == 1
        assert evicted == [RED]

    def test_rejects_host_too_small_even_when_empty(self):
        hosts = [Host(0, ResourceVec(2, 2)), Host(1, ResourceVec(9, 9))]
        flavors = [Flavor(0, ResourceVec(4, 4)), Flavor(1, ResourceVec(1, 1))]
        inst = Instance(hosts, flavors, [VM(0, 0), VM(1, 1)], [1, 0])
        mu = inst.initial_mapping()
        mu.unassign(0)
        with pytest.raises(RuntimeError):
            force_fit_balanced(0, 0, mu)


class TestForceFitLopsided:
    def test_same_side_residents_evicted_first(self, fig2):
        # host2 load (6,2) has a higher angle than green (2,4): residents with
        # angles above green's are preferred; b and yellow both qualify and
        # memory ties, so the lower id (b) leaves first
        mu = fig2.initial_mapping()
        mu.unassign(GREEN)
        evicted = force_fit_lopsided(GREEN, 2, mu)
        assert evicted == [B]
        assert mu.host_of(GREEN) == 2
        assert mu.host_of(YELLOW) == 2

    def test_zone_preference_beats_memory_order(self):
        # destination angle below v's: residents with angles below v's leave
        # first even though the out-of-zone resident has smaller memory
        hosts = [Host(0, ResourceVec(10, 10)), Host(1, ResourceVec(10, 10))]
        flavors = [
            Flavor(0, ResourceVec(1, 6)),  # low angle, heavy memory
            Flavor(1, ResourceVec(2, 1)),  # high angle, light memory
            Flavor(2, ResourceVec(4, 4)),
        ]
        vms = [VM(0, 0), VM(1, 1), VM(2, 2)]
        inst = Instance(hosts, flavors, vms, [0, 0, 1])
        mu = inst.initial_mapping()
        mu.unassign(2)
        # host0 load (3,7): angle below v's 1, so the zone is angle < 1
        evicted = force_fit_lopsided(2, 0, mu)
        assert mu.host_of(2) == 0
        assert mu.host_of(1) == 0
        assert evicted == [0]


def _reference_evict(v: int, h: int, mu: Mapping, lopsided: bool) -> list[int]:
    """The Force Step mechanics from their documented orders, tested through
    ``Mapping.fits``.  Balanced: residents migrated to h first, then smaller
    memory, then lower id.  Lopsided: first the residents on the side of v's
    angle (cpu / mem) where h's load lies, below it or else strictly above
    it, then as Balanced.  Exclude in that order until v fits, place v, then
    re-add the excluded ones in reverse order when they fit."""
    inst = mu.inst
    lc, lm = mu.load_parts(h)
    angle = Fraction(inst._vm_cpu[v], inst._vm_mem[v])
    below = lm > 0 and Fraction(lc, lm) < angle

    def key(w):
        wa = Fraction(inst._vm_cpu[w], inst._vm_mem[w])
        in_zone = (wa < angle if below else wa > angle) if lopsided else True
        return (not in_zone, inst.initial_host(w) == h, inst._vm_mem[w], w)

    excluded = []
    for w in sorted(mu.members(h), key=key):
        if mu.fits(v, h):
            break
        mu.unassign(w)
        excluded.append(w)
    mu.assign(v, h)
    evicted = []
    for w in reversed(excluded):
        if mu.fits(w, h):
            mu.assign(w, h)
        else:
            evicted.append(w)
    return evicted


class TestEvictions:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32), st.booleans())
    def test_matches_the_documented_orders(self, seed, lopsided):
        # a chain of Force Steps on random partial mappings, each checked
        rng, inst, mu, stash, _ = _random_partial(seed)
        evict = force_fit_lopsided if lopsided else force_fit_balanced
        ref_mu = mu.copy()
        for _ in range(6):
            if not stash:
                break
            v = stash.pop()
            dests = _capacity_candidates(v, range(len(inst.hosts)), inst)
            if not dests:
                break
            h = rng.choice(dests)
            evicted = evict(v, h, mu)
            assert evicted == _reference_evict(v, h, ref_mu, lopsided)
            assert mu.assignment == ref_mu.assignment
            assert mu.caches_consistent()
            assert all(min(mu.free_parts(g)) >= 0 for g in range(len(inst.hosts)))
            stash.extend(evicted)

    @pytest.mark.parametrize("evict", [force_fit_balanced, force_fit_lopsided])
    def test_overloaded_destination_raises(self, evict):
        hosts = [Host(0, ResourceVec(4, 4)), Host(1, ResourceVec(4, 4))]
        flavors = [Flavor(0, ResourceVec(3, 3)), Flavor(1, ResourceVec(1, 1))]
        inst = Instance(hosts, flavors, [VM(0, 0), VM(1, 0), VM(2, 1)], [0, 1, 0])
        mu = Mapping(inst, [0, 0, None])  # host 0 holds (6, 6) of (4, 4)
        with pytest.raises(RuntimeError, match="host 0 is overloaded"):
            evict(2, 0, mu)


def _release(inst: Instance, h: int, params: SolverParams = INF_PARAMS, trace=None):
    """ForceFit on the release of host h from the initial mapping, opened
    by ``ReleaseEngine.begin`` outside ``attempt`` (so without its
    lower-bound skip and first-miss probe) and left open; returns the result
    and the mapping."""
    engine = ReleaseEngine(inst, params.weights, trace)
    result = force_fit(Stash(inst, engine.begin(h)), engine, params)
    return result, engine.mu


def _fig2_without_b() -> Instance:
    # fig2 without b and with a fourth host, empty: host 2 holds yellow
    # alone, which fits host 0 only
    demands = [(3, 3), (1, 2), (2, 4), (2, 1)]  # red, a, green, yellow
    return Instance(
        [Host(i, ResourceVec(6, 6)) for i in range(4)],
        [Flavor(i, ResourceVec(c, m)) for i, (c, m) in enumerate(demands)],
        [VM(i, i) for i in range(4)],
        [0, 1, 1, 2],
    )


class TestForceFit:
    def test_empty_stash_no_op(self):
        inst = _fig2_without_b()
        before = inst.initial_mapping().assignment
        result, mu = _release(inst, 3)
        assert result.completed and result.force_steps == 0
        assert mu.assignment == before

    def test_single_fitting_vm_is_ample_only(self):
        result, _ = _release(_fig2_without_b(), 2)
        assert result.completed
        assert result.force_steps == 0
        assert result.class_counts == {"ample": 1}

    def test_fig2_release_of_cheapest_host_succeeds_in_one_step(self, fig2):
        # releasing host2 (migration cost 2): b needs one lopsided step into
        # host1 evicting a; a and yellow then best-fit into host0
        result, mu = _release(fig2, 2)
        assert result.completed
        assert result.force_steps == 1
        assert mu.assignment == (0, 0, 1, 1, 0)
        assert mu.is_feasible()

    def test_fig2_release_of_red_host_cycles_out_the_budget(self, fig2):
        # the red VM cannot be settled with these tie-breaks: the walk cycles
        # and the force-step budget ends the attempt
        result, mu = _release(fig2, 0)
        assert not result.completed
        assert result.force_steps == INF_PARAMS.force_step_limit
        assert not mu.is_total()

    def test_fig2_red_host_counts_are_exact_for_every_budget(self, fig2):
        for limit, (lopsided, balanced) in enumerate(FIG2_RED_COUNTS):
            result, _ = _release(fig2, 0, replace(INF_PARAMS, force_step_limit=limit))
            expected = {"lopsided": lopsided, "balanced": balanced} if balanced else {"lopsided": lopsided}
            assert (result.force_steps, result.class_counts) == (limit, expected), limit
            assert result.reason == "force-step budget exhausted"

    def test_fig2_red_host_cycle_extrapolates_to_a_huge_budget(self, fig2):
        result, _ = _release(fig2, 0, replace(INF_PARAMS, force_step_limit=10**9))
        assert not result.completed
        assert result.force_steps == 10**9
        assert result.class_counts == {"lopsided": 500000001, "balanced": 500000000}

    def test_single_destination_cycle_is_found_past_the_repeat_limit(self):
        # Host 0 is the only destination: the prohibitor's fallback keeps
        # choosing it, so its repeat count climbs without bound while the
        # mapping swaps the two VMs back and forth.  Counts recorded from the
        # loop that ran every force step out, plus 10**9 steps.
        hosts = [Host(0, ResourceVec(4, 4)), Host(1, ResourceVec(4, 4))]
        inst = Instance(hosts, [Flavor(0, ResourceVec(3, 3))], [VM(0, 0), VM(1, 0)], [0, 1])
        for limit in (*range(8), 10, 100, 1000, 10**9):
            result, _ = _release(inst, 1, replace(INF_PARAMS, force_step_limit=limit))
            assert not result.completed
            assert result.force_steps == limit
            assert result.class_counts == {"lopsided": limit + 1}

    def test_toggle_is_part_of_the_cycle_state(self):
        # Releasing host 2 comes back to an earlier mapping and prohibitor
        # state with the resource toggle pointing the other way; treating
        # that as a cycle would give 1998 ample placements.  Counts recorded
        # from the loop that ran every force step out.  No three hosts hold
        # the total demand, so balcon skips these releases; _release runs
        # them here on the initial mapping.
        caps = [(7, 10), (6, 9), (6, 8), (6, 9)]
        demands = [(1, 4), (3, 1), (1, 1), (2, 4)]
        inst = Instance(
            [Host(i, ResourceVec(c, m)) for i, (c, m) in enumerate(caps)],
            [Flavor(i, ResourceVec(c, m)) for i, (c, m) in enumerate(demands)],
            [VM(i, f) for i, f in enumerate([1, 2, 1, 2, 2, 0, 0, 1, 3, 2, 2, 1, 3])],
            [0, 2, 0, 3, 1, 2, 0, 2, 3, 2, 1, 1, 3],
        )
        got = []
        for h in (1, 0, 2, 3):
            result, _ = _release(inst, h)
            got.append((h, result.force_steps, result.class_counts))
        assert got == [
            (1, 4000, {"lopsided": 4001}),
            (0, 4000, {"ample": 1333, "lopsided": 4001}),
            (2, 4000, {"ample": 1091, "lopsided": 4001}),
            (3, 4000, {"lopsided": 4001}),
        ]
        _, report = balcon(inst, INF_PARAMS)
        assert [(a.host, a.outcome, a.force_steps) for a in report.attempts] == [
            (h, "skipped", 0) for h in (1, 0, 2, 3)
        ]

    def test_budget_zero_blocks_force_steps_not_placements(self, fig2):
        params = replace(INF_PARAMS, force_step_limit=0)
        result, _ = _release(_fig2_without_b(), 2, params)
        assert result.completed and result.force_steps == 0

        result2, _ = _release(fig2, 0, params)
        assert not result2.completed and result2.force_steps == 0

    def test_unplaceable_vm_aborts_immediately(self):
        hosts = [Host(0, ResourceVec(2, 2)), Host(1, ResourceVec(9, 9))]
        flavors = [Flavor(0, ResourceVec(4, 4)), Flavor(1, ResourceVec(1, 1))]
        inst = Instance(hosts, flavors, [VM(0, 0), VM(1, 1)], [1, 0])
        result, _ = _release(inst, 1)
        assert not result.completed
        assert result.force_steps == 0
        assert "fits no destination" in result.reason


class TestBalcon:
    def test_fig2_reaches_oracle_optimum(self, fig2):
        mu, report = balcon(fig2, INF_PARAMS)
        assert report.active_hosts == 2
        assert report.migrated_mem == 4
        assert mu.is_feasible()
        assert mu.assignment == (0, 0, 1, 1, 0)

    def test_fig2_release_threshold_is_four_units(self, fig2):
        # the accepted release moves 4 memory units, so the objective
        # arithmetic accepts exactly when the budget covers them
        for mph in (0, 1, 3, Fraction(7, 2)):
            _, report = balcon(fig2, params_for(mph))
            assert report.active_hosts == 3
            assert report.migrated_mem == 0
        for mph in (4, 5, 8, 10**6, math.inf):
            _, report = balcon(fig2, params_for(mph))
            assert report.active_hosts == 2
            assert report.migrated_mem == 4

    def test_mph_zero_returns_initial(self, fig2):
        mu, report = balcon(fig2, params_for(0))
        assert mu.assignment == fig2.initial_mapping().assignment
        assert report.migrated_mem == 0

    def test_single_active_host_stays(self):
        hosts = [Host(0, ResourceVec(4, 4))]
        flavors = [Flavor(0, ResourceVec(1, 1))]
        inst = Instance(hosts, flavors, [VM(0, 0), VM(1, 0)], [0, 0])
        mu, report = balcon(inst, INF_PARAMS)
        assert mu.assignment == (0, 0)
        assert report.active_hosts == 1

    def test_hosts_attempted_in_migration_cost_order(self, fig2):
        _, report = balcon(fig2, INF_PARAMS)
        assert [a.host for a in report.attempts] == [2, 0, 1]

    def test_acceptance_monotone(self, fig2):
        for mph in (0, 2, 4, 9, math.inf):
            _, report = balcon(fig2, params_for(mph))
            values = [a.objective_after for a in report.attempts]
            assert all(values[i + 1] <= values[i] for i in range(len(values) - 1))

    def test_determinism(self, fig2):
        mu1, rep1 = balcon(fig2, INF_PARAMS)
        mu2, rep2 = balcon(fig2, INF_PARAMS)
        assert mu1.assignment == mu2.assignment
        assert rep1.force_steps == rep2.force_steps
        assert [a.class_counts for a in rep1.attempts] == [a.class_counts for a in rep2.attempts]

    def test_trace_sink_receives_events(self, fig2):
        events = []
        _, report = balcon(fig2, params_for(4), trace=events.append)
        kinds = {e["event"] for e in events}
        assert "release_attempt" in kinds and "release_result" in kinds
        assert all("outcome" in e for e in events if e["event"] == "release_result")
        # At mph 0 every release of a non-empty host migrates memory, so
        # balcon skips all three with one event each.
        events = []
        _, report = balcon(fig2, params_for(0), trace=events.append)
        assert events == [
            {"event": "release_result", "host": h, "accepted": False, "outcome": "skipped"}
            for h in (2, 0, 1)
        ]
        assert report.force_steps == 0
        # Run anyway, the release of host 0 revisits a state after 8 force
        # steps; one cycle event stands in for the 3992 steps it no longer
        # runs.
        events = []
        steps = 0
        for h in (2, 0, 1):
            steps += _release(fig2, h, params_for(0), events.append)[0].force_steps
        assert [e for e in events if e["event"] == "cycle"] == [
            {"event": "cycle", "step": 8, "period": 4}
        ]
        assert steps == 1 + 4000 + 5
        assert sum(e["event"] == "force_step" for e in events) == 1 + 8 + 5

    def test_outcomes(self):
        # Host 0's 1 memory unit is within the budget (mph 1), so its
        # release runs; its VM fits only after a Force Step evicts VM 1 (4
        # units) to host 2, and 5 units migrated are rejected by the
        # objective.  Hosts 1 and 2 hold 4 units each, more than mph: skipped.
        inst = Instance(
            [Host(i, ResourceVec(10, 10)) for i in range(3)],
            [Flavor(0, ResourceVec(6, 1)), Flavor(1, ResourceVec(5, 4))],
            [VM(0, 0), VM(1, 1), VM(2, 1)],
            [0, 1, 2],
        )
        _, report = balcon(inst, params_for(1))
        assert [(a.host, a.outcome, a.force_steps) for a in report.attempts] == [
            (0, "objective_rejected", 1), (1, "skipped", 0), (2, "skipped", 0)
        ]

    def test_report_metrics_consistent(self, fig2):
        mu0 = fig2.initial_mapping()
        for mph in (0, 4, math.inf):
            params = params_for(mph)
            mu, report = balcon(fig2, params)
            assert report.active_hosts == mu.active_count()
            assert report.migrated_mem == migrated_memory(mu, mu0)
            assert report.objective == objective(mu, mu0, params.weights)
            assert report.mapping.assignment == mu.assignment

    def test_random_instances_feasible_and_never_worse(self):
        rng = random.Random(42)
        for _ in range(60):
            inst = random_instance(rng)
            mu0 = inst.initial_mapping()
            for mph in (0, 5, math.inf):
                params = params_for(mph)
                mu, report = balcon(inst, params)
                assert mu.is_feasible()
                assert objective(mu, mu0, params.weights) <= objective(mu0, mu0, params.weights)

    def test_b_zero_equals_sercon_modified(self):
        rng = random.Random(9)
        for _ in range(40):
            inst = random_instance(rng)
            params = replace(INF_PARAMS, force_step_limit=0)
            mu_a, _ = balcon(inst, params)
            mu_b, _ = sercon_modified(inst, INF_PARAMS)
            assert mu_a.assignment == mu_b.assignment


def _reference_force_fit(stash: Stash, hosts, mu: Mapping, params: SolverParams):
    """``force_fit`` without cycle detection, built from the public steps:
    every Force Step runs until the stash is empty, the budget is spent or
    a VM fits no host.  It watches the loop state (the assignment, the
    prohibitor's last host and its count capped at the limit, the toggle)
    and notes its first repeat without stopping there.

    Returns the result, whose ``cycle_period`` is the Force Steps between
    the two visits of the repeated state; the Force Steps taken at that
    repeat, or None; and the assignment at the repeat, or at the end when
    no state repeated.
    """
    limit = params.force_step_limit
    steps, counts = 0, {}
    prohibitor, toggle = RepeatsProhibitor(params.repeat_limit), ResourceToggle("cpu")
    visited = {}  # state -> Force Steps taken at its first visit
    repeat = period = at_repeat = None

    def end(reason: str | None = None):
        result = ForceFitResult(steps, counts, reason=reason, cycle_period=period)
        return result, repeat, mu.assignment if at_repeat is None else at_repeat

    while stash:
        if steps and repeat is None:
            state = (mu.assignment, prohibitor.last, min(prohibitor.count, prohibitor.limit), toggle.r)
            if state in visited:
                repeat, period, at_repeat = steps, steps - visited[state], mu.assignment
            else:
                visited[state] = steps
        v = stash.peek()
        if best_fit(v, hosts, mu) is not None:
            counts["ample"] = counts.get("ample", 0) + 1
            stash.pop()
            continue
        cls = classify(stash, hosts, mu, v, params.alpha)
        counts[cls.value] = counts.get(cls.value, 0) + 1
        if steps >= limit:
            return end("force-step budget exhausted")
        candidates = _capacity_candidates(v, hosts, mu.inst)
        if cls is ClusterClass.BALANCED:
            dest = choose_host_balanced(v, candidates, mu, prohibitor)
        else:
            dest = choose_host_lopsided(v, candidates, mu, prohibitor, toggle)
        if dest is None:
            return end(f"vm {v} fits no destination")
        steps += 1
        stash.pop()
        evict = force_fit_balanced if cls is ClusterClass.BALANCED else force_fit_lopsided
        stash.extend(evict(v, dest, mu))
    return end()


def _differential(stash: Stash, engine: ReleaseEngine, params: SolverParams, run=force_fit):
    """Run ``force_fit`` (``run``) on an attempt ``engine`` has open and the
    reference loop on copies of its stash, mapping and hosts; check the
    result, the final assignment and the cycle event, and return the result
    and the reference's repeat step.

    A cycling attempt stops at its first repeated state, while the
    reference goes on round the cycle, so its final assignment is compared
    with the reference's at that repeat."""
    mu = engine.mu
    ref_mu = mu.copy()
    ref_stash = Stash(mu.inst, [v for v, g in enumerate(ref_mu.assignment) if g is None])
    ref_hosts = engine.hosts()
    events = []
    saved, engine.trace = engine.trace, events.append
    try:
        result = run(stash, engine, params)
    finally:
        engine.trace = saved
    want, repeat, want_assignment = _reference_force_fit(ref_stash, ref_hosts, ref_mu, params)
    assert result == want
    assert mu.assignment == want_assignment
    cycles = [e for e in events if e["event"] == "cycle"]
    if repeat is None:
        assert cycles == []
    else:
        assert cycles == [{"event": "cycle", "step": repeat, "period": want.cycle_period}]
        assert sum(e["event"] == "force_step" for e in events) == repeat
    return result, repeat


def _differential_release(inst: Instance, h: int, params: SolverParams):
    # ``_differential`` on the release of host h from the initial mapping
    engine = ReleaseEngine(inst, params.weights)
    return _differential(Stash(inst, engine.begin(h)), engine, params)


DIFFERENTIAL_BUDGETS = (0, 1, 7, 64, 300)


def _differential_balcon(inst: Instance, weights: ObjectiveWeights, limit: int) -> Counter:
    """Run ``balcon`` with every ``force_fit`` call checked by
    ``_differential``; count the calls, the cycles and the report's
    cycled attempts."""
    seen = Counter()
    real = solver.force_fit

    def checked(stash, engine, params):
        result, repeat = _differential(stash, engine, params, real)
        seen["calls"] += 1
        seen["cycled"] += repeat is not None
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "force_fit", checked)
        _, report = balcon(inst, SolverParams(weights=weights, force_step_limit=limit))
    for a in report.attempts:
        assert a.cycle_period is None or a.outcome == "budget_exhausted"
    seen["attempts cycled"] += sum(a.cycle_period is not None for a in report.attempts)
    return seen


def _tiny_sample() -> list[Instance]:
    corpus = tiny_instances(200)
    return [corpus[i] for i in sorted(random.Random(15).sample(range(200), 25))]


class TestFirstRepeat:
    @pytest.mark.parametrize("limit", DIFFERENTIAL_BUDGETS)
    def test_fig2_red_host_matches_the_reference(self, fig2, limit):
        params = replace(INF_PARAMS, force_step_limit=limit)
        result, repeat = _differential_release(fig2, 0, params)
        assert result.force_steps == limit
        # the state after 4 Force Steps comes back after 8
        assert (repeat, result.cycle_period) == ((8, 4) if limit >= 8 else (None, None))

    @pytest.mark.parametrize("limit", DIFFERENTIAL_BUDGETS)
    def test_tiny_sample_matches_the_reference(self, limit):
        seen = Counter()
        for inst in _tiny_sample():
            for mph in (10, math.inf):
                seen += _differential_balcon(inst, ObjectiveWeights.from_mph(mph), limit)
        assert seen["calls"] > 0
        if limit >= 64:
            assert seen["cycled"] > 0 and seen["attempts cycled"] > 0, seen

    @pytest.mark.parametrize("limit", DIFFERENTIAL_BUDGETS)
    @pytest.mark.parametrize("hosts", [6, 12])
    def test_default_twins_match_the_reference(self, hosts, limit):
        seen = Counter()
        for seed in range(6):
            for mode in ("lopsided", "uniform"):
                inst = generate_instance(GenConfig(seed=seed, num_hosts=hosts, mode=mode))
                seen += _differential_balcon(inst, ObjectiveWeights.from_mph(math.inf), limit)
        assert seen["calls"] > 0
        if limit >= 64:
            assert seen["cycled"] > 0 and seen["attempts cycled"] > 0, seen

    def test_mixed_capacities_match_the_reference(self):
        # hosts of unequal sizes, so a destination's candidates depend on
        # both resources of the VM's demand
        seen = Counter()
        for seed in range(120):
            rng = random.Random(seed)
            caps = [(rng.randint(3, 10), rng.randint(3, 10)) for _ in range(rng.randint(3, 5))]
            demands = [(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(4)]
            loads = [[0, 0] for _ in caps]
            vms, initial = [], []
            for _ in range(12):
                f = rng.randrange(len(demands))
                c, m = demands[f]
                fits = [
                    h for h, (cc, cm) in enumerate(caps) if loads[h][0] + c <= cc and loads[h][1] + m <= cm
                ]
                if fits:
                    h = rng.choice(fits)
                    loads[h][0] += c
                    loads[h][1] += m
                    vms.append(VM(len(vms), f))
                    initial.append(h)
            inst = Instance(
                [Host(i, ResourceVec(c, m)) for i, (c, m) in enumerate(caps)],
                [Flavor(i, ResourceVec(c, m)) for i, (c, m) in enumerate(demands)],
                vms,
                initial,
            )
            for h in range(len(caps)):
                params = replace(INF_PARAMS, force_step_limit=64)
                result, repeat = _differential_release(inst, h, params)
                seen[result.reason] += 1
                seen["cycled"] += repeat is not None
        assert seen["cycled"] > 0 and seen[None] > 0 and len(seen) > 3, seen

    def test_colliding_keys_are_told_apart(self, monkeypatch):
        # With every move hashed to 0, all assignments share their key part,
        # so only the moves since a visit tell states apart; the first
        # repeat and the results must not change.
        monkeypatch.setattr(solver, "hash", lambda item: 0, raising=False)
        seen = Counter()
        for inst in _tiny_sample():
            seen += _differential_balcon(inst, ObjectiveWeights.from_mph(math.inf), 64)
        for seed in range(6):
            for mode in ("lopsided", "uniform"):
                inst = generate_instance(GenConfig(seed=seed, num_hosts=6, mode=mode))
                seen += _differential_balcon(inst, ObjectiveWeights.from_mph(math.inf), 64)
        assert seen["cycled"] > 0 and seen["attempts cycled"] > 0, seen

    def test_stops_at_the_first_repeat(self):
        # Releasing host 0 of tiny-corpus instance 7 first revisits a state
        # after 18 Force Steps, one turn of 16 after its first visit at 2
        # (recorded from the reference loop); Brent's power-of-two snapshots
        # would notice the cycle only after 45 steps.
        inst = tiny_instances(8)[7]
        params = replace(INF_PARAMS, force_step_limit=300)
        result, repeat = _differential_release(inst, 0, params)
        assert (repeat, result.cycle_period) == (18, 16)
        assert (result.force_steps, result.class_counts) == (300, {"lopsided": 301, "ample": 37})


class TestCyclePeriod:
    def test_attempt_and_replay_carry_it(self, fig2):
        engine = ReleaseEngine(fig2, INF_PARAMS.weights)

        def place(stashed):
            return force_fit(Stash(fig2, stashed), engine, INF_PARAMS)

        attempt = engine.attempt(0, place)
        assert (attempt.outcome, attempt.force_steps, attempt.cycle_period) == (
            "budget_exhausted", 4000, 4
        )
        again = engine.replay(0)
        assert again == attempt and again is not attempt
        assert engine.attempt(2, place).cycle_period is None


MPHS = st.sampled_from([0, 5, 10, math.inf])


def _check_engine_state(engine: ReleaseEngine, params: SolverParams) -> None:
    # the running bound state against a recomputation over the mapping, and
    # the bound against force_fit run anyway, with a large budget, on every
    # non-empty host
    mu, mu0 = engine.mu, engine.mu0
    inst = mu.inst
    active = mu.active_hosts()
    assert engine.cap_active_c == sum(inst._cap_cpu[g] for g in active)
    assert engine.cap_active_m == sum(inst._cap_mem[g] for g in active)
    assert engine.lost_mem == sum(
        inst._vm_mem[v] for v in range(len(inst.vms)) if inst.initial_host(v) not in active
    )
    big = replace(params, force_step_limit=10**5)
    for h in active:
        bound = engine.lower_bound(h)
        result = force_fit(Stash(inst, engine.begin(h)), engine, big)
        assert not result.completed or objective(mu, mu0, params.weights) >= bound, h
        mu.rollback()


def _run_checked(inst: Instance, mph) -> None:
    # balcon's attempt loop with the engine checked before and after each attempt
    params = params_for(mph)
    engine = ReleaseEngine(inst, params.weights)

    def place(stashed):
        return force_fit(Stash(inst, stashed), engine, params)

    mu0 = engine.mu0
    _check_engine_state(engine, params)
    for h in sorted(range(len(inst.hosts)), key=lambda h: (host_migration_cost(h, mu0, mu0), h)):
        engine.attempt(h, place)
        _check_engine_state(engine, params)


class TestLowerBound:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32), MPHS)
    def test_sound_on_random_instances(self, seed, mph):
        _run_checked(random_instance(random.Random(seed)), mph)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**16), st.integers(2, 6), st.sampled_from(["lopsided", "uniform"]), MPHS)
    def test_sound_on_generated_instances(self, seed, hosts, mode, mph):
        _run_checked(generate_instance(GenConfig(seed=seed, num_hosts=hosts, mode=mode)), mph)

    def test_skipped_attempt_leaves_the_mapping(self, fig2):
        engine = ReleaseEngine(fig2, params_for(0).weights)
        attempt = engine.attempt(RED, lambda stashed: pytest.fail("placed a skipped release"))
        assert (attempt.outcome, attempt.force_steps, attempt.class_counts) == ("skipped", 0, {})
        assert engine.mu.assignment == fig2.initial_mapping().assignment

    def test_skipping_never_changes_a_placement(self, tiny_corpus, monkeypatch):
        _check_skips_change_no_placement(tiny_corpus + _default_instances(10, 14), monkeypatch)

    @pytest.mark.slow
    def test_skipping_never_changes_a_placement_at_scale(self, monkeypatch):
        _check_skips_change_no_placement(_default_instances(50, 100), monkeypatch)

    def test_zero_budget_rejects_nothing_by_objective(self, tiny_corpus):
        # with no Force Step the bound is the candidate objective, so the
        # objective test never rejects an attempt the bound lets through
        for inst in tiny_corpus + _default_instances(10, 14):
            for mph in (0, 1, 3, 10, 30):
                for algo in ("sercon-mod", "sercon-orig"):
                    _, report = ALGORITHMS[algo](inst, params_for(mph))
                    outcomes = {a.outcome for a in report.attempts}
                    assert "objective_rejected" not in outcomes, (algo, mph)


ALGORITHMS = {"balcon": balcon, "sercon-mod": sercon_modified, "sercon-orig": sercon_original}


def _default_instances(*sizes: int) -> list[Instance]:
    return [
        generate_instance(GenConfig(seed=seed, num_hosts=n, mode=mode))
        for n in sizes
        for mode in ("lopsided", "uniform")
        for seed in range(3)
    ]


def _check_skips_change_no_placement(instances: list[Instance], monkeypatch) -> None:
    # every algorithm gives the same answer when no attempt is skipped
    def answers() -> list[tuple]:
        out = []
        for inst in instances:
            for mph in (0, 3, 10, math.inf):
                for algo in ALGORITHMS.values():
                    mu, report = algo(inst, params_for(mph))
                    out.append(
                        (mu.assignment, report.active_hosts, report.migrated_mem, report.objective)
                    )
        return out

    skipping = answers()
    monkeypatch.setattr(ReleaseEngine, "lower_bound", lambda engine, h: -math.inf)
    assert answers() == skipping


def _fitting(mu: Mapping, hosts, cpu: int, mem: int) -> list[int]:
    return [g for g in hosts if cpu <= mu.free_parts(g)[0] and mem <= mu.free_parts(g)[1]]


def _by_load(mu: Mapping, hosts) -> list[int]:
    # highest surrogate load first, ties to the lower id, by exact Fractions
    return sorted(hosts, key=lambda g: (-surrogate_load(g, mu), g))


def _run_room_checked(inst: Instance, mph, algo: str) -> Counter:
    """Run one algorithm with the engine's active list and room lists
    checked after every commit and attempt, every engine Best Fit checked
    against ``best_fit`` over the attempt's hosts, and every attempt the
    first-miss probe decides checked against a scan; returns how often each
    check ran."""
    ran = Counter()
    real_attempt, real_commit, real_fit = (
        ReleaseEngine.attempt, ReleaseEngine._commit, ReleaseEngine.best_fit
    )
    real_begin = Mapping.begin

    def begin(mu):
        ran["begin"] += 1
        real_begin(mu)

    def attempt(engine, h, *args, **kwargs):
        mu, begun = engine.mu, ran["begin"]
        stashed = mu.vms_on(h)
        out = real_attempt(engine, h, *args, **kwargs)
        assert engine.active == mu.active_hosts()
        if out.outcome != "skipped" and ran["begin"] == begun:
            # decided by the probe: the mapping was not touched, and the
            # largest VM, ties to the lower id, fits no host of the attempt
            assert stashed and mu.vms_on(h) == stashed and out.force_steps == 0
            v = min(stashed, key=lambda w: (-inst._size_num[w], w))
            hosts = [g for g in engine.active if g != h]
            assert not _fitting(mu, hosts, inst._vm_cpu[v], inst._vm_mem[v]), h
            ran["probe"] += 1
        return out

    def commit(engine):
        real_commit(engine)
        mu = engine.mu
        for (cpu, mem), room in engine.rooms.items():
            fitting = _fitting(mu, mu.active_hosts(), cpu, mem)
            assert [g for _, g in room] == _by_load(mu, fitting), (cpu, mem)
            assert room == sorted((-load_key(inst, g, *mu.load_parts(g)), g) for g in fitting)
        ran["commit with rooms"] += bool(engine.rooms)

    def engine_fit(engine, v):
        want = best_fit(v, engine.hosts(), engine.mu.copy())
        ran["engine best fit with a destination"] += bool(engine.dests)
        got = real_fit(engine, v)
        assert got == want, v
        ran["engine best fit"] += 1
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Mapping, "begin", begin)
        mp.setattr(ReleaseEngine, "attempt", attempt)
        mp.setattr(ReleaseEngine, "_commit", commit)
        mp.setattr(ReleaseEngine, "best_fit", engine_fit)
        ALGORITHMS[algo](inst, params_for(mph))
    return ran


ROOM_MPHS = st.sampled_from([0, 10, math.inf])


class TestRoomLists:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32), ROOM_MPHS, st.sampled_from(sorted(ALGORITHMS)))
    def test_exact_on_random_instances(self, seed, mph, algo):
        _run_room_checked(random_instance(random.Random(seed)), mph, algo)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**16),
        st.integers(2, 8),
        st.sampled_from(["lopsided", "uniform"]),
        ROOM_MPHS,
        st.sampled_from(sorted(ALGORITHMS)),
    )
    def test_exact_on_generated_instances(self, seed, hosts, mode, mph, algo):
        inst = generate_instance(GenConfig(seed=seed, num_hosts=hosts, mode=mode))
        _run_room_checked(inst, mph, algo)

    @pytest.mark.parametrize("algo", sorted(ALGORITHMS))
    def test_checks_are_exercised(self, algo):
        # the checks above see room lists updated on commit, engine Best
        # Fits, also with destinations in the attempt, and, for the
        # zero-budget and all-or-nothing baselines only, attempts the probe
        # decides
        ran = Counter()
        for seed in range(3):
            inst = generate_instance(
                GenConfig(seed=seed, num_hosts=20, mode="lopsided", target_fill=0.6)
            )
            ran += _run_room_checked(inst, math.inf, algo)
        for key in ("commit with rooms", "engine best fit", "engine best fit with a destination"):
            assert ran[key] > 0, ran
        assert (ran["probe"] > 0) == (algo != "balcon"), ran

    def test_room_lists_serve_only_until_the_first_force_step(self, fig2):
        # releasing host2: b fits nowhere and takes a Force Step into host1,
        # after which a and yellow are placed by scanning the hosts
        engine = ReleaseEngine(fig2, INF_PARAMS.weights)
        asked, results = [], []
        real_room = engine.room

        def room(v):
            asked.append(v)
            return real_room(v)

        def place(stashed):
            results.append(force_fit(Stash(fig2, stashed), engine, INF_PARAMS))
            return results[-1]

        engine.room = room
        assert engine.attempt(2, place).accepted
        assert [(r.completed, r.force_steps) for r in results] == [(True, 1)]
        assert engine.mu.assignment == (0, 0, 1, 1, 0)
        assert asked == [B]


def _count_host_lists(inst: Instance, weights: ObjectiveWeights, algo: str) -> list[tuple]:
    """Run one algorithm and return, per attempt that was not skipped, the
    ``ReleaseEngine.hosts()`` calls it made and its destination choices."""
    per_attempt, calls = [], Counter()
    real_attempt, real_hosts = ReleaseEngine.attempt, ReleaseEngine.hosts

    def counted(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    def attempt(engine, h, *args, **kwargs):
        calls.clear()
        out = real_attempt(engine, h, *args, **kwargs)
        if out.outcome != "skipped":
            per_attempt.append((calls["hosts"], calls["choose"]))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ReleaseEngine, "attempt", attempt)
        mp.setattr(ReleaseEngine, "hosts", counted("hosts", real_hosts))
        for name in ("choose_host_balanced", "choose_host_lopsided"):
            mp.setattr(solver, name, counted("choose", getattr(solver, name)))
        ALGORITHMS[algo](inst, SolverParams(weights=weights))
    return per_attempt


class TestHostList:
    @pytest.mark.parametrize("algo", ["sercon-mod", "sercon-orig"])
    def test_baselines_build_none(self, algo):
        runs = [
            _count_host_lists(inst, weights, algo)
            for _, inst, weights in BASELINE_GROUPS["lopsided-300-hosts"]()
        ]
        assert sum(map(len, runs)) > 0
        assert all(calls == (0, 0) for run in runs for calls in run)

    def test_balcon_builds_one_at_the_first_force_step_decision(self):
        # at most one list per attempt, and none for an attempt that ends
        # before its first destination choice
        seen = Counter()
        runs = [*GOLDEN_GROUPS["twins-12-hosts"](), *BASELINE_GROUPS["lopsided-20-hosts"]()]
        for _, inst, weights in runs:
            for hosts, choices in _count_host_lists(inst, weights, "balcon"):
                assert hosts == min(choices, 1), (hosts, choices)
                seen[hosts] += 1
        assert seen[0] > 0 and seen[1] > 0, seen


def _run_objective_checked(inst: Instance, weights: ObjectiveWeights, algo: str) -> int:
    """Run one algorithm with the engine's running ``best_obj`` and
    ``best_mig`` checked against ``objective`` and ``migrated_memory``
    recomputed from scratch after every attempt; returns the attempts."""
    ran = 0
    real_attempt = ReleaseEngine.attempt

    def attempt(engine, h, *args, **kwargs):
        nonlocal ran
        out = real_attempt(engine, h, *args, **kwargs)
        mu, mu0 = engine.mu, engine.mu0
        obj = objective(mu, mu0, weights)
        assert (engine.best_obj, type(engine.best_obj)) == (obj, type(obj)), h
        assert engine.best_mig == migrated_memory(mu, mu0), h
        assert (out.objective_after, out.migrated_after) == (engine.best_obj, engine.best_mig)
        ran += 1
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ReleaseEngine, "attempt", attempt)
        ALGORITHMS[algo](inst, SolverParams(weights=weights))
    return ran


OBJECTIVE_RUNS = [
    *((group, algo) for group in sorted(GOLDEN_GROUPS) for algo in sorted(ALGORITHMS)),
    ("lopsided-300-hosts", "sercon-mod"),
    ("lopsided-300-hosts", "sercon-orig"),
]


class TestRunningObjective:
    @pytest.mark.parametrize("group, algo", OBJECTIVE_RUNS)
    def test_matches_recomputation_on_golden_runs(self, group, algo):
        ran = 0
        for key, inst, weights in {**GOLDEN_GROUPS, **BASELINE_GROUPS}[group]():
            ran += _run_objective_checked(inst, weights, algo)
        assert ran > 0

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32), MPHS, st.sampled_from(sorted(ALGORITHMS)))
    def test_matches_recomputation_on_random_instances(self, seed, mph, algo):
        inst = random_instance(random.Random(seed))
        _run_objective_checked(inst, ObjectiveWeights.from_mph(mph), algo)


INDEX_ALGORITHMS = ("balcon", "sercon-mod")


def _unplaced_stash(engine: ReleaseEngine) -> Stash:
    # the stash of a classification the engine answers: before an attempt's
    # first Force Step the VMs without a host, or h's VMs when the
    # first-miss probe classifies with no attempt open
    mu = engine.mu
    if mu._first is None:
        return Stash(mu.inst, mu.vms_on(engine.releasing))
    return Stash(mu.inst, [v for v in mu.touched() if mu.host_of(v) is None])


def _run_index_checked(inst: Instance, mph, algo: str) -> Counter:
    """Run one algorithm with every answer of the engine's free-space angle
    index checked against a full scan of the attempt's hosts: the sums
    against a recomputation at the current loads, the class against
    ``classify``; returns how often each check ran and on what state."""
    ran = Counter()
    real_classify, real_sums = ReleaseEngine.classify, ReleaseEngine.free_sums

    def attempt_hosts(engine):
        return [g for g in engine.active if g != engine.releasing]

    def free_sums(engine, s_cpu, s_mem):
        sums = real_sums(engine, s_cpu, s_mem)
        mu, h = engine.mu, engine.releasing
        want = [0, 0, 0]
        for g in attempt_hosts(engine):
            fc, fm = mu.free_parts(g)
            want[0] += min(fc * s_mem, fm * s_cpu)
            want[1] += fc
            want[2] += fm
        assert sums == tuple(want)
        load_c, load_m = mu.committed_loads()
        opened = mu._first is not None
        ran["sums"] += 1
        ran["with no attempt open"] += not opened
        ran["after a release"] += any(a.released for a in engine.attempts)
        ran["moved besides h"] += opened and bool(mu.moved_hosts().keys() - {h})
        cap = (mu.inst._cap_cpu[h], mu.inst._cap_mem[h])
        ran["h had free space"] += (load_c[h], load_m[h]) != cap
        return sums

    def engine_classify(engine, s_cpu, s_mem, alpha):
        cls = real_classify(engine, s_cpu, s_mem, alpha)
        stash = _unplaced_stash(engine)
        assert (stash.cpu_total, stash.mem_total) == (s_cpu, s_mem)
        assert cls == classify(stash, attempt_hosts(engine), engine.mu, stash.peek(), alpha)
        ran[cls.value] += 1
        return cls

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ReleaseEngine, "free_sums", free_sums)
        mp.setattr(ReleaseEngine, "classify", engine_classify)
        ALGORITHMS[algo](inst, params_for(mph))
    return ran


class TestAngleIndex:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32), ROOM_MPHS, st.sampled_from(INDEX_ALGORITHMS))
    def test_exact_on_random_instances(self, seed, mph, algo):
        _run_index_checked(random_instance(random.Random(seed)), mph, algo)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**16),
        st.integers(2, 8),
        st.sampled_from(["lopsided", "uniform"]),
        ROOM_MPHS,
        st.sampled_from(INDEX_ALGORITHMS),
    )
    def test_exact_on_generated_instances(self, seed, hosts, mode, mph, algo):
        inst = generate_instance(GenConfig(seed=seed, num_hosts=hosts, mode=mode))
        _run_index_checked(inst, mph, algo)

    @pytest.mark.parametrize("algo", INDEX_ALGORITHMS)
    def test_checks_are_exercised(self, algo):
        # the checks above see the index asked after a release, with hosts
        # other than h moved and with free space on h, and, for the
        # zero-budget baseline only, by the first-miss probe
        ran = Counter()
        for seed in range(3):
            inst = generate_instance(
                GenConfig(seed=seed, num_hosts=20, mode="lopsided", target_fill=0.6)
            )
            ran += _run_index_checked(inst, math.inf, algo)
        for key in ("sums", "after a release", "moved besides h", "h had free space"):
            assert ran[key] > 0, ran
        assert (ran["with no attempt open"] > 0) == (algo == "sercon-mod"), ran

    def test_ratio_key_orders_like_fraction(self):
        # one active host per free space (fc, fm) on a grid, fc = 0 and
        # fm = 0 included: host g of capacity (fc + 1, fm + 1) holds one
        # (1, 1) VM.  The index must hold the free spaces as a stable sort
        # by the Fraction fc / fm, with fm = 0 as an infinite ratio, does.
        # The hosts come in shuffled order, so a key that told equal ratios
        # apart would reorder some of them.
        max_cpu, max_mem = 9, 12
        grid = [(fc, fm) for fc in range(max_cpu + 1) for fm in range(max_mem + 1)]
        random.Random(0).shuffle(grid)
        inst = Instance(
            [Host(g, ResourceVec(fc + 1, fm + 1)) for g, (fc, fm) in enumerate(grid)],
            [Flavor(0, ResourceVec(1, 1))],
            [VM(g, 0) for g in range(len(grid))],
            list(range(len(grid))),
        )
        engine = ReleaseEngine(inst, INF_PARAMS.weights)
        assert engine.active == list(range(len(grid)))
        engine._build_angles()
        fcs, fms, _, _ = engine.angles

        def ratio(f):
            return Fraction(f[0], f[1]) if f[1] else math.inf

        assert list(zip(fcs, fms)) == sorted(grid, key=ratio)


def _scan_sums(mu: Mapping, hosts, s_cpu: int, s_mem: int) -> tuple[int, int, int]:
    # the cap-sum scan of ``classify.classify``
    cap_num = sum_c = sum_m = 0
    for g in hosts:
        fc, fm = mu.free_parts(g)
        cap_num += min(fc * s_mem, fm * s_cpu)
        sum_c += fc
        sum_m += fm
    return cap_num, sum_c, sum_m


def _unprobed(algo: str, inst: Instance, weights: ObjectiveWeights):
    # the run with every attempt opened, as if no policy offered ``miss``
    real_attempt = ReleaseEngine.attempt

    def attempt(engine, h, place, miss=None):
        return real_attempt(engine, h, place)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ReleaseEngine, "attempt", attempt)
        return BASELINES[algo](inst, SolverParams(weights=weights))


class TestFirstMissProbe:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32), st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(19, 20), Fraction(1)]))
    def test_free_sums_with_no_attempt_open(self, seed, alpha):
        # what the probe classifies: h's VMs still on h, a stash of h's
        # whole load and the other active hosts, at the initial mapping and
        # after every zero-budget attempt
        inst = random_instance(random.Random(seed))
        params = replace(INF_PARAMS, force_step_limit=0)
        engine = ReleaseEngine(inst, params.weights)
        mu = engine.mu

        def place(stashed):
            return force_fit(Stash(inst, stashed), engine, params)

        for h in range(len(inst.hosts)):
            for g in engine.active:
                engine.releasing = g
                s_cpu, s_mem = mu.load_parts(g)
                hosts = [a for a in engine.active if a != g]
                assert engine.free_sums(s_cpu, s_mem) == _scan_sums(mu, hosts, s_cpu, s_mem)
                stash = Stash(inst, mu.vms_on(g))
                v = stash.peek()
                if not _fitting(mu, hosts, inst._vm_cpu[v], inst._vm_mem[v]):
                    want = classify(stash, hosts, mu, v, alpha)
                    assert engine.classify(s_cpu, s_mem, alpha) == want
            engine.attempt(h, place)

    @pytest.mark.parametrize("algo", sorted(BASELINES))
    @pytest.mark.parametrize("group", ["tiny-mph-10", "lopsided-20-hosts", "lopsided-50-hosts"])
    def test_runs_equal_the_unprobed_runs(self, algo, group):
        # every attempt record, the final mapping and the objective
        for key, inst, weights in BASELINE_GROUPS[group]():
            mu, report = BASELINES[algo](inst, SolverParams(weights=weights))
            mu_plain, plain = _unprobed(algo, inst, weights)
            assert mu.assignment == mu_plain.assignment, key
            assert report.attempts == plain.attempts, key
            assert (report.objective, report.force_steps) == (plain.objective, plain.force_steps)


def test_outcome_flags_are_derived_and_optional_fields_keyword_only():
    assert ForceFitResult(0, {}).completed
    assert not ForceFitResult(0, {}, reason="vm 0 fits no host").completed
    attempt = ReleaseAttempt(0, True, 0, {}, 1, 0, "accepted")
    assert attempt.accepted and not replace(attempt, outcome="objective_rejected").accepted
    # the old positional forms, with the flag as a field, fail loudly
    with pytest.raises(TypeError):
        ForceFitResult(0, {}, False, "vm 0 fits no host")
    with pytest.raises(TypeError):
        ReleaseAttempt(0, True, True, 0, {}, 1, 0, "accepted")


def test_solver_params_validation():
    w = ObjectiveWeights(1, 0)
    with pytest.raises(ValueError):
        SolverParams(weights=w, alpha=Fraction(3, 2))
    with pytest.raises(ValueError):
        SolverParams(weights=w, force_step_limit=-1)
    with pytest.raises(ValueError):
        SolverParams(weights=w, repeat_limit=0)
    with pytest.raises(ValueError):
        ResourceToggle("disk")
