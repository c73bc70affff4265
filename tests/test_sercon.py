import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from balcon import (
    Flavor,
    GenConfig,
    Host,
    Instance,
    ObjectiveWeights,
    ResourceVec,
    SolverParams,
    VM,
    generate_instance,
    objective,
    sercon_modified,
    sercon_original,
)
from balcon.solver import ReleaseEngine, balcon

INF_PARAMS = SolverParams(weights=ObjectiveWeights.from_mph(math.inf))


def releasable_instance() -> Instance:
    # host0's single small vm fits host1's free space
    hosts = [Host(0, ResourceVec(4, 4)), Host(1, ResourceVec(4, 4))]
    flavors = [Flavor(0, ResourceVec(1, 1)), Flavor(1, ResourceVec(2, 2))]
    return Instance(hosts, flavors, [VM(0, 0), VM(1, 1)], [0, 1])


class TestSerconModified:
    def test_fig2_releases_nothing(self, fig2):
        mu, report = sercon_modified(fig2, INF_PARAMS)
        assert report.active_hosts == 3
        assert mu.assignment == fig2.initial_mapping().assignment
        assert report.force_steps == 0

    def test_releases_when_free_space_suffices(self):
        inst = releasable_instance()
        mu, report = sercon_modified(inst, INF_PARAMS)
        assert report.active_hosts == 1
        assert mu.assignment == (1, 1)

    def test_mph_zero_returns_initial(self, fig2):
        params = SolverParams(weights=ObjectiveWeights.from_mph(0))
        mu, report = sercon_modified(fig2, params)
        assert mu.assignment == fig2.initial_mapping().assignment
        assert report.migrated_mem == 0

    def test_never_uses_force_steps(self, tiny_corpus):
        for inst in tiny_corpus[:40]:
            _, report = sercon_modified(inst, INF_PARAMS)
            assert report.force_steps == 0
            assert all(a.force_steps == 0 for a in report.attempts)

    def test_matches_balcon_with_zero_budget(self, tiny_corpus):
        from dataclasses import replace

        zero = replace(INF_PARAMS, force_step_limit=0)
        for inst in tiny_corpus[:60]:
            mu_a, _ = balcon(inst, zero)
            mu_b, _ = sercon_modified(inst, INF_PARAMS)
            assert mu_a.assignment == mu_b.assignment


class TestSerconOriginal:
    def test_fig2_releases_nothing(self, fig2):
        mu, report = sercon_original(fig2, INF_PARAMS)
        assert report.active_hosts == 3
        assert mu.assignment == fig2.initial_mapping().assignment

    def test_zero_migration_budget_returns_initial(self):
        inst = releasable_instance()
        mu, report = sercon_original(inst, INF_PARAMS, max_total_migrations=0)
        assert mu.assignment == inst.initial_mapping().assignment

    def test_migration_budget_limits_releases(self):
        inst = releasable_instance()
        mu, report = sercon_original(inst, INF_PARAMS, max_total_migrations=1)
        assert report.active_hosts == 1

    def test_mph_zero_returns_initial(self, fig2):
        params = SolverParams(weights=ObjectiveWeights.from_mph(0))
        mu, _ = sercon_original(fig2, params)
        assert mu.assignment == fig2.initial_mapping().assignment

    def test_releases_cascade_within_a_pass(self):
        # emptying host0 into host1 still leaves room for host2's vm, so a
        # single sweep releases both small hosts
        hosts = [Host(i, ResourceVec(4, 4)) for i in range(3)]
        flavors = [Flavor(0, ResourceVec(1, 1)), Flavor(1, ResourceVec(2, 2))]
        vms = [VM(0, 0), VM(1, 1), VM(2, 0)]
        inst = Instance(hosts, flavors, vms, [0, 1, 2])
        mu, report = sercon_original(inst, INF_PARAMS)
        assert report.active_hosts == 1

    def test_dominates_modified_with_unlimited_budget(self, tiny_corpus):
        for inst in tiny_corpus[:80]:
            _, rep_orig = sercon_original(inst, INF_PARAMS)
            _, rep_mod = sercon_modified(inst, INF_PARAMS)
            released_orig = len(inst.hosts) - rep_orig.active_hosts
            released_mod = len(inst.hosts) - rep_mod.active_hosts
            assert released_orig >= released_mod

    def test_free_space_only(self, tiny_corpus):
        # no intermediate state of the original heuristic evicts an assigned
        # vm: every migrated vm moved off a released host
        for inst in tiny_corpus[:40]:
            mu0 = inst.initial_mapping()
            mu, report = sercon_original(inst, INF_PARAMS)
            released = {a.host for a in report.attempts if a.released}
            for v in range(len(inst.vms)):
                if mu.host_of(v) != inst.initial_host(v):
                    assert inst.initial_host(v) in released

    def test_outcomes_name_each_abort(self, fig2):
        # fig2 has no free space for any host's VMs; a zero budget stops
        # every attempt before it places anything
        _, report = sercon_original(fig2, INF_PARAMS)
        assert [a.outcome for a in report.attempts] == ["unplaceable"] * 3
        _, report = sercon_original(fig2, INF_PARAMS, max_total_migrations=0)
        assert [a.outcome for a in report.attempts] == ["budget_exhausted"] * 3

    def test_params_validation(self, fig2):
        with pytest.raises(ValueError, match="max_total_migrations"):
            sercon_original(fig2, INF_PARAMS, max_total_migrations=-1)


def _replay_checked(inst: Instance, params: SolverParams, budget: int | None = None) -> int:
    """Run ``sercon_original`` as it is and again with every attempt re-run
    instead of replayed; the two runs must agree record by record, each
    replayed record a fresh copy.  Returns the number of replays."""
    replayed = []
    real_replay = ReleaseEngine.replay

    def replay(engine, h):
        out = real_replay(engine, h)
        if out is not None:
            replayed.append(len(engine.attempts) - 1)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ReleaseEngine, "replay", replay)
        mu, report = sercon_original(inst, params, max_total_migrations=budget)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ReleaseEngine, "replay", lambda engine, h: None)
        mu_rerun, rerun = sercon_original(inst, params, max_total_migrations=budget)
    assert report.attempts == rerun.attempts
    assert mu.assignment == mu_rerun.assignment
    assert (report.objective, report.migrated_mem, report.force_steps) == (
        rerun.objective,
        rerun.migrated_mem,
        rerun.force_steps,
    )
    attempts = report.attempts
    for i in replayed:
        assert not attempts[i].accepted
        earlier = [a for a in attempts[:i] if a.host == attempts[i].host]
        assert all(a is not attempts[i] for a in earlier)
        assert all(a.class_counts is not attempts[i].class_counts for a in earlier)
    return len(replayed)


class TestSerconOriginalReplay:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**16),
        st.integers(2, 24),
        st.sampled_from(["lopsided", "uniform"]),
        st.sampled_from([0, 10, math.inf]),
        st.sampled_from([None, 0, 5, 40]),
    )
    def test_replays_equal_reruns(self, seed, hosts, mode, mph, budget):
        inst = generate_instance(
            GenConfig(seed=seed, num_hosts=hosts, mode=mode, target_fill=0.6)
        )
        params = SolverParams(weights=ObjectiveWeights.from_mph(mph))
        _replay_checked(inst, params, budget)

    def test_replays_are_exercised(self):
        replays = 0
        for seed in range(3):
            inst = generate_instance(
                GenConfig(seed=seed, num_hosts=20, mode="lopsided", target_fill=0.6)
            )
            replays += _replay_checked(inst, INF_PARAMS)
        assert replays > 0


class TestObjectiveAcceptance:
    def test_acceptance_monotone_and_feasible(self, tiny_corpus):
        for inst in tiny_corpus[:40]:
            mu0 = inst.initial_mapping()
            for algo in (sercon_modified, sercon_original):
                for mph in (0, 4, math.inf):
                    params = SolverParams(weights=ObjectiveWeights.from_mph(mph))
                    mu, report = algo(inst, params)
                    assert mu.is_feasible()
                    assert (
                        objective(mu, mu0, params.weights)
                        <= objective(mu0, mu0, params.weights)
                    )
                    values = [a.objective_after for a in report.attempts]
                    assert all(values[i + 1] <= values[i] for i in range(len(values) - 1))
