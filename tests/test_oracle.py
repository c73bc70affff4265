import itertools
import random

import pytest

from balcon import (
    Flavor,
    Host,
    Instance,
    Mapping,
    ObjectiveWeights,
    OracleLimits,
    OracleSizeError,
    ResourceVec,
    SolverParams,
    VM,
    balcon,
    brute_force_optimal,
    migrated_memory,
    min_active_hosts_bound,
    objective,
)

from conftest import random_instance


def exhaustive_minimum(inst: Instance, weights: ObjectiveWeights):
    """Plain full enumeration over |H|^|V| assignments; the independent
    counterpart to the pruned search."""
    best = None
    best_assign = None
    n_hosts = len(inst.hosts)
    mu0 = inst.initial_mapping()
    count = 0
    for assign in itertools.product(range(n_hosts), repeat=len(inst.vms)):
        count += 1
        mu = Mapping(inst, assign)
        if not mu.is_feasible():
            continue
        obj = objective(mu, mu0, weights)
        if best is None or obj < best:
            best = obj
            best_assign = assign
    return best, best_assign, count


class TestFig2:
    def test_minimum_active_hosts_is_two(self, fig2):
        w = ObjectiveWeights(1, 0)
        best, _, count = exhaustive_minimum(fig2, w)
        assert count == 243  # 3^5 assignments
        assert best == 2
        result = brute_force_optimal(fig2, w)
        assert result.objective == 2
        assert result.mapping.active_count() == 2

    def test_weighted_optimum(self, fig2):
        w = ObjectiveWeights(10, 1)
        best, _, _ = exhaustive_minimum(fig2, w)
        result = brute_force_optimal(fig2, w)
        assert best == result.objective == 24
        mu0 = fig2.initial_mapping()
        assert result.mapping.active_count() == 2
        assert migrated_memory(result.mapping, mu0) == 4

    def test_lexicographically_smallest_optimum(self, fig2):
        w = ObjectiveWeights(10, 1)
        result = brute_force_optimal(fig2, w)
        optimal = [
            assign
            for assign in itertools.product(range(3), repeat=5)
            if Mapping(fig2, assign).is_feasible()
            and objective(Mapping(fig2, assign), fig2.initial_mapping(), w) == 24
        ]
        assert result.mapping.assignment == min(optimal)


class TestEdgeCases:
    def test_mph_zero_keeps_initial(self, fig2):
        result = brute_force_optimal(fig2, ObjectiveWeights(0, 1))
        assert result.objective == 0
        assert result.mapping.assignment == fig2.initial_mapping().assignment

    def test_single_vm_two_hosts(self):
        hosts = [Host(0, ResourceVec(2, 2)), Host(1, ResourceVec(2, 2))]
        flavors = [Flavor(0, ResourceVec(1, 1))]
        inst = Instance(hosts, flavors, [VM(0, 0)], [0])
        result = brute_force_optimal(inst, ObjectiveWeights(1, 0))
        assert result.objective == 1

    def test_refusal_on_size(self, fig2):
        with pytest.raises(OracleSizeError, match="VMs"):
            brute_force_optimal(fig2, ObjectiveWeights(1, 0), OracleLimits(max_vms=3))
        with pytest.raises(OracleSizeError, match="hosts"):
            brute_force_optimal(fig2, ObjectiveWeights(1, 0), OracleLimits(max_hosts=2))
        with pytest.raises(OracleSizeError, match="node budget"):
            brute_force_optimal(fig2, ObjectiveWeights(1, 0), OracleLimits(node_budget=100))

    @pytest.mark.parametrize("field", ["max_vms", "max_hosts", "node_budget"])
    def test_limits_below_one_are_rejected(self, field):
        with pytest.raises(ValueError, match=f"{field} must be at least 1, got 0"):
            OracleLimits(**{field: 0})


class TestMinActiveHostsBound:
    def test_fig2(self, fig2):
        assert min_active_hosts_bound(fig2) == 2

    def test_empty_vm_set(self):
        hosts = [Host(0, ResourceVec(2, 2))]
        flavors = [Flavor(0, ResourceVec(1, 1))]
        inst = Instance(hosts, flavors, [], [])
        assert min_active_hosts_bound(inst) == 0

    def test_one_full_host(self):
        hosts = [Host(0, ResourceVec(2, 2)), Host(1, ResourceVec(2, 2))]
        flavors = [Flavor(0, ResourceVec(2, 2))]
        inst = Instance(hosts, flavors, [VM(0, 0)], [0])
        assert min_active_hosts_bound(inst) == 1

    def test_heterogeneous_hosts(self):
        # totals (6,2): cpu needs the two largest hosts (4+3), mem needs one
        hosts = [Host(0, ResourceVec(1, 5)), Host(1, ResourceVec(4, 5)), Host(2, ResourceVec(3, 5))]
        flavors = [Flavor(0, ResourceVec(3, 1))]
        inst = Instance(hosts, flavors, [VM(0, 0), VM(1, 0)], [1, 2])
        assert min_active_hosts_bound(inst) == 2

    def test_bound_valid_on_random_instances(self, tiny_corpus):
        w = ObjectiveWeights(1, 0)
        for inst in tiny_corpus[:60]:
            result = brute_force_optimal(inst, w)
            assert min_active_hosts_bound(inst) <= result.mapping.active_count()


class TestAgainstExhaustive:
    def test_matches_plain_enumeration(self):
        rng = random.Random(17)
        for _ in range(25):
            inst = random_instance(rng, max_hosts=3, max_vms=6)
            for w in (ObjectiveWeights(1, 0), ObjectiveWeights(10, 1), ObjectiveWeights(0, 1)):
                best, _, _ = exhaustive_minimum(inst, w)
                result = brute_force_optimal(inst, w)
                assert result.objective == best

    def test_random_sampling_never_beats_oracle(self, tiny_corpus):
        rng = random.Random(23)
        w = ObjectiveWeights(10, 1)
        for inst in tiny_corpus[:10]:
            mu0 = inst.initial_mapping()
            result = brute_force_optimal(inst, w)
            n_hosts = len(inst.hosts)
            for _ in range(1000):
                assign = [rng.randrange(n_hosts) for _ in range(len(inst.vms))]
                mu = Mapping(inst, assign)
                if mu.is_feasible():
                    assert objective(mu, mu0, w) >= result.objective

    def test_dominance_chain(self, tiny_corpus):
        # oracle <= balcon <= initial at matching weights
        w = ObjectiveWeights(1, 0)
        params = SolverParams(weights=w)
        for inst in tiny_corpus[:60]:
            mu0 = inst.initial_mapping()
            oracle = brute_force_optimal(inst, w)
            _, report = balcon(inst, params)
            assert oracle.objective <= report.objective <= objective(mu0, mu0, w)
