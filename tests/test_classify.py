from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from balcon import (
    ClusterClass,
    Flavor,
    Host,
    Instance,
    ResourceVec,
    Stash,
    VM,
    balance_factor,
    capacity,
    classify,
    potential_capacity,
)

from conftest import RED


def fleet_with_frees(frees):
    """Hosts whose free space equals the given vectors exactly: every host
    carries one (1,1) VM and capacity free + (1,1)."""
    hosts = [Host(i, ResourceVec(fc + 1, fm + 1)) for i, (fc, fm) in enumerate(frees)]
    flavors = [Flavor(0, ResourceVec(1, 1))]
    vms = [VM(i, 0) for i in range(len(frees))]
    inst = Instance(hosts, flavors, vms, list(range(len(frees))))
    return inst, inst.initial_mapping()


class TestWorkedExample:
    # frees (5.0, 1.0), (1.9, 5.0), (4.0, 2.0) against s = (8.0, 4.0),
    # represented exactly by scaling everything by ten
    def setup_method(self):
        self.inst, self.mu = fleet_with_frees([(50, 10), (19, 50), (40, 20)])
        self.s = ResourceVec(80, 40)
        self.hosts = [0, 1, 2]

    def test_capacity(self):
        assert capacity(self.s, self.hosts, self.mu) == Fraction(79, 80)  # 0.9875

    def test_potential_capacity(self):
        assert potential_capacity(self.s, self.hosts, self.mu) == Fraction(109, 80)  # 1.3625

    def test_balance_factor(self):
        assert balance_factor(self.s, self.hosts, self.mu) == Fraction(79, 109)


class TestCapacityEdges:
    def test_free_equals_s_per_host(self):
        inst, mu = fleet_with_frees([(8, 4), (8, 4), (8, 4)])
        assert capacity(ResourceVec(8, 4), [0, 1, 2], mu) == 3

    def test_all_full(self):
        inst, mu = fleet_with_frees([(0, 0), (0, 0)])
        assert capacity(ResourceVec(2, 2), [0, 1], mu) == 0
        assert potential_capacity(ResourceVec(2, 2), [0, 1], mu) == 0

    def test_single_host_pcap_equals_cap(self):
        inst, mu = fleet_with_frees([(7, 4)])
        s = ResourceVec(3, 2)
        assert capacity(s, [0], mu) == potential_capacity(s, [0], mu)

    def test_zero_s_component_rejected(self):
        # every stash total is positive in both resources, as every flavor's
        # demand is, so a zero component is a caller error
        inst, mu = fleet_with_frees([(4, 2)])
        for s in ((4, 0), (0, 2)):
            for measure in (capacity, potential_capacity, balance_factor):
                with pytest.raises(ValueError, match="positive"):
                    measure(s, [0], mu)

    def test_zero_s_rejected(self):
        inst, mu = fleet_with_frees([(4, 2)])
        with pytest.raises(ValueError):
            capacity((0, 0), [0], mu)

    def test_rational_s(self):
        inst, mu = fleet_with_frees([(3, 3)])
        assert capacity((Fraction(3, 2), Fraction(3)), [0], mu) == 1


class TestBalanceFactor:
    def test_proportional_free_space(self):
        inst, mu = fleet_with_frees([(4, 2), (2, 1)])
        assert balance_factor(ResourceVec(8, 4), [0, 1], mu) == 1

    def test_opposite_limits(self):
        inst, mu = fleet_with_frees([(4, 0), (0, 4)])
        assert balance_factor(ResourceVec(2, 2), [0, 1], mu) == 0

    def test_packed_cluster_is_balanced_by_convention(self):
        inst, mu = fleet_with_frees([(0, 0)])
        assert balance_factor(ResourceVec(1, 1), [0], mu) == 1


class TestStash:
    def test_peek_pop_order(self, fig2):
        stash = Stash(fig2, [0, 1, 2, 3, 4])
        order = [stash.pop() for _ in range(5)]
        # sizes: green > red > b > a > yellow (a and yellow tie-break by id)
        assert order == [2, 0, 3, 1, 4]

    def test_size_tie_breaks_to_lower_id(self):
        hosts = [Host(0, ResourceVec(9, 9))]
        flavors = [Flavor(0, ResourceVec(2, 2))]
        vms = [VM(i, 0) for i in range(3)]
        inst = Instance(hosts, flavors, vms, [0, 0, 0])
        stash = Stash(inst, [2, 0, 1])
        assert [stash.pop() for _ in range(3)] == [0, 1, 2]

    def test_vector_tracking(self, fig2):
        stash = Stash(fig2)
        assert (stash.cpu_total, stash.mem_total) == (0, 0)
        stash.push(RED)
        stash.push(3)
        assert (stash.cpu_total, stash.mem_total) == (7, 4)
        stash.pop()
        assert (stash.cpu_total, stash.mem_total) in ((3, 3), (4, 1))
        assert len(stash) == 1

    def test_peek_keeps_member(self, fig2):
        stash = Stash(fig2, [0, 3])
        v = stash.peek()
        assert len(stash) == 2
        assert stash.pop() == v


class TestClassify:
    def test_fit_wins_regardless_of_balance(self, fig2):
        mu = fig2.initial_mapping()
        mu.unassign(4)  # yellow (2,1) fits host 0 free (3,3)
        stash = Stash(fig2, [4])
        assert classify(stash, [0, 1, 2], mu, 4) is ClusterClass.AMPLE

    def test_fig2_red_is_lopsided(self, fig2):
        mu = fig2.initial_mapping()
        mu.unassign(RED)
        stash = Stash(fig2, [RED])
        # frees (3,0) and (0,4): cap = 0 < 1
        assert classify(stash, [1, 2], mu, RED) is ClusterClass.LOPSIDED

    def test_balanced_state(self):
        # two half-free hosts with identical free shape, oversized vm
        hosts = [Host(0, ResourceVec(4, 4)), Host(1, ResourceVec(4, 4)), Host(2, ResourceVec(5, 5))]
        flavors = [Flavor(0, ResourceVec(2, 2)), Flavor(1, ResourceVec(3, 3))]
        vms = [VM(0, 0), VM(1, 0), VM(2, 1)]
        inst = Instance(hosts, flavors, vms, [0, 1, 2])
        mu = inst.initial_mapping()
        mu.unassign(2)
        stash = Stash(inst, [2])
        assert classify(stash, [0, 1], mu, 2) is ClusterClass.BALANCED

    def test_alpha_threshold_decides_when_cap_is_at_least_one(self):
        # frees (2,1) and (1,2) against s = (2,2): cap = 1, pcap = 3/2
        hosts = [Host(i, ResourceVec(7, 7)) for i in range(3)]
        flavors = [Flavor(0, ResourceVec(2, 2)), Flavor(1, ResourceVec(5, 6)), Flavor(2, ResourceVec(6, 5))]
        vms = [VM(0, 0), VM(1, 1), VM(2, 2)]
        inst = Instance(hosts, flavors, vms, [0, 1, 2])
        mu = inst.initial_mapping()
        mu.unassign(0)
        stash = Stash(inst, [0])
        # ratio 2/3 is below the default alpha but above zero
        assert classify(stash, [1, 2], mu, 0) is ClusterClass.LOPSIDED
        assert classify(stash, [1, 2], mu, 0, alpha=Fraction(0)) is ClusterClass.BALANCED

    def test_pure_function(self, fig2):
        mu = fig2.initial_mapping()
        mu.unassign(RED)
        stash = Stash(fig2, [RED])
        first = classify(stash, [1, 2], mu, RED)
        for _ in range(5):
            assert classify(stash, [1, 2], mu, RED) is first
        assert len(stash) == 1


@st.composite
def fleet(draw):
    n = draw(st.integers(1, 5))
    frees = [
        (draw(st.integers(0, 40)), draw(st.integers(0, 40))) for _ in range(n)
    ]
    s = (draw(st.integers(1, 30)), draw(st.integers(1, 30)))
    return frees, s


@given(fleet())
@settings(max_examples=300)
def test_cap_never_exceeds_pcap(data):
    frees, s = data
    inst, mu = fleet_with_frees(frees)
    hosts = list(range(len(frees)))
    cap = capacity(ResourceVec(*s), hosts, mu)
    pcap = potential_capacity(ResourceVec(*s), hosts, mu)
    assert cap <= pcap
    bf = balance_factor(ResourceVec(*s), hosts, mu)
    assert 0 <= bf <= 1


@given(fleet(), st.integers(0, 4), st.integers(1, 5))
@settings(max_examples=300)
def test_more_free_space_never_decreases_capacity(data, which, extra):
    frees, s = data
    host = which % len(frees)
    grown = list(frees)
    fc, fm = grown[host]
    grown[host] = (fc + extra, fm) if which % 2 else (fc, fm + extra)
    inst_a, mu_a = fleet_with_frees(frees)
    inst_b, mu_b = fleet_with_frees(grown)
    hosts = list(range(len(frees)))
    sv = ResourceVec(*s)
    assert capacity(sv, hosts, mu_b) >= capacity(sv, hosts, mu_a)
    assert potential_capacity(sv, hosts, mu_b) >= potential_capacity(sv, hosts, mu_a)
