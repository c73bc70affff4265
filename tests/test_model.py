import json
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from balcon import (
    Flavor,
    Host,
    InfeasibleInstanceError,
    Instance,
    InstanceFormatError,
    Mapping,
    ObjectiveWeights,
    ResourceVec,
    VM,
    host_migration_cost,
    instance_from_dict,
    instance_to_dict,
    instance_with_mapping,
    migrated_memory,
    migration_costs,
    objective,
    surrogate_load,
    vm_size,
)

from balcon.model import load_key

from conftest import A, GREEN, RED, make_fig2, random_instance


class TestResourceVec:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ResourceVec(-1, 0)

    def test_rejects_non_int(self):
        with pytest.raises(TypeError):
            ResourceVec(1.5, 2)
        with pytest.raises(TypeError):
            ResourceVec(True, 2)


class TestLoadFreeFits:
    def test_empty_host_load(self, fig2):
        mu = Mapping(fig2, [None] * 5)
        assert mu.load_parts(0) == (0, 0)
        assert mu.free_parts(0) == (6, 6)

    def test_direct_sum(self, fig2):
        mu = fig2.initial_mapping()
        assert mu.load_parts(1) == (3, 6)
        assert mu.load_parts(2) == (6, 2)

    def test_free_components(self, fig2):
        mu = fig2.initial_mapping()
        assert mu.free_parts(1) == (3, 0)
        assert mu.free_parts(2) == (0, 4)

    def test_free_reports_overload(self, fig2):
        mu = fig2.initial_mapping()
        mu.unassign(RED)
        mu.assign(RED, 1)  # bookkeeping allows it; free_parts() must complain
        with pytest.raises(RuntimeError, match="host 1"):
            mu.free_parts(1)

    def test_fits(self, fig2):
        mu = fig2.initial_mapping()
        mu.unassign(RED)
        assert not mu.fits(RED, 1)  # free (3,0)
        assert not mu.fits(RED, 2)  # free (0,4)
        assert mu.fits(RED, 0)

    def test_exact_fit(self):
        hosts = [Host(0, ResourceVec(3, 3))]
        flavors = [Flavor(0, ResourceVec(3, 3))]
        inst = Instance(hosts, flavors, [VM(0, 0)], [0])
        mu = Mapping(inst, [None])
        assert mu.fits(0, 0)


class TestActiveAndMigration:
    def test_active_hosts_initial(self, fig2):
        mu = fig2.initial_mapping()
        assert mu.active_hosts() == [0, 1, 2]
        assert mu.active_count() == 3

    def test_active_hosts_empty(self, fig2):
        mu = Mapping(fig2, [None] * 5)
        assert mu.active_hosts() == []

    def test_self_migration_free(self, fig2):
        mu0 = fig2.initial_mapping()
        assert migrated_memory(mu0, mu0) == 0
        w = ObjectiveWeights(7, 1)
        assert objective(mu0, mu0, w) == 21

    def test_single_migration(self, fig2):
        mu0 = fig2.initial_mapping()
        mu = fig2.initial_mapping()
        mu.unassign(GREEN)
        mu.assign(GREEN, 2)
        assert migrated_memory(mu, mu0) == 4

    def test_three_moves(self, fig2):
        # red 0->1, green 1->2, yellow 2->1: mem 3 + 4 + 1
        mu0 = fig2.initial_mapping()
        mu = Mapping(fig2, [1, 1, 2, 2, 1])
        assert mu.is_feasible()
        assert migrated_memory(mu, mu0) == 8
        assert objective(mu, mu0, ObjectiveWeights(10, 1)) == 28

    def test_partial_mapping_objective_is_inf(self, fig2):
        mu0 = fig2.initial_mapping()
        mu = fig2.initial_mapping()
        mu.unassign(RED)
        assert objective(mu, mu0, ObjectiveWeights(1, 1)) == math.inf
        with pytest.raises(ValueError):
            migrated_memory(mu, mu0)

    def test_objective_decomposition(self, fig2):
        rng = random.Random(7)
        mu0 = fig2.initial_mapping()
        for _ in range(50):
            assignment = [rng.randrange(3) for _ in range(5)]
            mu = Mapping(fig2, assignment)
            if not mu.is_feasible():
                continue
            w = ObjectiveWeights(rng.randrange(0, 5), rng.randrange(1, 3))
            assert objective(mu, mu0, w) == w.w_a * mu.active_count() + w.w_m * migrated_memory(mu, mu0)


class TestHostMigrationCost:
    def test_initial_costs(self, fig2):
        mu0 = fig2.initial_mapping()
        assert host_migration_cost(0, mu0, mu0) == 3
        assert host_migration_cost(1, mu0, mu0) == 6
        assert host_migration_cost(2, mu0, mu0) == 2

    def test_migrated_in_vms_cost_nothing(self, fig2):
        mu0 = fig2.initial_mapping()
        mu = Mapping(fig2, [1, 1, 2, 2, 1])
        # host 1 holds red (from 0), a (original), yellow (from 2)
        assert host_migration_cost(1, mu, mu0) == 2

    @given(st.integers(0, 2**32))
    def test_migration_costs_match_per_host(self, seed):
        # every host's entry against the per-host reference, at the initial
        # mapping and at a random partial reassignment of it
        rng = random.Random(seed)
        inst = random_instance(rng)
        mu0 = inst.initial_mapping()
        hosts = [None, *range(len(inst.hosts))]
        mu = Mapping(inst, [rng.choice(hosts) if rng.random() < 0.5 else h for h in mu0.assignment])
        for m in (mu0, mu):
            costs = migration_costs(m, mu0)
            assert costs == [host_migration_cost(h, m, mu0) for h in range(len(inst.hosts))]


class TestScalarMeasures:
    def test_vm_size_direct(self):
        # totals (10, 20)
        hosts = [Host(0, ResourceVec(20, 30))]
        flavors = [
            Flavor(0, ResourceVec(2, 4)),
            Flavor(1, ResourceVec(5, 10)),
            Flavor(2, ResourceVec(3, 6)),
        ]
        inst = Instance(hosts, flavors, [VM(0, 0), VM(1, 1), VM(2, 2)], [0, 0, 0])
        assert vm_size(0, inst) == Fraction(2, 5)
        assert vm_size(1, inst) == Fraction(1)
        assert vm_size(2, inst) == Fraction(3, 5)

    def test_vm_size_fig2(self, fig2):
        # totals are (12, 11)
        assert vm_size(RED, fig2) == Fraction(3, 12) + Fraction(3, 11)
        assert vm_size(GREEN, fig2) == Fraction(2, 12) + Fraction(4, 11)
        assert vm_size(GREEN, fig2) > vm_size(RED, fig2)

    def test_surrogate_load(self, fig2):
        mu = fig2.initial_mapping()
        assert surrogate_load(1, mu) == Fraction(3, 2)
        empty = Mapping(fig2, [None] * 5)
        assert surrogate_load(0, empty) == 0
        packed = Mapping(fig2, [0, 0, 1, 2, 0])  # host 0: red + a + yellow = (6,6)
        assert surrogate_load(0, packed) == 2


@st.composite
def _host_loads(draw, max_cap=None):
    # capacities and a load within them; small capacities make close and
    # equal loads common
    if max_cap is None:
        max_cap = draw(st.sampled_from([12, 10**6]))
    cc, cm = draw(st.integers(1, max_cap)), draw(st.integers(1, max_cap))
    return cc, cm, draw(st.integers(0, cc)), draw(st.integers(0, cm))


class TestLoadKey:
    """``load_key`` orders (host, load) pairs exactly as their ``Fraction``
    surrogate loads do, with capacities up to 10**6 in both resources."""

    @given(_host_loads(), _host_loads())
    def test_orders_as_fractions(self, a, b):
        inst = Instance([Host(0, ResourceVec(*a[:2])), Host(1, ResourceVec(*b[:2]))], [], [], [])
        (ka, la), (kb, lb) = [
            (load_key(inst, h, lc, lm), Fraction(lc, cc) + Fraction(lm, cm))
            for h, (cc, cm, lc, lm) in enumerate((a, b))
        ]
        assert (ka > kb) - (ka < kb) == (la > lb) - (la < lb)

    @given(_host_loads(max_cap=10**6 // 7), st.integers(2, 7), st.integers(1, 10**6))
    def test_equal_loads_get_equal_keys(self, a, k, other):
        # a host k times as large at k times the load has the same load;
        # a third host only widens the scale
        cc, cm, lc, lm = a
        hosts = [
            Host(0, ResourceVec(cc, cm)),
            Host(1, ResourceVec(k * cc, k * cm)),
            Host(2, ResourceVec(other, other)),
        ]
        inst = Instance(hosts, [], [], [])
        assert load_key(inst, 0, lc, lm) == load_key(inst, 1, k * lc, k * lm)

    def test_every_small_host_and_load(self):
        # all capacities up to 6 in one instance: sorted by exact load, the
        # keys never fall and change exactly where the load does
        caps = [(c, m) for c in range(1, 7) for m in range(1, 7)]
        inst = Instance([Host(h, ResourceVec(c, m)) for h, (c, m) in enumerate(caps)], [], [], [])
        pairs = sorted(
            (Fraction(lc, c) + Fraction(lm, m), load_key(inst, h, lc, lm))
            for h, (c, m) in enumerate(caps)
            for lc in range(c + 1)
            for lm in range(m + 1)
        )
        for (la, ka), (lb, kb) in zip(pairs, pairs[1:]):
            assert (ka < kb) == (la < lb) and ka <= kb


def _cross(a_cpu: int, a_mem: int, b_cpu: int, b_mem: int) -> int:
    # sign(angle(a) - angle(b)) for non-zero vectors
    return a_cpu * b_mem - b_cpu * a_mem


class TestAngleKey:
    # the solver orders load angles arctan(cpu/mem) by integer cross products
    def test_extremes(self):
        assert _cross(1, 0, 0, 1) > 0  # pure cpu lies above pure memory
        assert _cross(0, 1, 1, 0) < 0
        assert _cross(1, 0, 10**6, 1) > 0  # mem == 0 is the maximal angle
        assert _cross(2, 1, 1, 2) > 0
        assert _cross(2, 4, 1, 2) == 0

    @given(
        st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)).filter(lambda t: t != (0, 0)),
        st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)).filter(lambda t: t != (0, 0)),
    )
    def test_matches_float_arctan(self, a, b):
        fa = math.atan2(a[0], a[1])
        fb = math.atan2(b[0], b[1])
        if abs(fa - fb) > 1e-9:
            assert (_cross(*a, *b) > 0) == (fa > fb)
        key_a = Fraction(a[0], a[1]) if a[1] else math.inf
        key_b = Fraction(b[0], b[1]) if b[1] else math.inf
        side = _cross(*a, *b)
        assert (side > 0) - (side < 0) == (key_a > key_b) - (key_a < key_b)


class TestWeights:
    def test_from_mph(self):
        w = ObjectiveWeights.from_mph(8)
        assert (w.w_a, w.w_m) == (8, 1)
        assert w.mph == 8
        w = ObjectiveWeights.from_mph(math.inf)
        assert (w.w_a, w.w_m) == (1, 0)
        assert w.w_m == 0
        assert w.mph == math.inf
        w = ObjectiveWeights.from_mph(Fraction(1, 2))
        assert w.w_a == Fraction(1, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            ObjectiveWeights(0, 0)
        with pytest.raises(ValueError):
            ObjectiveWeights(-1, 1)


class TestMappingCaches:
    def test_mapping_is_unhashable(self, fig2):
        # its assignment changes as VMs move; an immutable Instance hashes
        mu = fig2.initial_mapping()
        with pytest.raises(TypeError):
            hash(mu)
        assert hash(fig2) == hash(make_fig2())

    def test_cache_coherence_random_ops(self, fig2):
        rng = random.Random(11)
        for _ in range(200):
            mu = fig2.initial_mapping()
            for _ in range(rng.randrange(1, 20)):
                v = rng.randrange(5)
                if mu.host_of(v) is None:
                    mu.assign(v, rng.randrange(3))
                else:
                    mu.unassign(v)
                assert mu.caches_consistent()

    def test_double_assign_rejected(self, fig2):
        mu = fig2.initial_mapping()
        with pytest.raises(ValueError):
            mu.assign(RED, 1)
        mu.unassign(RED)
        with pytest.raises(ValueError):
            mu.unassign(RED)

    def test_copy_is_independent(self, fig2):
        mu = fig2.initial_mapping()
        dup = mu.copy()
        dup.unassign(RED)
        assert mu.host_of(RED) == 0
        assert dup.host_of(RED) is None

    def test_pickle_round_trip(self, fig2):
        mu = fig2.initial_mapping()
        inst2, mu2 = pickle.loads(pickle.dumps((fig2, mu)))
        assert inst2 == fig2
        assert mu2.assignment == mu.assignment


def _apply(mu: Mapping, ops) -> None:
    # each op toggles one VM: unassign it, or assign it to some host
    n_vms, n_hosts = len(mu.inst.vms), len(mu.inst.hosts)
    for a, b in ops:
        v = a % n_vms
        if mu.host_of(v) is None:
            mu.assign(v, b % n_hosts)
        else:
            mu.unassign(v)


def _state(mu: Mapping):
    return (mu.assignment, list(mu._load_c), list(mu._load_m), [set(m) for m in mu._members])


OPS = st.lists(st.tuples(st.integers(0, 63), st.integers(0, 63)), max_size=40)


class TestJournal:
    @given(st.integers(0, 2**32), OPS, OPS)
    def test_rollback_restores_the_mapping(self, seed, before_ops, ops):
        mu = random_instance(random.Random(seed)).initial_mapping()
        _apply(mu, before_ops)
        before = mu.copy()
        mu.begin()
        _apply(mu, ops)
        mu.rollback()
        assert _state(mu) == _state(before)
        assert mu.caches_consistent()

    @given(st.integers(0, 2**32), OPS, OPS)
    def test_moved_hosts_cover_every_load_change(self, seed, before_ops, ops):
        mu = random_instance(random.Random(seed)).initial_mapping()
        _apply(mu, before_ops)
        before = mu.copy()
        assert mu.committed_loads() == (mu._load_c, mu._load_m)
        mu.begin()
        _apply(mu, ops)
        assert mu.committed_loads() == (before._load_c, before._load_m)
        moved = mu.moved_hosts()
        assert moved.keys() == {
            g
            for v in range(len(mu.inst.vms))
            if mu.host_of(v) != before.host_of(v)
            for g in (mu.host_of(v), before.host_of(v))
            if g is not None
        }
        for g in range(len(mu.inst.hosts)):
            if g in moved:
                assert moved[g] == before.load_parts(g)
            else:
                assert mu.load_parts(g) == before.load_parts(g)
        mu.commit()
        with pytest.raises(RuntimeError):
            mu.moved_hosts()

    @given(st.integers(0, 2**32), OPS, OPS, st.integers(0, 63), st.lists(st.integers(0, 63), min_size=1))
    def test_rollback_after_touching_one_vm_many_times(self, seed, before_ops, ops, a, hosts):
        # one VM toggled through more than |V| assigns and unassigns amid
        # other changes: the first-touch map keeps one entry per VM, with
        # its host at begin(), and the rollback is still exact
        mu = random_instance(random.Random(seed)).initial_mapping()
        _apply(mu, before_ops)
        before = mu.copy()
        n_vms = len(mu.inst.vms)
        mu.begin()
        _apply(mu, ops)
        _apply(mu, [(a, hosts[i % len(hosts)]) for i in range(2 * n_vms + 1)])
        _apply(mu, ops)
        touched = mu.touched()
        assert len(touched) <= n_vms
        assert a % n_vms in touched
        assert all(touched[v] == before.host_of(v) for v in touched)
        mu.rollback()
        assert _state(mu) == _state(before)
        assert mu.caches_consistent()

    @given(st.integers(0, 2**32), OPS, OPS)
    def test_commit_keeps_the_changes(self, seed, before_ops, ops):
        mu = random_instance(random.Random(seed)).initial_mapping()
        _apply(mu, before_ops)
        mu.begin()
        _apply(mu, ops)
        after = mu.copy()
        mu.commit()
        assert _state(mu) == _state(after)
        assert mu.caches_consistent()
        mu.begin()  # the journal is closed, so a new attempt can open
        mu.rollback()
        assert _state(mu) == _state(after)

    def test_attempts_do_not_nest(self, fig2):
        mu = fig2.initial_mapping()
        with pytest.raises(RuntimeError):
            mu.rollback()
        with pytest.raises(RuntimeError):
            mu.commit()
        mu.begin()
        with pytest.raises(RuntimeError):
            mu.begin()

    def test_copy_is_outside_the_attempt(self, fig2):
        mu = fig2.initial_mapping()
        mu.begin()
        mu.unassign(RED)
        dup = mu.copy()
        mu.rollback()
        assert mu.host_of(RED) == 0
        assert dup.host_of(RED) is None
        dup.begin()
        dup.commit()


class TestJson:
    def test_round_trip(self, fig2, tmp_path):
        doc = instance_to_dict(fig2)
        again = instance_from_dict(json.loads(json.dumps(doc)))
        assert again == fig2

    def test_result_mapping_round_trip(self, fig2):
        mu = Mapping(fig2, [1, 1, 2, 2, 1])
        out = instance_with_mapping(fig2, mu)
        assert out.initial_mapping().assignment == (1, 1, 2, 2, 1)
        assert instance_from_dict(instance_to_dict(out)) == out

    def test_missing_field(self):
        with pytest.raises(InstanceFormatError, match="missing top-level field 'vms'"):
            instance_from_dict({"hosts": [], "flavors": []})

    def test_bad_flavor_reference(self):
        doc = {
            "hosts": [{"id": 0, "cpu": 4, "mem": 4}],
            "flavors": [{"id": 0, "cpu": 1, "mem": 1}],
            "vms": [{"id": 0, "flavor": 3, "host": 0}],
        }
        with pytest.raises(InstanceFormatError, match="vms\\[0\\].flavor"):
            instance_from_dict(doc)

    def test_non_integer_field(self):
        doc = {
            "hosts": [{"id": 0, "cpu": 4.5, "mem": 4}],
            "flavors": [],
            "vms": [],
        }
        with pytest.raises(InstanceFormatError, match="hosts\\[0\\].cpu"):
            instance_from_dict(doc)

    @pytest.mark.parametrize("kind", ["hosts", "flavors", "vms"])
    @pytest.mark.parametrize("entry", [5, None, True, "idcpumem"])
    def test_non_object_entry_named(self, fig2, kind, entry):
        doc = instance_to_dict(fig2)
        i = len(doc[kind])
        doc[kind].append(entry)
        with pytest.raises(InstanceFormatError, match=rf"^{kind}\[{i}\]: expected an object"):
            instance_from_dict(doc)

    @pytest.mark.parametrize("kind", ["hosts", "flavors"])
    @pytest.mark.parametrize("field", ["cpu", "mem"])
    def test_zero_resource_rejected(self, fig2, kind, field):
        # the solver relies on every capacity and demand being positive in
        # both resources
        doc = instance_to_dict(fig2)
        doc[kind][1][field] = 0
        with pytest.raises(InstanceFormatError, match=rf"^{kind}\[1\]: "):
            instance_from_dict(doc)

    def test_infeasible_initial_mapping_names_host_and_dimension(self):
        doc = {
            "hosts": [{"id": 0, "cpu": 4, "mem": 3}],
            "flavors": [{"id": 0, "cpu": 2, "mem": 2}],
            "vms": [
                {"id": 0, "flavor": 0, "host": 0},
                {"id": 1, "flavor": 0, "host": 0},
            ],
        }
        with pytest.raises(InfeasibleInstanceError, match="host 0 in mem"):
            instance_from_dict(doc)


class TestRejections:
    """Each malformed document, mapping or weight names what is wrong."""

    @pytest.mark.parametrize("kind", ["hosts", "flavors", "vms"])
    def test_mismatched_id(self, fig2, kind):
        doc = instance_to_dict(fig2)
        doc[kind][1]["id"] = 7
        with pytest.raises(InstanceFormatError, match=rf"^{kind}\[1\]\.id must be 1, got 7$"):
            instance_from_dict(doc)

    def test_unknown_initial_host(self, fig2):
        doc = instance_to_dict(fig2)
        doc["vms"][2]["host"] = 3
        with pytest.raises(InstanceFormatError, match=r"^vms\[2\]\.host: unknown host id 3$"):
            instance_from_dict(doc)

    @pytest.mark.parametrize("kind, field", [("hosts", "cpu"), ("flavors", "mem"), ("vms", "host")])
    def test_missing_entry_field(self, fig2, kind, field):
        doc = instance_to_dict(fig2)
        del doc[kind][0][field]
        with pytest.raises(InstanceFormatError, match=rf"^{kind}\[0\]: missing field '{field}'$"):
            instance_from_dict(doc)

    @pytest.mark.parametrize("doc", [[], "hosts", None])
    def test_document_not_an_object(self, doc):
        with pytest.raises(InstanceFormatError, match="instance document must be a JSON object"):
            instance_from_dict(doc)

    @pytest.mark.parametrize("kind", ["hosts", "flavors", "vms"])
    def test_top_level_field_not_a_list(self, fig2, kind):
        doc = instance_to_dict(fig2)
        doc[kind] = {"0": doc[kind][0]}
        with pytest.raises(InstanceFormatError, match=rf"^{kind}: expected a list$"):
            instance_from_dict(doc)

    def test_initial_mapping_length(self, fig2):
        with pytest.raises(InstanceFormatError, match="initial mapping covers 4 VMs, expected 5"):
            Instance(fig2.hosts, fig2.flavors, fig2.vms, [0, 1, 1, 2])

    def test_mapping_length(self, fig2):
        with pytest.raises(ValueError, match="assignment length does not match the VM count"):
            Mapping(fig2, [0, 1, 1, 2])

    def test_mapping_unknown_host(self, fig2):
        with pytest.raises(ValueError, match="vm 3 mapped to unknown host 5"):
            Mapping(fig2, [0, 1, 1, 5, 2])

    def test_partial_mapping_not_serialized(self, fig2):
        with pytest.raises(ValueError, match="cannot serialize a partial mapping"):
            instance_with_mapping(fig2, Mapping(fig2, [0, 1, None, 2, 2]))

    def test_negative_mph(self):
        with pytest.raises(ValueError, match="mph must be non-negative"):
            ObjectiveWeights.from_mph(-1)

    def test_vm_size_without_vm_load(self):
        inst = Instance([Host(0, ResourceVec(2, 2))], [Flavor(0, ResourceVec(1, 1))], [], [])
        with pytest.raises(ValueError, match="VM sizes are undefined: instance has no VM load"):
            vm_size(0, inst)


def test_migrated_memory_depends_only_on_final_positions(fig2):
    # shuffling an already migrated VM between non-original hosts keeps M fixed
    rng = random.Random(3)
    mu0 = fig2.initial_mapping()
    for _ in range(200):
        assignment = [rng.randrange(3) for _ in range(5)]
        mu = Mapping(fig2, assignment)
        m_before = migrated_memory(mu, mu0)
        v = rng.randrange(5)
        current = mu.host_of(v)
        others = [h for h in range(3) if h != fig2.initial_host(v) and h != current]
        if mu.host_of(v) == fig2.initial_host(v) or not others:
            continue
        mu.unassign(v)
        mu.assign(v, others[0])
        assert migrated_memory(mu, mu0) == m_before


def test_random_instances_valid(tiny_corpus):
    for inst in tiny_corpus[:50]:
        mu = inst.initial_mapping()
        assert mu.is_feasible()
        assert mu.caches_consistent()


def test_shipped_reference_instance_matches_fixture(fig2):
    from pathlib import Path

    from balcon import load_instance

    path = Path(__file__).parent / "data" / "fig2.json"
    assert load_instance(path) == fig2
