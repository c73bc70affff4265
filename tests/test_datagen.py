import hashlib
import json
import random
import statistics
from fractions import Fraction

import pytest

from balcon import (
    Flavor,
    GenConfig,
    GenerationError,
    Host,
    Instance,
    ResourceVec,
    VM,
    generate_flavors,
    generate_instance,
    instance_balance_factor,
)
from balcon.model import instance_to_dict


def cfg(seed, mode="lopsided", **kw):
    base = dict(
        seed=seed,
        num_hosts=10,
        host_capacity=ResourceVec(16, 12),
        num_flavors=12,
        target_fill=0.9,
        mode=mode,
    )
    base.update(kw)
    return GenConfig(**base)


class TestFlavors:
    def test_weights_inverse_to_cpu(self):
        rng = random.Random(0)
        flavors, weights = generate_flavors(
            GenConfig(seed=0, num_hosts=4, host_capacity=ResourceVec(30, 8), num_flavors=30),
            rng,
        )
        assert flavors[0].demand.cpu == 1
        assert flavors[-1].demand.cpu == 30
        assert weights[0] / weights[-1] == 30

    def test_single_flavor(self):
        rng = random.Random(0)
        flavors, weights = generate_flavors(
            GenConfig(seed=0, num_hosts=4, host_capacity=ResourceVec(8, 8), num_flavors=1),
            rng,
        )
        assert len(flavors) == 1
        assert weights == [Fraction(1, flavors[0].demand.cpu)]

    def test_ladder_scales_to_capacity(self):
        rng = random.Random(1)
        flavors, _ = generate_flavors(
            GenConfig(seed=0, num_hosts=4, host_capacity=ResourceVec(8, 8), num_flavors=4),
            rng,
        )
        assert [f.demand.cpu for f in flavors] == [2, 4, 6, 8]

    def test_memory_within_half_capacity(self):
        rng = random.Random(2)
        flavors, _ = generate_flavors(
            GenConfig(seed=0, num_hosts=4, host_capacity=ResourceVec(10, 9), num_flavors=20),
            rng,
        )
        assert all(1 <= f.demand.mem <= 4 for f in flavors)

    def test_deterministic(self):
        a, wa = generate_flavors(cfg(5), random.Random(5))
        b, wb = generate_flavors(cfg(5), random.Random(5))
        assert a == b and wa == wb


class TestGeneration:
    def test_no_flavors_rejected(self):
        with pytest.raises(ValueError, match="^num_flavors must be at least 1$"):
            GenConfig(seed=0, num_hosts=4, num_flavors=0)

    def test_gives_up_after_unplaceable_samples(self):
        # default lopsided configs at 300 hosts fail for most seeds, seed 0
        # among them
        with pytest.raises(GenerationError, match=r"^gave up after 101 unplaceable samples \(seed 0\)$"):
            generate_instance(GenConfig(seed=0, num_hosts=300))

    def test_deterministic_instances(self):
        a = generate_instance(cfg(42))
        b = generate_instance(cfg(42))
        assert a == b
        assert json.dumps(instance_to_dict(a)) == json.dumps(instance_to_dict(b))

    def test_different_seeds_differ(self):
        assert generate_instance(cfg(1)) != generate_instance(cfg(2))

    def test_feasible_by_construction(self):
        for seed in range(30):
            inst = generate_instance(cfg(seed))
            assert inst.initial_mapping().is_feasible()

    def test_no_empty_hosts_after_trim(self):
        for seed in range(20):
            inst = generate_instance(cfg(seed, target_fill=0.4))
            mu = inst.initial_mapping()
            assert mu.active_count() == len(inst.hosts)
            assert [h.id for h in inst.hosts] == list(range(len(inst.hosts)))

    def test_lopsided_packs_high_angles_first(self):
        inst = generate_instance(cfg(7))
        # vm ids follow packing order: load angles are non-increasing
        angles = [
            Fraction(inst._vm_cpu[v], inst._vm_mem[v]) for v in range(len(inst.vms))
        ]
        assert angles == sorted(angles, reverse=True)

    @pytest.mark.parametrize(
        "config, sha256",
        [
            (GenConfig(seed=0, num_hosts=20),
             "eef1cfbc44f4b42f079165829f2faa49dc4f0d85b4445444b47e4e440bee5d09"),
            (GenConfig(seed=1, num_hosts=12, mode="uniform"),
             "3f47b6592a6b198ec5a6418a8d03c83deb9f657772acbd8c4834dfee29b5d307"),
            (GenConfig(seed=2, num_hosts=100, target_fill=0.6),
             "f1b49e981b9e8d04b108dfca90e0c9b89f0b68d08709c49820197971ce14df1d"),
            (GenConfig(seed=1000, num_hosts=300, target_fill=0.6),
             "5ecc6117e7d3e98aaabec4d2deb73b3666c923d53527a14cf797ea65f6b47f64"),
            (GenConfig(seed=7, num_hosts=4, host_capacity=ResourceVec(5, 6), num_flavors=4,
                       target_fill=0.7),
             "1faadc227100ad3bdb516ba96d4fe9728345a98c0217de5fd319eb3bb0266193"),
            (cfg(3, mode="uniform"),
             "7b3d905697bbc613cc0909bd672cc9d091b400921a8739c38ff849451aa3317c"),
        ],
    )
    def test_pinned_instances(self, config, sha256):
        # digests recorded from the generator before its set-up work was cut
        doc = json.dumps(instance_to_dict(generate_instance(config)), sort_keys=True)
        assert hashlib.sha256(doc.encode()).hexdigest() == sha256

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GenConfig(seed=0, num_hosts=0)
        with pytest.raises(ValueError):
            GenConfig(seed=0, num_hosts=1, target_fill=0.0)
        with pytest.raises(ValueError):
            GenConfig(seed=0, num_hosts=1, mode="zigzag")
        with pytest.raises(ValueError):
            GenConfig(seed=0, num_hosts=1, host_capacity=ResourceVec(4, 1))

    def test_zero_cpu_capacity_rejected(self):
        with pytest.raises(ValueError, match="host cpu capacity must be at least 1, got 0"):
            GenConfig(seed=0, num_hosts=1, host_capacity=ResourceVec(0, 32))


class TestBalanceFactorOfInstances:
    def test_fig2_value(self, fig2):
        assert instance_balance_factor(fig2) == Fraction(1, 2)

    def test_no_hosts_rejected(self):
        with pytest.raises(ValueError, match="^instance has no hosts$"):
            instance_balance_factor(Instance([], [], [], []))

    def test_identical_loads_are_balanced(self):
        hosts = [Host(i, ResourceVec(4, 4)) for i in range(3)]
        flavors = [Flavor(0, ResourceVec(2, 2))]
        vms = [VM(i, 0) for i in range(3)]
        inst = Instance(hosts, flavors, vms, [0, 1, 2])
        assert instance_balance_factor(inst) == 1

    def test_fully_packed_cluster(self):
        hosts = [Host(i, ResourceVec(2, 2)) for i in range(2)]
        flavors = [Flavor(0, ResourceVec(2, 2))]
        vms = [VM(i, 0) for i in range(2)]
        inst = Instance(hosts, flavors, vms, [0, 1])
        assert instance_balance_factor(inst) == 1

    def test_lopsided_mode_less_balanced_than_uniform(self):
        lop = []
        uni = []
        for seed in range(50):
            lop.append(float(instance_balance_factor(generate_instance(cfg(seed)))))
            uni.append(float(instance_balance_factor(generate_instance(cfg(seed, mode="uniform")))))
        assert statistics.mean(lop) < statistics.mean(uni)
