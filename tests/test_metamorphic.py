"""Metamorphic relations: transformations of an instance whose effect on the
result of every algorithm is known without a reference solver.

Each relation runs ``balcon``, ``sercon-mod`` and ``sercon-orig`` at mph 10
and inf on a seeded sample of generated instances and compares the run on
the transformed instance with the run on the original one.
"""
from __future__ import annotations

import math

import pytest

from balcon import (
    ALGORITHMS,
    Flavor,
    GenConfig,
    Host,
    Instance,
    ObjectiveWeights,
    ResourceVec,
    SolverParams,
    generate_instance,
)

K = 3
MPHS = (10, math.inf)
SAMPLE = [
    GenConfig(seed=seed, num_hosts=hosts, mode=mode)
    for seed in range(4)
    for hosts in (8, 20)
    for mode in ("lopsided", "uniform")
]
RUNS = [(algo, mph) for algo in sorted(ALGORITHMS) for mph in MPHS]


@pytest.fixture(scope="module")
def sample() -> list[Instance]:
    return [generate_instance(cfg) for cfg in SAMPLE]


def _rebuilt(inst: Instance, cpu: int = 1, mem: int = 1, hosts: tuple[Host, ...] = ()) -> Instance:
    # every cpu value times ``cpu``, every mem value times ``mem``, ``hosts``
    # appended; the VMs and the initial mapping are kept
    def scaled(vec: ResourceVec) -> ResourceVec:
        return ResourceVec(vec.cpu * cpu, vec.mem * mem)

    return Instance(
        [*(Host(h.id, scaled(h.capacity)) for h in inst.hosts), *hosts],
        [Flavor(f.id, scaled(f.demand)) for f in inst.flavors],
        inst.vms,
        [inst.initial_host(v.id) for v in inst.vms],
    )


def _run(algo: str, inst: Instance, mph):
    return ALGORITHMS[algo](inst, SolverParams(weights=ObjectiveWeights.from_mph(mph)))


@pytest.mark.parametrize("algo, mph", RUNS)
def test_scaling_cpu_changes_nothing(sample, algo, mph):
    """Scaling every cpu value, of hosts and flavors, by k leaves the mapping
    and every attempt record identical.

    Every decision compares cpu quantities only in forms where k cancels or
    multiplies both sides alike, and all arithmetic is exact:

    - fit tests ``c <= cap_c - load_c`` gain k on both sides;
    - the surrogate load ``load_c / cap_c + load_m / cap_m`` and the relative
      VM size ``c / total_c + m / total_m`` hold cpu only in ratios of cpu
      values, so they do not change;
    - the angle comparisons, the cap sum ``min(fc * s_mem, fm * s_cpu)``, the
      Lopsided tests ``cap_num < s_cpu * s_mem`` and ``cap_num < alpha *
      pcap_num`` and the angle index's binary search have one cpu factor in
      every term, so each side gains k; the index's sort key orders the
      ratios fc / fm exactly, so its order does not change either;
    - the Lopsided fallback compares loads within one resource, and the
      eviction orders read memory and ids only;
    - the lower bound's cover test gains k on both sides, and its L1 term
      ``ceil(k * D_c / (k * C))`` equals ``ceil(D_c / C)``;
    - the objective counts hosts and memory, which k does not touch.

    So every branch goes the same way, and runs compare equal record by
    record (the records hold no times).
    """
    for inst in sample:
        mu, report = _run(algo, inst, mph)
        mu_k, report_k = _run(algo, _rebuilt(inst, cpu=K), mph)
        assert mu_k.assignment == mu.assignment
        assert report_k.attempts == report.attempts
        assert (report_k.objective, report_k.migrated_mem, report_k.force_steps) == (
            report.objective,
            report.migrated_mem,
            report.force_steps,
        )


@pytest.mark.parametrize("algo, mph", RUNS)
def test_scaling_mem_and_mph_scales_the_objective(sample, algo, mph):
    """Scaling every mem value and mph by k leaves the mapping, the force
    steps and the class counts identical, and multiplies migrated memory by
    k, and the objective too when mph is finite (at mph = inf it counts
    hosts only and does not change).

    The placement decisions are those of the cpu relation with the
    resources swapped: every mem comparison gains k on both sides or holds
    mem in a ratio.  The host order and the eviction orders by memory keep
    their order when all memory gains k.  What is left is the objective
    w_a * hosts + w_m * migrated memory.  ``from_mph(k * mph)`` gives
    w_a = k * mph and w_m = 1, so every objective, and the lower bound w_a *
    L1 + w_m * memory, is k times the old one; the acceptance test ``candidate
    <= best``, the skip test ``bound > best`` and the per-host budget
    ``delta_migrated * w_m <= w_a`` compare k times both sides.  At mph = inf
    the weights are (1, 0) before and after.
    """
    obj_k = 1 if mph == math.inf else K
    for inst in sample:
        mu, report = _run(algo, inst, mph)
        mu_k, report_k = _run(algo, _rebuilt(inst, mem=K), K * mph)
        assert mu_k.assignment == mu.assignment
        assert (report_k.objective, report_k.migrated_mem, report_k.force_steps) == (
            obj_k * report.objective,
            K * report.migrated_mem,
            report.force_steps,
        )
        assert len(report_k.attempts) == len(report.attempts)
        for a, a_k in zip(report.attempts, report_k.attempts):
            assert (a_k.host, a_k.outcome, a_k.released, a_k.force_steps, a_k.class_counts) == (
                a.host,
                a.outcome,
                a.released,
                a.force_steps,
                a.class_counts,
            )
            assert (a_k.objective_after, a_k.migrated_after) == (
                obj_k * a.objective_after,
                K * a.migrated_after,
            )


@pytest.mark.parametrize("algo, mph", RUNS)
def test_appending_an_empty_host_changes_nothing(sample, algo, mph):
    """Appending an empty host, no larger than the largest capacity in
    either resource, leaves the mapping, the totals and the records of the
    other hosts' attempts identical.

    Every placement goes to an active host (a room list, ``hosts()`` or a
    Force Step destination), and nothing lands on an empty host, so the new
    host never becomes active and the active set, the lower bound's
    capacity sums and the angle index are the same.  The lower bound's L1
    and the index's sort key read the largest capacities, which the new host
    does not raise.  ``sercon_original`` attempts active hosts only.
    ``balcon`` attempts every host in order of migration cost, then id, so
    the new host (cost 0, the highest id) comes after the others it ties
    with and leaves their order alone; its attempt stashes nothing and is
    accepted with the objective unchanged, committing no move.
    """
    for inst in sample:
        mu, report = _run(algo, inst, mph)
        new = len(inst.hosts)
        widest = ResourceVec(
            max(h.capacity.cpu for h in inst.hosts), max(h.capacity.mem for h in inst.hosts)
        )
        mu_e, report_e = _run(algo, _rebuilt(inst, hosts=(Host(new, widest),)), mph)
        assert mu_e.assignment == mu.assignment
        assert (
            report_e.active_hosts,
            report_e.objective,
            report_e.migrated_mem,
            report_e.force_steps,
        ) == (report.active_hosts, report.objective, report.migrated_mem, report.force_steps)
        extra = [a for a in report_e.attempts if a.host == new]
        assert [a for a in report_e.attempts if a.host != new] == report.attempts
        assert all(a.accepted and not a.released and a.force_steps == 0 for a in extra)
        assert len(extra) == (algo != "sercon-orig")
