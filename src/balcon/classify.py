"""Balance-factor computation and the three-way cluster-state classification.

The balance factor measures how much of the cluster's pooled free space is
usable under the current per-host distribution, in units of a reference
vector s, positive in both resources (usually the aggregate demand of the
stash; ``capacity``, ``potential_capacity`` and ``balance_factor`` reject
any other):

    cap(s, H)  = sum_h min(free(h).cpu / s.cpu, free(h).mem / s.mem)
    pcap(s, H) = min(sum_h free(h).cpu / s.cpu, sum_h free(h).mem / s.mem)
    BF(s, H)   = cap / pcap                                    (in [0, 1])

All values are exact rationals; the classifier itself compares integer cross
products so classification is bit-exact.
"""
from __future__ import annotations

import heapq
from enum import Enum
from fractions import Fraction
from typing import Iterable, Sequence

from .model import Instance, Mapping, ResourceVec

__all__ = [
    "ClusterClass",
    "Stash",
    "DEFAULT_ALPHA",
    "capacity",
    "potential_capacity",
    "balance_factor",
    "classify",
    "fit_scan",
    "split_class",
]

DEFAULT_ALPHA = Fraction(19, 20)


class ClusterClass(Enum):
    AMPLE = "ample"
    BALANCED = "balanced"
    LOPSIDED = "lopsided"


class Stash:
    """VMs waiting for placement, ordered largest-first by relative size.

    Ties go to the lower VM id.  The aggregate demand vector of the members
    is maintained incrementally and always equals the recomputed sum.
    """

    __slots__ = ("inst", "_heap", "_cpu", "_mem")

    def __init__(self, inst: Instance, vm_ids: Iterable[int] = ()) -> None:
        self.inst = inst
        vm_ids = tuple(vm_ids)
        size = inst._size_num
        # heap keys are unique, so the pop order does not depend on how the
        # heap was built
        self._heap = [(-size[v], v) for v in vm_ids]
        heapq.heapify(self._heap)
        self._cpu = sum([inst._vm_cpu[v] for v in vm_ids])
        self._mem = sum([inst._vm_mem[v] for v in vm_ids])

    def push(self, v: int) -> None:
        inst = self.inst
        heapq.heappush(self._heap, (-inst._size_num[v], v))
        self._cpu += inst._vm_cpu[v]
        self._mem += inst._vm_mem[v]

    def extend(self, vm_ids: Iterable[int]) -> None:
        for v in vm_ids:
            self.push(v)

    def peek(self) -> int:
        """Largest member, without removing it."""
        return self._heap[0][1]

    def pop(self) -> int:
        _, v = heapq.heappop(self._heap)
        inst = self.inst
        self._cpu -= inst._vm_cpu[v]
        self._mem -= inst._vm_mem[v]
        return v

    @property
    def cpu_total(self) -> int:
        return self._cpu

    @property
    def mem_total(self) -> int:
        return self._mem

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


def _s_parts(s) -> tuple[Fraction, Fraction]:
    if isinstance(s, ResourceVec):
        s = (s.cpu, s.mem)
    s_cpu, s_mem = Fraction(s[0]), Fraction(s[1])
    if s_cpu <= 0 or s_mem <= 0:
        raise ValueError("reference vector must be positive in both components")
    return s_cpu, s_mem


def capacity(s, hosts: Sequence[int], mu: Mapping) -> Fraction:
    """How many copies of s fit into the hosts' free space, host by host."""
    s_cpu, s_mem = _s_parts(s)
    total = Fraction(0)
    for h in hosts:
        fc, fm = mu.free_parts(h)
        total += min(fc / s_cpu, fm / s_mem)
    return total


def potential_capacity(s, hosts: Sequence[int], mu: Mapping) -> Fraction:
    """How many copies of s would fit if all free space were pooled."""
    s_cpu, s_mem = _s_parts(s)
    sum_c = 0
    sum_m = 0
    for h in hosts:
        fc, fm = mu.free_parts(h)
        sum_c += fc
        sum_m += fm
    return min(sum_c / s_cpu, sum_m / s_mem)


def balance_factor(s, hosts: Sequence[int], mu: Mapping) -> Fraction:
    """cap / pcap, defined as 1 when there is no free space at all."""
    pcap = potential_capacity(s, hosts, mu)
    if pcap == 0:
        return Fraction(1)
    return capacity(s, hosts, mu) / pcap


def split_class(
    cap_num: int, sum_c: int, sum_m: int, s_cpu: int, s_mem: int, alpha: Fraction
) -> ClusterClass:
    """Balanced or Lopsided from the free-space sums over a host set, for a
    stash of total demand s = (s_cpu, s_mem) with both totals positive.

    ``cap_num = sum_h min(fc_h * s_mem, fm_h * s_cpu)`` and ``sum_c``,
    ``sum_m`` are the summed free cpu and mem.  cap and pcap share the
    denominator s_cpu * s_mem, so ``cap = cap_num / (s_cpu * s_mem)`` and
    ``pcap = min(sum_c * s_mem, sum_m * s_cpu) / (s_cpu * s_mem)``, and the
    Lopsided tests cap < 1 and cap < alpha * pcap reduce to integer
    comparisons.  ``fit_scan`` computes the sums by a scan of the hosts,
    ``solver.ReleaseEngine.classify`` from its free-space angle index; both
    decide here, so the rule is written once.
    """
    if cap_num < s_cpu * s_mem:
        return ClusterClass.LOPSIDED
    pcap_num = min(sum_c * s_mem, sum_m * s_cpu)
    if cap_num * alpha.denominator < alpha.numerator * pcap_num:
        return ClusterClass.LOPSIDED
    return ClusterClass.BALANCED


def fit_scan(
    v: int, hosts: Sequence[int], mu: Mapping, s_cpu: int, s_mem: int
) -> tuple[int | None, int, int, int]:
    """One scan of ``hosts`` for placing VM ``v``, leaving ``mu`` as it is:
    ``(choice, cap_num, sum_c, sum_m)``.

    ``choice`` is the host that fits v with the highest surrogate load,
    compared by ``model.load_key``; the first of equals wins, so ties go to
    the lower id when ``hosts`` ascend.  When no host fits v,
    ``choice`` is None and the sums are ``split_class``'s over all the hosts
    for the reference vector (s_cpu, s_mem); otherwise they mean nothing.
    """
    inst = mu.inst
    cap_c, cap_m = inst._cap_cpu, inst._cap_mem
    load_c, load_m = mu._load_c, mu._load_m
    vc, vm = inst._vm_cpu[v], inst._vm_mem[v]
    scale = inst._key_scale
    choice = None
    best = -1  # the best load key so far; -1 is below every key
    cap_num = sum_c = sum_m = 0
    # one name per assignment: here tuple assignments cost up to a third more
    for h in hosts:
        fc = cap_c[h] - load_c[h]
        fm = cap_m[h] - load_m[h]
        if fc < vc or fm < vm:
            if choice is None:
                by_c = fc * s_mem
                by_m = fm * s_cpu
                cap_num += by_c if by_c < by_m else by_m
                sum_c += fc
                sum_m += fm
            continue
        cc = cap_c[h]
        cm = cap_m[h]
        # model.load_key(inst, h, load_c[h], load_m[h]), inlined: no call per host
        key = (load_c[h] * cm + load_m[h] * cc) * scale // (cc * cm)
        if key > best:
            choice = h
            best = key
    return choice, cap_num, sum_c, sum_m


def classify(
    stash: Stash,
    hosts: Sequence[int],
    mu: Mapping,
    v: int,
    alpha: Fraction = DEFAULT_ALPHA,
) -> ClusterClass:
    """Classify the cluster state for placing the stash's largest VM ``v``.

    ``v`` must still be in the stash: the reference vector is the aggregate
    stash demand including it, positive in both resources as every flavor's
    demand is.  Ample when some host fits v directly; else Lopsided when
    cap < 1 or cap < alpha * pcap; else Balanced, by one ``fit_scan``.
    """
    s_cpu, s_mem = stash.cpu_total, stash.mem_total
    choice, *sums = fit_scan(v, hosts, mu, s_cpu, s_mem)
    if choice is not None:
        return ClusterClass.AMPLE
    return split_class(*sums, s_cpu, s_mem, alpha)
