"""Core domain model for migration-aware VM consolidation.

Capacities, loads and demands are pairs of non-negative integers (cpu cores,
memory units); all bookkeeping is exact integer arithmetic.  Scalar measures
(relative VM size, surrogate host load) are exact rationals, and the solver
orders by them through integer cross products, so that every ordering
decision is deterministic and platform independent.
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from operator import le, ne
from pathlib import Path
from typing import Sequence

__all__ = [
    "ResourceVec",
    "Flavor",
    "Host",
    "VM",
    "Instance",
    "Mapping",
    "ObjectiveWeights",
    "InstanceFormatError",
    "InfeasibleInstanceError",
    "migrated_memory",
    "objective",
    "host_migration_cost",
    "migration_costs",
    "vm_size",
    "surrogate_load",
    "load_key",
    "instance_from_dict",
    "instance_to_dict",
    "load_instance",
    "save_instance",
    "instance_with_mapping",
]


class InstanceFormatError(ValueError):
    """A malformed instance document: bad type, bad id, dangling reference."""


class InfeasibleInstanceError(ValueError):
    """An initial mapping that overloads some host."""


@dataclass(frozen=True)
class ResourceVec:
    """A (cpu, mem) pair of non-negative integers.

    Memory is counted in abstract units; the command-line layer treats one
    unit as 1 MiB.
    """

    cpu: int
    mem: int

    def __post_init__(self) -> None:
        if type(self.cpu) is int and type(self.mem) is int and self.cpu >= 0 and self.mem >= 0:
            return
        for name in ("cpu", "mem"):
            value = getattr(self, name)
            if type(value) is not int:
                raise TypeError(f"{name} must be an int, got {type(value).__name__}")
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")


@dataclass(frozen=True)
class Flavor:
    """A predefined (cpu, mem) demand class shared by many VMs."""

    id: int
    demand: ResourceVec

    def __post_init__(self) -> None:
        if self.demand.cpu < 1 or self.demand.mem < 1:
            raise ValueError(f"flavor {self.id} demand must be strictly positive in both resources")


@dataclass(frozen=True)
class Host:
    id: int
    capacity: ResourceVec

    def __post_init__(self) -> None:
        if self.capacity.cpu < 1 or self.capacity.mem < 1:
            raise ValueError(f"host {self.id} capacity must be at least 1 in both resources")


@dataclass(frozen=True)
class VM:
    """A VM's demand is exactly its flavor's demand."""

    id: int
    flavor: int


@dataclass(frozen=True)
class ObjectiveWeights:
    """Weights of the linear objective w_a * active_hosts + w_m * migrated_mem.

    The ratio w_a / w_m is the migration budget that breaks even with
    releasing one host (``mph``, in memory units).  ``mph == inf`` is the pure
    bin-packing mode, represented as (w_a, w_m) = (1, 0): migrated memory is
    still tracked but never blocks acceptance.
    """

    w_a: int | Fraction
    w_m: int | Fraction

    def __post_init__(self) -> None:
        if self.w_a < 0 or self.w_m < 0:
            raise ValueError("objective weights must be non-negative")
        if self.w_a == 0 and self.w_m == 0:
            raise ValueError("objective weights must not both be zero")

    @classmethod
    def from_mph(cls, mph: int | Fraction | float) -> "ObjectiveWeights":
        """Build weights from a migration-per-host budget in memory units."""
        if mph == math.inf:
            return cls(1, 0)
        value = Fraction(mph)
        if value < 0:
            raise ValueError("mph must be non-negative")
        w_a: int | Fraction = int(value) if value.denominator == 1 else value
        return cls(w_a, 1)

    @property
    def mph(self) -> Fraction | float:
        if self.w_m == 0:
            return math.inf
        return Fraction(self.w_a) / Fraction(self.w_m)


class Instance:
    """An immutable consolidation problem: hosts, flavors, VMs and the
    initial feasible mapping.

    The package reads it through a read-only core of tuples indexed by VM or
    host id: ``_vm_cpu``/``_vm_mem`` (demands), ``_cap_cpu``/``_cap_mem``
    (capacities), ``_initial`` (initial hosts) and ``_size_num``/``_size_den``
    (``vm_size``; empty and 0 without VM load), plus the ``load_key`` scale
    ``_key_scale``.  Nothing may change them."""

    __slots__ = (
        "hosts",
        "flavors",
        "vms",
        "_initial",
        "_vm_cpu",
        "_vm_mem",
        "_cap_cpu",
        "_cap_mem",
        "_size_num",
        "_size_den",
        "_key_scale",
    )

    def __init__(
        self,
        hosts: Sequence[Host],
        flavors: Sequence[Flavor],
        vms: Sequence[VM],
        initial_hosts: Sequence[int],
    ) -> None:
        self.hosts = tuple(hosts)
        self.flavors = tuple(flavors)
        self.vms = tuple(vms)
        for i, h in enumerate(self.hosts):
            if h.id != i:
                raise InstanceFormatError(f"hosts[{i}].id must be {i}, got {h.id}")
        for i, f in enumerate(self.flavors):
            if f.id != i:
                raise InstanceFormatError(f"flavors[{i}].id must be {i}, got {f.id}")
        n_hosts, n_flavors = len(self.hosts), len(self.flavors)
        for i, v in enumerate(self.vms):
            if v.id != i:
                raise InstanceFormatError(f"vms[{i}].id must be {i}, got {v.id}")
            if not 0 <= v.flavor < n_flavors:
                raise InstanceFormatError(f"vms[{i}].flavor: unknown flavor id {v.flavor}")
        if len(initial_hosts) != len(self.vms):
            raise InstanceFormatError(
                f"initial mapping covers {len(initial_hosts)} VMs, expected {len(self.vms)}"
            )
        flavor_cpu = [f.demand.cpu for f in self.flavors]
        flavor_mem = [f.demand.mem for f in self.flavors]
        self._vm_cpu = tuple([flavor_cpu[v.flavor] for v in self.vms])
        self._vm_mem = tuple([flavor_mem[v.flavor] for v in self.vms])
        self._cap_cpu = tuple([h.capacity.cpu for h in self.hosts])
        self._cap_mem = tuple([h.capacity.mem for h in self.hosts])

        initial = tuple(initial_hosts)
        load_c = [0] * n_hosts
        load_m = [0] * n_hosts
        for v, (h, c, m) in enumerate(zip(initial, self._vm_cpu, self._vm_mem)):
            if not (type(h) is int and 0 <= h < n_hosts):
                raise InstanceFormatError(f"vms[{v}].host: unknown host id {h!r}")
            load_c[h] += c
            load_m[h] += m
        for h in range(n_hosts):
            if load_c[h] > self._cap_cpu[h]:
                raise InfeasibleInstanceError(
                    f"initial mapping overloads host {h} in cpu ({load_c[h]} > {self._cap_cpu[h]})"
                )
            if load_m[h] > self._cap_mem[h]:
                raise InfeasibleInstanceError(
                    f"initial mapping overloads host {h} in mem ({load_m[h]} > {self._cap_mem[h]})"
                )
        self._initial = initial

        # Relative VM sizes share the denominator total_cpu * total_mem, so
        # ordering reduces to integer comparison of the numerators.
        tot_cpu = sum(self._vm_cpu)
        tot_mem = sum(self._vm_mem)
        if tot_cpu > 0 and tot_mem > 0:
            self._size_den = tot_cpu * tot_mem
            self._size_num = tuple(
                [c * tot_mem + m * tot_cpu for c, m in zip(self._vm_cpu, self._vm_mem)]
            )
        else:
            self._size_den = 0
            self._size_num = ()
        self._key_scale = max(map(int.__mul__, self._cap_cpu, self._cap_mem), default=1) ** 2

    def initial_mapping(self) -> "Mapping":
        """A fresh mutable copy of the initial mapping."""
        return Mapping(self, self._initial)

    def initial_host(self, v: int) -> int:
        return self._initial[v]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return (
            self.hosts == other.hosts
            and self.flavors == other.flavors
            and self.vms == other.vms
            and self._initial == other._initial
        )

    def __hash__(self) -> int:
        return hash((self.hosts, self.flavors, self.vms, self._initial))

    def __repr__(self) -> str:
        return (
            f"Instance(hosts={len(self.hosts)}, flavors={len(self.flavors)}, "
            f"vms={len(self.vms)})"
        )


class Mapping:
    """A possibly partial assignment of VMs to hosts with cached per-host
    loads and member sets.

    Unassigned VMs are the ones sitting in whatever stash the caller holds.
    A mapping is feasible iff it is total and every host load stays within
    capacity in both dimensions.

    A tentative change is an attempt: ``begin()`` opens an empty first-touch
    map ``{vm: host at first touch}``, to which ``assign``/``unassign`` add a
    VM only the first time they touch it; ``rollback()`` moves each touched
    VM back in place and ``commit()`` keeps the change.  Opening and undoing
    an attempt, and listing the hosts it moved, thus cost what the attempt
    touched: at most |V| entries, however often it moved a VM.  Attempts do
    not nest.  Mappings compare by instance and assignment; as they change,
    they are unhashable.
    """

    __slots__ = ("inst", "_host_of", "_load_c", "_load_m", "_members", "_first")

    def __init__(self, inst: Instance, assignment: Sequence[int | None]) -> None:
        n_hosts = len(inst.hosts)
        if len(assignment) != len(inst.vms):
            raise ValueError("assignment length does not match the VM count")
        self.inst = inst
        self._host_of: list[int | None] = list(assignment)
        self._load_c = [0] * n_hosts
        self._load_m = [0] * n_hosts
        self._members: list[set[int]] = [set() for _ in range(n_hosts)]
        for v, (h, c, m) in enumerate(zip(self._host_of, inst._vm_cpu, inst._vm_mem)):
            if h is None:
                continue
            if not 0 <= h < n_hosts:
                raise ValueError(f"vm {v} mapped to unknown host {h}")
            self._load_c[h] += c
            self._load_m[h] += m
            self._members[h].add(v)
        self._first: dict[int, int | None] | None = None

    def copy(self) -> "Mapping":
        """An independent copy of the assignment, outside any attempt."""
        dup = object.__new__(Mapping)
        dup.inst = self.inst
        dup._host_of = self._host_of.copy()
        dup._load_c = self._load_c.copy()
        dup._load_m = self._load_m.copy()
        dup._members = [s.copy() for s in self._members]
        dup._first = None
        return dup

    def begin(self) -> None:
        """Open an attempt: later changes can be undone by ``rollback()``."""
        if self._first is not None:
            raise RuntimeError("an attempt is already open on this mapping")
        self._first = {}

    def commit(self) -> None:
        """Close the open attempt and keep its changes."""
        if self._first is None:
            raise RuntimeError("no attempt is open on this mapping")
        self._first = None

    def rollback(self) -> None:
        """Close the open attempt and move every VM it touched back to its
        host as of ``begin()``, with its loads and member sets."""
        host_of, load_c, load_m, members = self._host_of, self._load_c, self._load_m, self._members
        cpu, mem = self.inst._vm_cpu, self.inst._vm_mem
        for v, old in self.touched().items():
            new = host_of[v]
            if new == old:
                continue
            if new is not None:
                load_c[new] -= cpu[v]
                load_m[new] -= mem[v]
                members[new].discard(v)
            if old is not None:
                load_c[old] += cpu[v]
                load_m[old] += mem[v]
                members[old].add(v)
            host_of[v] = old
        self._first = None

    def touched(self) -> dict[int, int | None]:
        """The open attempt's first-touch map: each VM assigned or unassigned
        since ``begin()``, with its host at that time.  Read-only."""
        first = self._first
        if first is None:
            raise RuntimeError("no attempt is open on this mapping")
        return first

    def moved_hosts(self) -> dict[int, tuple[int, int]]:
        """The hosts that gained or lost a VM in the open attempt, each with
        its cpu and mem load as of ``begin()``; the load of every other host
        equals its ``committed_loads()`` entry."""
        host_of = self._host_of
        cpu, mem = self.inst._vm_cpu, self.inst._vm_mem
        delta: dict[int, list[int]] = {}
        for v, old in self.touched().items():
            new = host_of[v]
            if new == old:
                continue
            # committed load = current load - what arrived + what left
            if new is not None:
                d = delta.setdefault(new, [0, 0])
                d[0] -= cpu[v]
                d[1] -= mem[v]
            if old is not None:
                d = delta.setdefault(old, [0, 0])
                d[0] += cpu[v]
                d[1] += mem[v]
        load_c, load_m = self._load_c, self._load_m
        return {g: (load_c[g] + dc, load_m[g] + dm) for g, (dc, dm) in delta.items()}

    def committed_loads(self) -> tuple[list[int], list[int]]:
        """The cpu and mem load lists as of ``begin()`` while an attempt is
        open, built in O(H + touched VMs); else the current ones, read-only."""
        if self._first is None:
            return self._load_c, self._load_m
        load_c, load_m = self._load_c.copy(), self._load_m.copy()
        for g, (lc, lm) in self.moved_hosts().items():
            load_c[g], load_m[g] = lc, lm
        return load_c, load_m

    @property
    def assignment(self) -> tuple[int | None, ...]:
        return tuple(self._host_of)

    def host_of(self, v: int) -> int | None:
        return self._host_of[v]

    def assign(self, v: int, h: int) -> None:
        if self._host_of[v] is not None:
            raise ValueError(f"vm {v} is already assigned")
        first = self._first
        if first is not None and v not in first:
            first[v] = None
        self._host_of[v] = h
        inst = self.inst
        self._load_c[h] += inst._vm_cpu[v]
        self._load_m[h] += inst._vm_mem[v]
        self._members[h].add(v)

    def unassign(self, v: int) -> int:
        h = self._host_of[v]
        if h is None:
            raise ValueError(f"vm {v} is not assigned")
        first = self._first
        if first is not None and v not in first:
            first[v] = h
        self._host_of[v] = None
        inst = self.inst
        self._load_c[h] -= inst._vm_cpu[v]
        self._load_m[h] -= inst._vm_mem[v]
        self._members[h].discard(v)
        return h

    def load_parts(self, h: int) -> tuple[int, int]:
        return (self._load_c[h], self._load_m[h])

    def free_parts(self, h: int) -> tuple[int, int]:
        fc = self.inst._cap_cpu[h] - self._load_c[h]
        fm = self.inst._cap_mem[h] - self._load_m[h]
        if fc < 0 or fm < 0:
            raise RuntimeError(
                f"host {h} is overloaded (load {self._load_c[h]},{self._load_m[h]} "
                f"exceeds capacity); mapping state is corrupt"
            )
        return (fc, fm)

    def fits(self, v: int, h: int) -> bool:
        fc, fm = self.free_parts(h)
        return self.inst._vm_cpu[v] <= fc and self.inst._vm_mem[v] <= fm

    def members(self, h: int) -> set[int]:
        return self._members[h]

    def vms_on(self, h: int) -> tuple[int, ...]:
        return tuple(sorted(self._members[h]))

    def active_hosts(self) -> list[int]:
        return [h for h in range(len(self.inst.hosts)) if self._members[h]]

    def active_count(self) -> int:
        return sum(map(bool, self._members))

    def is_total(self) -> bool:
        return None not in self._host_of

    def is_feasible(self) -> bool:
        return (
            self.is_total()
            and all(map(le, self._load_c, self.inst._cap_cpu))
            and all(map(le, self._load_m, self.inst._cap_mem))
        )

    def caches_consistent(self) -> bool:
        """Recompute all caches from scratch and compare (test hook)."""
        rebuilt = Mapping(self.inst, self._host_of)
        return (
            rebuilt._load_c == self._load_c
            and rebuilt._load_m == self._load_m
            and rebuilt._members == self._members
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Mapping):
            return NotImplemented
        return self.inst == other.inst and self._host_of == other._host_of

    def __repr__(self) -> str:
        return f"Mapping({self._host_of!r})"


def migrated_memory(mu: Mapping, mu0: Mapping) -> int:
    """Total memory of VMs whose host differs from the initial mapping."""
    if not mu.is_total():
        raise ValueError("migrated memory requires a total mapping")
    return sum(compress(mu.inst._vm_mem, map(ne, mu._host_of, mu0._host_of)))


def objective(mu: Mapping, mu0: Mapping, weights: ObjectiveWeights):
    """w_a * active_hosts + w_m * migrated_memory; +inf for partial mappings."""
    if not mu.is_total():
        return math.inf
    base = weights.w_a * mu.active_count()
    if weights.w_m == 0:
        return base
    return base + weights.w_m * migrated_memory(mu, mu0)


def host_migration_cost(h: int, mu: Mapping, mu0: Mapping) -> int:
    """Memory of the VMs on h that still sit on their original host."""
    mem = mu.inst._vm_mem
    return sum(mem[v] for v in mu.members(h) if mu0._host_of[v] == h)


def migration_costs(mu: Mapping, mu0: Mapping) -> list[int]:
    """``host_migration_cost(h, mu, mu0)`` of every host h, indexed by host,
    in one pass over the VMs: a VM counts on its host in ``mu`` when that is
    its host in ``mu0``.  The solvers order their release attempts by it."""
    costs = [0] * len(mu.inst.hosts)
    for h, h0, m in zip(mu._host_of, mu0._host_of, mu.inst._vm_mem):
        if h == h0 and h is not None:
            costs[h] += m
    return costs


def vm_size(v: int, inst: Instance) -> Fraction:
    """Relative VM size: v.cpu / total_cpu + v.mem / total_mem."""
    if inst._size_den == 0:
        raise ValueError("VM sizes are undefined: instance has no VM load")
    return Fraction(inst._size_num[v], inst._size_den)


def surrogate_load(h: int, mu: Mapping) -> Fraction:
    """Sum of the per-resource load fractions of a host.

    The exact definition; the solver compares it through ``load_key``."""
    lc, lm = mu.load_parts(h)
    inst = mu.inst
    return Fraction(lc, inst._cap_cpu[h]) + Fraction(lm, inst._cap_mem[h])


def load_key(inst: Instance, h: int, lc: int, lm: int) -> int:
    """Host h's surrogate load at the load (lc, lm) as an exact integer: two
    keys compare as their (host, load) pairs' surrogate loads do, equal
    exactly when those are; ``classify.fit_scan`` inlines the expression.

    The load is num / den = (lc * cap_m + lm * cap_c) / (cap_c * cap_m), the
    key num * S // den with S = ``inst._key_scale`` = D**2, D the largest
    cap_c * cap_m.  Lemma: for integers a, c >= 0 and 1 <= b, d <= D, the
    floors a * S // b and c * S // d compare as a/b and c/d do.  Equal
    ratios give equal floors; distinct ones a/b < c/d differ by (cb - ad) /
    (bd) >= 1 / D**2, so c * S / d >= a * S / b + 1.  The lemma applies to
    den <= D, and to the free space fc / fm that ``solver.ReleaseEngine``'s
    angle index sorts by, as fm <= cap_m <= D."""
    cc, cm = inst._cap_cpu[h], inst._cap_mem[h]
    return (lc * cm + lm * cc) * inst._key_scale // (cc * cm)


# On-disk instance schema:
#   {"hosts":   [{"id":0,"cpu":6,"mem":6}, ...],
#    "flavors": [{"id":0,"cpu":3,"mem":3}, ...],
#    "vms":     [{"id":0,"flavor":0,"host":0}, ...]}
# The "host" field of each VM defines the initial mapping.


def _require_int(obj: dict, key: str, kind: str, i: int) -> int:
    try:
        value = obj[key]
    except KeyError:
        raise InstanceFormatError(f"{kind}[{i}]: missing field {key!r}") from None
    except TypeError:  # not a JSON object: a number, null, a string or a list
        raise InstanceFormatError(f"{kind}[{i}]: expected an object, got {obj!r}") from None
    if type(value) is not int:
        raise InstanceFormatError(f"{kind}[{i}].{key}: expected an integer, got {value!r}")
    return value


def _capacities(doc: dict, kind: str, cls) -> list:
    # hosts and flavors: an id and a strictly positive (cpu, mem) vector
    out = []
    for i, entry in enumerate(doc[kind]):
        ident = _require_int(entry, "id", kind, i)
        cpu, mem = _require_int(entry, "cpu", kind, i), _require_int(entry, "mem", kind, i)
        try:
            out.append(cls(ident, ResourceVec(cpu, mem)))
        except ValueError as exc:
            raise InstanceFormatError(f"{kind}[{i}]: {exc}") from exc
    return out


def instance_from_dict(doc: dict) -> Instance:
    if not isinstance(doc, dict):
        raise InstanceFormatError("instance document must be a JSON object")
    for key in ("hosts", "flavors", "vms"):
        if key not in doc:
            raise InstanceFormatError(f"missing top-level field {key!r}")
        if not isinstance(doc[key], list):
            raise InstanceFormatError(f"{key}: expected a list")
    hosts = _capacities(doc, "hosts", Host)
    flavors = _capacities(doc, "flavors", Flavor)
    vms = []
    initial = []
    for i, entry in enumerate(doc["vms"]):
        vms.append(VM(_require_int(entry, "id", "vms", i), _require_int(entry, "flavor", "vms", i)))
        initial.append(_require_int(entry, "host", "vms", i))
    return Instance(hosts, flavors, vms, initial)


def instance_to_dict(inst: Instance) -> dict:
    return {
        "hosts": [{"id": h.id, "cpu": h.capacity.cpu, "mem": h.capacity.mem} for h in inst.hosts],
        "flavors": [
            {"id": f.id, "cpu": f.demand.cpu, "mem": f.demand.mem} for f in inst.flavors
        ],
        "vms": [
            {"id": v.id, "flavor": v.flavor, "host": inst.initial_host(v.id)} for v in inst.vms
        ],
    }


def load_instance(path: str | Path) -> Instance:
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal longer than int() reads
        raise InstanceFormatError(f"an integer exceeds {sys.get_int_max_str_digits()} digits") from exc
    except RecursionError as exc:
        raise InstanceFormatError("JSON nested too deeply") from exc
    return instance_from_dict(doc)


def save_instance(inst: Instance, path: str | Path) -> None:
    Path(path).write_text(json.dumps(instance_to_dict(inst), indent=1) + "\n")


def instance_with_mapping(inst: Instance, mu: Mapping) -> Instance:
    """A new instance whose initial mapping is ``mu`` (used to emit results)."""
    if not mu.is_total():
        raise ValueError("cannot serialize a partial mapping")
    return Instance(inst.hosts, inst.flavors, inst.vms, [mu.host_of(v) for v in range(len(inst.vms))])
