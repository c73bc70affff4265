"""Integer-program exporters (CPLEX LP text format) and solution ingestion.

Three formulations are emitted for external MILP solvers:

* Allocation: binary alloc_v{i}_h{j}, active_h{j}, migr_v{i}; one assignment
  row per VM, two resource rows per host, one activation link per (vm, host)
  pair and one migration definition per VM.
* Flavor flow: integer in_f{i}_h{j} / out_f{i}_h{j} counting VMs of one
  flavor migrating in/out of a host, plus binary active_h{j}; per-flavor flow
  conservation, out-capacity and forced-evacuation rows, and resource rows
  gated by the activation variable.
* Relaxed flavor flow: the same rows with in/out continuous; its optimum is a
  lower bound on the other two.

Declarations take one line per group of names: the allocation ``Binary``
section has one line of ``alloc_v{i}_h*`` per VM, then one of ``active_h*``
and one of ``migr_v*``; the flow ``General`` section has one line per
flavor for ``in`` and then for ``out``.  No ``Bounds`` section is written:
LP readers, ``parse_lp`` and ``solve`` included, bound every variable,
general integers too, to ``[0, inf)`` by default.

``parse_lp`` reads LP text in the subset written here back into an
``LpModel``, whose rows are the compressed sparse row (CSR) arrays of the
constraint matrix, and ``solve`` hands those arrays to HiGHS through
``scipy.optimize.milp``; scipy is imported only when ``solve`` runs.

Solutions come back as plain ``name value`` lines, one variable per line.
The objective is always recomputed from the variable values; the solver's
reported objective is never trusted.  Infinite migration budget is emitted as
zero migration weight plus a tiny tie-break epsilon (1e-6 per memory unit) so
that solvers prefer low-migration packings; the epsilon is excluded from
objective recomputation.
"""
from __future__ import annotations

import math
import re
from collections import defaultdict
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import chain, compress, count
from typing import Iterable, Iterator, Sequence, TextIO

from .model import Instance, Mapping, ObjectiveWeights

__all__ = [
    "ModelKind",
    "EmitCounts",
    "SolutionError",
    "SolutionReport",
    "LpFormatError",
    "LpModel",
    "MIGRATION_TIEBREAK_EPSILON",
    "expected_counts",
    "initial_flavor_counts",
    "emit_allocation_model",
    "emit_flavor_flow_model",
    "emit_model",
    "read_solution",
    "lp_entity_counts",
    "lp_suffix",
    "parse_lp",
    "solve",
]

MIGRATION_TIEBREAK_EPSILON = Fraction(1, 10**6)
_TOL = 1e-6  # slack on a solver's floats, for integrality and each row read back
_ALLOC_NAME = re.compile(r"alloc_v(0|[1-9][0-9]*)_h(0|[1-9][0-9]*)").fullmatch


class ModelKind(Enum):
    ALLOCATION = "alloc"
    FLAVOR_FLOW = "flow"
    RELAXED_FLAVOR_FLOW = "flowlb"


@dataclass(frozen=True)
class EmitCounts:
    variables: int
    constraints: int


class SolutionError(ValueError):
    """Malformed solver output or a constraint-violating solution."""


def lp_suffix(kind: ModelKind) -> str:
    return f".{kind.value}.lp"


def expected_counts(kind: ModelKind, n_vms: int, n_hosts: int, n_flavors: int) -> EmitCounts:
    if kind is ModelKind.ALLOCATION:
        return EmitCounts(
            variables=n_vms * n_hosts + n_vms + n_hosts,
            constraints=n_vms * n_hosts + 2 * n_hosts + 2 * n_vms,
        )
    return EmitCounts(
        variables=n_hosts + 2 * n_flavors * n_hosts,
        constraints=2 * n_flavors * n_hosts + 2 * n_hosts + n_flavors,
    )


def initial_flavor_counts(inst: Instance) -> list[list[int]]:
    """n[f][h]: how many VMs of flavor f start on host h."""
    counts = [[0] * len(inst.hosts) for _ in inst.flavors]
    for v, h in zip(inst.vms, inst._initial):
        counts[v.flavor][h] += 1
    return counts


def _fmt_num(x) -> str:
    if type(x) is int:
        return str(x)
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    text = f"{float(f):.12f}".rstrip("0").rstrip(".")
    return text or "0"


def _expr(terms: Iterable[tuple[object, str]], keep_zero: str | None = None) -> Iterator[str]:
    """The text of the linear expression ``terms``, ``x - 2 y + z``, in
    pieces, one per nonzero term.  Without a nonzero term it is
    ``0 keep_zero``, or a ``ValueError`` when ``keep_zero`` is None."""
    first = True
    for coef, name in terms:
        if coef == 0:
            continue
        mag = _fmt_num(abs(coef))
        term = name if mag == "1" else f"{mag} {name}"
        if coef < 0:
            yield f"- {term}" if first else f" - {term}"
        else:
            yield term if first else f" + {term}"
        first = False
    if first:
        if keep_zero is None:
            raise ValueError("empty linear expression")
        yield f"0 {keep_zero}"


def _objective(
    out: TextIO, w_a, active: list[str], migration: Iterable[tuple[object, str]]
) -> None:
    """Write the ``Minimize`` section, ``w_a`` per active host plus the
    ``migration`` terms, term by term, and the ``Subject To`` header."""
    write = out.write
    write("Minimize\n obj: ")
    for piece in _expr(chain(((w_a, name) for name in active), migration), keep_zero="active_h0"):
        write(piece)
    write("\nSubject To\n")


def _declare(out: TextIO, header: str, groups: Iterable[list[str]]) -> None:
    """Write ``header`` and then one line per nonempty group of ``groups``,
    its names separated by spaces, or nothing when every group is empty."""
    write = out.write
    started = False
    for names in groups:
        if names:
            if not started:
                write(f"{header}\n")
                started = True
            write(f" {' '.join(names)}\n")


def _migration_weight(weights: ObjectiveWeights):
    # pure bin-packing mode keeps a tiny migration preference for tie-breaks
    return MIGRATION_TIEBREAK_EPSILON if weights.w_m == 0 else weights.w_m


def emit_allocation_model(inst: Instance, weights: ObjectiveWeights, out: TextIO) -> EmitCounts:
    n_vms = len(inst.vms)
    n_hosts = len(inst.hosts)
    w_mig = _migration_weight(weights)
    alloc = [[f"alloc_v{v}_h{h}" for h in range(n_hosts)] for v in range(n_vms)]
    active = [f"active_h{h}" for h in range(n_hosts)]
    migr = [f"migr_v{v}" for v in range(n_vms)]
    write = out.write

    _objective(out, weights.w_a, active, ((w_mig * m, name) for m, name in zip(inst._vm_mem, migr)))

    # fixed-shape rows are formatted directly; every VM has an initial host,
    # so n_hosts > 0 whenever a VM row exists and no expression is empty
    rows = 0
    for v in range(n_vms):
        write(f" assign_v{v}: {' + '.join(alloc[v])} = 1\n")
        rows += 1
    for resource, need, caps in (
        ("cpu", inst._vm_cpu, inst._cap_cpu),
        ("mem", inst._vm_mem, inst._cap_mem),
    ):
        for h in range(n_hosts):
            terms = [(need[v], alloc[v][h]) for v in range(n_vms)]
            expr = "".join(_expr(terms, keep_zero=active[h]))
            write(f" {resource}_h{h}: {expr} <= {_fmt_num(caps[h])}\n")
            rows += 1
    for v in range(n_vms):
        for h, name in enumerate(alloc[v]):
            write(f" link_v{v}_h{h}: {name} - {active[h]} <= 0\n")
            rows += 1
    for v in range(n_vms):
        write(f" migr_v{v}: {migr[v]} + {alloc[v][inst._initial[v]]} = 1\n")
        rows += 1

    _declare(out, "Binary", [*alloc, active, migr])
    write("End\n")
    return EmitCounts(n_vms * n_hosts + n_hosts + n_vms, rows)


def emit_flavor_flow_model(
    inst: Instance, weights: ObjectiveWeights, relaxed: bool, out: TextIO
) -> EmitCounts:
    n_hosts = len(inst.hosts)
    n_flavors = len(inst.flavors)
    counts = initial_flavor_counts(inst)
    w_mig = _migration_weight(weights)
    demands = [flavor.demand for flavor in inst.flavors]
    active = [f"active_h{h}" for h in range(n_hosts)]
    inflow = [[f"in_f{f}_h{h}" for h in range(n_hosts)] for f in range(n_flavors)]
    outflow = [[f"out_f{f}_h{h}" for h in range(n_hosts)] for f in range(n_flavors)]
    write = out.write

    migration = ((w_mig * demands[f].mem, name) for f in range(n_flavors) for name in outflow[f])
    _objective(out, weights.w_a, active, migration)

    rows = 0
    for f in range(n_flavors):
        terms = [(1, name) for name in outflow[f]]
        terms += [(-1, name) for name in inflow[f]]
        write(f" flow_f{f}: {''.join(_expr(terms))} = 0\n")
        rows += 1
    for f in range(n_flavors):
        for h, n in enumerate(counts[f]):
            write(f" outcap_f{f}_h{h}: {outflow[f][h]} <= {n}\n")
            rows += 1
    for f in range(n_flavors):
        for h, n_fh in enumerate(counts[f]):
            out_fh = outflow[f][h]
            expr = "".join(_expr([(-n_fh, active[h]), (-1, out_fh)], keep_zero=out_fh))
            write(f" evac_f{f}_h{h}: {expr} <= {_fmt_num(-n_fh)}\n")
            rows += 1
    for resource, caps in (("cpu", inst._cap_cpu), ("mem", inst._cap_mem)):
        need = [getattr(d, resource) for d in demands]
        for h in range(n_hosts):
            terms = [(need[f], inflow[f][h]) for f in range(n_flavors)]
            terms += [(-need[f], outflow[f][h]) for f in range(n_flavors)]
            terms.append((-caps[h], active[h]))
            rhs = -sum(need[f] * counts[f][h] for f in range(n_flavors))
            write(f" {resource}_h{h}: {''.join(_expr(terms))} <= {_fmt_num(rhs)}\n")
            rows += 1

    # the flows keep the default bounds [0, inf), so no Bounds section
    if not relaxed:
        _declare(out, "General", [*inflow, *outflow])
    _declare(out, "Binary", [active])
    write("End\n")
    return EmitCounts(2 * n_flavors * n_hosts + n_hosts, rows)


def emit_model(kind: ModelKind, inst: Instance, weights: ObjectiveWeights, out: TextIO) -> EmitCounts:
    if kind is ModelKind.ALLOCATION:
        return emit_allocation_model(inst, weights, out)
    return emit_flavor_flow_model(inst, weights, kind is ModelKind.RELAXED_FLAVOR_FLOW, out)


@dataclass
class SolutionReport:
    kind: ModelKind
    objective: int | Fraction | float
    mapping: Mapping | None
    variables: dict[str, float]


def _parse_variable_dump(text: str) -> dict[str, float]:
    values: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith("\\"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise SolutionError(f"line {lineno}: expected 'name value', got {raw!r}")
        try:
            value = float(parts[1])
        except ValueError:
            value = None
        if value is not None and not math.isfinite(value):
            raise SolutionError(f"line {lineno}: non-finite value {parts[1]!r}")
        if value is None or not parts[1].isascii() or not _IS_SIGNED_NUMBER(parts[1]):
            raise SolutionError(f"line {lineno}: bad value {parts[1]!r}")
        values[parts[0]] = value
    return values


def _as_int(name: str, value: float) -> int:
    rounded = round(value)
    if abs(value - rounded) > _TOL:
        raise SolutionError(f"{name} = {value} is not integral")
    return int(rounded)


def _active(n_hosts: int, values: dict[str, float]) -> list[int]:
    # the active_h* values, each checked to be binary
    active = [_as_int(f"active_h{h}", values.get(f"active_h{h}", 0.0)) for h in range(n_hosts)]
    for h, n in enumerate(active):
        if n not in (0, 1):
            raise SolutionError(f"active_h{h} violated: {n} is not binary")
    return active


def read_solution(
    kind: ModelKind,
    inst: Instance,
    text: str,
    weights: ObjectiveWeights,
) -> SolutionReport:
    """Ingest the text of a solver variable dump for a model emitted from ``inst``.

    Allocation solutions are reconstructed into a mapping and validated
    against every emitted row; flow solutions are validated for conservation,
    out-capacity, evacuation and resource rows but not expanded to a per-VM
    mapping (the formulation is deliberately symmetric across VMs of one
    flavor).  Missing variables default to zero; each check allows ``_TOL`` of slack.
    Values are finite numbers in ``parse_lp``'s form, ASCII digits only.
    """
    values = _parse_variable_dump(text)
    if kind is ModelKind.ALLOCATION:
        return _read_allocation(inst, values, weights)
    return _read_flow(kind, inst, values, weights)


def _read_allocation(
    inst: Instance, values: dict[str, float], weights: ObjectiveWeights
) -> SolutionReport:
    n_vms = len(inst.vms)
    n_hosts = len(inst.hosts)
    # the dump's canonical alloc entries by VM; any other name is ignored,
    # and a missing entry reads 0
    entries: list[list[tuple[int, float]]] = [[] for _ in range(n_vms)]
    for name, value in values.items():
        match = _ALLOC_NAME(name)
        if match is not None:
            v, h = int(match[1]), int(match[2])
            if v < n_vms and h < n_hosts:
                entries[v].append((h, value))
    assignment: list[int | None] = [None] * n_vms
    for v in range(n_vms):
        chosen = [h for h, value in sorted(entries[v]) if _as_int(f"alloc_v{v}_h{h}", value) == 1]
        if len(chosen) != 1:
            raise SolutionError(f"assign_v{v} violated: vm {v} allocated to {chosen}")
        assignment[v] = chosen[0]
    mapping = Mapping(inst, assignment)
    for h in range(n_hosts):
        lc, lm = mapping.load_parts(h)
        if lc > inst._cap_cpu[h]:
            raise SolutionError(f"cpu_h{h} violated: load {lc} > {inst._cap_cpu[h]}")
        if lm > inst._cap_mem[h]:
            raise SolutionError(f"mem_h{h} violated: load {lm} > {inst._cap_mem[h]}")
    active = _active(n_hosts, values)
    for v in range(n_vms):
        h = assignment[v]
        if active[h] != 1:
            raise SolutionError(f"link_v{v}_h{h} violated: vm on inactive host")
    migr = [_as_int(f"migr_v{v}", values.get(f"migr_v{v}", 0.0)) for v in range(n_vms)]
    for v in range(n_vms):
        expected = 0 if assignment[v] == inst._initial[v] else 1
        if migr[v] != expected:
            raise SolutionError(f"migr_v{v} violated: got {migr[v]}, expected {expected}")
    objective = weights.w_a * sum(active) + weights.w_m * sum(map(int.__mul__, inst._vm_mem, migr))
    return SolutionReport(ModelKind.ALLOCATION, objective, mapping, values)


def _read_flow(
    kind: ModelKind,
    inst: Instance,
    values: dict[str, float],
    weights: ObjectiveWeights,
) -> SolutionReport:
    n_hosts = len(inst.hosts)
    n_flavors = len(inst.flavors)
    counts = initial_flavor_counts(inst)
    relaxed = kind is ModelKind.RELAXED_FLAVOR_FLOW

    def flow_value(name: str) -> float | int:
        raw = values.get(name, 0.0)
        if relaxed:
            if raw < -_TOL:
                raise SolutionError(f"{name} violated: negative flow {raw}")
            return max(raw, 0.0)
        n = _as_int(name, raw)
        if n < 0:
            raise SolutionError(f"{name} violated: negative flow {n}")
        return n

    active = _active(n_hosts, values)
    flow_in = [[flow_value(f"in_f{f}_h{h}") for h in range(n_hosts)] for f in range(n_flavors)]
    flow_out = [[flow_value(f"out_f{f}_h{h}") for h in range(n_hosts)] for f in range(n_flavors)]
    for f in range(n_flavors):
        if abs(sum(flow_out[f]) - sum(flow_in[f])) > _TOL:
            raise SolutionError(f"flow_f{f} violated: out {sum(flow_out[f])} != in {sum(flow_in[f])}")
        for h in range(n_hosts):
            if flow_out[f][h] > counts[f][h] + _TOL:
                raise SolutionError(
                    f"outcap_f{f}_h{h} violated: out {flow_out[f][h]} > {counts[f][h]}"
                )
            if counts[f][h] * (1 - active[h]) > flow_out[f][h] + _TOL:
                raise SolutionError(
                    f"evac_f{f}_h{h} violated: inactive host retains {counts[f][h]} VMs"
                )
    for h in range(n_hosts):
        for resource, cap in (("cpu", inst._cap_cpu[h]), ("mem", inst._cap_mem[h])):
            total = 0.0
            for f in range(n_flavors):
                demand = getattr(inst.flavors[f].demand, resource)
                total += demand * (counts[f][h] + flow_in[f][h] - flow_out[f][h])
            if total > cap * active[h] + _TOL:
                raise SolutionError(
                    f"{resource}_h{h} violated: load {total} > {cap * active[h]}"
                )
    mem_out = sum(
        inst.flavors[f].demand.mem * flow_out[f][h]
        for f in range(n_flavors)
        for h in range(n_hosts)
    )
    objective = weights.w_a * sum(active) + weights.w_m * mem_out
    return SolutionReport(kind, objective, None, values)


class LpFormatError(ValueError):
    """LP text outside the subset ``parse_lp`` reads."""


@dataclass(frozen=True)
class _Rows(Sequence):
    """The rows of ``model`` as tuples, each built when it is read."""

    model: LpModel

    def __len__(self) -> int:
        return len(self.model.row_names)

    def __getitem__(self, i: int) -> tuple[str, dict[str, float], str, float]:
        m, i = self.model, range(len(self))[i]
        start, end = m.indptr[i], m.indptr[i + 1]
        terms = dict(zip(map(m.order.__getitem__, m.indices[start:end]), m.data[start:end]))
        return m.row_names[i], terms, m.senses[i], m.rhs[i]


@dataclass
class LpModel:
    """A model in the LP subset; ``order`` lists the variables (the columns)
    by first appearance.  Row ``i`` is ``row_names[i]``: the sum of
    ``data[k] * x[indices[k]]`` over ``range(indptr[i], indptr[i + 1])``, no
    column twice, ``senses[i]`` ``rhs[i]`` (compressed sparse rows).
    ``integrality`` has one byte per column: bit 1 ``General``, bit 2
    ``Binary``.  ``rows`` is a read-only view building ``(name, {variable:
    coefficient}, sense, rhs)`` when read; ``integer`` and ``binary`` are
    the names those bits declare."""

    maximize: bool = False
    objective: dict[str, float] = field(default_factory=dict)
    lower: dict[str, float] = field(default_factory=dict)
    upper: dict[str, float] = field(default_factory=dict)
    order: list[str] = field(default_factory=list)
    row_names: list[str] = field(default_factory=list)
    senses: list[str] = field(default_factory=list)
    rhs: list[float] = field(default_factory=list)
    indptr: list[int] = field(default_factory=lambda: [0])
    indices: list[int] = field(default_factory=list)
    data: list[float] = field(default_factory=list)
    integrality: bytearray = field(default_factory=bytearray)

    @property
    def rows(self) -> Sequence[tuple[str, dict[str, float], str, float]]:
        return _Rows(self)

    @cached_property
    def integer(self) -> frozenset[str]:
        return frozenset(compress(self.order, map(_GENERAL.__and__, self.integrality)))

    @cached_property
    def binary(self) -> frozenset[str]:
        return frozenset(compress(self.order, map(_BINARY.__and__, self.integrality)))


_SECTIONS = {
    "minimize": "objective",
    "maximize": "objective",
    "subject to": "constraints",
    "st": "constraints",
    "s.t.": "constraints",
    "bounds": "bounds",
    "general": "general",
    "generals": "general",
    "gen": "general",
    "binary": "binary",
    "binaries": "binary",
    "bin": "binary",
}
_LONGEST_WORD = max(len(word) for header in _SECTIONS for word in header.split())
_SENSE = re.compile(r"<=|>=|=")
_NUMBER = r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?"
_NAME = r"[A-Za-z_][A-Za-z0-9_.]*"
_IS_NUMBER = re.compile(_NUMBER).fullmatch
_IS_SIGNED_NUMBER = re.compile(rf"\s*[+-]?{_NUMBER}\s*").fullmatch
_IS_BOUND = re.compile(rf"[+-]?(?:{_NUMBER}|inf|infinity)", re.IGNORECASE).fullmatch
_IS_NAME = re.compile(_NAME).fullmatch
_LEXEMES = re.compile(rf"[+-]|{_NUMBER}|{_NAME}|\S").findall
_FLIPPED = {"<=": ">=", ">=": "<=", "=": "="}
_SENSES = {sense: sense for sense in _FLIPPED}  # one string object per sense
_SIGNS = frozenset("+-")
_INF = math.inf
_CHUNK = 1 << 16  # characters of LP text split into lines at a time
_GENERAL, _BINARY = 1, 2  # the bits of ``LpModel.integrality``


def _lines(text: str) -> Iterator[str]:
    """The lines of ``text.splitlines()``, split about ``_CHUNK`` characters
    at a time.  Each piece ends just after a line feed, so it splits no
    ``"\\r\\n"`` and holds only whole lines."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + _CHUNK) + 1 or len(text)
        yield from text[start:end].splitlines()
        start = end


def _number(numbers: dict[str | float, float], tok: str) -> float:
    """``float(tok)`` of a signed number, one float object per distinct
    ``tok`` in ``numbers``."""
    value = numbers.get(tok)
    if value is None:
        if not _IS_SIGNED_NUMBER(tok):
            raise LpFormatError(f"bad number {tok!r}")
        value = numbers[tok] = float(tok)
    return value


def _linear(
    tokens: list[str],
    columns: dict[str, int],
    numbers: dict[str | float, float],
    indices: list[int],
    data: list[float],
    spaced: bool = False,
) -> None:
    """Append the terms ``[sign] [coefficient] name`` of a linear expression,
    given as its whitespace-separated tokens, to ``indices`` (column numbers,
    read from ``columns``, which numbers a new name) and ``data``
    (coefficients); a variable repeated in the expression is summed, in
    order, into its first term.  ``numbers`` maps each coefficient token,
    and the float of each negated coefficient, to the one float object the
    model keeps for it.

    A token that glues a sign, a coefficient and a variable together
    (``-2x``) sends the whole expression through the lexer once, which
    splits them apart.  Of two signs in a row the later one counts; a
    coefficient or sign with no variable after it is an error.
    """
    start = len(indices)
    sign = coef = None
    for tok in tokens:
        if not tok.isidentifier():
            if tok in _SIGNS or tok.isdecimal() or _IS_NUMBER(tok):
                if coef is not None:
                    raise LpFormatError(f"coefficient {coef:g} without a variable")
                if tok in _SIGNS:
                    sign = tok
                else:
                    coef = numbers[tok] if tok in numbers else _number(numbers, tok)
                    if coef == _INF:  # unsigned digits overflow to +inf only
                        raise LpFormatError("non-finite coefficient")
                continue
            if not _IS_NAME(tok):
                if spaced:
                    raise LpFormatError(f"unexpected text {tok!r}")
                del indices[start:], data[start:]
                return _linear(_LEXEMES(" ".join(tokens)), columns, numbers, indices, data, spaced=True)
        if coef is None:
            value = -1.0 if sign == "-" else 1.0
        elif sign == "-":
            value = numbers.get(coef)
            if value is None:
                value = numbers[coef] = 0.0 - coef
        else:
            value = coef
        indices.append(columns[tok])
        data.append(value)
        sign = coef = None
    if sign is not None or coef is not None:
        raise LpFormatError("sign or coefficient without a variable")
    n = len(indices) - start
    if n > 1 and (indices[-1] == indices[-2] if n == 2 else len(set(indices[start:])) < n):
        terms: dict[int, float] = {}
        for col, value in zip(indices[start:], data[start:]):
            terms[col] = _finite(terms[col] + value, "coefficient") if col in terms else value
        indices[start:], data[start:] = terms, terms.values()


def _finite(value: float, what: str) -> float:
    if not math.isfinite(value):
        raise LpFormatError(f"non-finite {what}")
    return value


def _bound_value(text: str) -> float:
    # a signed number or an infinite bound, which is legal
    if _IS_BOUND(text):
        return float(text)
    raise LpFormatError(f"bad bound {text!r}")


def _name(tok: str) -> str:
    """``tok``, when it is a variable name; an ASCII identifier is one."""
    if tok.isidentifier() or _IS_NAME(tok):
        return tok
    raise LpFormatError(f"not a variable name: {tok!r}")


def _bound(model: LpModel, tokens: list[str]) -> str:
    """Apply one bounds line (``x free``, ``x >= l``, ``u >= x``, ``l <= x <= u``
    and the like); return the variable it names."""
    if len(tokens) == 2 and tokens[1].lower() == "free":
        name = _name(tokens[0])
        model.lower[name] = -math.inf
        return name
    if len(tokens) == 3 and tokens[1] in _FLIPPED:
        name, sense, value = tokens
        if not _IS_NAME(name):
            value, sense, name = name, _FLIPPED[sense], _name(value)
        if sense != "<=":
            model.lower[name] = _bound_value(value)
        if sense != ">=":
            model.upper[name] = _bound_value(value)
        return name
    if len(tokens) == 5 and tokens[1] == tokens[3] == "<=":
        lo, _, name, _, hi = tokens
        name = _name(name)
        model.lower[name] = _bound_value(lo)
        model.upper[name] = _bound_value(hi)
        return name
    raise LpFormatError("unsupported bounds line")


def parse_lp(text: str) -> LpModel:
    """Parse LP text in the subset this module writes: single-line rows, a
    ``Minimize``/``Maximize`` objective, ``Subject To``, ``Bounds``,
    ``General`` and ``Binary`` sections (with their short and plural
    headers), and comments from a backslash to the end of the line.  Text
    after ``End`` is ignored.

    Raises ``LpFormatError`` naming the line number and its text for a row
    without a sense, a row label that is not a name or repeats one (an
    unnamed row is named ``row{n}``, n its index), a bad number or
    expression, a non-finite coefficient or right-hand side, a bound that is
    neither a number nor infinite, an unsupported bounds line, or a declared
    or bounded token that is not a variable name.  A right-hand side or
    bound is a number as the lexer reads a coefficient, with an optional
    sign (so ``1_0`` is none); a bound may also be infinite.
    """
    model = LpModel()
    columns: defaultdict[str, int] = defaultdict(count().__next__)  # a new name is the next column
    indices, data, integrality = model.indices, model.data, model.integrality
    add_sense, add_rhs, add_end = model.senses.append, model.rhs.append, model.indptr.append
    objective: dict[int, float] = {}  # by column, until the names are known
    numbers: dict[str | float, float] = {}  # one float per number token
    row_names: dict[str, None] = {}  # a set of the names, at half a set's size
    section = None
    try:
        for lineno, raw in enumerate(_lines(text), start=1):
            line = raw.split("\\", 1)[0] if "\\" in raw else raw
            tokens = line.split()
            if not tokens:
                continue
            if len(tokens) <= 2 and len(tokens[0]) <= _LONGEST_WORD:
                key = line.strip().lower()
                if key in _SECTIONS:
                    section = _SECTIONS[key]
                    model.maximize = model.maximize or key == "maximize"
                    continue
                if key == "end":
                    break
            if not line.isascii():
                raise LpFormatError("non-ASCII text")
            if section == "constraints":
                head = tokens[0]
                if len(tokens) > 2 and tokens[-2] in _SENSES and head.find(":") == len(head) - 1:
                    # the emitted form "name: lhs sense rhs", spaced out
                    name, lhs, sense, rhs = head[:-1], tokens[1:-2], tokens[-2], tokens[-1]
                else:
                    name, colon, body = line.partition(":")
                    if colon:
                        name = name.strip()
                    else:
                        name, body = f"row{len(row_names)}", line
                    match = _SENSE.search(body)
                    if match is None:
                        raise LpFormatError("constraint without a sense")
                    lhs, sense, rhs = body[: match.start()].split(), match.group(), body[match.end() :]
                if name in row_names:
                    raise LpFormatError(f"repeated row name {name!r}")
                if not name.isidentifier() and not _IS_NAME(name):
                    raise LpFormatError(f"not a row name: {name!r}")
                row_names[name] = None
                rhs = numbers[rhs] if rhs in numbers else _number(numbers, rhs)
                if not -_INF < rhs < _INF:
                    raise LpFormatError("non-finite right-hand side")
                _linear(lhs, columns, numbers, indices, data)
                add_sense(_SENSES[sense])
                add_rhs(rhs)
                add_end(len(indices))
            elif section == "objective":
                _, colon, body = line.partition(":")
                cols, coefs = [], []
                _linear((body if colon else line).split(), columns, numbers, cols, coefs)
                for col, coef in zip(cols, coefs):
                    objective[col] = _finite(objective[col] + coef, "coefficient") if col in objective else coef
            elif section == "bounds":
                columns[_bound(model, tokens)]  # numbers the bounded variable
            elif section is not None:
                bit = _GENERAL if section == "general" else _BINARY
                cols = [columns[_name(name)] for name in tokens]
                integrality.extend(bytes(len(columns) - len(integrality)))
                for col in cols:
                    integrality[col] |= bit
    except ValueError as exc:
        raise LpFormatError(f"line {lineno}: {exc}: {raw.strip()!r}") from exc
    model.order, model.row_names = list(columns), list(row_names)
    integrality.extend(bytes(len(columns) - len(integrality)))
    model.objective = dict(zip(map(model.order.__getitem__, objective), objective.values()))
    return model


def lp_entity_counts(text: str) -> EmitCounts:
    """Count distinct variables and constraint rows in an emitted LP file."""
    model = parse_lp(text)
    return EmitCounts(len(model.order), len(model.row_names))


def solve(model: LpModel):
    """Solve ``model`` with HiGHS through ``scipy.optimize.milp``.

    The constraint matrix is a ``scipy.sparse.csr_array`` with one stored
    entry per parsed term.  Returns ``(names, result)``: the column names in
    ``model.order`` and scipy's ``OptimizeResult``.  Raises ``ImportError``
    when scipy with MILP support is missing, and ``ValueError`` for a model
    with no variables.
    """
    if not model.order:
        raise ValueError("model has no variables")
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import csr_array

    names = model.order
    n = len(names)
    index = dict(zip(names, range(n)))
    kind = np.array(model.integrality)  # one uint8 per column
    c, lower, upper = np.zeros(n), np.zeros(n), np.where(kind & _BINARY, 1.0, np.inf)
    for entries, values in ((model.objective, c), (model.lower, lower), (model.upper, upper)):
        values[[index[name] for name in entries]] = list(entries.values())

    constraints = ()
    if model.row_names:
        rhs, senses = np.array(model.rhs), np.array(model.senses)
        lo, hi = np.where(senses == "<=", -np.inf, rhs), np.where(senses == ">=", np.inf, rhs)
        matrix = csr_array((model.data, model.indices, model.indptr), shape=(len(rhs), n))
        constraints = LinearConstraint(matrix, lo, hi)
    c = -c if model.maximize else c
    result = milp(c=c, constraints=constraints, integrality=np.minimum(kind, 1), bounds=Bounds(lower, upper))
    return names, result
