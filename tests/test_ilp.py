import io
import math
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from balcon import (
    Flavor,
    Host,
    Instance,
    ModelKind,
    ObjectiveWeights,
    ResourceVec,
    SolutionError,
    brute_force_optimal,
    emit_model,
    expected_counts,
    lp_entity_counts,
    objective,
    read_solution,
)
from balcon import ilp
from balcon.cli import main as cli_main
from balcon.datagen import GenConfig, generate_instance
from balcon.ilp import EmitCounts, LpFormatError, initial_flavor_counts, parse_lp, solve

from conftest import make_fig2

REPO_ROOT = Path(__file__).resolve().parent.parent

try:
    from scipy.optimize import milp  # noqa: F401

    HAVE_MILP = True
except ImportError:  # pragma: no cover
    HAVE_MILP = False

needs_solver = pytest.mark.skipif(not HAVE_MILP, reason="no MILP solver available")


def emit_text(kind: ModelKind, inst: Instance, weights: ObjectiveWeights):
    buf = io.StringIO()
    counts = emit_model(kind, inst, weights, buf)
    return buf.getvalue(), counts


def solve_text(lp_text: str) -> str:
    names, result = solve(parse_lp(lp_text))
    assert result.success, result.message
    return "\n".join(f"{n} {result.x[i]:.12g}" for i, n in enumerate(names))


W10 = ObjectiveWeights(10, 1)


class TestCounts:
    def test_fig2_allocation(self, fig2):
        text, counts = emit_text(ModelKind.ALLOCATION, fig2, W10)
        assert (counts.variables, counts.constraints) == (23, 31)
        assert counts == expected_counts(ModelKind.ALLOCATION, 5, 3, 5)
        parsed = lp_entity_counts(text)
        assert parsed == counts

    def test_fig2_flavor_flow(self, fig2):
        for kind in (ModelKind.FLAVOR_FLOW, ModelKind.RELAXED_FLAVOR_FLOW):
            text, counts = emit_text(kind, fig2, W10)
            assert (counts.variables, counts.constraints) == (33, 41)
            assert counts == expected_counts(kind, 5, 3, 5)
            assert lp_entity_counts(text) == counts

    def test_empty_vm_set(self):
        hosts = [Host(0, ResourceVec(2, 2)), Host(1, ResourceVec(3, 3))]
        flavors = [Flavor(0, ResourceVec(1, 1))]
        inst = Instance(hosts, flavors, [], [])
        text, counts = emit_text(ModelKind.ALLOCATION, inst, W10)
        assert counts == expected_counts(ModelKind.ALLOCATION, 0, 2, 1)
        assert lp_entity_counts(text) == counts

    def test_counts_on_generated_instances(self, tiny_corpus):
        for inst in tiny_corpus[:10]:
            v, h, f = len(inst.vms), len(inst.hosts), len(inst.flavors)
            for kind in ModelKind:
                text, counts = emit_text(kind, inst, W10)
                assert counts == expected_counts(kind, v, h, f)
                assert lp_entity_counts(text) == counts

    def test_short_section_headers(self):
        # "Bin" and "Gen" are section headers, not variables
        text = (
            "Minimize\n obj: x + y\nSubject To\n c1: x + y <= 1\n"
            "Bounds\n x >= 0\nBin\n y\nGen\n x\nEnd\n"
        )
        assert lp_entity_counts(text) == EmitCounts(2, 1)
        model = parse_lp(text)
        assert (model.order, model.binary, model.integer) == (["x", "y"], {"y"}, {"x"})


BAD_LP = {
    "no sense": ("Minimize\n obj: x\nSubject To\n c1: x + y 3\nEnd\n", 4, "c1: x + y 3"),
    "bounds": ("Minimize\n obj: x\nSubject To\n c1: x >= 1\nBounds\n x>=0\nEnd\n", 6, "x>=0"),
    "dangling coefficient": ("Minimize\n obj: x + 3\nSubject To\n c1: x >= 1\nEnd\n", 2, "obj: x + 3"),
    "bad rhs": ("Minimize\n obj: x\nSubject To\n c1: x >= one\nEnd\n", 4, "c1: x >= one"),
    "stray text": ("Minimize\n obj: x\nSubject To\n c1: 2 * x >= 1\nEnd\n", 4, "c1: 2 * x >= 1"),
    "infinite coefficient": ("Minimize\n obj: x\nSubject To\n c1: 1e999 x >= 2\nEnd\n", 4, "c1: 1e999 x >= 2"),
    "infinite rhs": ("Minimize\n obj: x\nSubject To\n c1: x >= inf\nEnd\n", 4, "c1: x >= inf"),
    "infinite objective term": ("Minimize\n obj: 1e999 x\nSubject To\n c1: x >= 1\nEnd\n", 2, "obj: 1e999 x"),
    "nan bound": ("Minimize\n obj: x\nSubject To\n c1: x >= 1\nBounds\n x <= nan\nEnd\n", 6, "x <= nan"),
    "binary non-names": ("Minimize\n obj: x\nSubject To\n c1: x >= 1\nBinary\n 2.5 x+y <=\nEnd\n", 6, "2.5 x+y <="),
    "general name with colon": ("Minimize\n obj: x\nSubject To\n c1: x >= 1\nGeneral\n x:\nEnd\n", 6, "x:"),
    "bounded number": ("Minimize\n obj: x\nSubject To\n c1: x >= 1\nBounds\n 0 <= 1 <= 2\nEnd\n", 6, "0 <= 1 <= 2"),
    "number bounds number": ("Minimize\n obj: x\nSubject To\n c1: x >= 1\nBounds\n 3 >= 4\nEnd\n", 6, "3 >= 4"),
    "underscored rhs": ("Minimize\n obj: x\nSubject To\n c1: x >= 1_0\nEnd\n", 4, "c1: x >= 1_0"),
    "underscored glued rhs": ("Minimize\n obj: x\nSubject To\n c1: x>=1_0\nEnd\n", 4, "c1: x>=1_0"),
    "underscored bound": ("Minimize\n obj: x\nSubject To\n c1: x >= 1\nBounds\n x <= 2_5\nEnd\n", 6, "x <= 2_5"),
    "underscored range bound": ("Minimize\n obj: x\nSubject To\n c1: x >= 1\nBounds\n 0_1 <= x <= 2\nEnd\n", 6, "0_1 <= x <= 2"),
    "spaced row name": ("Minimize\n obj: x\nSubject To\n c 2: x <= 5\nEnd\n", 4, "c 2: x <= 5"),
    "number row name": ("Minimize\n obj: x\nSubject To\n 2.5: x <= 5\nEnd\n", 4, "2.5: x <= 5"),
    "empty row name": ("Minimize\n obj: x\nSubject To\n : x <= 5\nEnd\n", 4, ": x <= 5"),
    "repeated row name": ("Minimize\n obj: x\nSubject To\n c1: x <= 5\n c1: x >= 1\nEnd\n", 5, "c1: x >= 1"),
    "generated row name taken": ("Minimize\n obj: x\nSubject To\n x <= 5\n row0: x >= 1\nEnd\n", 5, "row0: x >= 1"),
    "row name a generated one takes": ("Minimize\n obj: x\nSubject To\n row1: x <= 5\n x >= 1\nEnd\n", 5, "x >= 1"),
}


class TestParseLp:
    @pytest.mark.parametrize("case", sorted(BAD_LP))
    def test_malformed_line_is_named(self, case):
        text, lineno, line = BAD_LP[case]
        with pytest.raises(LpFormatError, match=f"line {lineno}: .*{re.escape(repr(line))}"):
            parse_lp(text)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("c1: 2 3 x >= 1", "coefficient 2 without a variable"),
            ("c1: 1e308 x + 1e308 x >= 1", "non-finite coefficient"),
            ("c1: x \u2265 1", "non-ASCII text"),
            ("c 2: x <= 5", "not a row name: 'c 2'"),
            ("c1: x >= 1_0", "bad number '1_0'"),
            ("c1: x >= 1e999", "non-finite right-hand side"),
        ],
    )
    def test_bad_row_is_named(self, row, message):
        text = f"Minimize\n obj: x\nSubject To\n {row}\nEnd\n"
        with pytest.raises(LpFormatError, match=f"^line 4: {message}: {re.escape(repr(row))}$"):
            parse_lp(text)

    def test_objective_sum_overflow_is_named(self):
        text = "Minimize\n obj: 1e308 x\n + 1e308 x\nSubject To\n c1: x >= 1\nEnd\n"
        with pytest.raises(LpFormatError, match="^line 3: non-finite coefficient: '\\+ 1e308 x'$"):
            parse_lp(text)

    @needs_solver
    def test_solve_applies_upper_bound(self):
        text = "Maximize\n obj: x + y\nSubject To\n c1: x - y <= 10\nBounds\n x <= 3\n y <= 2\nEnd\n"
        names, result = solve(parse_lp(text))
        assert result.success
        assert dict(zip(names, result.x.tolist())) == {"x": 3.0, "y": 2.0}

    @pytest.mark.parametrize("text", ["", "Minimize\nEnd\n"])
    def test_solve_rejects_a_model_without_variables(self, text, monkeypatch):
        # raised before scipy is needed
        monkeypatch.setitem(sys.modules, "scipy.optimize", None)
        with pytest.raises(ValueError, match="^model has no variables$"):
            solve(parse_lp(text))

    def test_free_and_infinite_bounds_stay_legal(self):
        model = parse_lp(
            "Minimize\n obj: x + y + z\nSubject To\n c1: x + y + z >= 1\n"
            "Bounds\n x free\n -inf <= y <= inf\n z >= -inf\nEnd\n"
        )
        assert model.lower == {"x": -math.inf, "y": -math.inf, "z": -math.inf}
        assert model.upper == {"y": math.inf}

    def test_row_names_and_signed_numbers(self):
        model = parse_lp(
            "Minimize\n obj: x\nSubject To\n c.1: x >= -2\n x <= +3\n row2: x>=-1e-06\n"
            "Bounds\n -1.5 <= x <= 2E+3\n -Infinity <= y <= +INF\nEnd\n"
        )
        assert [(name, rhs) for name, _, _, rhs in model.rows] == [
            ("c.1", -2.0), ("row1", 3.0), ("row2", -1e-06)
        ]
        assert model.lower == {"x": -1.5, "y": -math.inf}
        assert model.upper == {"x": 2000.0, "y": math.inf}


class TestCsrModel:
    """``LpModel`` holds its rows as CSR arrays; ``rows`` is a view."""

    def test_repeated_variable_sums_into_its_first_term(self):
        model = parse_lp("Minimize\n obj: y\nSubject To\n c1: x + 2 x - y >= 1\n c2: y - x <= 4\nEnd\n")
        assert model.rows[0] == ("c1", {"x": 3.0, "y": -1.0}, ">=", 1.0)
        assert (model.indptr, model.indices, model.data) == ([0, 2, 4], [1, 0, 0, 1], [3.0, -1.0, 1.0, -1.0])
        assert (model.row_names, model.senses, model.rhs) == (["c1", "c2"], [">=", "<="], [1.0, 4.0])

    def test_rows_view_indexes_like_a_list(self):
        model = parse_lp("Minimize\n obj: x\nSubject To\n c1: x >= 1\n c2: x + y <= 3\nEnd\n")
        assert len(model.rows) == 2
        assert model.rows[-1] == model.rows[1] == ("c2", {"x": 1.0, "y": 1.0}, "<=", 3.0)
        assert list(model.rows) == [("c1", {"x": 1.0}, ">=", 1.0), model.rows[1]]
        for i in (2, -3):
            with pytest.raises(IndexError):
                model.rows[i]

    def test_rows_view_compares_and_slices_like_the_list(self):
        model = parse_lp("Minimize\n obj: x\nSubject To\n c1: x >= 1\n c2: x + y <= 3\nEnd\n")
        rows = [("c1", {"x": 1.0}, ">=", 1.0), ("c2", {"x": 1.0, "y": 1.0}, "<=", 3.0)]
        assert model.rows == rows and rows == model.rows and model.rows == model.rows
        assert model.rows != rows[:1] and model.rows != [] and model.rows != tuple(rows)
        assert model.rows[0:1] == rows[0:1] and type(model.rows[0:1]) is list
        assert model.rows[-1:] == rows[-1:]
        assert model.rows[::-1] == rows[::-1]

    def test_a_name_in_both_sections_has_both_bits(self):
        model = parse_lp("Minimize\n obj: x + y + z\nSubject To\n c1: x + y >= 1\nBinary\n x y\nGeneral\n x z\nEnd\n")
        assert list(model.integrality) == [3, 2, 1]
        assert (model.binary, model.integer) == ({"x", "y"}, {"x", "z"})


# every line boundary str.splitlines honours
SEPARATORS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def _lp_line(parts: list[tuple[str, str]]) -> str:
    return "".join(token + glue for token, glue in parts)


_HEADERS = ["Minimize", "MAXIMIZE", "Subject To", "st", "s.t.", "Bounds", "General", "Gen", "Binaries", "Bin", "End"]
_NAMES = st.one_of(st.sampled_from(["x", "y", "x.1", "_a"]), st.from_regex(r"[A-Za-z_][A-Za-z0-9_.]{0,5}", fullmatch=True))
_NUMBERS = st.one_of(
    st.integers(-(10**20), 10**20).map(str),
    st.floats().map(repr),
    st.sampled_from(["1e999", "1e-06", "2.5E+3", ".5", "1.", "inf", "-inf", "nan", "1_0"]),
)
_OTHER = st.sampled_from(["+", "-", "<=", ">=", "=", "<", ">", ":", "\\", "\\ note", "*", "free", "FREE", "\u2265"])
_TOKENS = st.one_of(_NAMES, _NAMES.map(lambda name: name + ":"), _NUMBERS, _OTHER)
_LINES = st.one_of(
    st.sampled_from(_HEADERS),
    st.lists(st.tuples(_TOKENS, st.sampled_from([" ", "", "  "])), max_size=8).map(_lp_line),
)
LP_TEXTS = st.lists(st.tuples(_LINES, st.sampled_from(SEPARATORS)), max_size=12).map(_lp_line)


def _parses_or_is_rejected(text: str) -> None:
    """``parse_lp`` ends in a model whose every variable is a name listed in
    ``order`` and whose rows have distinct names, or in ``LpFormatError``;
    never in any other exception."""
    try:
        model = parse_lp(text)
    except LpFormatError:
        return
    assert all(ilp._IS_NAME(name) for name in model.order)
    assert len(set(model.order)) == len(model.order)
    listed = set(model.order)
    for names in (model.binary, model.integer, model.lower, model.upper, model.objective):
        assert listed.issuperset(names)
    for _, terms, _, _ in model.rows:
        assert listed.issuperset(terms)
    row_names = [name for name, _, _, _ in model.rows]
    assert all(ilp._IS_NAME(name) for name in row_names)
    assert len(set(row_names)) == len(row_names)
    # the CSR arrays
    indptr, indices = model.indptr, model.indices
    assert len(model.row_names) == len(model.senses) == len(model.rhs) == len(indptr) - 1
    assert indptr[0] == 0 and indptr[-1] == len(indices) == len(model.data)
    assert all(a <= b for a, b in zip(indptr, indptr[1:]))
    assert all(0 <= i < len(model.order) for i in indices)
    for a, b in zip(indptr, indptr[1:]):
        assert len(set(indices[a:b])) == b - a
    assert len(model.integrality) == len(model.order)


class TestParseFuzz:
    @settings(max_examples=400, deadline=None)
    @given(LP_TEXTS)
    def test_model_or_format_error(self, text):
        _parses_or_is_rejected(text)

    @pytest.mark.slow
    @settings(max_examples=5_000, deadline=None)
    @given(LP_TEXTS)
    def test_model_or_format_error_at_length(self, text):
        _parses_or_is_rejected(text)


def _walk_lines() -> list[str]:
    """An LP model about 2.4 pieces of ``ilp._CHUNK`` characters long, as lines."""
    rows = [f" c{i}: x{i % 7} + {i % 5 + 2} y{i % 3} - z >= {i % 11}" for i in range(ilp._CHUNK // 11)]
    return ["Minimize", " obj: x0 + y0 + z", "Subject To", *rows, "End"]


def _separated(lines: list[str], sep: str, at: int) -> str:
    """``lines`` joined by line feeds, except that ``sep`` follows the last
    line ending at or before index ``at``, padded with spaces so that
    ``sep`` starts at ``at``."""
    pos = j = 0
    while pos + len(lines[j]) + 1 + len(lines[j + 1]) <= at:
        pos += len(lines[j]) + 1
        j += 1
    padded = lines[j] + " " * (at - pos - len(lines[j]))
    return "\n".join([*lines[:j], padded]) + sep + "\n".join(lines[j + 1 :]) + "\n"


class TestLineWalk:
    """``parse_lp`` splits its text into lines about ``ilp._CHUNK`` characters
    at a time; the lines and their numbers must be those of
    ``text.splitlines()`` wherever a separator falls against a piece's end."""

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("sep", SEPARATORS, ids=repr)
    def test_separator_at_a_piece_end(self, sep, offset):
        lines = _walk_lines()
        text = _separated(lines, sep, ilp._CHUNK + offset)
        assert len(text) > 2 * ilp._CHUNK and text.index(sep, ilp._CHUNK - 1) == ilp._CHUNK + offset
        assert parse_lp(text) == parse_lp("\n".join(text.splitlines()))

        bad = " bad: x0 + y0"
        lines[-2] = bad  # the last row, in the third piece
        text = _separated(lines, sep, ilp._CHUNK + offset)
        lineno = text.splitlines().index(bad) + 1
        assert text.index(bad) > 2 * ilp._CHUNK
        with pytest.raises(LpFormatError, match=f"^line {lineno}: constraint without a sense: "):
            parse_lp(text)


class _CountingSink:
    """An output that keeps nothing but the number of characters written."""

    chars = 0

    def write(self, text: str) -> None:
        self.chars += len(text)


def _traced(call):
    """``call()``'s result, with the traced peak above the memory in use
    before the call and the memory in use after it, in bytes."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    return result, peak - base, current - base


@pytest.fixture(scope="module")
def sixty_hosts() -> Instance:
    return generate_instance(GenConfig(seed=1, num_hosts=60))  # 162 VMs, 30 flavors


class TestMemory:
    """Traced memory of the LP text path on a default 60-host instance at
    mph 10: emitters write row by row and ``parse_lp`` keeps no list of lines."""

    @pytest.mark.parametrize("kind", list(ModelKind), ids=lambda kind: kind.value)
    def test_emission_peak_is_below_the_text(self, sixty_hosts, kind):
        """Emitting into a sink that keeps nothing peaks below the number of
        characters written.  Measured (Python 3.11): 0.65x for alloc, 0.71x
        for flow and 0.80x for flowlb, mostly the table of variable names.
        Emitters that held every row and joined them read 4.79x, 6.24x and
        5.83x."""
        sink = _CountingSink()
        _, peak, _ = _traced(lambda: emit_model(kind, sixty_hosts, W10, sink))
        assert peak < sink.chars

    def test_parse_transient_is_below_the_text(self, sixty_hosts):
        """``parse_lp``'s transient on the allocation text, its traced peak
        minus what the returned model holds, stays below the text's length.
        Measured (Python 3.11): 0.52x; a parser that held the list of every
        line read 2.24x."""
        text, _ = emit_text(ModelKind.ALLOCATION, sixty_hosts, W10)
        _, peak, held = _traced(lambda: parse_lp(text))
        assert peak - held < len(text)

    def test_parsed_model_is_below_three_times_the_text(self, sixty_hosts):
        """The model ``parse_lp`` returns for the allocation text, rows in
        CSR lists, holds less than three times the text.  Measured (Python
        3.11): 2.70x; a model with one dict and one tuple per row and a
        ``binary`` set held 4.58x."""
        text, _ = emit_text(ModelKind.ALLOCATION, sixty_hosts, W10)
        _, _, held = _traced(lambda: parse_lp(text))
        assert held < 3 * len(text)

    def test_rows_length_builds_no_row(self, sixty_hosts):
        model = parse_lp(emit_text(ModelKind.ALLOCATION, sixty_hosts, W10)[0])
        n, peak, _ = _traced(lambda: len(model.rows))
        assert n == len(model.row_names) > 10_000
        assert peak < 1024  # the view alone; one row's dict and tuple take more


class TestSolveLpCommand:
    """``balcon solve-lp`` (and so ``scripts/solve_lp.py``): 0 solved,
    2 unreadable or malformed model, 3 infeasible, 4 scipy missing."""

    @pytest.mark.parametrize("case", sorted(BAD_LP))
    def test_malformed_model_exits_2(self, case, tmp_path, capsys):
        text, lineno, line = BAD_LP[case]
        path = tmp_path / "bad.lp"
        path.write_text(text)
        assert cli_main(["solve-lp", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"line {lineno}" in err and line in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text", ["", "Minimize\nEnd\n"])
    def test_model_without_variables_exits_2(self, text, tmp_path, capsys):
        path = tmp_path / "empty.lp"
        path.write_text(text)
        assert cli_main(["solve-lp", str(path)]) == 2
        assert capsys.readouterr().err == "error: model has no variables\n"

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert cli_main(["solve-lp", str(tmp_path / "absent.lp")]) == 2
        assert "absent.lp" in capsys.readouterr().err

    def test_missing_scipy_exits_4(self, fig2, tmp_path, monkeypatch, capsys):
        path = tmp_path / "m.lp"
        path.write_text(emit_text(ModelKind.ALLOCATION, fig2, W10)[0])
        monkeypatch.setitem(sys.modules, "scipy.optimize", None)
        assert cli_main(["solve-lp", str(path)]) == 4
        assert "scipy" in capsys.readouterr().err

    @needs_solver
    def test_infeasible_model_exits_3(self, tmp_path, capsys):
        path = tmp_path / "inf.lp"
        path.write_text("Minimize\n obj: x\nSubject To\n c1: x >= 2\n c2: x <= 1\nEnd\n")
        assert cli_main(["solve-lp", str(path)]) == 3
        assert "infeasible" in capsys.readouterr().err.lower()

    @needs_solver
    def test_dump_goes_to_stdout(self, fig2, tmp_path, capsys):
        path = tmp_path / "m.lp"
        path.write_text(emit_text(ModelKind.ALLOCATION, fig2, W10)[0])
        assert cli_main(["solve-lp", str(path)]) == 0
        report = read_solution(ModelKind.ALLOCATION, fig2, capsys.readouterr().out, W10)
        assert report.objective == 24

    @needs_solver
    def test_output_file_holds_the_printed_dump(self, fig2, tmp_path, capsys):
        path = tmp_path / "model.lp"
        path.write_text(emit_text(ModelKind.FLAVOR_FLOW, fig2, W10)[0])
        assert cli_main(["solve-lp", str(path)]) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "out.sol"
        assert cli_main(["solve-lp", str(path), "-o", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == printed.encode()


def _longest_row_and_declaration(text: str) -> tuple[int, int]:
    """The length of the longest ``Subject To`` row and of the longest line
    of the ``Bounds``, ``General`` and ``Binary`` sections of an emitted text."""
    section, row, declaration = None, 0, 0
    for line in text.splitlines():
        if not line.startswith(" "):
            section = line
        elif section == "Subject To":
            row = max(row, len(line))
        elif section in ("Bounds", "General", "Binary"):
            declaration = max(declaration, len(line))
    return row, declaration


class TestEmission:
    @pytest.mark.parametrize("kind", list(ModelKind), ids=lambda kind: kind.value)
    def test_no_declaration_line_outgrows_the_rows(self, fig2, tiny_corpus, kind):
        """A declaration line holds several names, but never more text than
        the longest constraint row of the same model."""
        for inst in [fig2, *tiny_corpus]:
            row, declaration = _longest_row_and_declaration(emit_text(kind, inst, W10)[0])
            assert 0 < declaration <= row

    def test_deterministic_output(self, fig2):
        for kind in ModelKind:
            a, _ = emit_text(kind, fig2, W10)
            b, _ = emit_text(kind, fig2, W10)
            assert a == b

    def test_relaxation_differs_only_in_integrality(self, fig2):
        flow, _ = emit_text(ModelKind.FLAVOR_FLOW, fig2, W10)
        relaxed, _ = emit_text(ModelKind.RELAXED_FLAVOR_FLOW, fig2, W10)
        flow_lines = [l for l in flow.splitlines() if l.strip()]
        relaxed_lines = [l for l in relaxed.splitlines() if l.strip()]
        general = flow_lines.index("General")
        binary = flow_lines.index("Binary")
        assert flow_lines[:general] == relaxed_lines[:general]
        assert flow_lines[binary:] == relaxed_lines[general:]

    def test_integral_weight_beyond_float_is_exact(self, fig2):
        # a float would round 10**17 + 1 to 100000000000000000
        text, _ = emit_text(ModelKind.ALLOCATION, fig2, ObjectiveWeights(Fraction(10**17 + 1), 1))
        assert "obj: 100000000000000001 active_h0 + 100000000000000001 active_h1" in text

    def test_infinite_budget_uses_epsilon_migration_terms(self, fig2):
        text, _ = emit_text(ModelKind.ALLOCATION, fig2, ObjectiveWeights.from_mph(math.inf))
        obj_line = [l for l in text.splitlines() if l.strip().startswith("obj:")][0]
        assert "0.000003 migr_v0" in obj_line

    def test_flavor_counts(self, fig2):
        counts = initial_flavor_counts(fig2)
        assert counts[0] == [1, 0, 0]
        assert counts[1] == [0, 1, 0]
        assert counts[3] == [0, 0, 1]
        for f, row in enumerate(counts):
            assert sum(row) == sum(1 for v in fig2.vms if v.flavor == f)


class TestReadSolution:
    def test_all_zero_flow_costs_initial_actives(self, fig2):
        dump = "\n".join(f"active_h{h} 1" for h in range(3))
        report = read_solution(ModelKind.FLAVOR_FLOW, fig2, dump, W10)
        assert report.objective == 30
        assert report.mapping is None

    def test_allocation_round_trip(self, fig2):
        mu0 = fig2.initial_mapping()
        lines = []
        for v in range(5):
            lines.append(f"alloc_v{v}_h{mu0.host_of(v)} 1")
        for h in range(3):
            lines.append(f"active_h{h} 1")
        report = read_solution(ModelKind.ALLOCATION, fig2, "\n".join(lines), W10)
        assert report.objective == 30
        assert report.mapping.assignment == mu0.assignment

    def test_duplicate_assignment_rejected(self, fig2):
        dump = "alloc_v0_h0 1\nalloc_v0_h1 1"
        with pytest.raises(SolutionError, match="assign_v0"):
            read_solution(ModelKind.ALLOCATION, fig2, dump, W10)

    def test_overload_rejected(self, fig2):
        lines = [f"alloc_v{v}_h0 1" for v in range(5)]
        lines += ["active_h0 1"]
        with pytest.raises(SolutionError, match="cpu_h0|mem_h0"):
            read_solution(ModelKind.ALLOCATION, fig2, "\n".join(lines), W10)

    def test_inactive_host_with_vm_rejected(self, fig2):
        mu0 = fig2.initial_mapping()
        lines = [f"alloc_v{v}_h{mu0.host_of(v)} 1" for v in range(5)]
        lines += ["active_h0 1", "active_h1 1", "active_h2 0"]
        with pytest.raises(SolutionError, match="link_v"):
            read_solution(ModelKind.ALLOCATION, fig2, "\n".join(lines), W10)

    def test_wrong_migration_flag_rejected(self, fig2):
        mu0 = fig2.initial_mapping()
        lines = [f"alloc_v{v}_h{mu0.host_of(v)} 1" for v in range(5)]
        lines += [f"active_h{h} 1" for h in range(3)]
        lines += ["migr_v0 1"]
        with pytest.raises(SolutionError, match="migr_v0"):
            read_solution(ModelKind.ALLOCATION, fig2, "\n".join(lines), W10)

    def test_flow_conservation_violation_rejected(self, fig2):
        lines = [f"active_h{h} 1" for h in range(3)]
        lines += ["out_f0_h0 1"]
        with pytest.raises(SolutionError, match="flow_f0"):
            read_solution(ModelKind.FLAVOR_FLOW, fig2, "\n".join(lines), W10)

    def test_evacuation_violation_rejected(self, fig2):
        lines = ["active_h0 0", "active_h1 1", "active_h2 1"]
        with pytest.raises(SolutionError, match="evac_f0_h0"):
            read_solution(ModelKind.FLAVOR_FLOW, fig2, "\n".join(lines), W10)

    def test_malformed_line_rejected(self, fig2):
        with pytest.raises(SolutionError, match="line 1"):
            read_solution(ModelKind.ALLOCATION, fig2, "alloc_v0_h0 one two", W10)

    def test_bad_value_rejected(self, fig2):
        with pytest.raises(SolutionError, match="^line 2: bad value 'one'$"):
            read_solution(ModelKind.ALLOCATION, fig2, "active_h0 1\nalloc_v0_h0 one", W10)

    @pytest.mark.parametrize("value", ["1_0", "-1_0", "1e1_0", "\u0661", "\uff11", "1\u0660", ".5", "1."])
    def test_value_outside_the_number_pattern_rejected(self, fig2, value):
        # float() reads each of these; parse_lp's number pattern reads none
        float(value)
        with pytest.raises(SolutionError, match=f"^line 2: bad value {re.escape(repr(value))}$"):
            read_solution(ModelKind.ALLOCATION, fig2, f"active_h0 1\nalloc_v0_h0 {value}\n", W10)

    def test_values_as_solvers_print_them_are_read(self):
        values = [0.0, -0.0, 1.0, 0.5, 1e-06, 1e20, -2.5e-300, 123456789012.0]
        text = "".join(f"x{i} {value:.12g}\n" for i, value in enumerate(values))
        assert ilp._parse_variable_dump(text) == {f"x{i}": value for i, value in enumerate(values)}

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400", "NaN"])
    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_non_finite_value_rejected(self, fig2, kind, value):
        with pytest.raises(SolutionError, match=f"^line 2: non-finite value '{value}'$"):
            read_solution(kind, fig2, f"active_h0 1\nalloc_v0_h0 {value}\n", W10)

    def test_non_integral_value_rejected(self, fig2):
        with pytest.raises(SolutionError, match="^alloc_v0_h0 = 0.5 is not integral$"):
            read_solution(ModelKind.ALLOCATION, fig2, "alloc_v0_h0 0.5", W10)

    @pytest.mark.parametrize(
        "kind, shown",
        [(ModelKind.RELAXED_FLAVOR_FLOW, "-0.5"), (ModelKind.FLAVOR_FLOW, "-1")],
    )
    def test_negative_flow_rejected(self, fig2, kind, shown):
        dump = f"active_h0 1\nin_f1_h2 {shown}"
        with pytest.raises(SolutionError, match=f"^in_f1_h2 violated: negative flow {shown}$"):
            read_solution(kind, fig2, dump, W10)

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_non_binary_active_rejected(self, fig2, kind):
        mu0 = fig2.initial_mapping()
        lines = [f"alloc_v{v}_h{mu0.host_of(v)} 1" for v in range(5)]
        lines += ["active_h0 1", "active_h1 2", "active_h2 1"]
        with pytest.raises(SolutionError, match="^active_h1 violated: 2 is not binary$"):
            read_solution(kind, fig2, "\n".join(lines), W10)

    def test_out_capacity_violation_rejected(self, fig2):
        # flavor 0 has one VM, on host 0; two leave it
        lines = [f"active_h{h} 1" for h in range(3)] + ["out_f0_h0 2", "in_f0_h1 2"]
        with pytest.raises(SolutionError, match="^outcap_f0_h0 violated: out 2 > 1$"):
            read_solution(ModelKind.FLAVOR_FLOW, fig2, "\n".join(lines), W10)

    @pytest.mark.parametrize(
        "flavor, source, row",
        [(3, 2, "cpu_h1 violated: load 7.0 > 6"), (0, 0, "mem_h1 violated: load 9.0 > 6")],
    )
    def test_flow_resource_violation_rejected(self, fig2, flavor, source, row):
        # host 1 holds (3, 6); flavor 3 adds (4, 1), flavor 0 adds (3, 3)
        lines = [f"active_h{h} 1" for h in range(3)]
        lines += [f"out_f{flavor}_h{source} 1", f"in_f{flavor}_h1 1"]
        with pytest.raises(SolutionError, match=f"^{row}$"):
            read_solution(ModelKind.FLAVOR_FLOW, fig2, "\n".join(lines), W10)

    def test_allocation_memory_violation_rejected(self, fig2):
        # red (3, 3) and green (2, 4) on host 0: cpu 5 fits, mem 7 does not
        hosts = [0, 1, 0, 2, 2]
        lines = [f"alloc_v{v}_h{h} 1" for v, h in enumerate(hosts)]
        with pytest.raises(SolutionError, match="^mem_h0 violated: load 7 > 6$"):
            read_solution(ModelKind.ALLOCATION, fig2, "\n".join(lines), W10)


    def test_assignment_checked_before_the_next_vm(self, fig2):
        dump = "alloc_v1_h0 0.5\nalloc_v1_h1 1"
        with pytest.raises(SolutionError, match=r"^assign_v0 violated: vm 0 allocated to \[\]$"):
            read_solution(ModelKind.ALLOCATION, fig2, dump, W10)

    def test_non_canonical_alloc_names_ignored(self, fig2):
        mu0 = fig2.initial_mapping()
        lines = [f"alloc_v{v}_h{mu0.host_of(v)} 1" for v in range(5)]
        lines += [f"active_h{h} 1" for h in range(3)]
        odd = ["alloc_v01_h0", "alloc_v0_h01", "alloc_v0_h99", "alloc_v-1_h0", "alloc_v5_h0", "alloc_v0_h0x"]
        lines += [f"{name} 0.5" for name in odd]
        report = read_solution(ModelKind.ALLOCATION, fig2, "\n".join(lines), W10)
        assert report.mapping.assignment == mu0.assignment
        assert report.objective == 30
        assert all(report.variables[name] == 0.5 for name in odd)

    def test_alloc_value_two_is_not_chosen(self, fig2):
        mu0 = fig2.initial_mapping()
        lines = [f"alloc_v{v}_h{mu0.host_of(v)} 1" for v in range(5)]
        lines += [f"active_h{h} 1" for h in range(3)]
        lines += ["alloc_v0_h1 2"]
        report = read_solution(ModelKind.ALLOCATION, fig2, "\n".join(lines), W10)
        assert report.mapping.assignment == mu0.assignment


FIG2 = make_fig2()
# the variables of every model emitted from fig2, and dumps each kind accepts
_FIG2_NAMES = sorted(
    {name for kind in ModelKind for name in parse_lp(emit_text(kind, FIG2, W10)[0]).order}
)
_ACTIVE = [f"active_h{h} 1" for h in range(3)]
_VALID = {
    ModelKind.ALLOCATION: [f"alloc_v{v}_h{h} 1" for v, h in enumerate(FIG2._initial)] + _ACTIVE,
    ModelKind.FLAVOR_FLOW: _ACTIVE,
    ModelKind.RELAXED_FLAVOR_FLOW: _ACTIVE,
}
_DUMP_NAMES = st.one_of(
    st.sampled_from(_FIG2_NAMES),
    st.sampled_from(["alloc_v01_h0", "alloc_v0_h99", "alloc_v99999999999999999999_h0", "in_f9_h0", "x"]),
    st.from_regex(r"[a-z_]{1,6}[0-9]{0,2}", fullmatch=True),
)
_DUMP_VALUES = st.one_of(
    st.sampled_from(
        ["0", "1", "2", "-1", "0.5", "1e-9", "1.0000001", "1e400", "-1e400", "NaN", "-nan", "one", "1_0", "\u0661", "\uff11"]
    ),
    st.floats().map(repr),
    st.integers(-(10**400), 10**400).map(str),
)
_DUMP_LINES = st.one_of(
    st.tuples(_DUMP_NAMES, _DUMP_VALUES).map(" ".join),
    st.sampled_from(["", "   ", "# note", "\\ comment", "x", "x 1 2", "1"]),
)
SOLUTION_DUMPS = st.tuples(
    st.sampled_from(list(ModelKind)),
    st.booleans(),
    st.lists(_DUMP_LINES, max_size=10),
    st.sampled_from([W10, ObjectiveWeights.from_mph(math.inf), ObjectiveWeights.from_mph(Fraction(7, 2))]),
)


def _read_or_is_rejected(dump) -> None:
    """``read_solution`` ends in a report with a finite objective, or in
    ``SolutionError``; never in any other exception."""
    kind, from_valid, lines, weights = dump
    text = "\n".join((_VALID[kind] if from_valid else []) + lines)
    try:
        report = read_solution(kind, FIG2, text, weights)
    except SolutionError:
        return
    assert math.isfinite(report.objective)
    assert all(math.isfinite(value) for value in report.variables.values())


class TestReadSolutionFuzz:
    def test_valid_dumps_are_read(self):
        for kind, lines in _VALID.items():
            report = read_solution(kind, FIG2, "\n".join(lines), W10)
            assert report.objective == 30

    @settings(max_examples=400, deadline=None)
    @given(SOLUTION_DUMPS)
    def test_report_or_solution_error(self, dump):
        _read_or_is_rejected(dump)

    @pytest.mark.slow
    @settings(max_examples=5_000, deadline=None)
    @given(SOLUTION_DUMPS)
    def test_report_or_solution_error_at_length(self, dump):
        _read_or_is_rejected(dump)


@needs_solver
class TestSolverChain:
    def test_fig2_models_match_oracle(self, fig2):
        oracle = brute_force_optimal(fig2, W10)
        alloc_text, _ = emit_text(ModelKind.ALLOCATION, fig2, W10)
        alloc = read_solution(ModelKind.ALLOCATION, fig2, solve_text(alloc_text), W10)
        assert alloc.objective == oracle.objective == 24

        flow_text, _ = emit_text(ModelKind.FLAVOR_FLOW, fig2, W10)
        flow = read_solution(ModelKind.FLAVOR_FLOW, fig2, solve_text(flow_text), W10)
        assert flow.objective == 24

        lb_text, _ = emit_text(ModelKind.RELAXED_FLAVOR_FLOW, fig2, W10)
        lb = read_solution(ModelKind.RELAXED_FLAVOR_FLOW, fig2, solve_text(lb_text), W10)
        assert lb.objective <= 24 + 1e-6

    def test_reconstructed_mapping_objective_matches_variables(self, fig2):
        alloc_text, _ = emit_text(ModelKind.ALLOCATION, fig2, W10)
        report = read_solution(ModelKind.ALLOCATION, fig2, solve_text(alloc_text), W10)
        mu0 = fig2.initial_mapping()
        assert objective(report.mapping, mu0, W10) == report.objective

    def test_bridge_writes_dump_file(self, fig2, tmp_path):
        lp_path = tmp_path / "m.lp"
        with open(lp_path, "w") as fh:
            emit_model(ModelKind.ALLOCATION, fig2, W10, fh)
        out_path = tmp_path / "m.sol"
        # no PYTHONPATH: the script finds the package sources next to it
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run(
            [sys.executable, str(REPO_ROOT / "scripts" / "solve_lp.py"), str(lp_path), "-o", str(out_path)],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        report = read_solution(ModelKind.ALLOCATION, fig2, out_path.read_text(), W10)
        assert report.objective == 24

    def test_sparse_bridge_on_twelve_hosts(self, monkeypatch):
        import scipy.optimize
        from scipy.sparse import csr_array

        from balcon import GenConfig, SolverParams, balcon, generate_instance

        inst = generate_instance(GenConfig(seed=1, num_hosts=12))
        weights = ObjectiveWeights.from_mph(10)
        model = parse_lp(emit_text(ModelKind.ALLOCATION, inst, weights)[0])
        seen = []
        milp = scipy.optimize.milp

        def recording_milp(*args, **kwargs):
            seen.append(kwargs["constraints"].A)
            return milp(*args, **kwargs)

        monkeypatch.setattr(scipy.optimize, "milp", recording_milp)
        names, result = solve(model)
        assert result.success, result.message
        (matrix,) = seen
        assert isinstance(matrix, csr_array)
        assert matrix.shape == (len(model.rows), len(model.order))
        assert matrix.nnz == sum(len(terms) for _, terms, _, _ in model.rows)

        dump = "\n".join(f"{n} {x:.12g}" for n, x in zip(names, result.x))
        optimum = read_solution(ModelKind.ALLOCATION, inst, dump, weights).objective
        mapping, _ = balcon(inst, SolverParams(weights=weights))
        assert optimum <= objective(mapping, inst.initial_mapping(), weights)
        lb_text, _ = emit_text(ModelKind.RELAXED_FLAVOR_FLOW, inst, weights)
        lb = read_solution(ModelKind.RELAXED_FLAVOR_FLOW, inst, solve_text(lb_text), weights)
        assert lb.objective <= optimum + 1e-6

    def test_eval_cli_ingests_external_lower_bound(self, tmp_path):
        # an instance too large for the built-in oracle falls back to the
        # externally solved relaxation dump in --lb-dir
        import csv
        import json

        from balcon.cli import main
        from balcon.datagen import GenConfig, generate_instance
        from balcon.model import ResourceVec, instance_to_dict

        inst = generate_instance(
            GenConfig(seed=4, num_hosts=6, host_capacity=ResourceVec(8, 8),
                      num_flavors=4, target_fill=0.7)
        )
        assert len(inst.hosts) > 4  # beyond the default oracle limits
        inst_path = tmp_path / "big.json"
        inst_path.write_text(json.dumps(instance_to_dict(inst)))

        lb_text, _ = emit_text(ModelKind.RELAXED_FLAVOR_FLOW, inst, ObjectiveWeights(8, 1))
        (tmp_path / "big.flowlb.sol").write_text(solve_text(lb_text))
        code = main(
            [
                "eval",
                "--mph",
                "8",
                "--algos",
                "balcon",
                "--lb-dir",
                str(tmp_path),
                "--out-dir",
                str(tmp_path / "out"),
                str(inst_path),
            ]
        )
        assert code == 0
        rows = list(csv.DictReader((tmp_path / "out" / "gaps.csv").read_text().splitlines()))
        assert rows[0]["ref_kind"] == "lb"
        assert rows[0]["ref_objective"] != ""
