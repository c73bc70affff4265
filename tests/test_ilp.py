import io
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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
from balcon.cli import main as cli_main
from balcon.ilp import EmitCounts, LpFormatError, initial_flavor_counts, parse_lp, solve

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
}


class TestParseLp:
    @pytest.mark.parametrize("case", sorted(BAD_LP))
    def test_malformed_line_is_named(self, case):
        text, lineno, line = BAD_LP[case]
        with pytest.raises(LpFormatError, match=f"line {lineno}: .*{re.escape(repr(line))}"):
            parse_lp(text)

    def test_free_and_infinite_bounds_stay_legal(self):
        model = parse_lp(
            "Minimize\n obj: x + y + z\nSubject To\n c1: x + y + z >= 1\n"
            "Bounds\n x free\n -inf <= y <= inf\n z >= -inf\nEnd\n"
        )
        assert model.lower == {"x": -math.inf, "y": -math.inf, "z": -math.inf}
        assert model.upper == {"y": math.inf}


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


class TestEmission:
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
