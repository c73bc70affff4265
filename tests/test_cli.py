import contextlib
import csv
import io
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from balcon import InfeasibleInstanceError, InstanceFormatError, instance_to_dict, load_instance
from balcon import cli
from balcon.cli import main, parse_mph

from conftest import make_fig2


@pytest.fixture()
def fig2_path(tmp_path):
    path = tmp_path / "fig2.json"
    path.write_text(json.dumps(instance_to_dict(make_fig2())))
    return path


class TestParseMph:
    def test_raw_units(self):
        assert parse_mph("42") == 42

    def test_binary_suffixes(self):
        assert parse_mph("1TiB") == 1 << 20
        assert parse_mph("2GiB") == 2048
        assert parse_mph("512KiB") == Fraction(1, 2)
        assert parse_mph("3MiB") == 3

    def test_infinity(self):
        assert parse_mph("inf") == math.inf
        assert parse_mph("Infinity") == math.inf

    def test_decimal(self):
        assert parse_mph("0.5TiB") == 1 << 19

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_mph("10 potatoes")


class TestSolve:
    def test_balcon_reaches_two_hosts(self, fig2_path, tmp_path):
        out = tmp_path / "result.json"
        code = main(["solve", "--algo", "balcon", "--mph", "inf", "-o", str(out), str(fig2_path)])
        assert code == 0
        result = load_instance(out)
        assert result.initial_mapping().active_count() == 2

    def test_mph_zero_returns_input_mapping(self, fig2_path, tmp_path):
        out = tmp_path / "result.json"
        assert main(["solve", "--mph", "0", "-o", str(out), str(fig2_path)]) == 0
        assert load_instance(out) == load_instance(fig2_path)

    def test_report_file(self, fig2_path, tmp_path):
        out = tmp_path / "result.json"
        report_path = tmp_path / "report.json"
        main(
            [
                "solve",
                "--mph",
                "inf",
                "-o",
                str(out),
                "--report",
                str(report_path),
                str(fig2_path),
            ]
        )
        report = json.loads(report_path.read_text())
        assert report["algorithm"] == "balcon"
        assert report["active_hosts"] == 2
        assert report["migrated_mem"] == 4
        assert [a["outcome"] for a in report["attempts"]] == ["accepted", "skipped", "skipped"]

    def test_fractional_objective_is_written_exactly(self, fig2_path, tmp_path, capsys):
        # at mph 1.5 nothing is released: 3 hosts weigh 3 * 3/2 = 9/2
        report_path = tmp_path / "report.json"
        argv = ["solve", "--mph", "1.5", "--report", str(report_path), "-o", str(tmp_path / "r.json")]
        assert main(argv + [str(fig2_path)]) == 0
        assert '"objective": "9/2"' in report_path.read_text()
        assert json.loads(capsys.readouterr().err)["objective"] == "9/2"
        assert main(["oracle", "--mph", "1.5", "-o", str(tmp_path / "o.json"), str(fig2_path)]) == 0
        assert json.loads(capsys.readouterr().err)["objective"] == "9/2"

    def test_verbose_trace_carries_outcomes(self, fig2_path, tmp_path, capsys):
        out = tmp_path / "result.json"
        assert main(["solve", "--mph", "0", "-v", "-o", str(out), str(fig2_path)]) == 0
        lines = capsys.readouterr().err.splitlines()
        events = [json.loads(line) for line in lines[:-1]]
        assert events == [
            {"event": "release_result", "host": h, "accepted": False, "outcome": "skipped"}
            for h in (2, 0, 1)
        ]
        assert json.loads(lines[-1])["force_steps"] == 0

    def test_min_efficiency_flag_is_gone(self, fig2_path):
        assert main(["solve", "--algo", "sercon-orig", "--min-efficiency", "1/2", str(fig2_path)]) == 1

    def test_sercon_variants_run(self, fig2_path, tmp_path):
        for algo in ("sercon-mod", "sercon-orig"):
            out = tmp_path / f"{algo}.json"
            assert main(["solve", "--algo", algo, "-o", str(out), str(fig2_path)]) == 0
            assert load_instance(out).initial_mapping().active_count() == 3

    @pytest.mark.parametrize("algo", ["balcon", "sercon-mod"])
    def test_max_migrations_only_with_sercon_orig(self, algo, fig2_path, tmp_path, capsys):
        out = tmp_path / "result.json"
        flags = ["solve", "--max-migrations", "0", "-o", str(out), str(fig2_path)]
        assert main([*flags, "--algo", algo]) == 1
        assert "--max-migrations" in capsys.readouterr().err
        assert not out.exists()
        assert main([*flags, "--algo", "sercon-orig"]) == 0

    def test_stdout_output(self, fig2_path, capsys):
        assert main(["solve", "--mph", "0", str(fig2_path)]) == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert {"hosts", "flavors", "vms"} <= set(doc)
        summary = json.loads(captured.err.strip().splitlines()[-1])
        assert summary["active_hosts"] == 3


class TestExitCodes:
    def test_usage_error(self):
        assert main(["solve", "--algo", "nonsense", "x.json"]) == 1
        assert main(["frobnicate"]) == 1
        assert main([]) == 1

    def test_missing_file(self, tmp_path):
        assert main(["solve", str(tmp_path / "absent.json")]) == 2

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["solve", str(bad)]) == 2

    def test_infeasible_instance(self, tmp_path):
        bad = tmp_path / "overloaded.json"
        bad.write_text(
            json.dumps(
                {
                    "hosts": [{"id": 0, "cpu": 1, "mem": 1}],
                    "flavors": [{"id": 0, "cpu": 1, "mem": 1}],
                    "vms": [
                        {"id": 0, "flavor": 0, "host": 0},
                        {"id": 1, "flavor": 0, "host": 0},
                    ],
                }
            )
        )
        assert main(["solve", str(bad)]) == 2

    @pytest.mark.parametrize("kind", ["hosts", "flavors", "vms"])
    @pytest.mark.parametrize("entry", [5, None, True, "idcpumem"])
    def test_non_object_entry(self, kind, entry, tmp_path, capsys):
        doc = instance_to_dict(make_fig2())
        i = len(doc[kind])
        doc[kind].append(entry)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["solve", str(bad)]) == 2
        err = capsys.readouterr().err
        assert f"{kind}[{i}]" in err and "Traceback" not in err

    @pytest.mark.parametrize("kind", ["hosts", "flavors"])
    @pytest.mark.parametrize("field", ["cpu", "mem"])
    def test_zero_resource(self, kind, field, tmp_path, capsys):
        doc = instance_to_dict(make_fig2())
        doc[kind][1][field] = 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["solve", str(bad)]) == 2
        assert f"{kind}[1]" in capsys.readouterr().err

    def test_oracle_size_refusal(self, tmp_path, fig2_path):
        assert main(["oracle", "--max-vms", "2", str(fig2_path)]) == 2


# JSON texts of values that do not belong in an instance document, or only
# sometimes: huge, negative and 5,000-digit integers, bools, floats,
# non-finite literals, strings, containers and deep nesting
_JSON_VALUES = st.one_of(
    st.integers(-(10**30), 10**30).map(str),
    st.floats().map(json.dumps),
    st.text(max_size=4).map(json.dumps),
    st.sampled_from(
        ["0", "1", "-1", "2", "7", "true", "false", "null", "1.0", "-0.0", "1e400", "NaN", "-Infinity",
         "[]", "{}", "[1]", '{"id": 0}', "1" + "0" * 4999, "[" * 5000 + "]" * 5000]
    ),
)
_KINDS = st.sampled_from(["hosts", "flavors", "vms"])
_FIELDS = st.sampled_from(["id", "cpu", "mem", "flavor", "host", "extra"])
_MUTATIONS = st.one_of(
    st.tuples(st.just("set"), _KINDS, st.integers(0, 5), _FIELDS, _JSON_VALUES),
    st.tuples(st.just("drop"), _KINDS, st.integers(0, 5), _FIELDS),
    st.tuples(st.just("duplicate"), _KINDS, st.integers(0, 5)),
    st.tuples(st.just("entry"), _KINDS, st.integers(0, 5), _JSON_VALUES),
    st.tuples(st.just("top"), st.sampled_from(["hosts", "flavors", "vms", "other"]), _JSON_VALUES),
    st.tuples(st.just("remove"), st.sampled_from(["hosts", "flavors", "vms"])),
)


def _mutated(mutations: list) -> str:
    """The fig2 instance document with ``mutations`` applied, as JSON text.
    A drawn value is JSON text; it stands in for a placeholder string, so
    that no integer longer than ``json.dumps`` writes is ever converted."""
    doc = instance_to_dict(make_fig2())
    raw: list[str] = []

    def hole(text: str) -> str:
        raw.append(text)
        return f"\x00{len(raw) - 1}\x00"

    for op, *args in mutations:
        if op == "remove":
            doc.pop(args[0], None)
            continue
        if op == "top":
            doc[args[0]] = hole(args[1])
            continue
        entries = doc.get(args[0])
        if not isinstance(entries, list) or not entries:
            continue
        i = args[1] % len(entries)
        if op == "duplicate":
            entries.append(entries[i])
        elif op == "entry":
            entries[i] = hole(args[2])
        elif isinstance(entries[i], dict):
            entries[i] = dict(entries[i])
            if op == "set":
                entries[i][args[2]] = hole(args[3])
            else:
                entries[i].pop(args[2], None)
    text = json.dumps(doc)
    for n, value in enumerate(raw):
        text = text.replace(json.dumps(f"\x00{n}\x00"), value)
    return text


def _loads_or_exits_2(text: str, directory) -> None:
    """``load_instance`` returns an instance or raises ``InstanceFormatError``
    or ``InfeasibleInstanceError``; ``balcon solve`` exits 0 on the first and
    2 with that error alone on the others, never with a traceback."""
    path = directory / "instance.json"
    path.write_text(text)
    try:
        load_instance(path)
        error = None
    except (InstanceFormatError, InfeasibleInstanceError) as exc:
        error = exc
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["solve", "-o", str(directory / "out.json"), str(path)])
    if error is None:
        assert code == 0
    else:
        assert (code, err.getvalue()) == (2, f"error: {error}\n")


@pytest.fixture(scope="module")
def loader_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("loader")


class TestLoaderFuzz:
    def test_five_thousand_digit_integer_is_named(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        path.write_text(_mutated([("set", "hosts", 0, "cpu", "1" + "0" * 4999)]))
        with pytest.raises(InstanceFormatError, match="^an integer exceeds 4300 digits$"):
            load_instance(path)
        assert main(["solve", str(path)]) == 2
        assert capsys.readouterr().err == "error: an integer exceeds 4300 digits\n"

    def test_deep_nesting_is_named(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text(_mutated([("top", "hosts", "[" * 100_000 + "]" * 100_000)]))
        with pytest.raises(InstanceFormatError, match="^JSON nested too deeply$"):
            load_instance(path)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_MUTATIONS, min_size=1, max_size=3))
    def test_instance_or_error(self, loader_dir, mutations):
        _loads_or_exits_2(_mutated(mutations), loader_dir)

    @pytest.mark.slow
    @settings(max_examples=5_000, deadline=None)
    @given(st.lists(_MUTATIONS, min_size=1, max_size=3))
    def test_instance_or_error_at_length(self, loader_dir, mutations):
        _loads_or_exits_2(_mutated(mutations), loader_dir)


class TestFlagRanges:
    @pytest.mark.parametrize(
        "flag, value, algo",
        [("--gamma", "0", "balcon"), ("--force-steps", "-1", "balcon"), ("--max-migrations", "-1", "sercon-orig")],
    )
    def test_solve_names_the_flag(self, flag, value, algo, fig2_path, tmp_path, capsys):
        out = tmp_path / "result.json"
        assert main(["solve", "--algo", algo, flag, value, "-o", str(out), str(fig2_path)]) == 2
        assert f"error: {flag} must be at least" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--gamma", "0"), ("--force-steps", "-1")])
    def test_eval_names_the_flag(self, flag, value, fig2_path, tmp_path, capsys):
        assert main(["eval", flag, value, "--out-dir", str(tmp_path / "eval"), str(fig2_path)]) == 2
        assert f"error: {flag} must be at least" in capsys.readouterr().err
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("value", ["2", "-1/2"])
    def test_solve_names_alpha(self, value, fig2_path, tmp_path, capsys):
        out = tmp_path / "result.json"
        assert main(["solve", f"--alpha={value}", "-o", str(out), str(fig2_path)]) == 2
        assert f"error: --alpha must lie in [0, 1], got {value}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["2", "-1/2"])
    def test_eval_names_alpha(self, value, fig2_path, tmp_path, capsys):
        assert main(["eval", f"--alpha={value}", "--out-dir", str(tmp_path / "eval"), str(fig2_path)]) == 2
        assert f"error: --alpha must lie in [0, 1], got {value}" in capsys.readouterr().err
        assert not (tmp_path / "eval").exists()


class TestFlagMessages:
    # a flag whose text does not parse is a usage error (exit 1) whose
    # message quotes the text and names no function of the package
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["solve", "--mph", "xyz"], "argument --mph: bad mph value 'xyz': expected units"),
            (["oracle", "--mph", "1 GiB"], "argument --mph: bad mph value '1 GiB'"),
            (["solve", "--alpha", "1/0"], "argument --alpha: bad rational value '1/0'"),
            (["eval", "--alpha", "half"], "argument --alpha: bad rational value 'half'"),
        ],
    )
    def test_unparsable_text(self, argv, message, fig2_path, capsys):
        assert main([*argv, str(fig2_path)]) == 1
        err = capsys.readouterr().err
        assert message in err
        assert "invalid" not in err and "parse_" not in err and "_flag" not in err

    @pytest.mark.parametrize("command", ["eval", "sweep"])
    @pytest.mark.parametrize(
        "algos, message",
        [
            ("balcon,foo", "argument --algos: unknown algorithm 'foo'; choose from ['balcon', 'sercon-mod', 'sercon-orig']"),
            (",", "argument --algos: expected at least one algorithm"),
        ],
    )
    def test_algos_names_the_bad_value(self, command, algos, message, fig2_path, tmp_path, capsys):
        out = tmp_path / "out"
        extra = ["--out-dir", str(out)] if command == "eval" else ["--grid", "0", "-o", str(out)]
        assert main([command, "--algos", algos, *extra, str(fig2_path)]) == 1
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == f"balcon {command}: error: {message}"
        assert not out.exists()

    def test_alpha_range_error_quotes_the_text(self, fig2_path, tmp_path, capsys):
        out = tmp_path / "result.json"
        assert main(["solve", "--alpha", "1e400", "-o", str(out), str(fig2_path)]) == 2
        err = capsys.readouterr().err
        assert err == "error: --alpha must lie in [0, 1], got 1e400\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value", [("--max-vms", "-1"), ("--max-hosts", "0"), ("--node-budget", "0")]
    )
    def test_oracle_limits_name_the_flag(self, flag, value, fig2_path, capsys):
        assert main(["oracle", flag, value, str(fig2_path)]) == 2
        assert f"error: {flag} must be at least 1, got {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["1.5", "0", "-0.5", "nan"])
    def test_generate_names_fill(self, value, tmp_path, capsys):
        out = tmp_path / "g.json"
        assert main(["generate", "--seed", "1", "--hosts", "4", "--fill", value, "-o", str(out)]) == 2
        assert f"error: --fill must lie in (0, 1], got {float(value)}" in capsys.readouterr().err
        assert not out.exists()


class TestGenerate:
    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["generate", "--mode", "lopsided", "--seed", "1", "--hosts", "6", "-o"]
        assert main(args + [str(a)]) == 0
        assert main(args + [str(b)]) == 0
        assert a.read_text() == b.read_text()
        inst = load_instance(a)
        assert inst.initial_mapping().is_feasible()

    def test_uniform_mode(self, tmp_path):
        out = tmp_path / "u.json"
        assert main(["generate", "--mode", "uniform", "--seed", "3", "--hosts", "4", "-o", str(out)]) == 0
        assert load_instance(out).initial_mapping().is_feasible()

    @pytest.mark.parametrize("flag, value, low", [("--hosts", "0", 1), ("--flavors", "0", 1), ("--mem", "1", 2)])
    def test_range_errors_name_the_flag(self, flag, value, low, tmp_path, capsys):
        out = tmp_path / "g.json"
        argv = ["generate", "--seed", "1", "--hosts", "4", flag, value, "-o", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {flag} must be at least {low}, got {value}\n"
        assert not out.exists()

    def test_generator_giving_up_exits_2(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        assert main(["generate", "--seed", "0", "--hosts", "300", "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: gave up after 101 unplaceable samples (seed 0)\n"
        assert not out.exists()

    def test_zero_cpu_capacity(self, tmp_path, capsys):
        out = tmp_path / "z.json"
        assert main(["generate", "--cpu", "0", "--seed", "1", "--hosts", "4", "-o", str(out)]) == 2
        assert capsys.readouterr().err == "error: --cpu must be at least 1, got 0\n"
        assert not out.exists()

    def test_negative_cpu_capacity(self, tmp_path, capsys):
        out = tmp_path / "n.json"
        assert main(["generate", "--cpu", "-5", "--seed", "1", "--hosts", "4", "-o", str(out)]) == 2
        assert capsys.readouterr().err == "error: --cpu must be at least 1, got -5\n"
        assert not out.exists()


class TestOracle:
    def test_fig2_optimum(self, fig2_path, tmp_path, capsys):
        out = tmp_path / "opt.json"
        assert main(["oracle", "--mph", "10", "-o", str(out), str(fig2_path)]) == 0
        summary = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert summary["objective"] == 24
        assert summary["active_hosts"] == 2
        assert load_instance(out).initial_mapping().active_count() == 2


class TestExportIlp:
    def test_writes_three_files(self, fig2_path, tmp_path):
        out_dir = tmp_path / "models"
        assert main(["export-ilp", "--out-dir", str(out_dir), str(fig2_path)]) == 0
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == ["fig2.alloc.lp", "fig2.flow.lp", "fig2.flowlb.lp"]
        text = (out_dir / "fig2.alloc.lp").read_text()
        assert text.startswith("Minimize")
        assert text.rstrip().endswith("End")

    def test_single_model(self, fig2_path, tmp_path):
        out_dir = tmp_path / "m"
        assert main(["export-ilp", "--model", "flow", "--out-dir", str(out_dir), str(fig2_path)]) == 0
        assert [p.name for p in out_dir.iterdir()] == ["fig2.flow.lp"]


class TestEval:
    def test_writes_gap_and_profile(self, fig2_path, tmp_path):
        out_dir = tmp_path / "eval"
        code = main(
            [
                "eval",
                "--mph",
                "8",
                "--algos",
                "balcon,sercon-mod",
                "--out-dir",
                str(out_dir),
                str(fig2_path),
            ]
        )
        assert code == 0
        gaps = list(csv.DictReader((out_dir / "gaps.csv").read_text().splitlines()))
        assert {r["algorithm"] for r in gaps} == {"balcon", "sercon-mod"}
        balcon_row = [r for r in gaps if r["algorithm"] == "balcon"][0]
        assert balcon_row["gap"] == "0"
        assert balcon_row["ref_kind"] == "oracle"
        profile = list(csv.DictReader((out_dir / "profile.csv").read_text().splitlines()))
        assert profile

    def test_malformed_lower_bound_dump_exits_2(self, fig2_path, tmp_path, capsys):
        (tmp_path / "fig2.flowlb.sol").write_text("active_h0 1\nin_f0_h1 lots\n")
        argv = ["eval", "--lb-dir", str(tmp_path), "--out-dir", str(tmp_path / "out"), str(fig2_path)]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: line 2: bad value 'lots'\n"

    @pytest.mark.parametrize("value", ["nan", "inf", "1e400"])
    def test_non_finite_lower_bound_dump_exits_2(self, fig2_path, tmp_path, capsys, value):
        # every host active, so that only the value is wrong
        dump = f"active_h0 1\nactive_h1 1\nactive_h2 1\nin_f0_h1 {value}\n"
        (tmp_path / "fig2.flowlb.sol").write_text(dump)
        argv = ["eval", "--lb-dir", str(tmp_path), "--out-dir", str(tmp_path / "out"), str(fig2_path)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: line 4: non-finite value '{value}'\n"

    def test_unknown_algorithm_is_usage_error(self, fig2_path, tmp_path):
        assert main(["eval", "--algos", "bogus", "--out-dir", str(tmp_path), str(fig2_path)]) == 1

    def test_parallel_jobs_match_serial(self, fig2_path, tmp_path):
        # two inputs, so that --jobs 2 runs a pool of two workers
        serial, parallel = tmp_path / "s", tmp_path / "p"
        twin = tmp_path / "twin.json"
        twin.write_text(fig2_path.read_text())
        base = ["eval", "--mph", "8", "--algos", "balcon", str(fig2_path), str(twin)]
        assert main(base[:-2] + ["--out-dir", str(serial)] + base[-2:]) == 0
        assert main(base[:-2] + ["--out-dir", str(parallel), "--jobs", "2"] + base[-2:]) == 0
        assert (serial / "gaps.csv").read_text() == (parallel / "gaps.csv").read_text()


class TestSweep:
    def test_sweep_csv(self, fig2_path, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--grid", "0,4,8,inf", "-o", str(out), str(fig2_path)]
        )
        assert code == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 8  # 4 grid points x 2 default algorithms
        by_key = {(r["mph"], r["algorithm"]): r for r in rows}
        assert by_key[("inf", "balcon")]["active_hosts"] == "2"
        assert by_key[("inf", "sercon-mod")]["active_hosts"] == "3"
        assert by_key[("0", "balcon")]["migrated_mem"] == "0"

    @pytest.mark.parametrize("grid", ["", ",", " , "])
    def test_empty_grid_rejected(self, grid, fig2_path, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--grid", grid, "-o", str(out), str(fig2_path)]) == 2
        assert "--grid" in capsys.readouterr().err
        assert not out.exists()

    def test_parallel_jobs_match_serial(self, fig2_path, tmp_path):
        serial = tmp_path / "serial.csv"
        parallel = tmp_path / "parallel.csv"
        main(["sweep", "--grid", "0,8", "-o", str(serial), str(fig2_path)])
        main(["sweep", "--grid", "0,8", "--jobs", "2", "-o", str(parallel), str(fig2_path)])
        assert serial.read_text() == parallel.read_text()


class _FakePool:
    """Stands in for ``ProcessPoolExecutor``: records its size and maps in
    this process, so no worker is started."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, payloads):
        return map(fn, payloads)


class TestJobs:
    @pytest.mark.parametrize("jobs", ["0", "-1"])
    @pytest.mark.parametrize("command", ["eval", "sweep"])
    def test_non_positive_jobs_rejected(self, command, jobs, fig2_path, tmp_path, capsys):
        extra = ["--out-dir", str(tmp_path)] if command == "eval" else ["--grid", "0,8"]
        assert main([command, "--jobs", jobs, *extra, str(fig2_path)]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_pool_never_larger_than_the_inputs(self, fig2_path, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "ProcessPoolExecutor", _FakePool)
        monkeypatch.setattr(_FakePool, "sizes", [])
        twin = tmp_path / "twin.json"
        twin.write_text(fig2_path.read_text())
        out = tmp_path / "sweep.csv"
        assert main(["eval", "--jobs", "64", "--out-dir", str(tmp_path), str(fig2_path), str(twin)]) == 0
        assert main(["sweep", "--jobs", "64", "--grid", "0,8", "-o", str(out), str(fig2_path)]) == 0
        assert _FakePool.sizes == [2, 2]
