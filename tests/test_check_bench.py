"""The benchmark trajectory checker on small synthetic BENCH files."""
import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_bench", REPO_ROOT / "scripts" / "check_bench.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check_bench = load_checker()


def bench_file(directory: Path, n: int, digests: dict, parent_digests: dict | None = None, **extra):
    """A BENCH_<n>.json whose runs have the given change digests, keyed by
    (workload, seed); parent digests default to the change digests."""
    parent_digests = parent_digests or digests
    workloads: dict = {}
    for (workload, seed), digest in digests.items():
        timing = {"wall_ref": 1.0, "call_ref_p50": 1.0, "setup_s": 0.001}
        workloads.setdefault(workload, {})[seed] = {
            "parent": {**timing, "digest": parent_digests[workload, seed]},
            "change": {**timing, "digest": digest},
        }
    doc = {"machine": {"nproc": 1}, "parent": "a", "commit": "b", "workloads": workloads, **extra}
    (directory / f"BENCH_{n}.json").write_text(json.dumps(doc))


def run(directory: Path) -> int:
    return check_bench.main(["--dir", str(directory)])


def test_same_digests_pass(tmp_path):
    bench_file(tmp_path, 6, {("w", "1"): "x", ("w", "2"): "y"})
    bench_file(tmp_path, 7, {("w", "1"): "x", ("w", "2"): "y", ("v", "1"): "z"})
    assert run(tmp_path) == 0


def test_changed_digest_fails(tmp_path, capsys):
    bench_file(tmp_path, 6, {("w", "1"): "x"})
    bench_file(tmp_path, 7, {("w", "1"): "other"})
    assert run(tmp_path) == 1
    assert "w seed 1: digest differs from the previous file" in capsys.readouterr().out


def test_changed_digest_within_the_newest_file_fails(tmp_path):
    bench_file(tmp_path, 6, {("w", "1"): "x"}, {("w", "1"): "y"})
    assert run(tmp_path) == 1


def test_declared_behaviour_change_passes(tmp_path, capsys):
    bench_file(tmp_path, 6, {("w", "1"): "x"})
    bench_file(tmp_path, 7, {("w", "1"): "other"}, {("w", "1"): "x"}, behaviour_change="skip attempts")
    assert run(tmp_path) == 0
    assert "declared behaviour change: skip attempts" in capsys.readouterr().out


def test_files_are_ordered_by_number(tmp_path):
    # BENCH_10 is newer than BENCH_9, although it sorts first as text
    bench_file(tmp_path, 9, {("w", "1"): "x"})
    bench_file(tmp_path, 10, {("w", "1"): "x"})
    assert [p.name for p in check_bench.trajectory(tmp_path)] == ["BENCH_9.json", "BENCH_10.json"]
    bench_file(tmp_path, 10, {("w", "1"): "other"})
    assert run(tmp_path) == 1


def test_no_file_is_an_error(tmp_path):
    assert run(tmp_path) == 2


@pytest.mark.skipif(not list(REPO_ROOT.glob("BENCH_*.json")), reason="no trajectory file yet")
def test_repository_trajectory_passes():
    assert run(REPO_ROOT) == 0
