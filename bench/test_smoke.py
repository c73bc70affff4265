"""Smoke test of the benchmark: every workload at its smallest size.

    python -m pytest bench/test_smoke.py -q

Each workload runs once untraced and once traced.  Every output check must
pass, the printed metrics must be exactly the ones ``BENCHMARK.json`` lists,
the traced self times must add up to the traced wall time, and a traced run
must leave every patched module attribute as it found it.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bindings() -> dict:
    """Every attribute the tracer may patch, by identity."""
    owners = [m for n, m in sys.modules.items() if n == "balcon" or n.startswith("balcon.")]
    owners += [workloads.solve_lp, workloads.model.Mapping]
    snap = {(id(o), k): v for o in owners for k, v in vars(o).items()}
    snap.update({("ALGORITHMS", k): v for k, v in workloads.evaluate.ALGORITHMS.items()})
    return snap


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_untraced_run_checks_pass(name):
    assert name in {w["name"] for w in SPEC["workloads"]}
    result = run.measure(name, seed=0, seconds=0.01, trace=False, smoke=True)
    runner = result["runner"]
    assert runner.calls > 0 and runner.failures == []
    final = run.report(result, trace=False)
    assert final["correct"] and final["failed"] == 0
    assert set(final["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in final["metrics"].values())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_restores_modules(name):
    before = bindings()
    result = run.measure(name, seed=0, seconds=0.01, trace=True, smoke=True)
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    tracer = result["tracer"]
    assert sum(tracer.self_times().values()) == pytest.approx(tracer.wall_s, rel=1e-9)
    final = run.report(result, trace=True)
    assert final["correct"], result["runner"].failures
    assert set(final["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
