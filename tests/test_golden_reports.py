"""Golden run reports: ``balcon`` must reproduce the recorded runs attempt by
attempt.

Each entry of ``data/golden_reports.json`` holds the final assignment of one
run and, for every release attempt, its host, whether it was accepted and
released, its force steps and its class counts.  The runs are the 200-instance
tiny corpus at mph 0, 10 and inf, and the generator-default lopsided/uniform
twins with 6, 12 and 20 hosts, seeds 0-2, at mph inf.

Record the data again with::

    PYTHONPATH=src python tests/test_golden_reports.py
"""
from __future__ import annotations

import json
import math
from functools import partial
from pathlib import Path

import pytest

from balcon import GenConfig, ObjectiveWeights, SolverParams, balcon, generate_instance

from conftest import tiny_instances

DATA = Path(__file__).parent / "data" / "golden_reports.json"

TINY_MPHS = {"0": 0, "10": 10, "inf": math.inf}
TWIN_HOSTS = (6, 12, 20)
TWIN_SEEDS = (0, 1, 2)


def _tiny_runs(mph: str):
    weights = ObjectiveWeights.from_mph(TINY_MPHS[mph])
    for i, inst in enumerate(tiny_instances(200)):
        yield f"tiny/{i:03d}/mph={mph}", inst, weights


def _twin_runs(hosts: int):
    weights = ObjectiveWeights.from_mph(math.inf)
    for seed in TWIN_SEEDS:
        for mode in ("lopsided", "uniform"):
            inst = generate_instance(GenConfig(seed=seed, num_hosts=hosts, mode=mode))
            yield f"twin/{mode}/hosts={hosts}/seed={seed}/mph=inf", inst, weights


GROUPS = {
    **{f"tiny-mph-{mph}": partial(_tiny_runs, mph) for mph in TINY_MPHS},
    **{f"twins-{n}-hosts": partial(_twin_runs, n) for n in TWIN_HOSTS},
}


def _entry(inst, weights) -> dict:
    mapping, report = balcon(inst, SolverParams(weights=weights))
    return {
        "assignment": list(mapping.assignment),
        "attempts": [
            {
                "host": a.host,
                "accepted": a.accepted,
                "released": a.released,
                "force_steps": a.force_steps,
                "class_counts": a.class_counts,
            }
            for a in report.attempts
        ],
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(DATA.read_text())


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_reports_match_golden(group, golden):
    # compared as JSON text, so the order of class_counts keys counts too
    for key, inst, weights in GROUPS[group]():
        assert json.dumps(_entry(inst, weights)) == json.dumps(golden[key]), key


def record() -> None:
    entries = {key: _entry(inst, weights) for make in GROUPS.values() for key, inst, weights in make()}
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(entries.items())]
    DATA.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(entries)} runs to {DATA}")


if __name__ == "__main__":
    record()
