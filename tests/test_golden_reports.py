"""Golden run reports: ``balcon`` and the Sercon baselines must reproduce the
recorded runs attempt by attempt.

Each entry of ``data/golden_reports.json`` holds the final assignment of one
``balcon`` run and, for every release attempt, its host, whether it was
accepted and released, its force steps and its class counts.  The runs are the
200-instance tiny corpus at mph 0, 10 and inf, and the generator-default
lopsided/uniform twins with 6, 12 and 20 hosts, seeds 0-2, at mph inf.

Each entry of ``data/golden_baselines.json`` holds the final assignment of one
``sercon-mod`` or ``sercon-orig`` run and every attempt's host, acceptance and
release.  The runs are the tiny corpus at mph 0, 10 and inf, and
generator-default lopsided instances at fill 0.6 with 20, 50, 100 and 300
hosts, seeds 0-2, at mph 10 and inf.  ``sercon-orig-capped`` is ``sercon_original``
with a total budget of 5 migrations, so the budget path is pinned too.

``golden_reports.json`` was recorded before the engine skipped attempts whose
lower bound exceeds the best objective, and is kept as recorded: a run must
reproduce every final assignment, and every attempt either exactly or as a
skip of an attempt the record shows was not accepted.  Record the baseline
data again with::

    PYTHONPATH=src python tests/test_golden_reports.py
"""
from __future__ import annotations

import json
import math
from functools import partial
from pathlib import Path

import pytest

from balcon import (
    GenConfig,
    ObjectiveWeights,
    SolverParams,
    balcon,
    generate_instance,
    sercon_modified,
    sercon_original,
)

from conftest import tiny_instances

DATA = Path(__file__).parent / "data" / "golden_reports.json"
BASELINE_DATA = Path(__file__).parent / "data" / "golden_baselines.json"

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

LOPSIDED_HOSTS = (20, 50, 100, 300)
LOPSIDED_MPHS = {"10": 10, "inf": math.inf}


def _lopsided_runs(hosts: int):
    for seed in TWIN_SEEDS:
        inst = generate_instance(
            GenConfig(seed=seed, num_hosts=hosts, mode="lopsided", target_fill=0.6)
        )
        for mph, value in LOPSIDED_MPHS.items():
            weights = ObjectiveWeights.from_mph(value)
            yield f"lopsided/hosts={hosts}/seed={seed}/mph={mph}", inst, weights


BASELINE_GROUPS = {
    **{f"tiny-mph-{mph}": partial(_tiny_runs, mph) for mph in TINY_MPHS},
    **{f"lopsided-{n}-hosts": partial(_lopsided_runs, n) for n in LOPSIDED_HOSTS},
}

BASELINES = {
    "sercon-mod": sercon_modified,
    "sercon-orig": sercon_original,
    "sercon-orig-capped": partial(sercon_original, max_total_migrations=5),
}


def _entry(inst, weights) -> tuple[list, list]:
    # the final assignment and, per attempt, its outcome and its record fields
    mapping, report = balcon(inst, SolverParams(weights=weights))
    attempts = [
        (
            a.outcome,
            {
                "host": a.host,
                "accepted": a.accepted,
                "released": a.released,
                "force_steps": a.force_steps,
                "class_counts": a.class_counts,
            },
        )
        for a in report.attempts
    ]
    return list(mapping.assignment), attempts


def _baseline_entry(algo: str, inst, weights) -> dict:
    mapping, report = BASELINES[algo](inst, SolverParams(weights=weights))
    return {
        "assignment": list(mapping.assignment),
        "attempts": [[a.host, a.accepted, a.released] for a in report.attempts],
    }


def _baseline_entries():
    for algo in BASELINES:
        for make in BASELINE_GROUPS.values():
            for key, inst, weights in make():
                yield f"{algo}/{key}", _baseline_entry(algo, inst, weights)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(DATA.read_text())


@pytest.fixture(scope="module")
def golden_baselines() -> dict:
    return json.loads(BASELINE_DATA.read_text())


# attempts of each group that the lower bound skips
SKIPPED = {
    "tiny-mph-0": 572,
    "tiny-mph-10": 471,
    "tiny-mph-inf": 471,
    "twins-6-hosts": 35,
    "twins-12-hosts": 39,
    "twins-20-hosts": 71,
}


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_reports_match_golden(group, golden):
    skipped = 0
    for key, inst, weights in GROUPS[group]():
        assignment, attempts = _entry(inst, weights)
        record = golden[key]
        assert assignment == record["assignment"], key
        assert len(attempts) == len(record["attempts"]), key
        for (outcome, got), want in zip(attempts, record["attempts"]):
            if outcome == "skipped":
                skipped += 1
                assert not want["accepted"], key
                want = {**want, "force_steps": 0, "class_counts": {}}
            else:
                assert (outcome == "accepted") == want["accepted"], key
            # compared as JSON text, so the order of class_counts keys counts too
            assert json.dumps(got) == json.dumps(want), key
    assert skipped == SKIPPED[group]


@pytest.mark.parametrize("group", sorted(BASELINE_GROUPS))
@pytest.mark.parametrize("algo", sorted(BASELINES))
def test_baselines_match_golden(algo, group, golden_baselines):
    for key, inst, weights in BASELINE_GROUPS[group]():
        got = _baseline_entry(algo, inst, weights)
        assert got == golden_baselines[f"{algo}/{key}"], f"{algo}/{key}"


def _write(path: Path, entries: dict) -> None:
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(entries.items())]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(entries)} runs to {path}")


def record() -> None:
    _write(BASELINE_DATA, dict(_baseline_entries()))


if __name__ == "__main__":
    record()
