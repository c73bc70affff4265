"""Golden trace events: ``balcon`` with a zero Force Step budget must emit,
event for event, the trace recorded in ``data/golden_traces.json``.

The runs are ``fig2`` and the generator-default lopsided fill-0.6 instance of
20 hosts, seed 0, each at mph inf and 10.  A zero budget is ``sercon-mod``'s
setting, so these pin what every attempt of the free-space baseline reports
as it runs: ``release_attempt`` with the stash, one ``place`` per direct
placement, and ``release_result`` with the outcome.  Record the data again
with::

    PYTHONPATH=src python tests/test_golden_traces.py
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from balcon import GenConfig, Mapping, ObjectiveWeights, SolverParams, balcon, generate_instance

from conftest import make_fig2

DATA = Path(__file__).parent / "data" / "golden_traces.json"
MPHS = {"inf": math.inf, "10": 10}


def _instances():
    yield "fig2", make_fig2()
    yield "lopsided/hosts=20/seed=0", generate_instance(
        GenConfig(seed=0, num_hosts=20, mode="lopsided", target_fill=0.6)
    )


def runs():
    """``(key, instance, params)`` of every recorded run."""
    for name, inst in _instances():
        for mph, value in MPHS.items():
            params = SolverParams(weights=ObjectiveWeights.from_mph(value), force_step_limit=0)
            yield f"{name}/mph={mph}", inst, params


def traced(inst, params) -> list[dict]:
    events: list[dict] = []
    balcon(inst, params, trace=events.append)
    return events


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(DATA.read_text())


@pytest.mark.parametrize("key", [key for key, _, _ in runs()])
def test_trace_matches_golden(key, golden):
    _, inst, params = next(run for run in runs() if run[0] == key)
    # compared as JSON text, so the order of each event's keys counts too
    assert json.dumps(traced(inst, params)) == json.dumps(golden[key])


def test_probe_decided_attempts_emit_two_events(monkeypatch):
    # an attempt the first-miss probe decides never opens the mapping: its
    # release_attempt is followed by its release_result and nothing between
    events: list[dict] = []
    real_begin = Mapping.begin

    def begin(mu):
        events.append({"event": "begin"})
        real_begin(mu)

    monkeypatch.setattr(Mapping, "begin", begin)
    probed = 0
    for _, inst, params in runs():
        events.clear()
        balcon(inst, params, trace=events.append)
        for event, after in zip(events, events[1:]):
            if event["event"] == "release_attempt" and after["event"] != "begin":
                assert after["event"] == "release_result" and after["host"] == event["host"]
                assert after["outcome"] == "budget_exhausted"
                probed += 1
    assert probed > 0


def record() -> None:
    entries = {key: traced(inst, params) for key, inst, params in runs()}
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(entries.items())]
    DATA.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(entries)} runs to {DATA}")


if __name__ == "__main__":
    record()
