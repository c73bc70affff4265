"""Golden LP data: the parser and the emitter must reproduce recorded output.

``data/golden_lp.json`` holds two things:

* ``parse``: a hand-written corpus of texts in the LP subset (glued signs and
  senses, exponent coefficients, unnamed rows, every bounds form, Maximize,
  comments, short section headers) plus three emitted ``fig2`` models, each
  with the model the parser built: variable order, rows with their terms in
  order, objective, bounds, integer and binary sets.
* ``emit``: for every model kind at mph 0, 10 and inf, on ``fig2``, the first
  10 tiny-corpus instances and default lopsided and uniform instances of 20
  and 60 hosts (each at the first seed from 1 that generates): the sha256 and
  counts of the ``emit_model`` text, and the sha256 of the model ``parse_lp``
  builds from that text, dumped as in ``parse``.  The 60-host texts run to
  hundreds of kilobytes each.

Record the data again with::

    PYTHONPATH=src python tests/test_lp_golden.py
"""
from __future__ import annotations

import hashlib
import io
import json
import math
from pathlib import Path

import pytest

from balcon import ModelKind, ObjectiveWeights, emit_model
from balcon.datagen import GenConfig, GenerationError, generate_instance
from balcon.ilp import parse_lp

from conftest import make_fig2, tiny_instances

DATA = Path(__file__).parent / "data" / "golden_lp.json"

MPHS = {"0": 0, "10": 10, "inf": math.inf}


PARSE_CASES = {
    "glued-signs": """Minimize
 obj: -x +2y - 3 z
Subject To
 c1: -x+y-2z >= -4
 c2: 2x -y + -z <= 3
 c3: - 2 x - - y <= 1
End
""",
    "glued-senses": """Minimize
 obj: x + y
Subject To
 c1: x+y<=3
 c2: 2 x + y>=1
 c3: x =2
 c4: x+y=1
 c5: 3y>= -1.5
End
""",
    "exponent-coefficients": """Minimize
 obj: 1e-06 x + 2.5E+3 y + 0.000003 z
Subject To
 c1: 1e-06x + 3 y <= 1e-06
 c2: 1.5e2 x - 4E-1 z >= 2e1
End
""",
    "unnamed-rows": """Minimize
 obj: x + y + z
Subject To
 x + y <= 4
 named: x - z >= -2
 - x + y >= -2
 z = 1
End
""",
    "bounds-forms": """Minimize
 obj: x + y + z + w + u + v + t
Subject To
 c1: x + y + z + w + u + v + t >= 1
Bounds
 x >= 1
 y <= 4
 0 <= z
 7 >= w
 -2 <= u <= 5.5
 v free
 t FREE
 s >= -1e-06
End
""",
    "maximize": """Maximize
 obj: 3 x + 2 y
 + z - 0.5 y
Subject To
 c1: x + y + z <= 4
 c2: x + 3 y <= 6
Bounds
 x <= 3
General
 x
Binary
 z
End
""",
    "comments-and-blank-lines": """\\ Problem name: comments

MINIMIZE
 obj: x + 2 y \\ the objective

\\ a full-line comment
subject to
 c1: x + y >= 1 \\ cover

 c2: x - y <= 3
bounds
 0 <= x <= 10
generals
 x y
end
this line is ignored
""",
    "short-section-headers": """Minimize
 obj: x + y
Subject To
 c1: x + y <= 1
Bounds
 x >= 0
Bin
 y
End
""",
    "short-general-header": """Minimize
 obj: x + y + z
st
 c1: x + y + z >= 2
Gen
 x z
Binaries
 y
End
""",
    "s.t.-header": """Minimize
 obj: a
s.t.
 c1: a >= 1
End
""",
    "repeated-terms": """Minimize
 obj: x + x - y
Subject To
 c1: x + x - 2 y + y <= 3
 c2: y - y + x >= 0
End
""",
    "dotted-names": """Minimize
 obj: x.1 + 2 y_2.b
Subject To
 c.1: x.1 - y_2.b >= 0
Bounds
 x.1 <= 5
Binary
 y_2.b
End
""",
    "multi-name-lines": """Minimize
 obj: a + b + c + d
Subject To
 c1: a + b + c + d >= 2
General
 a b
 c
Binary
 d
End
""",
}


def _emitted_cases() -> dict[str, str]:
    fig2 = make_fig2()
    cases = {}
    for kind, mph in (
        (ModelKind.ALLOCATION, "inf"),
        (ModelKind.FLAVOR_FLOW, "inf"),
        (ModelKind.RELAXED_FLAVOR_FLOW, "10"),
    ):
        buf = io.StringIO()
        emit_model(kind, fig2, ObjectiveWeights.from_mph(MPHS[mph]), buf)
        cases[f"fig2/{kind.value}/mph={mph}"] = buf.getvalue()
    return cases


def model_record(m) -> dict:
    return {
        "maximize": m.maximize,
        "order": list(m.order),
        "objective": [[name, coef] for name, coef in m.objective.items()],
        "rows": [
            [name, [[n, c] for n, c in terms.items()], sense, rhs]
            for name, terms, sense, rhs in m.rows
        ],
        "lower": sorted(m.lower.items()),
        "upper": sorted(m.upper.items()),
        "integer": sorted(m.integer),
        "binary": sorted(m.binary),
    }


def _first_generated(num_hosts: int, mode: str):
    seed = 1
    while True:
        try:
            return seed, generate_instance(GenConfig(seed=seed, num_hosts=num_hosts, mode=mode))
        except GenerationError:
            seed += 1


def _emit_runs():
    insts = [("fig2", make_fig2())]
    insts += [(f"tiny/{i:03d}", inst) for i, inst in enumerate(tiny_instances(10))]
    for num_hosts in (20, 60):
        for mode in ("lopsided", "uniform"):
            seed, inst = _first_generated(num_hosts, mode)
            insts.append((f"{mode}/hosts={num_hosts}/seed={seed}", inst))
    for label, inst in insts:
        for mph, value in MPHS.items():
            weights = ObjectiveWeights.from_mph(value)
            for kind in ModelKind:
                yield f"{label}/{kind.value}/mph={mph}", kind, inst, weights


def emit_record(kind, inst, weights) -> list:
    buf = io.StringIO()
    counts = emit_model(kind, inst, weights, buf)
    text = buf.getvalue()
    digest = hashlib.sha256(text.encode()).hexdigest()
    parsed = hashlib.sha256(json.dumps(model_record(parse_lp(text))).encode()).hexdigest()
    return [digest, counts.variables, counts.constraints, parsed]


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(DATA.read_text())


def test_parse_cases_match_golden(golden):
    texts = {**PARSE_CASES, **_emitted_cases()}
    assert sorted(texts) == sorted(golden["parse"])
    for name, text in texts.items():
        want = golden["parse"][name]
        assert want["text"] == text, name
        # JSON turns tuples into lists; compare through one more round trip
        got = json.loads(json.dumps(model_record(parse_lp(text))))
        assert got == want["model"], name


def test_emitted_text_matches_golden(golden):
    runs = list(_emit_runs())
    assert len(runs) == len(golden["emit"]) == 135
    for label, kind, inst, weights in runs:
        assert emit_record(kind, inst, weights) == golden["emit"][label], label


def record() -> None:
    texts = {**PARSE_CASES, **_emitted_cases()}
    data = {
        "parse": {name: {"text": text, "model": model_record(parse_lp(text))} for name, text in texts.items()},
        "emit": {label: emit_record(kind, inst, weights) for label, kind, inst, weights in _emit_runs()},
    }
    DATA.write_text(json.dumps(data, indent=1) + "\n")


if __name__ == "__main__":
    record()
