"""Golden CLI outputs: ``balcon eval`` and ``balcon sweep`` must reproduce
recorded bytes.

``data/golden_cli.json`` maps each run to the text of what it writes:

* ``eval/mph=<m>`` for mph 0, 10 and inf: ``gaps.csv``, ``profile.csv`` and
  the JSON summary line on stderr of ``balcon eval`` over ``data/fig2.json``
  and two generated lopsided instances, 4 hosts (seed 3) and 12 hosts
  (seed 1), with every algorithm;
* ``sweep/fig2``: ``sweep.csv`` of ``balcon sweep --grid 0,3,4,8,inf`` on
  fig2 with every algorithm;
* ``sweep/gen4/jobs=2``: ``sweep.csv`` of ``balcon sweep --grid 0,10,inf
  --jobs 2`` on the 4-host instance with the default algorithms.

The output path that ``sweep`` echoes on stderr is left out.  Record the data
again with::

    PYTHONPATH=src python tests/test_cli_golden.py
"""
from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

from balcon.cli import main

DATA = Path(__file__).parent / "data" / "golden_cli.json"
FIG2 = Path(__file__).parent / "data" / "fig2.json"

GENERATED = {"gen4": ("3", "4"), "gen12": ("1", "12")}  # name: (seed, hosts)
ALL_ALGOS = "balcon,sercon-mod,sercon-orig"


def _main(argv: list[str]) -> str:
    """Run the CLI, which must succeed, and return what it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 0, (argv, err.getvalue())
    return err.getvalue()


def _outputs(work: Path) -> dict[str, dict[str, str]]:
    paths = {}
    for name, (seed, hosts) in GENERATED.items():
        paths[name] = str(work / f"{name}.json")
        _main(["generate", "--seed", seed, "--hosts", hosts, "-o", paths[name]])
    instances = [str(FIG2), paths["gen4"], paths["gen12"]]
    runs: dict[str, dict[str, str]] = {}
    for mph in ("0", "10", "inf"):
        out_dir = work / f"eval-{mph}"
        err = _main(["eval", "--mph", mph, "--algos", ALL_ALGOS, "--out-dir", str(out_dir), *instances])
        runs[f"eval/mph={mph}"] = {
            "gaps.csv": (out_dir / "gaps.csv").read_text(),
            "profile.csv": (out_dir / "profile.csv").read_text(),
            "stderr": err,
        }
    sweeps = {
        "sweep/fig2": ["--grid", "0,3,4,8,inf", "--algos", ALL_ALGOS, str(FIG2)],
        "sweep/gen4/jobs=2": ["--grid", "0,10,inf", "--jobs", "2", paths["gen4"]],
    }
    for label, argv in sweeps.items():
        out = work / "sweep.csv"
        _main(["sweep", "-o", str(out), *argv])
        runs[label] = {"sweep.csv": out.read_text()}
    return runs


def test_eval_and_sweep_match_golden(tmp_path):
    golden = json.loads(DATA.read_text())
    runs = _outputs(tmp_path)
    assert sorted(runs) == sorted(golden)
    for label, files in runs.items():
        assert files == golden[label], label


def record() -> None:
    with tempfile.TemporaryDirectory() as work:
        runs = _outputs(Path(work))
    DATA.write_text(json.dumps(runs, indent=1) + "\n")


if __name__ == "__main__":
    record()
