#!/usr/bin/env python3
"""Check that the newest benchmark trajectory file changes no result digest.

Each performance change adds a ``BENCH_<n>.json`` file at the repository root
with its before/after runs of ``bench/run.py``:

    {"machine": {"cpu": ..., "nproc": ..., "python": ...},
     "parent": "<commit>", "commit": "<commit>",
     "command": "python3 bench/run.py --workload W --seed S ...",
     "workloads": {"<workload>": {"<seed>": {
         "parent": {"wall_ref": ..., "call_ref_p50": ..., "setup_s": ..., "digest": ...},
         "change": {...the same keys...}}}}}

Timings are reported, not gated.  A digest covers every output of a run, so
a differing digest means the change altered results:

    python3 scripts/check_bench.py [--dir DIR]

exits 1 when, in the newest file, a run's ``change`` digest differs from its
``parent`` digest or from the ``change`` digest of the same workload and seed
in the previous file, unless the newest file states
``"behaviour_change": "<reason>"``.  Exit status 0 otherwise, 2 when no
``BENCH_*.json`` file exists.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

_NAME = re.compile(r"BENCH_(\d+)\.json")


def trajectory(directory: Path) -> list[Path]:
    """The ``BENCH_<n>.json`` files of ``directory``, oldest first."""
    found = [(int(m.group(1)), p) for p in directory.iterdir() if (m := _NAME.fullmatch(p.name))]
    return [p for _, p in sorted(found)]


def digest_changes(newest: dict, previous: dict | None) -> list[str]:
    """One line per run whose result digest differs."""
    out = []
    before = (previous or {}).get("workloads", {})
    for workload, seeds in sorted(newest["workloads"].items()):
        for seed, run in sorted(seeds.items()):
            digest = run["change"]["digest"]
            if run["parent"]["digest"] != digest:
                out.append(f"{workload} seed {seed}: digest differs from the parent run")
            old = before.get(workload, {}).get(seed)
            if old is not None and old["change"]["digest"] != digest:
                out.append(f"{workload} seed {seed}: digest differs from the previous file")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dir", type=Path, default=Path(__file__).resolve().parent.parent)
    args = parser.parse_args(argv)
    files = trajectory(args.dir)
    if not files:
        print(f"no BENCH_*.json file in {args.dir}", file=sys.stderr)
        return 2
    newest = json.loads(files[-1].read_text())
    previous = json.loads(files[-2].read_text()) if len(files) > 1 else None
    changes = digest_changes(newest, previous)
    for line in changes:
        print(f"{files[-1].name}: {line}")
    if changes and not newest.get("behaviour_change"):
        print(f"{files[-1].name}: results changed and no behaviour_change is declared", file=sys.stderr)
        return 1
    if changes:
        print(f"{files[-1].name}: declared behaviour change: {newest['behaviour_change']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
