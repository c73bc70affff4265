#!/usr/bin/env python3
"""Solve an LP-format (MI)LP with HiGHS and dump the variables as `name value`
lines; the same command as ``balcon solve-lp``, runnable from a checkout where
the package is not installed:

    python3 scripts/solve_lp.py model.lp -o model.sol

The dump starts with a `# objective ...` comment line, which `balcon`'s
solution reader ignores.  Exit status: 0 solved, 1 usage error, 2 unreadable
or malformed model file, 3 infeasible or unbounded, 4 scipy with MILP support
missing.  The parser is ``balcon.ilp.parse_lp``, re-exported here for callers
that load this file.
"""
from __future__ import annotations

import sys
from pathlib import Path

try:
    import balcon  # noqa: F401
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from balcon.ilp import parse_lp  # noqa: F401


def main(argv=None) -> int:
    from balcon.cli import main as cli_main

    return cli_main(["solve-lp", *(sys.argv[1:] if argv is None else argv)])


if __name__ == "__main__":
    sys.exit(main())
