#!/usr/bin/env python3
"""The balcon benchmark: one workload, one seed, one timed run.

    python3 bench/run.py --workload forcefit-scale --seed 0 --seconds 25 --trace 0

Set-up generates the workload's inputs from the seed and passes them through
the JSON instance format; it is repeated and its median reported as
``setup_s``.  The solve phase then repeats passes over the workload's calls
for ``--seconds`` seconds (at least one full pass), timing each call, and
checks every output.  Each call is also timed in reference units: its time
over that of a fixed pure-Python loop run just before and after it, which
cancels most of the drift in the machine's speed; the gated times
(``wall_ref``, ``call_ref_p50``) are in these units and the same figures in
seconds are printed beside them.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` spends half the time untraced and half with the package's
functions patched by ``tracing.Tracer``, and prints the per-layer metrics.

Human-readable lines come first; a ``detail`` JSON line carries the machine,
the result digest and every figure; the last line is the result object
``{"correct", "attempted", "failed", "metrics"}``.  Exit status 0 on a
measured run (also when a check failed: ``correct`` says so), 2 when the
package sources are missing or the arguments are bad.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"
SPANS_DIR = HERE / "out"

SETUP_REPEATS = 5
CLOCK = time.perf_counter


def machine(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "commit": commit(),
        "seed": seed,
    }


def commit() -> str:
    """The checked-out commit, read from ``.git`` without running git;
    ``unknown`` outside a git checkout."""
    git = REPO / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _reference_loop(n: int = 3000) -> int:
    table: dict[int, int] = {}
    row = list(range(64))
    acc = 0
    for i in range(n):
        k = i & 63
        acc += row[k] * (i % 7)
        table[k] = table.get(k, 0) + 1
        if (acc ^ i) & 1:
            acc -= 1
    return acc + len(table)


def reference_s() -> float:
    """The machine's current speed: the median time of three runs of a fixed
    pure-Python loop of dict, list and integer work, about 1 ms each."""
    times = []
    for _ in range(3):
        t0 = CLOCK()
        _reference_loop()
        times.append(CLOCK() - t0)
    return statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


class Runner:
    """Runs passes of one workload and checks every output.

    Each call is identified by its position in the pass; ``times[i]`` holds
    every duration of call ``i`` and ``norm[i]`` the same durations divided
    by the reference time measured just before and after the call.  Per-call
    medians make the figures immune to a pass cut short by the deadline.  Each output is checked as soon as
    its call returns, outside the timed call and outside any traced
    interval, and then dropped, so no pass holds the outputs of the ones
    before.  Outputs of later passes must match the first pass's digests
    exactly."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.times: list[list[float]] = []
        self.norm: list[list[float]] = []
        self.refs: list[float] = []
        self.first: list = []
        self.passes = 0
        self.pass_call_s: list[float] = []
        self.calls = 0
        self.failed = 0
        self.failures: list[str] = []

    def run_pass(self, inputs, deadline: float | None = None, tracer=None) -> bool:
        """One pass; stops before a call that would start after ``deadline``.
        With a tracer, the pass runs inside traced intervals (the caller
        starts the first one) and ends outside.  Returns whether the pass
        completed."""
        gen = self.workload.one_pass(inputs)
        self.passes += 1
        pass_s = 0.0
        i = 0
        try:
            call = next(gen)
            while True:
                if deadline is not None and CLOCK() >= deadline:
                    gen.close()
                    return False
                before = reference_s() if tracer is None else 0.0
                span = tracer.open_span(call.label) if tracer is not None else None
                t0 = CLOCK()
                out = call.run()
                dt = CLOCK() - t0
                if tracer is not None:
                    tracer.close_span(span)
                    tracer.stop()
                    ref = None
                else:
                    ref = (before + reference_s()) / 2
                self._check(i, call, out, dt, ref)
                pass_s += dt
                i += 1
                if tracer is not None:
                    tracer.start()
                call = gen.send(out)
        except StopIteration:
            self.pass_call_s.append(pass_s)
            return True
        finally:
            if tracer is not None:
                tracer.stop()

    def _check(self, i: int, call, out, dt: float, ref: float | None) -> None:
        result = call.check(out)
        fails = list(result.failures)
        if self.passes == 1:
            self.first.append(result)
        elif result.digest != self.first[i].digest:
            fails.append("output differs from the first pass")
        if fails:
            self.failed += 1
            self.failures += [f"{call.label}: {f}" for f in fails]
        self.calls += 1
        if i == len(self.times):
            self.times.append([])
            self.norm.append([])
        self.times[i].append(dt)
        if ref is not None:
            self.norm[i].append(dt / ref)
            self.refs.append(ref)

    def run_until(self, inputs, deadline: float) -> None:
        self.run_pass(inputs)
        while CLOCK() < deadline:
            self.run_pass(inputs, deadline)

    # -- figures ----------------------------------------------------------

    def digest(self) -> str:
        h = hashlib.sha256()
        for result in self.first:
            h.update(result.digest.encode())
        return h.hexdigest()

    def objective_total(self):
        return sum((r.objective for r in self.first), 0)

    def gap_mean(self) -> float | None:
        gaps = [g for r in self.first for g in r.gaps]
        return float(sum(gaps) / len(gaps)) if gaps else None

    def tail(self) -> tuple[str, float] | None:
        """The highest listed percentile with at least ten calls beyond it."""
        ts = sorted(t for times in self.times for t in times)
        n = len(ts)
        for p in (99.9, 99, 95, 90, 75, 50):
            if n * (100 - p) / 100 >= 10:
                return f"p{p:g}", ts[math.ceil(p / 100 * n) - 1] * 1000
        return None


def solve_metrics(runner: Runner, setup_s: float) -> dict[str, tuple[float, str]]:
    """The gated end-to-end metrics; times of calls are in reference units."""
    norm = [statistics.median(v) for v in runner.norm]
    return {
        "setup_s": (setup_s, "s"),
        "wall_ref": (sum(norm), "ref"),
        "call_ref_p50": (statistics.median(norm), "ref"),
        "objective_total": (float(runner.objective_total()), "objective"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    }


def raw_metrics(runner: Runner) -> dict[str, dict]:
    """Printed beside the gated metrics: the same call times in seconds,
    the tail, the gap to the oracle and the failed ratio."""
    medians = [statistics.median(v) for v in runner.times]
    out = {
        "wall_s": {"value": sum(medians), "unit": "s"},
        "call_ms_p50": {"value": statistics.median(medians) * 1000, "unit": "ms"},
        "reference_ms": {"value": statistics.median(runner.refs) * 1000, "unit": "ms"},
    }
    tail = runner.tail()
    out["call_ms_tail"] = (
        {"percentile": tail[0], "value": tail[1], "unit": "ms", "calls": runner.calls}
        if tail else {"omitted": f"{runner.calls} calls, fewer than 20"}
    )
    gap = runner.gap_mean()
    if gap is not None:
        out["gap_mean"] = {"value": gap, "unit": "ratio"}
    out["failed_ratio"] = {"value": runner.failed / runner.calls, "unit": "ratio"}
    return out


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    import layers
    import tracing
    import workloads

    workload = workloads.WORKLOADS[name]
    runner = Runner(workload)
    setups = []
    for _ in range(SETUP_REPEATS if not trace else 1):
        t0 = CLOCK()
        inputs = workload.setup(seed, smoke)
        setups.append(CLOCK() - t0)
    setup_s = statistics.median(setups)
    start = CLOCK()
    result: dict = {"workload": name, "machine": machine(seed), "runner": runner}
    if not trace:
        runner.run_until(inputs, start + seconds)
        result["metrics"] = solve_metrics(runner, setup_s)
        return result

    runner.run_until(inputs, start + seconds / 2)
    untraced = list(runner.pass_call_s)
    tracer = tracing.Tracer()
    tracer.install(layers.targets(workloads.solve_lp), extra_modules=(workloads.solve_lp,))
    deadline = CLOCK() + seconds / 2
    reps = 0
    try:
        while reps == 0 or CLOCK() < deadline:
            tracer.start()
            traced_inputs = workload.setup(seed, smoke)
            if not runner.run_pass(traced_inputs, tracer=tracer):
                raise RuntimeError("a traced pass did not complete")
            reps += 1
    finally:
        tracer.restore()
    traced = runner.pass_call_s[len(untraced):]
    result["metrics"] = layers.all_metrics(
        tracer, reps, statistics.median(untraced), statistics.median(traced)
    )
    result["tracer"] = tracer
    return result


def report(result: dict, trace: bool) -> dict:
    """Print the human-readable lines and the detail line; return the final
    result object."""
    runner: Runner = result["runner"]
    metrics = result["metrics"]
    m = result["machine"]
    print(f"# balcon benchmark  workload={result['workload']}  seed={m['seed']}  trace={int(trace)}")
    print(f"# machine: nproc={m['nproc']}  cpu={m['cpu']}  python={m['python']}  commit={m['commit']}")
    print(f"# {len(runner.times)} calls per pass, {len(runner.pass_call_s)} complete passes, {runner.calls} calls")
    extra = {} if trace else raw_metrics(runner)
    for key, (value, unit) in metrics.items():
        print(f"{key:44s} {value:>16.6f} {unit}")
    for key, value in extra.items():
        print(f"{key:44s} {json.dumps(value)}")
    print(f"{'digest':44s} sha256:{runner.digest()}")
    for failure in runner.failures[:20]:
        print(f"CHECK FAILED {failure}")
    detail = {
        "workload": result["workload"],
        "machine": m,
        "digest": runner.digest(),
        "calls_per_pass": len(runner.times),
        "complete_passes": len(runner.pass_call_s),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **extra,
    }
    print(json.dumps({"detail": detail}, sort_keys=True))
    if trace:
        import layers

        wanted = layers.reported_metrics()
        chosen = {k: {"value": metrics.get(k, (0.0, u))[0], "unit": u} for k, u, _ in wanted}
    else:
        chosen = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return {
        "correct": runner.failed == 0,
        "attempted": runner.calls,
        "failed": runner.failed,
        "metrics": chosen,
    }


def write_spans(result: dict, seed: int) -> None:
    tracer = result.get("tracer")
    if tracer is None:
        return
    SPANS_DIR.mkdir(exist_ok=True)
    path = SPANS_DIR / f"{result['workload']}-seed{seed}-spans.json"
    spans = [vars(s) for s in tracer.spans]
    path.write_text(json.dumps({"machine": result["machine"], "spans": spans}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "balcon" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    final = report(result, bool(args.trace))
    write_spans(result, args.seed)
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
