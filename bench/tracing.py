"""Per-layer tracing by patching the package's public functions in place.

A ``Tracer`` replaces each traced function with a wrapper at every place the
function object is bound: the defining module, every other ``balcon`` module
that imported it by name (``solver`` imports ``classify``, ``sercon`` imports
``balcon``), ``balcon.evaluate.ALGORITHMS``, and the ``solve_lp`` script
module.  Methods are patched on their class.  ``restore`` puts every original
object back.

Hot functions are aggregated into per-name counters (calls and self time);
full spans are kept only for the benchmark's own calls and for each
``force_fit`` attempt.  A name's self time is its wall time minus the time of
traced calls it made; whatever runs outside any traced call is charged to the
root name ``bench``, so the self times add up to the traced wall time.
"""
from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Any, Callable

CLOCK = time.perf_counter

ROOT = "bench"


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float


@dataclass(frozen=True)
class Target:
    """One traced function.

    ``owner`` is the module or class that defines ``attr``.  ``label`` maps
    the call's arguments to a name suffix (``ilp.emit_model.alloc``).
    ``on_result`` sees the arguments and the return value and updates the
    tracer's counters.  ``timed=False`` counts calls without timing them, for
    functions too small to time without distorting their callers.
    ``span=True`` also records a full span.
    """

    name: str
    owner: Any
    attr: str
    label: Callable[..., str] | None = None
    on_result: Callable[..., None] | None = None
    timed: bool = True
    span: bool = False


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self.counters: dict[str, float] = {}
        self.spans: list[Span] = []
        # one child-time accumulator per open traced call; index 0 is the root
        self._stack: list[list[float]] = [[0.0]]
        self._span_stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self._active_since: float | None = None
        self.wall_s = 0.0

    # -- accounting ---------------------------------------------------------

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _stat(self, name: str) -> Stat:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat()
        return stat

    def start(self) -> None:
        self._active_since = CLOCK()

    def stop(self) -> None:
        """End a traced interval; calls outside any interval are not traced."""
        if self._active_since is None:
            return
        self.wall_s += CLOCK() - self._active_since
        self._active_since = None

    def root_self_s(self) -> float:
        """Traced wall time spent outside every traced call."""
        return self.wall_s - self._stack[0][0]

    def self_times(self) -> dict[str, float]:
        out = {name: stat.self_s for name, stat in self.stats.items()}
        out[ROOT] = self.root_self_s()
        return out

    def open_span(self, name: str) -> int:
        parent = self._span_stack[-1] if self._span_stack else None
        span = Span(len(self.spans), parent, name, CLOCK(), 0.0)
        self.spans.append(span)
        self._span_stack.append(span.id)
        return span.id

    def close_span(self, span_id: int) -> None:
        self.spans[span_id].end = CLOCK()
        self._span_stack.pop()

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        tracer = self
        stack = self._stack
        name = target.name
        label = target.label
        on_result = target.on_result

        if not target.timed:
            stat = self._stat(name)

            def counted(*args, **kwargs):
                if tracer._active_since is not None:
                    stat.calls += 1
                return fn(*args, **kwargs)

            return counted

        def timed(*args, **kwargs):
            if tracer._active_since is None:
                return fn(*args, **kwargs)
            key = name if label is None else f"{name}.{label(*args, **kwargs)}"
            span_id = tracer.open_span(key) if target.span else None
            frame = [0.0]
            stack.append(frame)
            t0 = CLOCK()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = CLOCK() - t0
                stack.pop()
                stat = tracer._stat(key)
                stat.calls += 1
                stat.self_s += dt - frame[0]
                stack[-1][0] += dt
            if on_result is not None:
                on_result(tracer, result, *args, **kwargs)
            if span_id is not None:
                tracer.close_span(span_id)
            return result

        return timed

    def install(self, targets: list[Target], extra_modules: tuple = ()) -> None:
        """Patch every binding of each target's function object."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [m for n, m in sorted(sys.modules.items()) if n == "balcon" or n.startswith("balcon.")]
        modules += list(extra_modules)
        from balcon import evaluate

        for target in targets:
            original = target.owner.__dict__[target.attr]
            wrapper = self._wrap(target, original)
            if isinstance(target.owner, type):
                self._patch(target.owner, target.attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
            for key, value in list(evaluate.ALGORITHMS.items()):
                if value is original:
                    self._patches.append((evaluate.ALGORITHMS, key, value))
                    evaluate.ALGORITHMS[key] = wrapper

    def _patch(self, owner: Any, key: str, wrapper: Callable) -> None:
        self._patches.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, wrapper)

    def restore(self) -> None:
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()
