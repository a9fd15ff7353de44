"""Outside-in host timing: class-level wrappers around public functions.

A wrapper only counts the call, times it and re-raises whatever the
wrapped function raised, so the simulated run is the same with or
without it.  Each wrapped call inside ``Simulator.run`` also leaves a
span (layer, start, end, parent) in flat in-memory arrays; a layer's
self time is its spans' durations minus the time their child spans
cover.  Spans are written out once, after the run.
"""

from __future__ import annotations

import gzip
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Type

#: Exception types a wrapper counts as a failed call (and re-raises).
Failure = Tuple[Type[BaseException], ...]


@dataclass
class LayerStat:
    """Calls, failures and host seconds of one wrapped layer."""

    calls: int = 0
    failed: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass(frozen=True)
class Hook:
    """One public function to wrap.

    Attributes:
        layer: Layer name the calls are booked under.
        owner: The class defining the function.
        attr: The function's attribute name on ``owner``.
        failure: Exceptions that count as a failed call.
    """

    layer: str
    owner: type
    attr: str
    failure: Failure = ()


class SimClock:
    """Times ``Simulator.run`` from outside; its entry ends set-up.

    Args:
        tracer: When given, tracing is switched on for the duration of
            the run and the run itself becomes the root span.
        setup_only: Raise :class:`SetupDone` on entry instead of running,
            so a set-up pass costs no simulation.
    """

    def __init__(self, tracer: Optional["LayerTracer"] = None, setup_only: bool = False):
        self.tracer = tracer
        self.setup_only = setup_only
        self.entered_at: Optional[float] = None
        self.run_s = 0.0
        self.sim_s = 0.0
        self.calls = 0

    def wrap(self, run: Callable[..., float]) -> Callable[..., float]:
        clock = self
        body = run if self.tracer is None else self.tracer.wrap(run, "sim")

        def timed_run(sim, *args, **kwargs):
            start = perf_counter()
            if clock.entered_at is None:
                clock.entered_at = start
            if clock.setup_only:
                raise SetupDone()
            clock.calls += 1
            sim_start = sim.now
            if clock.tracer is not None:
                clock.tracer.active[0] = True
            try:
                return body(sim, *args, **kwargs)
            finally:
                if clock.tracer is not None:
                    clock.tracer.active[0] = False
                clock.run_s += perf_counter() - start
                clock.sim_s += sim.now - sim_start

        return timed_run


class SetupDone(Exception):
    """Raised by a set-up-only :class:`SimClock` where the run would start."""


class LayerTracer:
    """Flat span arrays for one traced run, and the per-layer totals.

    The wrappers only append spans and count failures; calls, host
    seconds and self seconds are derived from the spans afterwards.
    """

    def __init__(self) -> None:
        #: One-element cell the wrappers read: True while the run is on.
        self.active = [False]
        self.layers: List[str] = []
        self.failed: List[int] = []
        self.missing: List[str] = []
        self.span_layer = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        #: Indices of the open spans; -1 stands for "no parent".
        self._stack: List[int] = [-1]
        self._stats: Optional[Dict[str, LayerStat]] = None

    def _layer_id(self, layer: str) -> int:
        if layer not in self.layers:
            self.layers.append(layer)
            self.failed.append(0)
        return self.layers.index(layer)

    def wrap(
        self,
        fn: Callable[..., Any],
        layer: str,
        failure: Failure = (),
    ) -> Callable[..., Any]:
        """A counting, timing, re-raising stand-in for ``fn``."""
        layer_id = self._layer_id(layer)
        active, failed = self.active, self.failed
        stack = self._stack
        push, pop = stack.append, stack.pop
        add_layer, add_parent = self.span_layer.append, self.span_parent.append
        span_start, span_end = self.span_start, self.span_end
        add_start, add_end = span_start.append, span_end.append
        clock = perf_counter

        def wrapper(*args, **kwargs):
            if not active[0]:
                return fn(*args, **kwargs)
            index = len(span_start)
            add_layer(layer_id)
            add_parent(stack[-1])
            push(index)
            add_end(0.0)
            add_start(clock())
            try:
                return fn(*args, **kwargs)
            except failure:
                failed[layer_id] += 1
                raise
            finally:
                span_end[index] = clock()
                pop()

        return wrapper

    @property
    def stats(self) -> Dict[str, LayerStat]:
        """Per-layer totals, derived once from the spans."""
        if self._stats is None:
            self._stats = self._summarize()
        return self._stats

    def _summarize(self) -> Dict[str, LayerStat]:
        """Calls, host seconds and self seconds per layer from the spans.

        A span's self time is its duration minus the durations of its
        direct children; wrapped calls nest strictly (one thread, no
        wrapped generators), so children never overlap each other.
        """
        stats = {
            layer: LayerStat(failed=self.failed[i]) for i, layer in enumerate(self.layers)
        }
        by_id = [stats[layer] for layer in self.layers]
        durations = [end - start for start, end in zip(self.span_start, self.span_end)]
        child_s = [0.0] * len(durations)
        for parent, duration in zip(self.span_parent, durations):
            if parent >= 0:
                child_s[parent] += duration
        for layer_id, duration, children in zip(self.span_layer, durations, child_s):
            stat = by_id[layer_id]
            stat.calls += 1
            stat.total_s += duration
            stat.self_s += duration - children
        return stats

    def nesting_errors(self) -> int:
        """Spans that are not inside their parent's interval (should be 0)."""
        starts, ends = self.span_start, self.span_end
        return sum(
            1
            for index, parent in enumerate(self.span_parent)
            if parent >= 0
            and not (starts[parent] <= starts[index] and ends[index] <= ends[parent])
        )

    def replacements(self, hooks: Sequence[Hook]) -> List[Tuple[type, str, Any]]:
        """Wrapped stand-ins for every hook whose function exists.

        A hook naming a function the package no longer has is recorded
        in :attr:`missing` (its layer then reads zero) rather than
        stopping the benchmark.
        """
        out = []
        for hook in hooks:
            original = vars(hook.owner).get(hook.attr)
            self._layer_id(hook.layer)
            if original is None:
                self.missing.append(f"{hook.owner.__name__}.{hook.attr}")
                continue
            out.append(
                (hook.owner, hook.attr, self.wrap(original, hook.layer, hook.failure))
            )
        return out

    def durations(self, layer: str) -> List[float]:
        """Host seconds of every span of ``layer``, in call order."""
        layer_id = self.layers.index(layer)
        starts, ends = self.span_start, self.span_end
        return [
            ends[i] - starts[i]
            for i, lid in enumerate(self.span_layer)
            if lid == layer_id
        ]

    def write_spans(self, path) -> int:
        """Write every span as gzip'd TSV; returns the span count."""
        starts = self.span_start
        origin = starts[0] if starts else 0.0
        layers = self.layers
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as out:
            out.write("span\tparent\tlayer\tstart_s\tend_s\n")
            out.writelines(
                f"{i}\t{parent}\t{layers[lid]}\t{start - origin:.9f}\t{end - origin:.9f}\n"
                for i, (lid, parent, start, end) in enumerate(
                    zip(self.span_layer, self.span_parent, starts, self.span_end)
                )
            )
        return len(starts)


@contextmanager
def patched(replacements: Sequence[Tuple[type, str, Any]]) -> Iterator[None]:
    """Install class attributes for the duration, restoring them after."""
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(originals):
            setattr(owner, attr, value)
