"""Spans and call counters recorded from outside the program under test.

Two levels of instrumentation, both installed by patching module and class
attributes of ``flowgate`` from this file (nothing under ``src/`` changes):

* stage spans -- one span per call into a pipeline stage (scenario load,
  compile, raw/mediated replay, pruning, verify, metrics), seven per
  scenario. They are cheap and always on.
* call rollups -- for the traced run only, the hot per-event methods of
  ``PolicyEngine`` and ``SimulatedPlatform`` and ``engine.evaluate_policy``
  are wrapped. A span per call would be millions of records, so each
  ``(method, enclosing span)`` pair keeps a call count and a total, plus
  whether the call produced anything.

Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import json
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns
from typing import Callable, Iterator, Optional

from flowgate import cli, engine, platform_sim

# Stage name -> the name ``flowgate.cli`` looks the callable up by. Patching
# the cli module's globals wraps exactly the calls ``flowgate run`` makes.
STAGES = {
    "scenario.load": "load_scenario",
    "compiler.compile": "compile_corpus",
    "simulator.raw": "run_raw",
    "simulator.prune": "remove_redundant",
    "simulator.mediated": "run_mediated",
    "simulator.verify": "verify",
    "metrics.summary": "_metrics_summary",
}

# Rollup name -> (owner, attribute). ``evaluate_policy`` is called through the
# engine module's globals, the methods through their classes.
CALLS = {
    "engine.process_event": (engine.PolicyEngine, "process_event"),
    "engine.tick": (engine.PolicyEngine, "tick"),
    "engine.time_tick": (engine.PolicyEngine, "time_tick"),
    "engine.evaluate_policy": (engine, "evaluate_policy"),
    "platform_sim.receive": (platform_sim.SimulatedPlatform, "receive"),
    "platform_sim.tick": (platform_sim.SimulatedPlatform, "tick"),
    "platform_sim.time_tick": (platform_sim.SimulatedPlatform, "time_tick"),
}

# Calls too frequent to time one by one without distorting the layer they
# sit in: counted (with their hits) but not timed.
COUNT_ONLY = {"engine.evaluate_policy"}


@dataclass
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: Optional[int]

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


@dataclass
class Rollup:
    """All calls of one method made inside one span."""

    name: str
    parent: Optional[int]
    calls: int = 0
    hits: int = 0          # calls that returned a non-empty result
    total_ns: int = 0


class Recorder:
    """In-memory span tree plus per-span call rollups."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.rollups: dict[tuple[str, Optional[int]], Rollup] = {}
        self.results: dict[str, object] = {}
        self.process_event_ns = array("q")
        self._stack: list[int] = []

    @property
    def current(self) -> Optional[int]:
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        span = Span(len(self.spans), name, perf_counter_ns(), 0, self.current)
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            yield span
        finally:
            span.end_ns = perf_counter_ns()
            self._stack.pop()

    def rollup(self, name: str) -> Rollup:
        key = (name, self.current)
        r = self.rollups.get(key)
        if r is None:
            r = self.rollups[key] = Rollup(name, self.current)
        return r

    def children_ns(self, span: Span) -> int:
        spans = sum(s.end_ns - s.start_ns for s in self.spans if s.parent == span.id)
        calls = sum(r.total_ns for r in self.rollups.values() if r.parent == span.id)
        return spans + calls

    def self_seconds(self, span: Span) -> float:
        return (span.end_ns - span.start_ns - self.children_ns(span)) / 1e9

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({
            "spans": [
                {"id": s.id, "name": s.name, "start_ns": s.start_ns, "end_ns": s.end_ns,
                 "parent": s.parent}
                for s in self.spans
            ],
            "rollups": [
                {"name": r.name, "parent": r.parent, "calls": r.calls, "hits": r.hits,
                 "total_ns": r.total_ns}
                for r in self.rollups.values()
            ],
        }))


def _stage_wrapper(rec: Recorder, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with rec.span(name):
            result = fn(*args, **kwargs)
        rec.results[name] = result
        return result
    return wrapper


def _call_wrapper(rec: Recorder, name: str, fn: Callable) -> Callable:
    if name in COUNT_ONLY:
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            r = rec.rollup(name)
            r.calls += 1
            r.hits += bool(result)
            return result
        return counted

    durations = rec.process_event_ns if name == "engine.process_event" else None

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        t0 = perf_counter_ns()
        result = fn(*args, **kwargs)
        dt = perf_counter_ns() - t0
        r = rec.rollup(name)
        r.calls += 1
        r.hits += bool(result)
        r.total_ns += dt
        if durations is not None:
            durations.append(dt)
        return result
    return timed


@contextmanager
def instrumented(rec: Recorder, calls: bool) -> Iterator[Recorder]:
    """Install stage wrappers (and call wrappers if ``calls``); undo on exit."""
    patches = [(cli, attr, _stage_wrapper(rec, name, getattr(cli, attr)))
               for name, attr in STAGES.items()]
    if calls:
        patches += [(owner, attr, _call_wrapper(rec, name, getattr(owner, attr)))
                    for name, (owner, attr) in CALLS.items()]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    for owner, attr, wrapper in patches:
        setattr(owner, attr, wrapper)
    try:
        yield rec
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
