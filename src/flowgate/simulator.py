"""Discrete-event simulation of the whole home: devices, mediator, platform.

Three pipelines over one trace, run by one scheduler loop that owns the
devices, the platform and the deadline heap. They differ only in where device
events go upstream:

* mediated -- device events flow through the policy engine; only the
  minimized stream reaches the platform; commands pass back unmodified.
* raw      -- the platform consumes the unfiltered trace (the ground truth).
* pull     -- nothing is pushed; the platform only learns states it
  explicitly refreshes, so only time-triggered rules can run.

The loop keeps two rules:

* Only keys that a rule (raw, pull) or an indexed policy (mediated)
  triggers on, that rules or manual commands command, or that have no
  seeded state (so an unknown key still fails closed) are streamed. Any
  other key is read off the trace when asked: at a streamed event, as of
  the events before its place in trace order; in heap work, as of every
  event at or before its time. A read key's events are never streamed.
* The streamed events, in timestamp order, run past a heap of
  everything else (deadlines, daily instants, deliveries, actuations, manual
  commands). Every trace event of a millisecond is taken before any heap
  entry due at that millisecond, so a device event lands before any timer,
  delayed report or delayed action due at that instant; same-millisecond
  trace events keep their trace order and heap entries run in push order.
  A streamed event sets its device's state and goes straight upstream;
  that runs no due work, so a held-duration timer that ends exactly when
  its condition's device changes sees the change in every pipeline alike.

A streamed event is a ``(key, value, ts)`` row zipped from the trace
columns, in the order of the streamed keys' merged place columns
(``Trace.placed``), and it goes upstream as those three values:
``PolicyEngine.process_event(key, value, ts)`` or
``SimulatedPlatform.receive(key, value, ts)``. No ``Event`` is built for
it. An actuation builds one, the state change that the run records.

The platform runs one ``RuleTable`` (``flowgate.platform_sim``): the raw
and pull replays build it from the home's rules, and the mediated replay
takes the compiled corpus's, whose repairs the engine predicts from the same
table. Its minutes give the daily instants: the platform's clock fires at
each, and the mediated engine decides on each just ahead of it.

Each deadline is pushed when it is scheduled. The engine hands every
delayed report and timer to its ``schedule`` hook, which pushes a tick of
that one piece of work at the deadline; a tick whose report was flushed
early, or whose timer was reset or stopped, does nothing. Only the platform
still keeps deadlines of its own: its ``wake`` hook pushes a tick at each
delayed action or native timer, and a tick runs all the platform's work due
by then, so a tick whose work an earlier tick already ran finds nothing to do.

Fidelity is scored the way commands are verified in the field: every
command issued under mediation must have a raw counterpart within a short
window (soundness), and every non-redundant raw command must have a mediated
counterpart (completeness).
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from operator import attrgetter
from bisect import bisect_left, bisect_right
from typing import Any, Callable, Iterable, Optional

from .compiler import CompiledCorpus
from .engine import Emission, PolicyEngine, TimerState
from .model import (
    MS_PER_DAY,
    MS_PER_MINUTE,
    Command,
    Event,
    Registry,
    Rule,
    Trace,
    Value,
    format_value,
)
from .platform_sim import RuleTable, SimulatedPlatform

DEFAULT_MATCH_WINDOW_MS = 3000
# Time-of-day triggers and pull-mode refreshes are scheduled up to this long
# past the last trace event.
GRACE_MS = 2 * 3600 * 1000


@dataclass
class SimConfig:
    """The replay settings, declared once: a scenario's ``engine:`` table and
    the ``flowgate run`` flags set them by these names."""

    seed: int = 0
    l1_ms: int = 0                  # fixed virtual computation latency
    l2_ms: int = 250                # one-way transmission latency to the platform
    drop_prob: float = 0.0          # mediated command-loss probability
    refresh_ms: int = 0             # pull mode: state-refresh period (0: never)


class DeviceFarm:
    """True device states; actuations produce state-change events."""

    def __init__(self, registry: Registry):
        self.registry = registry
        self.states: dict[tuple[str, str], Value] = dict(registry.initial_states())

    def actuate(self, command: Command, now: int) -> Optional[Event]:
        """Apply ``command`` at ``now``; the state change it makes, or None."""
        device, attribute = key = command.device, command.attribute
        value = self.registry.lookup(device, attribute).validate_value(command.value)
        if self.states.get(key) == value:
            return None
        self.states[key] = value
        return Event(device, attribute, value, now)


@dataclass
class RunArtifacts:
    """What only the replay produces; the trace and config determine the rest."""

    reported_events: list[Emission] = field(default_factory=list)
    p_commands: list[Command] = field(default_factory=list)
    actuations: list[Event] = field(default_factory=list)   # state changes commands caused


def _daily_instants(minutes: Iterable[int], horizon_ms: int) -> list[int]:
    out = []
    for day_start in range(0, horizon_ms + 1, MS_PER_DAY):
        for m in minutes:
            ts = day_start + m * MS_PER_MINUTE
            if ts <= horizon_ms:
                out.append(ts)
    return sorted(out)


_Handler = Callable[[int, Any], None]
_timestamp = attrgetter("timestamp")


def _unhooked(when: int, work: Any = None) -> None:
    """The deadline hook of a finished replay: it runs no more deadlines."""


class _TraceReads:
    """The states of keys read off the trace instead of streamed, at the
    replay's moment: a streamed event at ``place`` sees the events before
    it in trace order, heap work at ``time`` (``place`` None) every event at
    or before it. Takes the keys' seeded states out of ``states``."""

    def __init__(self, trace: Trace, keys: set[tuple[str, str]],
                 states: dict[tuple[str, str], Value]):
        self.time = 0
        self.place: Optional[int] = None
        ids = {key: trace.key_id(key) for key in keys}
        self.columns = {key: (trace.places[kid], trace.times[kid], trace.values[kid],
                              states.pop(key)) for key, kid in ids.items()}

    def serve(self, store: Any) -> None:
        """Keep the read keys out of ``store.db`` and answer ``store.read`` for them."""
        for key in self.columns:
            del store.db[key]
        store.read = self.get

    def get(self, key: tuple[str, str]) -> Optional[Value]:
        """``key``'s state at the moment; None for a key not read off the trace."""
        column = self.columns.get(key)
        if column is None:
            return None
        places, times, values, initial = column
        place = self.place
        i = bisect_right(times, self.time) if place is None else bisect_left(places, place)
        return values[i - 1] if i else initial

    def snapshot(self) -> dict[tuple[str, str], Value]:
        return {key: self.get(key) for key in self.columns}  # type: ignore[misc]


class _Replay:
    """The scheduler loop every pipeline runs; subclasses are the upstreams.

    A subclass decides where device events go (``upstream``), adds the keys
    it streams to ``streamed``, points its state reads at the trace
    (``read_from``) and may push entries of its own. The deadline hooks it
    hands the engine and the platform point back at the replay; ``run``
    detaches them (``unhook``), so a finished replay is freed as soon as it
    is dropped instead of waiting for the cycle collector.
    """

    command_delay_ms = 0     # platform -> device transport delay

    def __init__(self, trace: Iterable[Event], rules: RuleTable, registry: Registry,
                 config: SimConfig):
        self.config = config
        self.farm = DeviceFarm(registry)
        self.artifacts = RunArtifacts()
        self.platform = SimulatedPlatform(rules, registry, wake=self._wake_platform)
        self._trace = Trace.of(trace)
        # A key without seeded state is streamed, so it still fails closed.
        self.streamed = rules.keys | (set(self._trace.keys) - self.farm.states.keys())
        self.horizon = self._trace.end + GRACE_MS
        self._heap: list[tuple[int, int, _Handler, Any]] = []
        self._seq = 0
        self.instants = _daily_instants(rules.minutes, self.horizon)
        for ts in self.instants:
            self.push(ts, self._platform_time, None)

    def push(self, when: int, handler: _Handler, payload: Any) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (when, self._seq, handler, payload))

    def trace_read_keys(self) -> set[tuple[str, str]]:
        """The keys whose states are read off the trace: every key not streamed."""
        return set(self._trace.keys) - self.streamed

    def run(self) -> RunArtifacts:
        heap, states, upstream = self._heap, self.farm.states, self.upstream
        reads = self.reads = _TraceReads(self._trace, self.trace_read_keys(), states)
        self.read_from(reads)
        for place, (key, value, ts) in self._trace.placed(self.streamed):
            if heap and heap[0][0] < ts:
                self._run_heap(ts)
            reads.place = place
            states[key] = value
            upstream(key, value, ts)
        self._run_heap(None)
        self.unhook()
        self.artifacts.p_commands.sort(key=_timestamp)
        return self.artifacts

    def _run_heap(self, before: Optional[int]) -> None:
        """Run the heap entries due before ``before`` (all of them if ``None``)."""
        heap, reads = self._heap, self.reads
        reads.place = None
        while heap and (before is None or heap[0][0] < before):
            now, _, handler, payload = heapq.heappop(heap)
            reads.time = now
            handler(now, payload)

    def read_from(self, reads: _TraceReads) -> None:
        """Point the upstream's state reads at ``reads`` for its keys."""

    def unhook(self) -> None:
        """Detach the deadline hooks: nothing is scheduled after the run."""
        self.platform.wake = _unhooked

    # -- devices and platform ----------------------------------------------------

    def upstream(self, key: tuple[str, str], value: Value, now: int) -> None:
        """Carry one device event, ``value`` on ``key`` (trace or actuation), towards the platform."""
        raise NotImplementedError

    def lost_in_transit(self) -> bool:
        return False

    def _actuate(self, now: int, cmd: Command) -> None:
        change = self.farm.actuate(cmd, now)
        if change is not None:
            self.artifacts.actuations.append(change)
            self.upstream((change.device, change.attribute), change.value, now)

    def _wake_platform(self, when: int) -> None:
        self.push(when, self.drain_platform, None)

    def _platform_time(self, now: int, _: None) -> None:
        self.platform.time_tick(now)
        self.drain_platform(now, None)

    def drain_platform(self, now: int, _: None) -> None:
        """Run the platform's due work and send the commands it issued."""
        self.platform.tick(now)
        self.send_issued()

    def send_issued(self) -> None:
        issued = self.platform.issued
        for cmd in issued:
            if self.lost_in_transit():
                continue
            self.artifacts.p_commands.append(cmd)
            self.push(cmd.timestamp + self.command_delay_ms, self._actuate, cmd)
        issued.clear()


class _RawReplay(_Replay):
    def read_from(self, reads: _TraceReads) -> None:
        reads.serve(self.platform)

    def upstream(self, key: tuple[str, str], value: Value, now: int) -> None:
        self.platform.receive(key, value, now)
        if self.platform.issued:
            self.send_issued()


class _PullReplay(_Replay):
    def __init__(self, trace: Iterable[Event], rules: RuleTable, registry: Registry,
                 config: SimConfig):
        super().__init__(trace, rules, registry, config)
        if config.refresh_ms:
            for ts in range(0, self.horizon + 1, config.refresh_ms):
                self.push(ts, self._refresh, None)

    def upstream(self, key: tuple[str, str], value: Value, now: int) -> None:
        pass  # nothing is pushed

    def _refresh(self, now: int, _: None) -> None:
        self.platform.refresh({**self.farm.states, **self.reads.snapshot()})


class _MediatedReplay(_Replay):
    def __init__(self, trace: Iterable[Event], corpus: CompiledCorpus, config: SimConfig,
                 manual_commands: list[Command]):
        super().__init__(trace, corpus.rules, corpus.registry, config)
        self.engine = PolicyEngine(corpus, config.seed, schedule=self._schedule_engine)
        self.streamed.update(self.engine.trigger_keys)
        self.streamed.update(cmd.key() for cmd in manual_commands)
        self.command_delay_ms = config.l2_ms
        self.latency = config.l1_ms + config.l2_ms
        self._drop_rng = random.Random((config.seed << 8) ^ 0x5F)
        for ts in self.instants:
            self.push(max(0, ts - self.latency - 1), self._engine_time, ts)
        for cmd in manual_commands:
            self.push(cmd.timestamp, self._manual, cmd)

    def unhook(self) -> None:
        super().unhook()
        self.engine.schedule = _unhooked

    def read_from(self, reads: _TraceReads) -> None:
        reads.serve(self.engine.store)

    def lost_in_transit(self) -> bool:
        # Dropped on the way back, before the mediator saw the command.
        drop = self.config.drop_prob
        return bool(drop) and self._drop_rng.random() < drop

    def upstream(self, key: tuple[str, str], value: Value, now: int) -> None:
        emissions = self.engine.process_event(key, value, now)
        if emissions:
            self._report(emissions)

    def _schedule_engine(self, when: int, work: Emission | TimerState) -> None:
        self.push(when, self._engine_tick, work)

    def _engine_tick(self, now: int, work: Emission | TimerState) -> None:
        self._report(self.engine.tick(now, work))

    def _engine_time(self, now: int, target: int) -> None:
        for e in self.engine.time_tick(target):
            self.push(max(e.timestamp - 1, now), self._deliver, e)

    def _report(self, emissions: list[Emission]) -> None:
        for e in emissions:
            self.push(e.timestamp + self.latency, self._deliver, e)

    def _deliver(self, now: int, e: Emission) -> None:
        self.artifacts.reported_events.append(e)
        self.platform.receive((e.device, e.attribute), e.value, now, e.kind, e.tag)
        self.drain_platform(now, None)

    def _manual(self, now: int, cmd: Command) -> None:
        self.artifacts.p_commands.append(cmd)
        self.push(cmd.timestamp, self._actuate, cmd)


def run_mediated(
    trace: Iterable[Event],
    corpus: CompiledCorpus,
    config: Optional[SimConfig] = None,
    manual_commands: Optional[list[Command]] = None,
) -> RunArtifacts:
    """Replay the trace through device -> engine -> platform -> device."""
    return _MediatedReplay(trace, corpus, config or SimConfig(), manual_commands or []).run()


def run_raw(
    trace: Iterable[Event],
    rules: list[Rule],
    registry: Registry,
    config: Optional[SimConfig] = None,
) -> RunArtifacts:
    """Replay the unfiltered trace straight into the platform."""
    return _RawReplay(trace, RuleTable(rules, registry), registry, config or SimConfig()).run()


def run_pull_baseline(
    trace: Iterable[Event],
    rules: list[Rule],
    registry: Registry,
    config: Optional[SimConfig] = None,
) -> RunArtifacts:
    """No pushes: the platform sees only refreshed states, never events."""
    return _PullReplay(trace, RuleTable(rules, registry), registry, config or SimConfig()).run()


def remove_redundant(
    gt_commands: list[Command],
    raw_trace: Iterable[Event],
    registry: Registry,
) -> list[Command]:
    """Drop ground-truth commands whose value equals the target's state.

    A command that would not change its target's state is a redundant rule
    execution the mediated pipeline is entitled to suppress. The state is
    the later of the target's last trace event at or before the command
    (events at the command's millisecond land first) and the last command
    kept on it.
    """
    trace = Trace.of(raw_trace)
    initial = registry.initial_states()
    last_kept: dict[tuple[str, str], tuple[int, Value]] = {}
    kept: list[Command] = []
    for cmd in sorted(gt_commands, key=_timestamp):
        key = cmd.key()
        times, values = trace.column(key)
        i = bisect_right(times, cmd.timestamp)
        last = last_kept.get(key)
        if last is not None and (not i or last[0] >= times[i - 1]):
            state = last[1]
        else:
            state = values[i - 1] if i else initial.get(key)
        value = registry.lookup(cmd.device, cmd.attribute).validate_value(cmd.value)
        if state == value:
            continue
        last_kept[key] = (cmd.timestamp, value)
        kept.append(cmd)
    return kept


@dataclass
class VerifyReport:
    r_s: float
    r_c: float
    unsound: list[Command] = field(default_factory=list)   # p-commands with no counterpart
    missed: list[Command] = field(default_factory=list)    # gt-commands with no counterpart
    per_origin: dict[str, tuple[int, int]] = field(default_factory=dict)  # matched, total


def _greedy_match(
    needles: list[Command], haystack: list[Command], window_ms: int
) -> tuple[list[Command], list[Command]]:
    """Greedy earliest-first one-to-one matching on (device, attribute, value)."""
    pools: dict[tuple[str, str, str], list[int]] = {}
    for c in sorted(haystack, key=lambda c: c.timestamp):
        pools.setdefault(_match_key(c), []).append(c.timestamp)
    cursor: dict[tuple[str, str, str], int] = {k: 0 for k in pools}
    matched: list[Command] = []
    unmatched: list[Command] = []
    for c in sorted(needles, key=lambda c: c.timestamp):
        key = _match_key(c)
        pool = pools.get(key, [])
        i = cursor.get(key, 0)
        while i < len(pool) and pool[i] < c.timestamp - window_ms:
            i += 1
        cursor[key] = i
        if i < len(pool) and pool[i] <= c.timestamp + window_ms:
            matched.append(c)
            cursor[key] = i + 1
        else:
            unmatched.append(c)
    return matched, unmatched


def _match_key(c: Command) -> tuple[str, str, str]:
    return (c.device, c.attribute, format_value(c.value))


def verify(
    p_commands: list[Command],
    gt_commands: list[Command],
    window_ms: int = DEFAULT_MATCH_WINDOW_MS,
    pruned_gt: Optional[list[Command]] = None,
) -> VerifyReport:
    """Soundness and completeness of the mediated command stream.

    Soundness matches every p-command into ``gt_commands``; completeness
    matches every command of ``pruned_gt`` (redundant executions removed;
    defaults to ``gt_commands``) into the p-commands.
    """
    reference = pruned_gt if pruned_gt is not None else gt_commands
    _, unsound = _greedy_match(p_commands, gt_commands, window_ms)
    matched_gt, missed = _greedy_match(reference, p_commands, window_ms)
    r_s = 1.0 if not p_commands else (len(p_commands) - len(unsound)) / len(p_commands)
    r_c = 1.0 if not reference else len(matched_gt) / len(reference)
    per_origin: dict[str, list[int]] = {}
    missed_set = {id(c) for c in missed}
    for c in reference:
        entry = per_origin.setdefault(c.origin, [0, 0])
        entry[1] += 1
        if id(c) not in missed_set:
            entry[0] += 1
    return VerifyReport(
        r_s=r_s,
        r_c=r_c,
        unsound=unsound,
        missed=missed,
        per_origin={k: (v[0], v[1]) for k, v in sorted(per_origin.items())},
    )
