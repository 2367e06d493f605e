"""Discrete-event simulation of the whole home: devices, mediator, platform.

Three pipelines over one trace, run by one scheduler loop that owns the
devices, the platform and the deadline heap. They differ only in where device
events go upstream:

* mediated -- device events flow through the policy engine; only the
  minimized stream reaches the platform; commands pass back unmodified.
* raw      -- the platform consumes the unfiltered trace (the ground truth).
* pull     -- nothing is pushed; the platform only learns states it
  explicitly refreshes, so only time-triggered rules can run.

The loop keeps four rules:

* Only live keys are replayed. A key is live when a rule triggers on it,
  reads it in a condition or a held-duration timer, or commands it, when a
  policy reads it (mediated), when a manual command targets it, or when it
  has no seeded state (so an unknown key still fails closed). Events on
  any other key change nothing the replay reports; they are counted from
  the trace, never streamed.
* The live events, in timestamp order, are streamed past a heap of
  everything else (deadlines, daily instants, deliveries, actuations, manual
  commands). Every trace event of a millisecond is taken before any heap
  entry due at that millisecond, so a device event lands before any timer,
  delayed report or delayed action due at that instant; same-millisecond
  trace events keep their trace order and heap entries run in push order.
  Passing a device event upstream runs no due work, so a held-duration
  timer that ends exactly when its condition's device changes sees the
  change in every pipeline alike.
* Each deadline is armed once. After every step the engine's and the
  platform's next deadlines are pushed at most once per (source, timestamp),
  and the engine ticks only when its own deadline pops.
* Quiet keys skip the upstream: mediated, a key no policy indexes (it never
  has a delayed report pending); raw, a key no rule triggers on; pull, every
  key. A trace event on a seeded quiet key only updates the device state
  and the upstream's own store, and arms nothing.

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
from bisect import bisect_right
from typing import Any, Callable, Iterable, Optional, Sequence

from .compiler import CompiledCorpus
from .engine import Emission, PolicyEngine
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
from .platform_sim import SimulatedPlatform

DEFAULT_MATCH_WINDOW_MS = 3000
# Time-of-day triggers and pull-mode refreshes are scheduled up to this long
# past the last trace event.
GRACE_MS = 2 * 3600 * 1000


@dataclass
class SimConfig:
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

    def observe(self, event: Event) -> None:
        self.states[event.key()] = event.value

    def actuate(self, command: Command) -> Optional[Event]:
        desc = self.registry.lookup(command.device, command.attribute)
        value = desc.validate_value(command.value)
        if self.states.get(command.key()) == value:
            return None
        self.states[command.key()] = value
        return Event(command.device, command.attribute, value, command.timestamp)


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


def _rule_keys(rules: Iterable[Rule]) -> set[tuple[str, str]]:
    """The keys rules trigger on, read in a condition or timer, or command."""
    keys = set()
    for rule in rules:
        timer = rule.condition_timer
        for c in (rule.trigger, *rule.condition, *(() if timer is None else (timer.watched,))):
            if not c.is_time:
                keys.add(c.key())
        keys.update((a.device, a.attribute) for a in rule.actions)
    return keys


class _Replay:
    """The scheduler loop every pipeline runs; subclasses are the upstreams.

    A subclass decides where device events go (``upstream``), which keys
    skip it (``quiet_keys``, ``store_quiet``), adds the keys it reads to
    ``live`` and may push entries of its own.
    """

    command_delay_ms = 0     # platform -> device transport delay

    def __init__(
        self,
        trace: Sequence[Event],
        rules: list[Rule],
        registry: Registry,
        config: SimConfig,
        tag_gated: Optional[set[str]] = None,
    ):
        self.config = config
        self.farm = DeviceFarm(registry)
        self.artifacts = RunArtifacts()
        self.platform = SimulatedPlatform(rules, registry, tag_gated)
        self._trace = Trace.of(trace)
        # A key without seeded state stays live, so it still fails closed.
        self.live = _rule_keys(rules) | (set(self._trace.keys) - self.farm.states.keys())
        self.horizon = self._trace.end + GRACE_MS
        self._heap: list[tuple[int, int, _Handler, Any]] = []
        self._seq = 0
        self._armed: set[tuple[Callable[[int], None], int]] = set()
        for ts in _daily_instants(self.platform.time_trigger_minutes(), self.horizon):
            self.push(ts, self._platform_time, None)

    def push(self, when: int, handler: _Handler, payload: Any) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (when, self._seq, handler, payload))

    def run(self) -> RunArtifacts:
        quiet = self.quiet_keys()
        store_quiet = self.store_quiet
        heap = self._heap
        states = self.farm.states
        for event in self._trace.events(self.live):
            device, attribute, value, ts = event
            if heap and heap[0][0] < ts:
                self._run_heap(ts)
            key = (device, attribute)
            if key in quiet:
                states[key] = value
                store_quiet(key, value)
            else:
                self._device_event(ts, event)
                self.arm_deadlines()
        self._run_heap(None)
        self.artifacts.p_commands.sort(key=_timestamp)
        return self.artifacts

    def _run_heap(self, before: Optional[int]) -> None:
        """Run the heap entries due before ``before`` (all of them if ``None``)."""
        heap = self._heap
        while heap and (before is None or heap[0][0] < before):
            now, _, handler, payload = heapq.heappop(heap)
            handler(now, payload)
            self.arm_deadlines()

    # -- deadlines ---------------------------------------------------------------

    def arm_deadlines(self) -> None:
        self._arm(self.platform.next_deadline(), self.drain_platform)

    def _arm(self, due: Optional[int], action: Callable[[int], None]) -> None:
        if due is not None and (action, due) not in self._armed:
            self._armed.add((action, due))
            self.push(due, self._due, action)

    def _due(self, now: int, action: Callable[[int], None]) -> None:
        self._armed.discard((action, now))
        action(now)

    # -- devices and platform ----------------------------------------------------

    def upstream(self, event: Event, now: int) -> None:
        """Carry one device event (trace or actuation) towards the platform."""
        raise NotImplementedError

    def quiet_keys(self) -> set[tuple[str, str]]:
        """Seeded keys whose events ``upstream`` would only store."""
        raise NotImplementedError

    def store_quiet(self, key: tuple[str, str], value: Value) -> None:
        """The upstream's own state write for an event on a quiet key."""
        raise NotImplementedError

    def lost_in_transit(self) -> bool:
        return False

    def _device_event(self, now: int, event: Event) -> None:
        self.farm.observe(event)
        self.upstream(event, now)

    def _actuate(self, now: int, cmd: Command) -> None:
        change = self.farm.actuate(Command(cmd.device, cmd.attribute, cmd.value, now, cmd.origin))
        if change is not None:
            self.artifacts.actuations.append(change)
            self.upstream(change, now)

    def _platform_time(self, now: int, _: None) -> None:
        self.platform.time_tick(now)
        self.drain_platform(now)

    def drain_platform(self, now: int) -> None:
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
    def upstream(self, event: Event, now: int) -> None:
        self.platform.receive(event.device, event.attribute, event.value, now)
        self.send_issued()

    def quiet_keys(self) -> set[tuple[str, str]]:
        return self.platform.db.keys() - self.platform._by_key.keys()

    def store_quiet(self, key: tuple[str, str], value: Value) -> None:
        self.platform.db[key] = value


class _PullReplay(_Replay):
    def __init__(self, trace: Sequence[Event], rules: list[Rule], registry: Registry,
                 config: SimConfig):
        super().__init__(trace, rules, registry, config)
        if config.refresh_ms:
            for ts in range(0, self.horizon + 1, config.refresh_ms):
                self.push(ts, self._refresh, None)

    def upstream(self, event: Event, now: int) -> None:
        pass  # nothing is pushed

    def quiet_keys(self) -> set[tuple[str, str]]:
        return set(self.platform.db)

    def store_quiet(self, key: tuple[str, str], value: Value) -> None:
        pass

    def _refresh(self, now: int, _: None) -> None:
        self.platform.refresh(self.farm.states)


class _MediatedReplay(_Replay):
    def __init__(self, trace: Sequence[Event], corpus: CompiledCorpus, config: SimConfig,
                 manual_commands: list[Command]):
        super().__init__(trace, corpus.forwarded_rules, corpus.registry, config,
                         tag_gated=corpus.tag_gated)
        devices = corpus.registry.devices
        for policy in corpus.policies:
            for device, attribute in policy.referenced_pairs():
                attributes = devices[device].attributes if attribute == "*" else (attribute,)
                self.live.update((device, a) for a in attributes)
        self.live.update(cmd.key() for cmd in manual_commands)
        self.engine = PolicyEngine(corpus, config.seed)
        self.command_delay_ms = config.l2_ms
        self.latency = config.l1_ms + config.l2_ms
        self._drop_rng = random.Random((config.seed << 8) ^ 0x5F)
        for ts in _daily_instants(self.engine.time_trigger_minutes(), self.horizon):
            self.push(max(0, ts - self.latency - 1), self._engine_time, ts)
        for cmd in manual_commands:
            self.push(cmd.timestamp, self._manual, cmd)

    def arm_deadlines(self) -> None:
        super().arm_deadlines()
        self._arm(self.engine.next_deadline(), self._engine_tick)

    def lost_in_transit(self) -> bool:
        # Dropped on the way back, before the mediator saw the command.
        drop = self.config.drop_prob
        return bool(drop) and self._drop_rng.random() < drop

    def upstream(self, event: Event, now: int) -> None:
        self._report(self.engine.process_event(event))

    def quiet_keys(self) -> set[tuple[str, str]]:
        return self.engine.store.db.keys() - self.engine._by_key.keys()

    def store_quiet(self, key: tuple[str, str], value: Value) -> None:
        self.engine.store.db[key] = value

    def _engine_tick(self, now: int) -> None:
        self._report(self.engine.tick(now))

    def _engine_time(self, now: int, target: int) -> None:
        for e in self.engine.time_tick(target):
            self.push(max(e.timestamp - 1, now), self._deliver, e)

    def _report(self, emissions: list[Emission]) -> None:
        for e in emissions:
            self.push(e.timestamp + self.latency, self._deliver, e)

    def _deliver(self, now: int, e: Emission) -> None:
        self.artifacts.reported_events.append(e)
        self.platform.receive(e.device, e.attribute, e.value, now, e.kind, e.tag)
        self.drain_platform(now)

    def _manual(self, now: int, cmd: Command) -> None:
        self.artifacts.p_commands.append(cmd)
        self.push(cmd.timestamp, self._actuate, cmd)


def run_mediated(
    trace: Sequence[Event],
    corpus: CompiledCorpus,
    config: Optional[SimConfig] = None,
    manual_commands: Optional[list[Command]] = None,
) -> RunArtifacts:
    """Replay the trace through device -> engine -> platform -> device."""
    return _MediatedReplay(trace, corpus, config or SimConfig(), manual_commands or []).run()


def run_raw(
    trace: Sequence[Event],
    rules: list[Rule],
    registry: Registry,
    config: Optional[SimConfig] = None,
) -> RunArtifacts:
    """Replay the unfiltered trace straight into the platform."""
    return _RawReplay(trace, rules, registry, config or SimConfig()).run()


def run_pull_baseline(
    trace: Sequence[Event],
    rules: list[Rule],
    registry: Registry,
    config: Optional[SimConfig] = None,
) -> RunArtifacts:
    """No pushes: the platform sees only refreshed states, never events."""
    return _PullReplay(trace, rules, registry, config or SimConfig()).run()


def remove_redundant(
    gt_commands: list[Command],
    raw_trace: Sequence[Event],
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
