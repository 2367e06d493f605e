"""The simulated automation platform: the ground-truth rule executor.

Executes trigger-condition-action rules over the event stream it receives.
An event fires a rule when the rule's trigger predicate becomes true with it
(an equal binary value or a numeric reading on the same side of the threshold
fires nothing, mirroring commercial platforms' state-change semantics).
Time triggers fire from the platform's own clock. The state database updates
from delivered events and from explicit state refreshes; the pull replay
never delivers an event, so its platform learns states only by refreshing.
Issued commands collect in ``issued`` until the caller drains them.
``wake(when)`` is called for every deadline the platform schedules (a delayed
action or a native timer); ``tick(when)`` then runs the work due.

Which rules an input fires, and whether their conditions pass, is decided by
a ``RuleTable``. The mediator predicts the platform's decisions from the same
table, so the two can never disagree on which rules a report fires. The
table memoizes each key's transitions: a report that moves a key from one
value class to another looks up the rules' moves instead of testing every
trigger again.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Optional

from .model import (
    KIND_EXPIRY,
    KIND_REPORT,
    KIND_SYNC,
    AttributeKind,
    Command,
    Registry,
    Rule,
    Transitions,
    Value,
    cut_points,
    minute_of_day,
)

# A rule's move on a report: fire it, or start (or reset) or stop its native timer.
FIRE = "fire"
START = "start"
STOP = "stop"


def _moves(rules: list[Rule], prev: Value, value: Value) -> tuple[tuple[str, Rule], ...]:
    """The move of each rule of ``rules`` that a report from ``prev`` to ``value`` makes, in rule order."""
    moves = []
    for rule in rules:
        timer = rule.condition_timer
        if timer is None:
            if rule.trigger.fires(value, prev):
                moves.append((FIRE, rule))
        elif timer.watched.fires(value, prev):
            moves.append((START, rule))
        elif timer.watched.satisfied_by(prev) and not timer.watched.satisfied_by(value):
            moves.append((STOP, rule))
    return tuple(moves)


class RuleTable:
    """The platform's rules, indexed by what fires them; built once, never changed.

    * ``on_key[key]`` -- the ``Transitions`` of the rules a report on
      ``key`` moves: called with the platform's previous value and the
      reported one, it gives each ``(move, rule)`` in rule order, ``move``
      one of ``FIRE``, ``START`` and ``STOP``; a gated rule is left out.
    * ``gated[rule_id]`` -- each gated rule: a held-duration rule whose timer
      the mediator runs, fired only by its expiry report.
    * ``at_minute[minute]`` -- the time rules of each minute of the day, in
      rule order; ``minutes`` lists those minutes in ascending order.
    * ``keys`` -- the keys the rules trigger on or command.
    * ``thresholds[key]`` -- the sorted cut points of the numeric atoms the
      rules test on ``key``: triggers, and the atoms held-duration timers watch.
    """

    def __init__(self, rules: Iterable[Rule], registry: Registry, gated: Iterable[str] = ()):
        gated = set(gated)
        on_key: dict[tuple[str, str], list[Rule]] = {}
        self.gated: dict[str, Rule] = {}
        self.at_minute: dict[int, list[Rule]] = {}
        self.keys: set[tuple[str, str]] = set()
        atoms: dict[tuple[str, str], list] = {}
        for rule in rules:
            trig = rule.trigger
            self.keys.update((a.device, a.attribute) for a in rule.actions)
            if trig.is_time:
                self.at_minute.setdefault(int(trig.value), []).append(rule)  # type: ignore[arg-type]
                continue
            key = trig.key()
            self.keys.add(key)
            if rule.id in gated:
                self.gated[rule.id] = rule
            else:
                on_key.setdefault(key, []).append(rule)
            if registry.lookup(*key).kind is AttributeKind.NUMERIC:
                timer = rule.condition_timer
                atoms.setdefault(key, []).extend((trig,) if timer is None else (trig, timer.watched))
        self.minutes = sorted(self.at_minute)
        self.thresholds = {key: cut_points(a) for key, a in atoms.items()}
        self.on_key = {key: Transitions(partial(_moves, rs), self.thresholds.get(key))
                       for key, rs in on_key.items()}


def conditions_pass(rule: Rule, ts: int, state: Callable[[tuple[str, str]], Optional[Value]]) -> bool:
    """Whether every condition of ``rule`` holds at ``ts``: a time atom on
    the clock, a device atom on ``state(key)`` (None fails it)."""
    for c in rule.condition:
        value = minute_of_day(ts) if c.is_time else state(c.key())
        if value is None or not c.satisfied_by(value):
            return False
    return True


@dataclass
class _NativeTimer:
    rule: Rule


class SimulatedPlatform:
    """Executes automation rules over received events and its own clock."""

    def __init__(self, rules: RuleTable, registry: Registry, *, wake: Callable[[int], None]):
        self.rules = rules
        self.wake = wake
        self.db: dict[tuple[str, str], Value] = registry.initial_states()
        # The state of a condition key kept out of ``db``, or None; the raw
        # replay reads such keys off its trace. By default nothing is read.
        self.read: Callable[[tuple[str, str]], Optional[Value]] = {}.get
        self.issued: list[Command] = []
        self._seq = 0
        # Delayed actions and native rule timers share one deadline heap.
        self._pending: list[tuple[int, int, str, object]] = []
        self._timers: dict[str, _NativeTimer] = {}   # running timers by rule id

    # -- scheduling ------------------------------------------------------------

    def _push(self, deadline: int, kind: str, payload: object) -> None:
        self._seq += 1
        heapq.heappush(self._pending, (deadline, self._seq, kind, payload))
        self.wake(deadline)

    # -- inputs ------------------------------------------------------------------

    def receive(self, key: tuple[str, str], value: Value, ts: int,
                kind: str = KIND_REPORT, tag: str = "") -> None:
        """Consume one delivered message on ``key``."""
        prev = self.db.get(key)
        self.db[key] = value
        if kind == KIND_SYNC:
            return
        if kind == KIND_EXPIRY:
            rule = self.rules.gated.get(tag)
            if rule is not None:
                self._fire_rule(rule, ts)
            return
        transitions = self.rules.on_key.get(key)
        if prev is None or transitions is None:
            return
        for move, rule in transitions(prev, value):
            if move is FIRE:
                self._fire_rule(rule, ts)
            elif move is START:
                timer = _NativeTimer(rule)
                self._timers[rule.id] = timer  # create or reset
                self._push(ts + rule.condition_timer.duration_ms, "timer", timer)  # type: ignore[union-attr]
            else:
                self._timers.pop(rule.id, None)

    def refresh(self, snapshot: dict[tuple[str, str], Value]) -> None:
        """A state-refresh (pull) response: states update, no events fire."""
        self.db.update(snapshot)

    def time_tick(self, ts: int) -> None:
        for rule in self.rules.at_minute.get(minute_of_day(ts), ()):
            self._fire_rule(rule, ts)

    def tick(self, now: int) -> None:
        """Issue due delayed actions and fire due native timers."""
        while self._pending and self._pending[0][0] <= now:
            deadline, _, kind, payload = heapq.heappop(self._pending)
            if kind == "action":
                assert isinstance(payload, Command)
                self.issued.append(payload)
            else:
                assert isinstance(payload, _NativeTimer)
                rule = payload.rule
                if self._timers.get(rule.id) is payload:
                    del self._timers[rule.id]
                    self._fire_rule(rule, deadline)

    # -- rule execution --------------------------------------------------------------

    def _state(self, key: tuple[str, str]) -> Optional[Value]:
        value = self.db.get(key)
        return self.read(key) if value is None else value

    def _fire_rule(self, rule: Rule, ts: int) -> None:
        if conditions_pass(rule, ts, self._state):
            self._execute_actions(rule, ts)

    def _execute_actions(self, rule: Rule, ts: int) -> None:
        for act in rule.actions:
            command = Command(act.device, act.attribute, act.value, ts + act.delay_ms, rule.id)
            if act.delay_ms:
                self._push(command.timestamp, "action", command)
            else:
                self.issued.append(command)
