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
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Optional

from .model import (
    KIND_EXPIRY,
    KIND_REPORT,
    KIND_SYNC,
    Command,
    Registry,
    Rule,
    Value,
    minute_of_day,
)


@dataclass
class _NativeTimer:
    rule: Rule


class SimulatedPlatform:
    """Executes automation rules over received events and its own clock."""

    def __init__(
        self,
        rules: list[Rule],
        registry: Registry,
        tag_gated: Optional[set[str]] = None,
        *,
        wake: Callable[[int], None],
    ):
        self.wake = wake
        self.tag_gated = set(tag_gated or ())
        self.db: dict[tuple[str, str], Value] = registry.initial_states()
        # The state of a condition key kept out of ``db``, or None; the raw
        # replay reads such keys off its trace. By default nothing is read.
        self.read: Callable[[tuple[str, str]], Optional[Value]] = {}.get
        self.issued: list[Command] = []
        self._seq = 0
        # Delayed actions and native rule timers share one deadline heap.
        self._pending: list[tuple[int, int, str, object]] = []
        self._timers: dict[str, _NativeTimer] = {}   # running timers by rule id
        self._by_key: dict[tuple[str, str], list[Rule]] = {}
        for rule in rules:
            if not rule.trigger.is_time:
                self._by_key.setdefault(rule.trigger.key(), []).append(rule)
        self._time_rules = [r for r in rules if r.trigger.is_time]

    # -- scheduling ------------------------------------------------------------

    def time_trigger_minutes(self) -> list[int]:
        return sorted({int(r.trigger.value) for r in self._time_rules})  # type: ignore[arg-type]

    def _push(self, deadline: int, kind: str, payload: object) -> None:
        self._seq += 1
        heapq.heappush(self._pending, (deadline, self._seq, kind, payload))
        self.wake(deadline)

    # -- inputs ------------------------------------------------------------------

    def receive(self, device: str, attribute: str, value: Value, ts: int,
                kind: str = KIND_REPORT, tag: str = "") -> None:
        """Consume one delivered message."""
        key = (device, attribute)
        prev = self.db.get(key)
        self.db[key] = value
        if kind == KIND_SYNC:
            return
        if kind == KIND_EXPIRY:
            for rule in self._by_key.get(key, ()):
                if rule.id == tag and rule.trigger.satisfied_by(value):
                    self._fire_rule(rule, ts)
            return
        if prev is None:
            return
        for rule in self._by_key.get(key, ()):
            if rule.id in self.tag_gated:
                continue  # fires only on its timer-bundle expiry report
            if rule.condition_timer is not None:
                self._drive_native_timer(rule, value, prev, ts)
            elif rule.trigger.fires(value, prev):
                self._fire_rule(rule, ts)

    def refresh(self, snapshot: dict[tuple[str, str], Value]) -> None:
        """A state-refresh (pull) response: states update, no events fire."""
        self.db.update(snapshot)

    def time_tick(self, ts: int) -> None:
        minute = minute_of_day(ts)
        for rule in self._time_rules:
            if int(rule.trigger.value) == minute:  # type: ignore[arg-type]
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
                    if self._conditions_pass(rule, deadline):
                        self._execute_actions(rule, deadline)

    # -- rule execution --------------------------------------------------------------

    def _drive_native_timer(self, rule: Rule, value: Value, prev: Value, ts: int) -> None:
        watched = rule.condition_timer.watched  # type: ignore[union-attr]
        if watched.fires(value, prev):
            timer = _NativeTimer(rule)
            self._timers[rule.id] = timer  # create or reset
            self._push(ts + rule.condition_timer.duration_ms, "timer", timer)  # type: ignore[union-attr]
        elif watched.satisfied_by(prev) and not watched.satisfied_by(value):
            self._timers.pop(rule.id, None)

    def _fire_rule(self, rule: Rule, ts: int) -> None:
        if rule.condition_timer is not None and rule.id not in self.tag_gated:
            return  # held-duration rules go through their native timer
        if self._conditions_pass(rule, ts):
            self._execute_actions(rule, ts)

    def _conditions_pass(self, rule: Rule, ts: int) -> bool:
        for c in rule.condition:
            value = minute_of_day(ts) if c.is_time else self.db.get(c.key())
            if value is None:
                value = self.read(c.key())
            if value is None or not c.satisfied_by(value):
                return False
        return True

    def _execute_actions(self, rule: Rule, ts: int) -> None:
        for act in rule.actions:
            command = Command(act.device, act.attribute, act.value, ts + act.delay_ms, rule.id)
            if act.delay_ms:
                self._push(command.timestamp, "action", command)
            else:
                self.issued.append(command)
