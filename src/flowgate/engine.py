"""Policy execution engine: state databases, report methods, timers.

The engine is a single logical actor over one virtual clock. For every
incoming device event it updates the current-state database, runs the
policies whose trigger the event fired, user policies first, each block as
compiled, and merges their report decisions once into the minimized stream
it emits upstream. A second database remembers the last value reported for
each attribute; branches test it so the platform's view stays just
consistent enough to run its rules.

Emissions come in three kinds:

* ``report``  -- a regular event; the platform fires matching rules on it.
* ``expiry``  -- a timer-bundle report, tagged with its rule id; the platform
  fires exactly that rule (the forwarded copy had its timer stripped).
* ``sync``    -- a silent state update (check reports, diffKeep prefixes,
  consistency repairs); the platform stores the value but fires nothing,
  like a state-refresh response.

A numeric value the engine does not send as it is (a randomized trigger
report or check report, the prefix sync that re-aligns a stale value before
a numeric trigger's report, a repair) is drawn by ``model.Cells`` inside
the cell of the true value it stands for, over the cut points of every atom
on its key; so every rule and policy classifies it as it classifies the
true value.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from .compiler import CompiledCorpus
from .model import (
    KIND_EXPIRY,
    KIND_REPORT,
    KIND_SYNC,
    Cells,
    Constraint,
    ModelError,
    Operator,
    Rule,
    Transitions,
    Value,
    cut_points,
    guard_failure,
    minute_of_day,
    value_class,
)
from .platform_sim import FIRE
from .policy import Method, MethodCall, Policy, PolicyOrigin, ReportDecision


class EngineError(ModelError):
    """Configuration problem detected while executing policies."""


def _unseeded(key: tuple[str, str]) -> Value:
    raise EngineError(f"no state seeded for {key[0]}.{key[1]}")


@dataclass
class StateStore:
    """DB (true current states) and DB* (last values reported upstream).

    ``read`` gives the current state of a key kept out of DB, or None; a
    replay reads such keys off its trace. Unset, it raises for every key.
    """

    db: dict[tuple[str, str], Value] = field(default_factory=dict)
    db_star: dict[tuple[str, str], Value] = field(default_factory=dict)
    read: Callable[[tuple[str, str]], Optional[Value]] = _unseeded

    def current(self, key: tuple[str, str]) -> Value:
        value = self.db.get(key)
        if value is None:
            value = self.read(key)
        return _unseeded(key) if value is None else value

    def last_reported(self, key: tuple[str, str]) -> Value:
        if key not in self.db_star:
            raise EngineError(f"no reported state seeded for {key[0]}.{key[1]}")
        return self.db_star[key]


@dataclass(slots=True)
class TimerState:
    """A running timer: the start policy that armed it and the value it reports."""

    policy: Policy
    start_value: Value


class Emission(NamedTuple):
    """One message sent upstream to the platform; equal to the plain tuple of its fields."""

    device: str
    attribute: str
    value: Value
    timestamp: int
    kind: str = KIND_REPORT
    tag: str = ""                      # rule id for expiry reports
    provenance: tuple[str, ...] = ()

    def key(self) -> tuple[str, str]:
        return (self.device, self.attribute)


def _block_decision(store: StateStore, key: tuple[str, str], branch: Optional[Callable[[Value], bool]],
                    run: Optional[ReportDecision], otherwise: Optional[ReportDecision]
                    ) -> Optional[ReportDecision]:
    """A block's decision on ``key`` from its ``Choice``: ``run``, unless its branch fails on DB*."""
    if branch is None or branch(store.last_reported(key)):
        return run
    return otherwise


def _run_checks(policy: Policy, store: StateStore, clock: int) -> Optional[list[ReportDecision]]:
    """Fetch and check every CHECK block in order, then resolve them.

    Returns the blocks' report decisions, or ``None`` when a fetched state
    fails its check and the policy execution aborts.
    """
    if guard_failure(policy.guard, clock, store.db.get, store.read) is not None:
        return None
    decided = [_block_decision(store, *choice) for choice in policy.check_choices]
    return [d for d in decided if d is not None]


def evaluate_policy(
    key: tuple[str, str], policy: Policy, store: StateStore, clock: int
) -> list[ReportDecision]:
    """Run one policy on an event on ``key`` that fired its trigger; empty when a check aborts it.

    The caller has decided that the event fired the trigger (on an edge, as
    the platform would have fired on the raw stream) and has already stored
    the event's value in ``store.db``.
    """
    decisions = _run_checks(policy, store, clock)
    if decisions is None:
        return []
    d = _block_decision(store, key, *policy.trigger_choice[1:])
    if d is not None:   # a device wildcard's decision names the attribute ``*``
        decisions.append(d if d.attribute == key[1] else d._replace(attribute=key[1]))
    return decisions


def _merged(decisions: list[ReportDecision]) -> tuple[list[MethodCall], tuple[str, ...]]:
    """One key's ``decisions`` merged: their methods other than ``block``,
    and the ids of the policies that made them, in order, each once."""
    methods = [d.method for d in decisions if d.method.method is not Method.BLOCK]
    if len(decisions) == 1:
        return methods, decisions[0].provenance
    return methods, tuple(dict.fromkeys(p for d in decisions for p in d.provenance))


# A dispatch-table entry: (policy, trigger test or None, is a timer policy).
_Entry = tuple[Policy, Optional[Callable[[Value], bool]], bool]


def _repair_candidates(moves: Callable[..., tuple], prev: Value, value: Value) -> tuple[Rule, ...]:
    """The rules without history that a report from ``prev`` to ``value`` fires on the platform."""
    return tuple(rule for move, rule in moves(prev, value) if move is FIRE and not rule.uses_history)


def _fired(entries: list[_Entry], prev: Value, value: Value) -> tuple[tuple[Policy, bool], ...]:
    """Each ``(policy, is a timer policy)`` of ``entries`` whose trigger a
    change from ``prev`` to ``value`` fires, in entry order."""
    return tuple((policy, is_timer) for policy, test, is_timer in entries
                 if test is None or (test(value) and not test(prev)))


class PolicyEngine:
    """Executes a compiled corpus over an incoming event stream.

    ``_reported`` is the one interpreter of report methods: it gives the
    value that the trigger's report and every check report send; a
    trigger's diffKeep adds only a prefix before it. The engine keeps no
    deadlines of its own: ``schedule(when, work)`` is called for every
    delayed report (an ``Emission``) and every timer (a ``TimerState``) it
    schedules, and ``tick(when, work)`` runs that work when it falls due.
    Only diffKeep delays a report, and a newer event or a timer expiry on
    the key sends it first, so a key holds at most one pending report. A
    flushed report or a reset or stopped timer stays scheduled; its tick
    finds it no longer pending and does nothing. Repairs predict the
    platform from its own rule table, ``corpus.rules``: which rules a report
    or a clock instant fires there, and whether their conditions pass on
    the last-reported states.
    """

    def __init__(self, corpus: CompiledCorpus, seed: int = 0, *,
                 schedule: Callable[[int, Emission | TimerState], None]):
        self.corpus = corpus
        self.rules = corpus.rules
        self.schedule = schedule
        self.rng = random.Random(seed)
        self.store = StateStore(corpus.registry.initial_states(), corpus.registry.initial_states())
        self.timers: dict[str, TimerState] = {}   # running timers by id
        # The one delayed report not yet sent, per key.
        self._pending_reports: dict[tuple[str, str], Emission] = {}
        # Dispatch table: each (device, attribute) key -> one entry per policy
        # whose trigger can match an event on it, in corpus order (timer pushes
        # and decision order follow it). An entry holds the policy, its
        # trigger test and whether it is a timer policy; the test is None for
        # an ``any`` trigger, which every event on the key fires (a timer
        # policy starts or stops on an edge only, so it keeps its test). A
        # key's ``Transitions`` memo gives the entries that a change of its
        # value fires. A device wildcard covers every attribute of the
        # device; time triggers match clock instants, not events:
        # ``_clock_policies`` holds them by minute of day, in corpus order.
        entries: dict[tuple[str, str], list[_Entry]] = {}
        self._user_by_key: dict[tuple[str, str], list[Policy]] = {}
        self._clock_policies: dict[int, list[Policy]] = {}
        for policy in corpus.policies:
            m = policy.trigger_block.match
            if m.is_time:
                if m.operator is Operator.EQ:
                    self._clock_policies.setdefault(int(m.value), []).append(policy)  # type: ignore[arg-type]
                continue
            is_timer = bool(policy.timer_start or policy.timer_stop)
            test = None if m.operator is Operator.ANY and not is_timer else m.satisfied_by
            wildcard = m.attribute == "*"
            for attr in corpus.registry.devices[m.subject].attributes if wildcard else (m.attribute,):
                entries.setdefault((m.subject, attr), []).append((policy, test, is_timer))
                if policy.origin is PolicyOrigin.USER:
                    self._user_by_key.setdefault((m.subject, attr), []).append(policy)
        self.cells = corpus.cells   # numeric keys only
        self._dispatch: dict[tuple[str, str], Transitions] = {}
        for key, es in entries.items():
            numeric = key in self.cells
            cuts = cut_points(p.trigger_block.match for p, _, _ in es) if numeric else None
            self._dispatch[key] = Transitions(partial(_fired, es), cuts)
        self.trigger_keys = self._dispatch.keys()   # the keys some policy triggers on
        # Each key's repair candidates, memoized like the rule moves they filter.
        self._repair_candidates = {
            key: Transitions(partial(_repair_candidates, moves.derive), moves.cuts)
            for key, moves in self.rules.on_key.items()
        }
        self._prefixes: dict[tuple[tuple[str, str], Value, Value], list[Value]] = {}  # diffKeep prefixes

    # -- event processing ------------------------------------------------------

    def process_event(self, key: tuple[str, str], value: Value, ts: int) -> list[Emission]:
        """Update DB with the event ``value`` on ``key`` at ``ts``, run the
        policies whose trigger it fired, merge, emit."""
        db = self.store.db
        prev = db.get(key)
        if prev is None:
            raise EngineError(f"no state seeded for {key[0]}.{key[1]}")
        pending = self._pending_reports
        out = self._flush_key_pending(key, ts) if pending and key in pending else []
        db[key] = value
        transitions = self._dispatch.get(key)
        # Only an edge fires a trigger: the raw stream would not have fired either.
        fired = () if transitions is None else transitions(prev, value)
        if not fired:
            return out

        decisions: list[ReportDecision] = []
        for policy, is_timer in fired:
            if is_timer:
                self._apply_timer_policy(policy, value, ts)
                continue
            decisions.extend(evaluate_policy(key, policy, self.store, ts))

        # Each user policy on the key ran the checks _up_suppresses runs and
        # decides whenever they pass: nothing decided means no user
        # disposition either, so the event stays blocked.
        if decisions:
            out.extend(self._merge_and_emit(key, value, prev, decisions, ts))
        return out

    def tick(self, now: int, work: Emission | TimerState) -> list[Emission]:
        """Run one piece of scheduled work due at ``now``: send a delayed
        report its key still holds as pending, or fire a timer still running."""
        if isinstance(work, TimerState):
            timer_id = work.policy.timer_start
            if self.timers.get(timer_id) is not work:
                return []
            del self.timers[timer_id]
            return self._run_timer_callback(work, now)
        key = work.key()
        if self._pending_reports.get(key) is not work:
            return []
        del self._pending_reports[key]
        return [self._emit(work)]

    def time_tick(self, target_ts: int) -> list[Emission]:
        """Evaluate time-triggered policies for the clock instant ``target_ts``."""
        minute = minute_of_day(target_ts)
        decisions: list[ReportDecision] = []
        for policy in self._clock_policies.get(minute, ()):
            decisions.extend(_run_checks(policy, self.store, target_ts) or ())
        out = self._emit_sync_decisions(decisions, target_ts)
        out.extend(self._repairs(self.rules.at_minute.get(minute, ()), target_ts))
        return out

    # -- timers -----------------------------------------------------------------

    def _apply_timer_policy(self, policy: Policy, value: Value, ts: int) -> None:
        """Start (or reset) or stop the timer of a policy whose trigger ``value`` fired at ``ts``."""
        if policy.timer_start:
            timer = TimerState(policy, value)
            self.timers[policy.timer_start] = timer  # create or reset
            self.schedule(ts + policy.timer_duration_ms, timer)
        else:
            self.timers.pop(policy.timer_stop, None)

    def _run_timer_callback(self, timer: TimerState, now: int) -> list[Emission]:
        """Re-check conditions at expiry, then report the timer-starting event."""
        policy = timer.policy
        decisions = _run_checks(policy, self.store, now)
        if decisions is None:
            return []
        key = policy.trigger_block.match.key()
        out = self._flush_key_pending(key, now)
        if self._up_suppresses(key, now):
            return out  # a user policy withholds the expiry and the syncs it needs
        out.extend(self._emit_sync_decisions(decisions, now))
        out.append(
            self._emit(
                Emission(
                    device=key[0],
                    attribute=key[1],
                    value=timer.start_value,
                    timestamp=now,
                    kind=KIND_EXPIRY,
                    tag=policy.source_id,
                    provenance=(policy.id,),
                )
            )
        )
        return out

    # -- user-policy precedence ---------------------------------------------------

    def _up_suppresses(self, key: tuple[str, str], clock: int) -> bool:
        """Whether the first user policy on ``key`` whose checks pass blocks it."""
        for policy in self._user_by_key.get(key, ()):
            if _run_checks(policy, self.store, clock) is None:
                continue
            action = policy.trigger_block.run_action
            assert action is not None
            return action.method is Method.BLOCK
        return False

    # -- merging and emission -------------------------------------------------------

    def _merge_and_emit(
        self,
        ekey: tuple[str, str],
        current: Value,
        prev: Value,
        decisions: list[ReportDecision],
        now: int,
    ) -> list[Emission]:
        # User policies come first and decide whenever their checks pass, so
        # a user disposition is the first decision. A block withholds the
        # report and the check reports sent for it; a keep is planned too.
        first = decisions[0]
        if first.origin is PolicyOrigin.USER and first.method.method is Method.BLOCK:
            return []

        # 1. Check reports (silent syncs) for every non-trigger attribute.
        device, attribute = ekey
        checks = [d for d in decisions if d.attribute != attribute or d.device != device]
        out = self._emit_sync_decisions(checks, now) if checks else []
        if checks:
            decisions = [d for d in decisions if d.attribute == attribute and d.device == device]

        # 2. The trigger report plan (prefix sync + report), not yet emitted.
        trigger_plan, trig_prov = self._trigger_plan(ekey, current, prev, decisions)

        # 3. Consistency repairs computed against the planned platform view.
        out.extend(self._consistency_repairs(ekey, trigger_plan, now))

        # 4. Emit the trigger plan; a delayed report is scheduled and pending.
        for value, delay, kind in trigger_plan:
            emission = Emission(ekey[0], ekey[1], value, now + delay, kind, "", trig_prov)
            if delay > 0:
                self._pending_reports[ekey] = emission
                self.schedule(now + delay, emission)
            else:
                out.append(self._emit(emission))
        return out

    def _trigger_plan(
        self,
        key: tuple[str, str],
        current: Value,
        prev: Value,
        decisions: list[ReportDecision],
    ) -> tuple[list[tuple[Value, int, str]], tuple[str, ...]]:
        """The (value, delay_ms, kind) items that report the event from
        ``prev`` to ``current`` on ``key`` under its ``decisions``, and their
        provenance. A diffKeep sends a silent prefix from which a change to
        ``current`` fires what the event fired (for a ``!= v`` trigger, only
        ``v``), then ``current`` after its delay. A number follows a prefix
        sync when the platform's stored value would mask (or fake) the
        crossing it makes."""
        methods, provenance = _merged(decisions)
        if not methods:
            return [], provenance
        diff = next((m for m in methods if m.method is Method.DIFF_KEEP), None)
        if diff is not None:
            others = self._prefixes.get((key, prev, current))
            if others is None:
                others = [v for v in self.corpus.registry.lookup(*key).values if v != current]
                if not others:
                    raise EngineError(f"diffKeep has no other value of {key[0]}.{key[1]} to send first")
                fired = self._dispatch[key]
                others = self._prefixes[key, prev, current] = [
                    p for p in others if fired(p, current) == fired(prev, current)]
            prefix = others[0] if len(others) == 1 else others[self.rng.randrange(len(others))]
            return [(prefix, 0, KIND_SYNC), (current, diff.delay_ms, KIND_REPORT)], provenance
        report = (self._reported(key, methods, current), 0, KIND_REPORT)
        cells = self.cells.get(key)
        if cells is None:
            return [report], provenance
        return [*self._prefix_sync(key, cells, prev), report], provenance

    def _reported(self, key: tuple[str, str], methods: list[MethodCall], current: Value) -> Value:
        """The value sent for ``current`` on ``key`` under the merged report
        methods ``methods``, none of them ``block``: ``current`` under a keep
        or diffKeep, else one value each randomize admits. On a numeric key
        that is a value drawn in ``current``'s cell, which lies inside every
        randomize: each comes from an atom that ``current`` satisfies."""
        if any(m.method is not Method.RANDOMIZE for m in methods):
            return current
        cells = self.cells.get(key)
        if cells is not None:
            return cells.sample(current, self.rng)  # type: ignore[arg-type]
        return self._randomized(methods, current)

    def _randomized(self, methods: list[MethodCall], current: Value) -> Value:
        """One member that every randomize of ``methods`` admits, or ``current`` if none does."""
        members = set(methods[0].params).intersection(*(m.params for m in methods[1:]))
        if not members:
            return current  # no common obfuscation: keep wins
        ordered = sorted(members)
        return ordered[self.rng.randrange(len(ordered))]

    # -- numeric trigger alignment ---------------------------------------------------

    def _prefix_sync(
        self, key: tuple[str, str], cells: Cells, prev: Value
    ) -> list[tuple[Value, int, str]]:
        """A silent sync drawn in ``prev``'s cell, when the platform's stored
        value lies in another threshold cell than ``prev``: a stale report
        would mask (or fake) the crossing the trigger report makes."""
        thresholds = self.rules.thresholds.get(key, ())
        star = self.store.last_reported(key)
        if value_class(thresholds, star) == value_class(thresholds, prev):  # type: ignore[arg-type]
            return []
        return [(cells.sample(prev, self.rng), 0, KIND_SYNC)]  # type: ignore[arg-type]

    # -- consistency repairs ------------------------------------------------------------

    def _consistency_repairs(
        self,
        key: tuple[str, str],
        trigger_plan: list[tuple[Value, int, str]],
        now: int,
    ) -> list[Emission]:
        """Silent repairs so stale platform state cannot fire unsanctioned rules.

        For every forwarded rule without history that the planned trigger
        report is about to fire on the platform: if a device condition fails
        on true state but would pass there, report an obfuscated value of
        that condition so the platform's check fails too. A rule whose policy
        passed its checks here has no failing condition. Redundancy-only
        suppressions are left alone; the raw pipeline issues the same
        (redundant) command.
        """
        candidates = self._repair_candidates.get(key)
        if candidates is None:
            return []
        repairs: list[Emission] = []
        platform_prev = self.store.last_reported(key)
        for value, _, kind in trigger_plan:
            if kind == KIND_REPORT:
                repairs.extend(self._repairs(candidates(platform_prev, value), now, (key, value)))
            platform_prev = value
        return repairs

    def _repairs(self, rules: Iterable[Rule], now: int,
                 report: Optional[tuple[tuple[str, str], Value]] = None) -> Iterator[Emission]:
        """One repair per rule of ``rules`` that true state stops but whose
        conditions pass on DB*, with the ``(key, value)`` ``report`` that
        fires it stored first, as the platform stores it."""
        store = self.store
        get = store.db_star.get if report is None else dict((report,)).get
        for rule in rules:   # most rules fail on DB*, so that is tested first
            if guard_failure(rule.guard, now, get, store.last_reported) is None:
                failing = self._first_repairable_condition(rule)
                if failing is not None:
                    yield self._repair_emission(failing, now)

    def _first_repairable_condition(self, rule: Rule) -> Optional[Constraint]:
        """The first device condition of ``rule`` that true state fails; the clock never goes stale."""
        failing = guard_failure(rule.guard, None, self.store.db.get, self.store.read)
        return None if failing is None else rule.condition[failing]

    def _repair_emission(self, c: Constraint, now: int) -> Emission:
        """A sync of ``c``'s key that fails ``c`` as its true value does: a
        value drawn in that value's cell, or a member that fails ``c``."""
        current = self.store.current(c.key())
        cells = self.cells.get(c.key())
        value: Value
        if cells is not None:
            value = cells.sample(current, self.rng)  # type: ignore[arg-type]
        else:
            members = self.corpus.registry.lookup(*c.key()).values
            violating = [v for v in members if not c.satisfied_by(v)]
            value = violating[self.rng.randrange(len(violating))] if len(violating) > 1 else current
        return self._emit(
            Emission(c.subject, c.attribute, value, now, KIND_SYNC, provenance=("repair",))
        )

    # -- low level ------------------------------------------------------------------------

    def _emit_sync_decisions(self, decisions: list[ReportDecision], now: int) -> list[Emission]:
        """Emit merged check reports as silent syncs, one key at a time in key order."""
        by_key: dict[tuple[str, str], list[ReportDecision]] = {}
        for d in decisions:
            by_key.setdefault((d.device, d.attribute), []).append(d)
        out: list[Emission] = []
        for key in sorted(by_key):
            if self._up_suppresses(key, now):
                continue
            methods, provenance = _merged(by_key[key])
            if not methods:
                continue
            value = self._reported(key, methods, self.store.current(key))
            if value == self.store.db_star.get(key):
                continue   # the platform holds it already, or will first
            out.append(self._emit(Emission(key[0], key[1], value, now, KIND_SYNC,
                                           provenance=provenance)))
        return out

    def _flush_key_pending(self, key: tuple[str, str], now: int) -> list[Emission]:
        """Send the not-yet-due delayed report on ``key``, if any, before a newer value lands."""
        pending = self._pending_reports.pop(key, None)
        return [] if pending is None else [self._emit(pending._replace(timestamp=now))]

    def _emit(self, emission: Emission) -> Emission:
        self.store.db_star[emission.device, emission.attribute] = emission.value
        return emission
