
import math
from collections import Counter

import hypothesis
import pytest
from hypothesis import example, given, settings, strategies as st

import flowgate.engine as engine_module
from flowgate.compiler import DIFFKEEP_DELAY_DEFAULT_MS, compile_corpus, derive_policy
from flowgate.dsl import parse_rule, parse_rules
from flowgate.engine import (
    KIND_EXPIRY,
    KIND_REPORT,
    KIND_SYNC,
    Emission,
    EngineError,
    PolicyEngine,
    TimerState,
    evaluate_policy,
)
from flowgate.model import AttributeKind, Event, Operator, cut_points, minute_of_day
from flowgate.policy import Method, MethodCall, PolicyOrigin, UserPolicySpec
from flowgate.scenario import parse_user_policies
from tests.conftest import Deadlines, run_due


def _engine(mini_registry, rules_text, seed=0, ups=()):
    rules = parse_rules(rules_text, mini_registry)
    corpus = compile_corpus(rules, list(ups), mini_registry)
    return PolicyEngine(corpus, seed=seed, schedule=Deadlines())


def _set(engine, db=None, db_star=None):
    for k, v in (db or {}).items():
        engine.store.db[k] = v
    for k, v in (db_star or {}).items():
        engine.store.db_star[k] = v


R1 = "r1: when ps1.presence == present if ts1.temperature > 86 then f1.switch := on"


# ---------------------------------------------------------------------------
# evaluate_policy: the worked examples
# ---------------------------------------------------------------------------

def test_evaluate_r1_reports_obfuscated_check_then_trigger(mini_registry, r1):
    policy = derive_policy(r1, mini_registry)
    engine = _engine(mini_registry, R1)
    _set(engine,
         db={("ts1", "temperature"): 90.0, ("f1", "switch"): "off",
             ("ps1", "presence"): "present"},
         db_star={("ts1", "temperature"): 70.0, ("ps1", "presence"): "not-present"})
    decisions = evaluate_policy(("ps1", "presence"), policy, engine.store, 1000)
    assert [d.key() for d in decisions] == [("ts1", "temperature"), ("ps1", "presence")]
    assert decisions[0].method.method is Method.RANDOMIZE
    assert decisions[1].method.method is Method.KEEP
    assert decisions[1].is_trigger


def test_evaluate_r1_aborts_when_fan_already_on(mini_registry, r1):
    policy = derive_policy(r1, mini_registry)
    engine = _engine(mini_registry, R1)
    _set(engine, db={("ts1", "temperature"): 90.0, ("f1", "switch"): "on",
                     ("ps1", "presence"): "present"})
    assert evaluate_policy(("ps1", "presence"), policy, engine.store, 1000) == []


def test_evaluate_r1_blocks_temp_when_platform_already_satisfied(mini_registry, r1):
    policy = derive_policy(r1, mini_registry)
    engine = _engine(mini_registry, R1)
    _set(engine,
         db={("ts1", "temperature"): 90.0, ("f1", "switch"): "off",
             ("ps1", "presence"): "present"},
         db_star={("ts1", "temperature"): 90.0, ("ps1", "presence"): "present"})
    decisions = evaluate_policy(("ps1", "presence"), policy, engine.store, 1000)
    assert decisions[0].method.method is Method.BLOCK       # platform already > 86
    assert decisions[1].method.method is Method.DIFF_KEEP   # alternation must be restored


def test_evaluate_unseeded_state_is_configuration_error(mini_registry, r1):
    policy = derive_policy(r1, mini_registry)
    engine = _engine(mini_registry, R1)
    del engine.store.db[("ts1", "temperature")]
    with pytest.raises(EngineError):
        evaluate_policy(("ps1", "presence"), policy, engine.store, 0)


# ---------------------------------------------------------------------------
# _plan: the worked examples
# ---------------------------------------------------------------------------

def test_apply_diffkeep_emits_complement_then_value(mini_registry):
    engine = _engine(mini_registry, R1)
    plan = engine._plan(("ps1", "presence"), [MethodCall(Method.DIFF_KEEP, ("present",), 300)],
                        "present", KIND_REPORT)
    assert plan == [("not-present", 0, KIND_SYNC), ("present", 300, KIND_REPORT)]


def test_apply_keep_is_identity(mini_registry):
    engine = _engine(mini_registry, R1)
    assert engine._plan(("mode1", "mode"), [MethodCall(Method.KEEP)], "X", KIND_REPORT) == [
        ("X", 0, KIND_REPORT)
    ]
    # The platform already holds a temperature above 86, so r1's check
    # block()s it: only the trigger is reported.
    _set(engine, db={("ts1", "temperature"): 90.0}, db_star={("ts1", "temperature"): 90.0})
    out = engine.process_event(("ps1", "presence"), "present", 1000)
    assert [(e.key(), e.kind) for e in out] == [(("ps1", "presence"), KIND_REPORT)]


def test_apply_diffkeep_rejects_numeric(mini_registry):
    engine = _engine(mini_registry, R1)
    with pytest.raises(EngineError):
        engine._plan(("ts1", "temperature"), [MethodCall(Method.DIFF_KEEP, (90.0,))], 90.0,
                     KIND_REPORT)


def test_apply_randomize_respects_interval(mini_registry):
    engine = _engine(mini_registry, R1, seed=1)
    call = MethodCall(Method.RANDOMIZE, (86.0, 10000.0))
    for _ in range(1000):
        [(v, _, _)] = engine._plan(("ts1", "temperature"), [call], 90.0, KIND_REPORT)
        assert 86.0 <= v <= 10000.0


# ---------------------------------------------------------------------------
# process_event: merge semantics
# ---------------------------------------------------------------------------

def test_default_deny_unmatched_events(mini_registry):
    engine = _engine(mini_registry, R1)
    assert engine.process_event(("am1", "humidity"), 60.0, 1000) == []
    assert engine.process_event(("mo1", "motion"), "active", 2000) == []


def test_up_block_overrides_ap_emit(mini_registry):
    from flowgate.policy import UserPolicySpec

    spec = UserPolicySpec(id="up1", style="blacklist", target_device="ps1",
                          target_attribute="presence")
    rules = parse_rules(R1, mini_registry)
    corpus = compile_corpus(rules, [spec], mini_registry)
    engine = PolicyEngine(corpus, seed=0, schedule=Deadlines())
    _set(engine, db={("ts1", "temperature"): 90.0})
    out = engine.process_event(("ps1", "presence"), "present", 1000)
    assert [e for e in out if e.key() == ("ps1", "presence")] == []


@pytest.mark.parametrize("rule, device, attribute, value", [
    (R1, "ps1", "presence", "present"),
    ("rt: when mo1.motion == inactive for 100 if ts1.temperature > 86 then sl1.switch := off",
     "mo1", "motion", "inactive"),
], ids=["event", "timer-expiry"])
def test_blocked_trigger_sends_no_check_report(mini_registry, rule, device, attribute, value):
    # The trigger fires and its checks pass against a hidden 90, but a user
    # policy blocks the trigger: the temperature sync sent for it would be
    # consumed by nothing, so neither the event nor the timer expiry sends it.
    spec = UserPolicySpec(id="up1", style="blacklist", target_device=device,
                          target_attribute=attribute)
    engine = _engine(mini_registry, rule, ups=[spec])
    _set(engine, db={("ts1", "temperature"): 90.0, ("sl1", "switch"): "on",
                     ("mo1", "motion"): "active"})
    assert engine.process_event((device, attribute), value, 1000) == []
    assert run_due(engine, 10**6) == []


def test_randomize_over_members_syncs_another_admitted_member(mini_registry):
    # The platform holds mode "away", which fails the condition the true
    # "home" passes; the check report is a mode other than "away".
    synced = set()
    for seed in range(8):
        engine = _engine(mini_registry, "rv: when ps1.presence == present "
                                        "if mode1.mode != away then f1.switch := on", seed=seed)
        _set(engine, db_star={("mode1", "mode"): "away"})
        out = engine.process_event(("ps1", "presence"), "present", 1000)
        [sync] = [e for e in out if e.key() == ("mode1", "mode")]
        assert sync.kind == KIND_SYNC
        synced.add(sync.value)
    assert synced == {"home", "vacation"}


def test_randomize_merge_picks_a_common_member(mini_registry):
    engine = _engine(mini_registry, R1)
    methods = [MethodCall(Method.RANDOMIZE, ("home", "vacation")),
               MethodCall(Method.RANDOMIZE, ("away", "vacation"))]
    assert engine._plan(("mode1", "mode"), methods, "home", KIND_SYNC) == [
        ("vacation", 0, KIND_SYNC)
    ]


@pytest.mark.parametrize("params, current", [
    ((("home", "away"), ("vacation", "party")), "home"),   # no common member
])
def test_randomize_merge_without_common_value_keeps_current(mini_registry, params, current):
    engine = _engine(mini_registry, R1)
    methods = [MethodCall(Method.RANDOMIZE, p) for p in params]
    assert engine._randomized(methods, current) == current


def test_two_randomize_ranges_intersect(mini_registry):
    engine = _engine(
        mini_registry,
        "ra: when ts1.temperature > 86 then f1.switch := on\n"
        "rb: when ts1.temperature > 90 then sl1.switch := on",
        seed=5,
    )
    out = engine.process_event(("ts1", "temperature"), 95.0, 1000)
    reports = [e for e in out if e.kind == KIND_REPORT]
    assert len(reports) == 1
    assert 90.0 < float(reports[0].value) <= 10000.0
    # Both platform-side checks re-evaluate true on the emitted value.
    assert float(reports[0].value) > 86.0


def test_emission_values_within_bounds_and_obfuscated(mini_registry):
    engine = _engine(mini_registry, R1, seed=9)
    _set(engine, db={("ts1", "temperature"): 90.0},
         db_star={("ts1", "temperature"): 70.0})
    out = engine.process_event(("ps1", "presence"), "present", 1000)
    sync = next(e for e in out if e.key() == ("ts1", "temperature"))
    assert sync.kind == KIND_SYNC
    assert 86.0 < float(sync.value) <= 10000.0
    assert float(sync.value) != 90.0  # the true reading stays hidden


# ---------------------------------------------------------------------------
# what each numeric sampler discloses: a value in the true value's cell
# ---------------------------------------------------------------------------

# Cuts on ts1.temperature at 40, 86, 88 and 90; the mode of mode1 is read too.
CELL_RULES = "\n".join([
    R1,
    "rn: when ts1.temperature > 90 then sl1.switch := on",
    "ri: when ts1.temperature in 40..88 if ps1.presence == present then sl1.switch := off",
    "rb: when mo1.motion == active if ts1.temperature > 86 then sl1.switch := on",
    "rm: when mo1.motion == active if mode1.mode == home then f1.switch := off",
])
TEMPERATURE = ("ts1", "temperature")
WHITELIST_MOTION = UserPolicySpec(id="upw", style="whitelist", target_device="mo1",
                                  target_attribute="motion")


def _disclosed(mini_registry, db, db_star, event, seeds=range(40)):
    """Per seed, the emissions of ``event`` after DB and DB* are set."""
    out = []
    for seed in seeds:
        engine = _engine(mini_registry, CELL_RULES, seed=seed, ups=[WHITELIST_MOTION])
        _set(engine, db=db, db_star=db_star)
        out.append((engine, engine.process_event(*event)))
    return out


def test_cells_cover_every_cut_point_on_the_key(mini_registry):
    engine = _engine(mini_registry, CELL_RULES)
    assert engine.cells[TEMPERATURE].cuts == (40.0, 86.0, 88.0, 90.0)
    assert engine.cells[("am1", "humidity")].cuts == ()


@pytest.mark.parametrize("star", [70.0, 95.0], ids=["report", "stale-report"])
def test_numeric_trigger_report_lies_in_the_true_cell(mini_registry, star):
    # From 85 to 95, rn's trigger fires. With 70 on the platform its branch
    # randomizes; with a stale 95 there it blocks, and the crossing is still
    # reported, after a prefix sync drawn in the cell of 85.
    runs = _disclosed(mini_registry, {TEMPERATURE: 85.0}, {TEMPERATURE: star},
                      (TEMPERATURE, 95.0, 1000))
    for engine, out in runs:
        cells = engine.cells[TEMPERATURE]
        *prefix, report = [e for e in out if e.key() == TEMPERATURE]
        assert report.kind == KIND_REPORT and cells.cell(report.value) == cells.cell(95.0)
        assert report.value != 95.0
        assert [cells.cell(e.value) for e in prefix] == ([cells.cell(85.0)] if star > 90 else [])
        assert all(e.kind == KIND_SYNC and e.value != 85.0 for e in prefix)


def test_check_sync_lies_in_the_true_cell(mini_registry):
    # r1's check passes on the true 87; the platform holds 70, so it is synced.
    runs = _disclosed(mini_registry, {TEMPERATURE: 87.0}, {TEMPERATURE: 70.0},
                      (("ps1", "presence"), "present", 1000))
    for engine, out in runs:
        cells = engine.cells[TEMPERATURE]
        [sync] = [e for e in out if e.key() == TEMPERATURE]
        assert sync.kind == KIND_SYNC and cells.cell(sync.value) == cells.cell(87.0)
        assert 86.0 < sync.value < 88.0 and sync.value != 87.0


@pytest.mark.parametrize("true", [80.0, 86.0], ids=["gap", "cut"])
def test_numeric_repair_violates_its_condition_within_the_true_cell(mini_registry, true):
    # The whitelisted motion fires rb on the platform's stale 90; the true
    # temperature fails rb's condition, so the repair must fail it too.
    runs = _disclosed(mini_registry, {TEMPERATURE: true}, {TEMPERATURE: 90.0},
                      (("mo1", "motion"), "active", 1000))
    for engine, out in runs:
        cells = engine.cells[TEMPERATURE]
        [repair] = [e for e in out if e.provenance == ("repair",)]
        assert repair.key() == TEMPERATURE and not repair.value > 86.0
        assert cells.cell(repair.value) == cells.cell(true)
        assert (repair.value == true) == (true == 86.0)   # a gap never discloses the truth


@pytest.mark.parametrize("condition, violating", [
    ("mode1.mode == home", {"away", "vacation"}),
    ("mode1.mode != away", {"away"}),
], ids=["two-violate", "one-violates"])
def test_enumerated_repair_draws_among_the_violating_members(mini_registry, condition,
                                                             violating):
    # The true mode is away, the platform's stale copy home.
    rules = f"rm: when mo1.motion == active if {condition} then f1.switch := off"
    sent = set()
    for seed in range(40):
        engine = _engine(mini_registry, rules, seed=seed, ups=[WHITELIST_MOTION])
        _set(engine, db={("mode1", "mode"): "away"}, db_star={("mode1", "mode"): "home"})
        out = engine.process_event(("mo1", "motion"), "active", 1000)
        [repair] = [e for e in out if e.provenance == ("repair",)]
        assert repair.key() == ("mode1", "mode")
        sent.add(repair.value)
    assert sent == violating


# ---------------------------------------------------------------------------
# timers and ticks
# ---------------------------------------------------------------------------

TIMER = "rt: when mo1.motion == inactive for 300000 then sl1.switch := off"


def test_timer_fires_after_uninterrupted_duration(mini_registry):
    engine = _engine(mini_registry, TIMER)
    _set(engine, db={("sl1", "switch"): "on"})
    engine.process_event(("mo1", "motion"), "active", 1000)
    assert engine.process_event(("mo1", "motion"), "inactive", 10_000) == []
    assert run_due(engine, 10_000 + 299_999) == []
    out = run_due(engine, 10_000 + 300_000)
    assert len(out) == 1
    assert out[0].kind == KIND_EXPIRY and out[0].tag == "rt"
    assert out[0].value == "inactive"


def test_timer_cancelled_by_counter_edge(mini_registry):
    engine = _engine(mini_registry, TIMER)
    engine.process_event(("mo1", "motion"), "active", 1000)
    engine.process_event(("mo1", "motion"), "inactive", 10_000)
    engine.process_event(("mo1", "motion"), "active", 70_000)  # within 5 minutes
    assert run_due(engine, 10_000 + 300_000) == []


def test_zero_duration_timer_fires_immediately(mini_registry):
    engine = _engine(mini_registry,
                     "rz: when mo1.motion == inactive for 0 then sl1.switch := off")
    _set(engine, db={("sl1", "switch"): "on"})
    engine.process_event(("mo1", "motion"), "active", 1000)
    engine.process_event(("mo1", "motion"), "inactive", 2000)
    out = run_due(engine, 2000)
    assert [e.kind for e in out] == [KIND_EXPIRY]


def test_diffkeep_pending_flushed_at_deadline(mini_registry):
    engine = _engine(mini_registry, R1)
    _set(engine,
         db={("ts1", "temperature"): 90.0, ("f1", "switch"): "off"},
         db_star={("ts1", "temperature"): 90.0, ("ps1", "presence"): "present"})
    out = engine.process_event(("ps1", "presence"), "present", 1000)
    assert [e.kind for e in out] == [KIND_SYNC]       # the complement, immediately
    assert run_due(engine, 1299) == []
    flushed = run_due(engine, 1300)
    assert [(e.value, e.kind) for e in flushed] == [("present", KIND_REPORT)]


def test_diffkeep_pending_flushed_by_newer_event_on_key(mini_registry):
    engine = _engine(mini_registry, R1)
    _set(engine,
         db={("ts1", "temperature"): 90.0, ("f1", "switch"): "off"},
         db_star={("ts1", "temperature"): 90.0, ("ps1", "presence"): "present"})
    engine.process_event(("ps1", "presence"), "present", 1000)
    assert engine.process_event(("am1", "humidity"), 60.0, 1100) == []
    out = engine.process_event(("ps1", "presence"), "not-present", 1200)
    assert [(e.value, e.kind, e.timestamp) for e in out] == [("present", KIND_REPORT, 1200)]
    assert run_due(engine, 1300) == []


def test_timer_expiry_flushes_pending_report_on_its_key(mini_registry):
    # ra diffKeeps the inactive edge (its report is due at 1300) and rt's
    # timer on the same key expires at 1100: the report goes first.
    text = ("ra: when mo1.motion == inactive then sl1.switch := on\n"
            "rt: when mo1.motion == inactive for 100 then f1.switch := on")
    engine = _engine(mini_registry, text)
    engine.process_event(("mo1", "motion"), "active", 500)
    out = engine.process_event(("mo1", "motion"), "inactive", 1000)
    assert [(e.value, e.kind) for e in out] == [("active", KIND_SYNC)]
    out = run_due(engine, 1100)
    assert [(e.value, e.kind, e.timestamp, e.tag) for e in out] == [
        ("inactive", KIND_REPORT, 1100, ""), ("inactive", KIND_EXPIRY, 1100, "rt"),
    ]
    assert run_due(engine, 10**6) == []
    # The full-scan reference flushes its own pending store at the expiry too.
    steps = [(("mo1", "motion"), "active", 500), (("mo1", "motion"), "inactive", 500)]
    rules = parse_rules(text, mini_registry)
    assert _dispatch_steps(engine.corpus, rules, steps, seed=0)["flushes"] == 0


def test_two_timers_same_deadline_fire_in_creation_order(mini_registry):
    engine = _engine(
        mini_registry,
        "ra: when mo1.motion == inactive for 60000 then sl1.switch := off\n"
        "rb: when am1.motion == inactive for 60000 then f1.switch := off",
    )
    _set(engine, db={("mo1", "motion"): "active", ("am1", "motion"): "active",
                     ("sl1", "switch"): "on", ("f1", "switch"): "on"})
    engine.process_event(("mo1", "motion"), "inactive", 1000)
    engine.process_event(("am1", "motion"), "inactive", 1000)
    out = run_due(engine, 61_000)
    assert [e.tag for e in out] == ["ra", "rb"]


def test_timers_hold_only_running_timers(mini_registry):
    engine = _engine(mini_registry, TIMER)
    _set(engine, db={("sl1", "switch"): "on"})
    engine.process_event(("mo1", "motion"), "active", 1000)
    engine.process_event(("mo1", "motion"), "inactive", 10_000)
    timer = engine.timers["rt"]
    assert engine.timers == {"rt": timer}
    assert (timer.policy.id, timer.start_value) == ("ap:rt:start", "inactive")
    engine.process_event(("mo1", "motion"), "active", 20_000)   # the counter edge
    assert engine.timers == {}
    assert run_due(engine, 400_000) == []
    engine.process_event(("mo1", "motion"), "inactive", 500_000)   # restart
    assert list(engine.timers) == ["rt"]
    out = run_due(engine, 10**7)
    assert [(e.timestamp, e.kind, e.tag) for e in out] == [(800_000, KIND_EXPIRY, "rt")]
    assert engine.timers == {}
    assert run_due(engine, 10**8) == []


def test_deterministic_replay(mini_registry):
    trace = [
        Event("ps1", "presence", "present", 1000),
        Event("ts1", "temperature", 95.0, 5000),
        Event("ps1", "presence", "not-present", 9000),
        Event("ps1", "presence", "present", 12_000),
    ]

    def run():
        engine = _engine(mini_registry, R1, seed=42)
        _set(engine, db={("ts1", "temperature"): 90.0})
        out = []
        for e in trace:
            out.extend(run_due(engine, e.timestamp))
            out.extend(engine.process_event(e.key(), e.value, e.timestamp))
        out.extend(run_due(engine, 10**9))
        return out

    assert run() == run()


def test_db_star_tracks_last_emission(mini_registry):
    engine = _engine(mini_registry, R1, seed=3)
    _set(engine, db={("ts1", "temperature"): 90.0})
    emitted = engine.process_event(("ps1", "presence"), "present", 1000)
    emitted += run_due(engine, 10_000)
    for key, value in engine.store.db_star.items():
        matching = [e for e in emitted if e.key() == key]
        if matching:
            assert matching[-1].value == value


# ---------------------------------------------------------------------------
# dispatch index
# ---------------------------------------------------------------------------

def _matches(match, key):
    """Whether ``match`` names the device and attribute of ``key`` (or every attribute)."""
    return (not match.is_time and match.subject == key[0]
            and match.attribute in ("*", key[1]))


def _fetched(store, c, clock):
    """The state a CHECK block's ``fetch`` atom ``c`` reads at ``clock``."""
    return minute_of_day(clock) if c.is_time else store.current(c.key())


class _ScanningEngine(PolicyEngine):
    """Reference dispatch: every policy is tested against every event, the
    merge runs in full even when nothing was decided, pending reports are
    kept in a store of its own that allows any number per key, a flush
    scans every scheduled deadline, and every planned report tests every
    rule of ``rules`` that the platform fires on reports. It records each
    delayed report it schedules and each it sends, by its tick or by a
    flush, and counts in ``seen`` the repairs it sends and the history
    rules that a planned report fires."""

    def __init__(self, corpus, rules, **kwargs):
        super().__init__(corpus, **kwargs)
        self.pending = {}   # key -> {id(emission): emission}
        self.scheduled, self.sent = [], []
        self.forwarded = [r for r in rules if r.condition_timer is None and not r.trigger.is_time]
        self.seen = Counter()

    def process_event(self, key, value, ts):
        out = self._flush_key_pending(key, ts)
        prev = self.store.db[key]
        self.store.db[key] = value
        decisions, sanctioned = [], set()
        for policy in self.corpus.policies:
            m = policy.trigger_block.match
            if policy.timer_start or policy.timer_stop:
                if _matches(m, key) and m.fires(value, prev):
                    self._apply_timer_policy(policy, value, ts)
                continue
            if not _matches(m, key):
                continue
            if m.operator is not Operator.ANY and not m.fires(value, prev):
                continue
            ds = evaluate_policy(key, policy, self.store, ts)
            if ds:
                decisions.extend(ds)
                if policy.origin is PolicyOrigin.AUTOMATION:
                    sanctioned.add(policy.source_id)
        out.extend(self._merge_and_emit(key, value, prev, decisions, sanctioned, ts))
        return out

    def _up_suppresses(self, key, clock):
        return self._scan_disposition(key, clock) == "suppress"

    def _scan_disposition(self, key, clock):
        """The first passing user policy's "suppress" or "keep", else None."""
        for policy in self.corpus.user_policies:
            m = policy.trigger_block.match
            if m.subject != key[0] or m.attribute not in ("*", key[1]):
                continue
            if all(cb.fetch.satisfied_by(_fetched(self.store, cb.fetch, clock))
                   for cb in policy.check_blocks):
                action = policy.trigger_block.run_action
                return "suppress" if action.method is Method.BLOCK else "keep"
        return None

    def _merge_and_emit(self, ekey, value, prev, decisions, sanctioned, now):
        # All four steps on every event, whether or not anything was decided.
        if self._scan_disposition(ekey, now) == "suppress":
            return []
        out = self._emit_sync_decisions([d for d in decisions if d.key() != ekey], now)
        trigger_plan, trig_prov = self._trigger_plan(
            ekey, value, prev, [d for d in decisions if d.key() == ekey]
        )
        if not any(k == KIND_REPORT for _, _, k in trigger_plan):
            if self._scan_disposition(ekey, now) == "keep":
                trigger_plan = [(value, 0, KIND_REPORT)]
                trig_prov = trig_prov or ("up",)
        out.extend(self._consistency_repairs(ekey, trigger_plan, sanctioned, now))
        for value, delay, kind in trigger_plan:
            emission = Emission(ekey[0], ekey[1], value, now + delay, kind, provenance=trig_prov)
            if delay > 0:
                self.pending.setdefault(ekey, {})[id(emission)] = emission
                self.scheduled.append(emission)
                self.schedule(now + delay, emission)
            else:
                out.append(self._emit(emission))
        return out

    def _consistency_repairs(self, key, trigger_plan, sanctioned, now):
        repairs = []
        platform_prev = self.store.last_reported(key)
        for value, _, kind in trigger_plan:
            if kind == KIND_REPORT:
                for rule in self.forwarded:
                    if rule.trigger.key() != key or not rule.trigger.fires(value, platform_prev):
                        continue
                    if rule.uses_history:
                        self.seen["history"] += 1
                    elif rule.id not in sanctioned:
                        repairs.extend(self._repairs([rule], now))
            platform_prev = value
        self.seen["repairs"] += len(repairs)
        return repairs

    def tick(self, now, work):
        if isinstance(work, TimerState):
            return super().tick(now, work)   # a timer expiry flushes through _flush_key_pending
        if self.pending.get(work.key(), {}).pop(id(work), None) is None:
            return []
        self.sent.append(work)
        return [self._emit(work)]

    def _flush_key_pending(self, key, now):
        # Every scheduled deadline in (deadline, seq) order; the key's
        # emissions still pending are sent now, and their ticks do nothing.
        pending = self.pending.get(key, {})
        flushed = []
        for _, _, (_, work) in sorted(self.schedule.heap):
            if isinstance(work, Emission) and pending.pop(id(work), None) is work:
                self.sent.append(work)
                flushed.append(self._emit(work._replace(timestamp=now)))
        return flushed


# Numeric triggers (>, in-range, >=) and held durations on a binary and on a
# numeric key. No automation policy reads am1.humidity. rp passes history,
# so its policy reports every am1.motion event, and no repair stops rp on
# the platform; rm on the same trigger can be repaired.
DISPATCH_RULES = "\n".join([
    R1,
    TIMER,
    "rn: when ts1.temperature > 90 then sl1.switch := on",
    "rm: when am1.motion == active if mode1.mode != away then f1.switch := off after 60000",
    "ri: when ts1.temperature in 40..88 if ps1.presence == present then sl1.switch := off",
    "rh: when ts1.temperature >= 95 for 60000 if mode1.mode == home then f1.switch := on",
    "rp: when am1.motion == active if ps1.presence == present then sl1.switch := on pass-history",
])

# A device wildcard (no attribute), a conditional keep of one numeric
# attribute and windowed single-attribute blacklists. upp blocks R1's
# trigger from the first minute on, so a sequence reaches a blocked trigger
# whose checks would sync ts1.temperature; the flush test's events all fall
# in the first minute. upv reports ts1.temperature in vacation mode, so ri
# can fire on the platform on a stale presence that its policy aborts on.
DISPATCH_UPS = """
- id: upw
  style: conditional
  target: {device: am1}
  context: [{device: mode1, attribute: mode, op: "==", value: away}]
  action: keep
- id: upv
  style: conditional
  target: {device: ts1, attribute: temperature}
  context: [{device: mode1, attribute: mode, op: "==", value: vacation}]
  action: keep
- id: upt
  style: blacklist
  target: {device: ts1, attribute: temperature}
  window: {start: "00:05", end: "00:40"}
- id: upm
  style: blacklist
  target: {device: mo1, attribute: motion}
  window: {start: "00:10", end: "01:00"}
- id: upp
  style: blacklist
  target: {device: ps1, attribute: presence}
  window: {start: "00:01", end: "01:00"}
"""


def _dispatch_corpus(registry):
    return compile_corpus(parse_rules(DISPATCH_RULES, registry),
                          parse_user_policies(DISPATCH_UPS, registry), registry)


def _key_values(registry, key):
    """A numeric key's every cut point in the dispatch rules, the floats on
    either side of it and a value between each pair; any other key's every value."""
    desc = registry.lookup(*key)
    if desc.kind is not AttributeKind.NUMERIC:
        return list(desc.values)
    rules = parse_rules(DISPATCH_RULES, registry)
    cuts = cut_points(c for r in rules for c in (r.trigger, *r.condition) if c.key() == key)
    between = [(lo + hi) / 2 for lo, hi in zip(cuts, cuts[1:])]
    near = [math.nextafter(cut, side) for cut in cuts for side in (-math.inf, math.inf)]
    return sorted({desc.min, desc.max, *cuts, *between, *near})


def _event_sequences(registry):
    # Any key at any gap, plus bursts that make R1 report with diffKeep and
    # flush that delayed report through a newer event on the key: the burst
    # warms ts1.temperature above 86, then flips ps1.presence at gaps below
    # the diffKeep delay.
    gaps = st.sampled_from([0, 1, 299, 300, 60_000, 300_000, 400_000])
    any_step = st.sampled_from(registry.all_pairs()).flatmap(
        lambda key: st.tuples(st.just(key), st.sampled_from(_key_values(registry, key)), gaps)
    )
    warm = st.tuples(st.just(("ts1", "temperature")), st.sampled_from([88.0, 90.0, 95.0]), gaps)
    flip = st.tuples(
        st.just(("ps1", "presence")), st.sampled_from(["present", "not-present"]),
        st.integers(0, DIFFKEEP_DELAY_DEFAULT_MS - 1),
    )
    burst = st.tuples(warm, st.lists(flip, min_size=2, max_size=6)).map(lambda b: [b[0], *b[1]])
    # A mode change, then a motion edge that rp reports or a temperature
    # that upv may report: rm or ri may fire on the platform's stale mode or
    # presence, and that state is repaired.
    reported = st.sampled_from([("am1", "motion"), ("ts1", "temperature")]).flatmap(
        lambda key: st.tuples(st.just(key), st.sampled_from(_key_values(registry, key)), gaps)
    )
    mode = st.tuples(st.just(("mode1", "mode")), st.sampled_from(["home", "away", "vacation"]), gaps)
    stale = st.tuples(mode, reported).map(list)
    chunks = st.lists(st.one_of(any_step.map(lambda s: [s]), burst, stale), max_size=20)
    return chunks.map(lambda cs: [step for c in cs for step in c][:60])


def _dispatch_steps(corpus, rules, steps, seed):
    """Feed ``steps`` to the indexed engine and to the full scan over the
    corpus compiled from ``rules``, asserting equal emissions and timers and
    that every scheduled delayed report was sent exactly once; returns the
    reference's ``seen`` counts and how many events flushed a delayed report."""
    indexed = PolicyEngine(corpus, seed=seed, schedule=Deadlines())
    reference = _ScanningEngine(corpus, rules, seed=seed, schedule=Deadlines())
    now = 0
    for key, value, gap in steps:
        now += gap
        assert run_due(indexed, now) == run_due(reference, now)
        reference.seen["flushes"] += key in indexed._pending_reports
        assert indexed.process_event(key, value, now) == reference.process_event(key, value, now)
        assert indexed.timers == reference.timers
    assert run_due(indexed, now + 10**7) == run_due(reference, now + 10**7)
    assert indexed.timers == reference.timers
    assert sorted(map(id, reference.sent)) == sorted(map(id, reference.scheduled))
    assert indexed._pending_reports == {}
    return reference.seen


# rm's policy aborts on the true away mode, but rp reports the motion; the
# platform still holds home, so rm would fire there and the mode is repaired.
# rp fires there too, sanctioned, as its policy reports every motion event.
REPAIR_STEPS = [(("mode1", "mode"), "away", 1), (("am1", "motion"), "active", 1)]
# R1 reports present, and the not-present after it goes unreported; upv
# reports the drop into ri's range, on which ri's policy aborts, so ri would
# fire on the platform's present and the presence is repaired. rn's report
# before it fires no rule that a repair could stop.
NUMERIC_REPAIR_STEPS = [
    (("mode1", "mode"), "vacation", 1),
    (("ts1", "temperature"), 95.0, 1),
    (("ps1", "presence"), "present", 1),
    (("ps1", "presence"), "not-present", 1),
    (("ts1", "temperature"), 60.0, 1),
]


def _check_dispatch(registry, max_examples):
    rules = parse_rules(DISPATCH_RULES, registry)
    corpus = _dispatch_corpus(registry)
    seen = Counter()

    @settings(max_examples=max_examples, deadline=None)
    @given(steps=_event_sequences(registry), seed=st.integers(0, 3))
    @example(steps=REPAIR_STEPS, seed=0)
    @example(steps=NUMERIC_REPAIR_STEPS, seed=0)
    def check(steps, seed):
        counts = _dispatch_steps(corpus, rules, steps, seed)
        seen.update(counts)
        for what in sorted(+counts):
            hypothesis.event(f"the full scan saw {what}")

    check()
    assert seen["repairs"] and seen["history"]


def test_dispatch_index_matches_full_scan(mini_registry):
    _check_dispatch(mini_registry, 150)


@pytest.mark.slow
def test_dispatch_index_matches_full_scan_long(mini_registry):
    _check_dispatch(mini_registry, 2000)


def test_dispatch_index_matches_full_scan_through_a_flush(mini_registry):
    # R1 keeps the first presence report, so the platform still holds
    # "present" after the unreported "not-present"; the next "present" is
    # diffKept (a prefix sync now, the report after the delay) and the
    # "not-present" 100 ms later flushes that report.
    steps = [
        (("ts1", "temperature"), 95.0, 0),
        (("ps1", "presence"), "present", 1000),
        (("ps1", "presence"), "not-present", 1000),
        (("ps1", "presence"), "present", 1000),
        (("ps1", "presence"), "not-present", 100),
    ]
    rules = parse_rules(DISPATCH_RULES, mini_registry)
    assert _dispatch_steps(_dispatch_corpus(mini_registry), rules, steps, seed=0)["flushes"] == 1


def test_dispatch_index_matches_full_scan_across_every_cut(mini_registry):
    # ts1.temperature walks up and down through every cut point of the
    # dispatch rules and the floats beside it, with the presence and mode
    # that R1, ri and rh read set both ways on the way.
    values = _key_values(mini_registry, ("ts1", "temperature"))
    walk = [*values, *values[::-1], *values[::2], *values[1::2], *values[::3]]
    sides = [(("ps1", "presence"), "present"), (("mode1", "mode"), "away"),
             (("ps1", "presence"), "not-present"), (("mode1", "mode"), "home")]
    steps = []
    for i, value in enumerate(walk):
        if i % 7 == 0:
            steps.append((*sides[i // 7 % len(sides)], 1))
        steps.append((("ts1", "temperature"), value, [1, 400, 60_000][i % 3]))
    rules = parse_rules(DISPATCH_RULES, mini_registry)
    _dispatch_steps(_dispatch_corpus(mini_registry), rules, steps, seed=0)


def test_device_wildcard_user_policy_reaches_every_attribute(mini_registry):
    engine = PolicyEngine(_dispatch_corpus(mini_registry), seed=0, schedule=Deadlines())
    # No automation policy reads am1.humidity; the wildcard keeps it while
    # the mode is away and leaves it blocked otherwise.
    assert engine.process_event(("am1", "humidity"), 60.0, 1000) == []
    engine.process_event(("mode1", "mode"), "away", 2000)
    out = engine.process_event(("am1", "humidity"), 61.0, 3000)
    assert [(e.key(), e.value, e.kind, e.provenance) for e in out] == [
        (("am1", "humidity"), 61.0, KIND_REPORT, ("up:upw",))
    ]


def _counted_evaluations(monkeypatch):
    """The ids of the policies the engine evaluates from now on, in order."""
    calls = []
    real = engine_module.evaluate_policy

    def counting(key, policy, *args):
        calls.append(policy.id)
        return real(key, policy, *args)

    monkeypatch.setattr(engine_module, "evaluate_policy", counting)
    return calls


def test_unreferenced_key_evaluates_no_policy(mini_registry, monkeypatch):
    calls = _counted_evaluations(monkeypatch)
    engine = _engine(mini_registry, R1)
    assert engine.process_event(("am1", "humidity"), 60.0, 1000) == []
    assert calls == []
    assert engine.store.current(("am1", "humidity")) == 60.0
    engine.process_event(("ps1", "presence"), "present", 2000)
    assert calls == ["ap:r1"]


def test_only_a_trigger_that_became_true_evaluates_its_policy(mini_registry, monkeypatch):
    calls = _counted_evaluations(monkeypatch)
    engine = _engine(mini_registry, "rn: when ts1.temperature > 90 then sl1.switch := on")
    _set(engine, db={("ts1", "temperature"): 95.0})
    engine.process_event(("ts1", "temperature"), 96.0, 1000)
    assert calls == []
    _set(engine, db={("ts1", "temperature"): 80.0})
    engine.process_event(("ts1", "temperature"), 95.0, 2000)
    assert calls == ["ap:rn"]
