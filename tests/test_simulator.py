import gc
import hashlib
import heapq
import re
import weakref
from collections import Counter

import hypothesis
import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

from flowgate import synth
from flowgate.cli import _latency_csv, _metrics_summary
from flowgate.compiler import compile_corpus
from flowgate.dsl import load_home, parse_rules, parse_trace
from flowgate.engine import KIND_EXPIRY, KIND_REPORT, KIND_SYNC, EngineError, PolicyEngine
from flowgate.model import Command, Event, Trace, format_value
from flowgate.platform_sim import RuleTable, SimulatedPlatform
from flowgate.scenario import Scenario, parse_user_policies
from flowgate.simulator import (
    SimConfig,
    _MediatedReplay,
    _TraceReads,
    _PullReplay,
    _RawReplay,
    remove_redundant,
    run_mediated,
    run_pull_baseline,
    run_raw,
    verify,
)
from tests.conftest import Deadlines, run_due

R1 = "r1: when ps1.presence == present if ts1.temperature > 86 then f1.switch := on"
HOUR = 3_600_000


def _corpus(mini_registry, text=R1):
    rules = parse_rules(text, mini_registry)
    return rules, compile_corpus(rules, [], mini_registry)


def test_mediated_r1_issues_fan_on_once(mini_registry):
    rules, corpus = _corpus(mini_registry)
    trace = [
        Event("ts1", "temperature", 90.0, 10_000),
        Event("ps1", "presence", "present", 60_000),
    ]
    run = run_mediated(trace, corpus, SimConfig(seed=0))
    fan = [c for c in run.p_commands if c.key() == ("f1", "switch")]
    assert len(fan) == 1
    assert fan[0].value == "on" and fan[0].origin == "r1"


def test_mediated_r1_suppressed_when_fan_already_on(mini_registry):
    rules, corpus = _corpus(mini_registry)
    corpus.registry.devices["f1"].initial["switch"] = "on"
    try:
        trace = [
            Event("ts1", "temperature", 90.0, 10_000),
            Event("ps1", "presence", "present", 60_000),
        ]
        run = run_mediated(trace, corpus, SimConfig(seed=0))
        assert run.p_commands == []
    finally:
        corpus.registry.devices["f1"].initial["switch"] = "off"


def test_mediated_default_deny_with_no_policies(mini_registry):
    rules, corpus = _corpus(mini_registry)
    corpus.policies = []
    corpus.user_policies = []
    corpus.automation_policies = []
    trace = [
        Event("ts1", "temperature", 90.0, 10_000),
        Event("ps1", "presence", "present", 60_000),
        Event("mo1", "motion", "active", 70_000),
    ]
    run = run_mediated(trace, corpus, SimConfig(seed=0))
    assert run.p_commands == []
    assert run.reported_events == []


def test_raw_replay_executes_rule(mini_registry):
    rules, _ = _corpus(mini_registry)
    trace = [
        Event("ts1", "temperature", 90.0, 10_000),
        Event("ps1", "presence", "present", 60_000),
    ]
    run = run_raw(trace, rules, mini_registry, SimConfig())
    assert [(c.key(), c.value) for c in run.p_commands] == [(("f1", "switch"), "on")]


def test_raw_ignores_unreferenced_devices(mini_registry):
    rules, _ = _corpus(mini_registry)
    trace = [Event("am1", "humidity", 60.0, 10_000), Event("mo1", "motion", "active", 20_000)]
    run = run_raw(trace, rules, mini_registry, SimConfig())
    assert run.p_commands == []


def test_raw_timer_rule_fires_at_deadline(mini_registry):
    rules = parse_rules(
        "rt: when mo1.motion == inactive for 300000 then sl1.switch := off", mini_registry
    )
    mini_registry.devices["sl1"].initial["switch"] = "on"
    try:
        trace = [
            Event("mo1", "motion", "active", 10_000),
            Event("mo1", "motion", "inactive", 60_000),
        ]
        run = run_raw(trace, rules, mini_registry, SimConfig())
        assert [(c.timestamp, c.value) for c in run.p_commands] == [(360_000, "off")]
    finally:
        mini_registry.devices["sl1"].initial["switch"] = "off"


def test_raw_timer_cancelled_by_renewed_motion(mini_registry):
    rules = parse_rules(
        "rt: when mo1.motion == inactive for 300000 then sl1.switch := off", mini_registry
    )
    mini_registry.devices["sl1"].initial["switch"] = "on"
    try:
        trace = [
            Event("mo1", "motion", "active", 10_000),
            Event("mo1", "motion", "inactive", 60_000),
            Event("mo1", "motion", "active", 120_000),  # 60s later: cancels
        ]
        run = run_raw(trace, rules, mini_registry, SimConfig())
        assert run.p_commands == []
        # The mediated pipeline reports nothing for it either.
        corpus = compile_corpus(rules, [], mini_registry)
        med = run_mediated(trace, corpus, SimConfig(seed=0))
        assert med.p_commands == []
    finally:
        mini_registry.devices["sl1"].initial["switch"] = "off"


def test_platform_native_timer_cancel_reset_and_fire(mini_registry):
    rules = parse_rules(
        "rt: when mo1.motion == inactive for 60000 then sl1.switch := on", mini_registry
    )
    platform = SimulatedPlatform(RuleTable(rules, mini_registry), mini_registry, wake=Deadlines())
    platform.receive(("mo1", "motion"), "active", 1000)
    platform.receive(("mo1", "motion"), "inactive", 2000)       # starts: due at 62 000
    assert list(platform._timers) == ["rt"]
    platform.receive(("mo1", "motion"), "active", 30_000)       # the counter edge cancels
    assert platform._timers == {}
    platform.receive(("mo1", "motion"), "inactive", 40_000)     # reset: due at 100 000
    run_due(platform, 99_999)
    assert platform.issued == []
    run_due(platform, 100_000)
    assert platform.issued == [Command("sl1", "switch", "on", 100_000, "rt")]
    assert platform._timers == {}
    run_due(platform, 10**9)
    assert len(platform.issued) == 1


# ---------------------------------------------------------------------------
# same-instant ordering and deadline scheduling
# ---------------------------------------------------------------------------

def _fidelity(trace, rules, registry, config):
    corpus = compile_corpus(rules, [], registry)
    med = run_mediated(trace, corpus, config)
    raw = run_raw(trace, rules, registry, config)
    pruned = remove_redundant(raw.p_commands, trace, registry)
    return raw, verify(med.p_commands, raw.p_commands, pruned_gt=pruned)


def test_condition_change_on_timer_deadline_lands_first(mini_registry):
    # The presence fob changes at exactly the held-duration timer's deadline:
    # both pipelines must see it before the timer fires.
    rules = parse_rules(
        "rt: when mo1.motion == inactive for 60000 if ps1.presence == present "
        "then sl1.switch := on",
        mini_registry,
    )
    trace = [
        Event("mo1", "motion", "active", 10_000),
        Event("mo1", "motion", "inactive", 20_000),
        Event("ps1", "presence", "present", 80_000),
    ]
    raw, report = _fidelity(trace, rules, mini_registry, SimConfig(seed=0))
    assert [(c.key(), c.value) for c in raw.p_commands] == [(("sl1", "switch"), "on")]
    assert (report.r_s, report.r_c) == (1.0, 1.0)


def test_t4_seed18_timer_deadline_fidelity():
    # r30's timer ends on the millisecond its condition device changes.
    tb = synth.testbed("t4")
    registry = tb.registry()
    rules = tb.rules(registry)
    trace = synth.generate_trace(registry, seed=18, days=7, events_target=12_000)
    _, report = _fidelity(trace, rules, registry, SimConfig(seed=18))
    assert report.missed == []
    assert (report.r_s, report.r_c) == (1.0, 1.0)


# ---------------------------------------------------------------------------
# consistency repairs: stale last-reported state must not fire a rule
# ---------------------------------------------------------------------------

def _platform_syncs(monkeypatch):
    """Record every sync the platform receives as (time, key, value)."""
    syncs = []
    receive = SimulatedPlatform.receive

    def spy_receive(self, key, value, ts, kind="report", tag=""):
        if kind == "sync":
            syncs.append((ts, key, value))
        return receive(self, key, value, ts, kind, tag)

    monkeypatch.setattr(SimulatedPlatform, "receive", spy_receive)
    return syncs


def _repairs(run):
    return [(e.timestamp, e.key(), e.value) for e in run.reported_events
            if e.provenance == ("repair",)]


def test_clock_rule_repairs_a_stale_condition_before_its_instant(mini_registry, monkeypatch):
    # Day 1: presence turns present before 08:00, so the mediator syncs it
    # for rc, then turns not-present unreported. Day 2: at 08:00 the
    # platform still holds present, so the mediator must repair it just
    # before the instant, or the platform fires rc where the raw stream
    # does not.
    rules = parse_rules(
        "rc: when time.clock == 08:00 if ps1.presence == present then sl1.switch := on",
        mini_registry,
    )
    day, eight = 24 * HOUR, 8 * HOUR
    trace = [
        Event("ps1", "presence", "present", 7 * HOUR),
        Event("ps1", "presence", "not-present", 9 * HOUR),
        Event("mo1", "motion", "active", day + 9 * HOUR),   # runs the replay past day 2's 08:00
    ]
    syncs = _platform_syncs(monkeypatch)
    med = run_mediated(trace, compile_corpus(rules, [], mini_registry), SimConfig(seed=0))
    raw = run_raw(trace, rules, mini_registry, SimConfig(seed=0))
    assert raw.p_commands == [Command("sl1", "switch", "on", eight, "rc")]
    assert med.p_commands == raw.p_commands
    assert _repairs(med) == [(day + eight, ("ps1", "presence"), "not-present")]
    assert [s for s in syncs if s[1] == ("ps1", "presence")] == [
        (eight - 1, ("ps1", "presence"), "present"),
        (day + eight - 1, ("ps1", "presence"), "not-present"),
    ]


def test_repair_of_time_conditioned_rule_skips_the_time_atom(mini_registry, monkeypatch):
    # rb's policy aborts at 18:50 on the true presence, but the user's
    # whitelist still reports the motion edge. The platform's copy of rb
    # would fire on the stale present it holds, within the window, so the
    # mediator repairs presence; the clock itself is never repaired.
    rules = parse_rules(
        "rb: when mo1.motion == active if time.clock in 18:00..23:00 and "
        "ps1.presence == present then sl1.switch := on",
        mini_registry,
    )
    whitelist = parse_user_policies(yaml.safe_dump([
        {"id": "upw", "style": "whitelist", "target": {"device": "mo1", "attribute": "motion"}},
    ]), mini_registry)
    minute = 60_000
    at = [18 * HOUR + m * minute for m in (10, 20, 30, 40, 50)]
    trace = [
        Event("ps1", "presence", "present", at[0]),
        Event("mo1", "motion", "active", at[1]),        # rb fires in both pipelines
        Event("mo1", "motion", "inactive", at[2]),
        Event("ps1", "presence", "not-present", at[3]),
        Event("mo1", "motion", "active", at[4]),        # rb's condition fails
    ]
    config = SimConfig(seed=0)
    med = run_mediated(trace, compile_corpus(rules, whitelist, mini_registry), config)
    raw = run_raw(trace, rules, mini_registry, config)
    assert raw.p_commands == [Command("sl1", "switch", "on", at[1], "rb")]
    assert [(c.key(), c.value, c.origin) for c in med.p_commands] == [
        (("sl1", "switch"), "on", "rb"),
    ]
    assert _repairs(med) == [(at[4], ("ps1", "presence"), "not-present")]


# A mini-home run through the engine paths no benchmark workload reaches:
# rn's numeric trigger (its first report is drawn in its cell; at 12 s
# the stale report already satisfies it, so a silent prefix drawn in the
# cell of 85, below r1's cut at 86, re-aligns the platform first), r1's
# diffKeep report flushed by the not-present 100 ms after it, and a repair
# of ps1.presence before the whitelisted motion would fire rb on the
# flushed present.
GOLDEN_RULES = "\n".join([
    R1,
    "rn: when ts1.temperature > 90 if mode1.mode == home then sl1.switch := on",
    "rb: when mo1.motion == active if ps1.presence == present then sl1.switch := off",
    "rx: when mode1.mode == away then f1.switch := off",
    "rl: when mo1.motion == inactive then sl1.switch := off",
])
GOLDEN_TRACE = [
    Event("ts1", "temperature", 95.0, 1000),
    Event("ps1", "presence", "present", 2000),
    Event("mode1", "mode", "away", 2800),
    Event("ps1", "presence", "not-present", 3000),
    Event("mode1", "mode", "home", 3500),
    Event("ps1", "presence", "present", 4000),
    Event("ps1", "presence", "not-present", 4100),
    Event("mo1", "motion", "active", 6000),
    Event("mo1", "motion", "inactive", 6500),
    Event("ts1", "temperature", 80.0, 7000),
    Event("mode1", "mode", "away", 8000),
    Event("ts1", "temperature", 93.0, 9000),
    Event("mode1", "mode", "home", 10_000),
    Event("ts1", "temperature", 85.0, 11_000),
    Event("ts1", "temperature", 92.5, 12_000),
    Event("mo1", "motion", "inactive", 13_000),
    Event("ts1", "temperature", 60.0, 14_000),
    Event("ts1", "temperature", 91.0, 15_000),
]
GOLDEN_DIGEST = "f9b5209b6bd5efd5e0d8240213117e7e37d1829741345e5de06b144003b3c0ea"


def test_mini_home_mediated_run_matches_golden_digest(mini_registry):
    ups = parse_user_policies(yaml.safe_dump([
        {"id": "upw", "style": "whitelist", "target": {"device": "mo1", "attribute": "motion"}},
    ]), mini_registry)
    corpus = compile_corpus(parse_rules(GOLDEN_RULES, mini_registry), ups, mini_registry)
    run = run_mediated(GOLDEN_TRACE, corpus, SimConfig(seed=3))
    reports = [(e.timestamp, e.key(), e.value, e.kind) for e in run.reported_events]
    assert (4100, ("ps1", "presence"), "present", "report") in reports      # flushed early
    assert _repairs(run) == [(6000, ("ps1", "presence"), "not-present")]
    temperatures = [(ts, value, kind) for ts, key, value, kind in reports
                    if key == ("ts1", "temperature")]
    assert [(ts, kind) for ts, _, kind in temperatures] == [
        (1000, "report"), (12_000, "sync"), (12_000, "report")]
    assert all(value > 90 for _, value, kind in temperatures if kind == "report")
    assert not {value for _, value, _ in temperatures} & {e.value for e in GOLDEN_TRACE}
    text = repr((run.reported_events, run.p_commands, run.actuations))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_DIGEST


def test_each_deadline_ticks_once(monkeypatch):
    calls = {"engine": 0, "schedule": 0, "platform": 0}

    def counting(name, method):
        def wrapper(self, *args):
            calls[name] += 1
            return method(self, *args)
        return wrapper

    monkeypatch.setattr(PolicyEngine, "tick", counting("engine", PolicyEngine.tick))
    monkeypatch.setattr(_MediatedReplay, "_schedule_engine",
                        counting("schedule", _MediatedReplay._schedule_engine))
    monkeypatch.setattr(SimulatedPlatform, "tick", counting("platform", SimulatedPlatform.tick))
    tb = synth.testbed("t4")
    registry = tb.registry()
    rules = tb.rules(registry)
    trace = synth.generate_trace(registry, seed=11, days=2, events_target=4000)
    run_mediated(trace, compile_corpus(rules, [], registry), SimConfig(seed=11))
    assert calls["engine"] == calls["schedule"] > 0
    calls["platform"] = 0
    run_raw(trace, rules, registry, SimConfig(seed=11))
    assert calls["platform"] / len(trace) < 2


class _HeapTrace:
    """Reference loop: every trace event goes onto the heap, pushed before
    any other entry, and the heap alone orders the run. No event is streamed
    past the heap and no key is read off the trace: every component reads
    the states that the events it was handed left."""

    def __init__(self, trace, *args):
        super().__init__(trace, *args)
        for seq, event in enumerate(trace, start=-len(trace)):
            heapq.heappush(self._heap, (event.timestamp, seq, self._heap_event, event))
        self.streamed = set()

    def _heap_event(self, now, event):
        self.farm.states[event.key()] = event.value
        self.upstream(event.key(), event.value, now)

    def trace_read_keys(self):
        return set()


class _HeapRawReplay(_HeapTrace, _RawReplay):
    pass


class _HeapPullReplay(_HeapTrace, _PullReplay):
    pass


class _HeapMediatedReplay(_HeapTrace, _MediatedReplay):
    pass


# rs reads ps1.presence in a condition (a CHECK fetch when mediated) when
# mo1.motion triggers it; rc reads it at 00:02, through the pull replay's
# refreshes too.
SAME_MS_RULES = (
    "rs: when mo1.motion == active if ps1.presence == present then sl1.switch := on\n"
    "rc: when time.clock == 00:02 if ps1.presence == present then f1.switch := on"
)


@pytest.mark.parametrize("condition_first", [True, False])
def test_condition_event_at_trigger_millisecond(mini_registry, condition_first):
    # ps1 turns present at the millisecond mo1 triggers rs, before or after
    # it in record order; a pull refresh falls due at that millisecond too.
    # The trigger sees the condition event only if it came first; heap work
    # at that millisecond sees it either way.
    rules = parse_rules(SAME_MS_RULES, mini_registry)
    table = RuleTable(rules, mini_registry)
    corpus = compile_corpus(rules, [], mini_registry)
    at = 60_000
    condition, trigger = Event("ps1", "presence", "present", at), Event("mo1", "motion", "active", at)
    trace = [condition, trigger] if condition_first else [trigger, condition]
    config = SimConfig(seed=0, refresh_ms=at)
    raw = _RawReplay(trace, table, mini_registry, config).run()
    assert raw == _HeapRawReplay(trace, table, mini_registry, config).run()
    med = _MediatedReplay(trace, corpus, config).run()
    assert med == _HeapMediatedReplay(trace, corpus, config).run()
    pull = _PullReplay(trace, table, mini_registry, config).run()
    assert pull == _HeapPullReplay(trace, table, mini_registry, config).run()

    clock = [(120_000, ("f1", "switch"), "on", "rc")]
    expected = [(at, ("sl1", "switch"), "on", "rs")] * condition_first + clock
    assert [(c.timestamp, c.key(), c.value, c.origin) for c in raw.p_commands] == expected
    assert [(c.key(), c.value, c.origin) for c in med.p_commands] == [e[1:] for e in expected]
    assert [(c.timestamp, c.key(), c.value, c.origin) for c in pull.p_commands] == clock


def test_events_nothing_triggers_on_or_commands_reach_no_upstream(monkeypatch):
    # t1's condition sensors are read off the trace when a rule or policy
    # asks; their events are never replayed through the engine or platform.
    seen = {"engine": set(), "platform": set()}
    process_event, receive = PolicyEngine.process_event, SimulatedPlatform.receive

    def spy_process_event(self, key, value, ts):
        seen["engine"].add(key)
        return process_event(self, key, value, ts)

    def spy_receive(self, key, value, ts, kind="report", tag=""):
        if kind != "sync":   # mediated check reports and repairs are not trace events
            seen["platform"].add(key)
        return receive(self, key, value, ts, kind, tag)

    monkeypatch.setattr(PolicyEngine, "process_event", spy_process_event)
    monkeypatch.setattr(SimulatedPlatform, "receive", spy_receive)
    tb = synth.testbed("t1")
    registry = tb.registry()
    rules = tb.rules(registry)
    trace = synth.generate_trace(registry, seed=11, days=1, events_target=2000)
    corpus = compile_corpus(rules, [], registry)
    run_mediated(trace, corpus, SimConfig(seed=11))
    run_raw(trace, rules, registry, SimConfig(seed=11))

    active = {r.trigger.key() for r in rules if not r.trigger.is_time}
    active.update((a.device, a.attribute) for r in rules for a in r.actions)
    active.update(p.trigger_block.match.key() for p in corpus.policies
                  if not p.trigger_block.match.is_time)
    quiet = {e.key() for e in trace} - active
    assert quiet and seen["engine"] and seen["platform"]
    assert not seen["engine"] & quiet
    assert not seen["platform"] & quiet


# ---------------------------------------------------------------------------
# Trace places and trace reads against linear scans of the trace
# ---------------------------------------------------------------------------

PLACE_VALUES = {
    ("ps1", "presence"): ["present", "not-present"],
    ("mo1", "motion"): ["active", "inactive"],
    ("ts1", "temperature"): ["70", "86.5"],
    ("mode1", "mode"): ["home", "away", "vacation"],
}


@st.composite
def _placed_traces(draw, registry):
    """A trace parsed from a file with comments, blank lines and exact
    repeats, or built from shuffled events; bursts at one millisecond tie
    streamed and read keys. Also draws the streamed keys and the heap times."""
    lines, events, ts = [], [], 0
    for _ in range(draw(st.integers(0, 24))):
        ts += draw(st.sampled_from([0, 0, 0, 1, 1000]))
        key = draw(st.sampled_from(sorted(PLACE_VALUES)))
        text = draw(st.sampled_from(PLACE_VALUES[key]))
        line = f"{ts} {key[0]} {key[1]} {text}"
        lines.append(line)
        events.append(Event(*key, registry.lookup(*key).validate_value(text), ts))
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from([line, "", "# a comment", f"{line}  # again"])))
    if draw(st.booleans()):
        trace = parse_trace("".join(f"{line}\n" for line in lines), registry)
        # An exact repeat of an event at its millisecond collapses.
        expected = []
        for e in events:
            if not any(seen == e for seen in expected if seen.timestamp == e.timestamp):
                expected.append(e)
    else:
        events = draw(st.permutations(events))
        trace = Trace.of(events)
        expected = sorted(events, key=lambda e: e.timestamp)
    streamed = draw(st.sets(st.sampled_from(sorted(PLACE_VALUES))))
    heap_times = draw(st.lists(st.integers(-1, ts + 1), max_size=4))
    return trace, expected, streamed, heap_times


def _check_trace_places(registry, max_examples):
    initial = registry.initial_states()

    @settings(max_examples=max_examples, deadline=None)
    @given(case=_placed_traces(registry))
    def check(case):
        trace, expected, streamed, heap_times = case
        events = list(trace)
        assert events == expected and len(trace) == len(expected)
        assert list(trace.placed(streamed)) == [
            (i, (e.key(), e.value, e.timestamp)) for i, e in enumerate(events)
            if e.key() in streamed
        ]
        read = set(trace.keys) - streamed
        reads = _TraceReads(trace, read, dict(initial))

        def last(key, before):
            values = [e.value for e in before if e.key() == key]
            return values[-1] if values else initial[key]

        for place, (key, _, _) in trace.placed(streamed):   # streamed moments
            reads.place = place
            assert reads.snapshot() == {k: last(k, events[:place]) for k in read}
            assert reads.get(key) is None
        reads.place = None                                  # heap moments
        for time in heap_times:
            reads.time = time
            before = [e for e in events if e.timestamp <= time]
            assert reads.snapshot() == {k: last(k, before) for k in read}

    check()


def test_trace_places_and_reads_match_linear_scans(mini_registry):
    _check_trace_places(mini_registry, 150)


@pytest.mark.slow
def test_trace_places_and_reads_match_linear_scans_long(mini_registry):
    _check_trace_places(mini_registry, 3000)


# A held-duration timer (engine and platform deadlines), diffKeep-delayed
# binary triggers, a numeric trigger, a delayed action, a clock rule and a
# conditional user policy.
REPLAY_RULES = "\n".join([
    R1,
    "rt: when mo1.motion == inactive for 60000 if ps1.presence == present "
    "then sl1.switch := on",
    "rn: when ts1.temperature > 90 then sl1.switch := off",
    "rm: when am1.motion == active if mode1.mode != away then f1.switch := off after 60000",
    "rc: when time.clock == 00:02 then f1.switch := off",
])
REPLAY_UPS = """
- id: upw
  style: conditional
  target: {device: am1}
  context: [{device: mode1, attribute: mode, op: "==", value: away}]
  action: keep
"""
REPLAY_VALUES = {
    ("ps1", "presence"): ["present", "not-present"],
    ("ts1", "temperature"): [40.0, 88.0, 95.0],
    ("am1", "humidity"): [40.0, 60.0],
    ("am1", "motion"): ["active", "inactive"],
    ("mo1", "motion"): ["active", "inactive"],
    ("mode1", "mode"): ["home", "away"],
    ("f1", "switch"): ["on", "off"],
}
# Gaps that land events on the same millisecond, on a diffKeep report
# (300 ms, delivered 250 ms later), on the 60 s timer and delayed-action
# deadlines and on the 00:02 clock instant.
REPLAY_GAPS = [0, 0, 1, 250, 300, 550, 59_700, 60_000, 60_250, 60_300]


@st.composite
def _replay_traces(draw):
    now, trace = 0, []
    for _ in range(draw(st.integers(0, 14))):
        now += draw(st.sampled_from(REPLAY_GAPS))
        key = draw(st.sampled_from(sorted(REPLAY_VALUES)))
        trace.append(Event(key[0], key[1], draw(st.sampled_from(REPLAY_VALUES[key])), now))
    if draw(st.booleans()):
        trace = draw(st.permutations(trace))
    return trace


def test_streamed_trace_matches_heap_replay(mini_registry):
    rules = parse_rules(REPLAY_RULES, mini_registry)
    table = RuleTable(rules, mini_registry)
    corpus = compile_corpus(rules, parse_user_policies(REPLAY_UPS, mini_registry), mini_registry)

    @settings(max_examples=120, deadline=None)
    @given(trace=_replay_traces(), seed=st.integers(0, 3))
    def check(trace, seed):
        config = SimConfig(seed=seed, refresh_ms=60_000)
        assert (_RawReplay(trace, table, mini_registry, config).run()
                == _HeapRawReplay(trace, table, mini_registry, config).run())
        assert (_PullReplay(trace, table, mini_registry, config).run()
                == _HeapPullReplay(trace, table, mini_registry, config).run())
        assert (_MediatedReplay(trace, corpus, config).run()
                == _HeapMediatedReplay(trace, corpus, config).run())

    check()


# The replay home plus a device that no rule or policy reads.
DEAD_DEVICE = {"id": "lx1", "label": "hall sensor", "room": "hall", "attributes": [
    {"name": "illuminance", "kind": "numeric", "min": 0, "max": 1000, "initial": 10},
    {"name": "contact", "kind": "binary", "values": ["open", "closed"], "active": "open",
     "initial": "closed"},
]}
DEAD_VALUES = {("lx1", "illuminance"): [5.0, 300.0], ("lx1", "contact"): ["open", "closed"]}
# Offsets from a live event that hit its diffKeep report, its delivery, the
# 60 s timer and delayed-action deadlines, and the 00:02 clock instant.
DEAD_OFFSETS = [0, 0, 1, 250, 300, 550, 60_000, 60_250, 60_300, 120_000]


@st.composite
def _traces_with_dead_events(draw):
    """A replay case, and its trace with events on unreferenced keys mixed in."""
    trace = draw(_replay_traces())
    mixed = list(trace)
    anchors = [e.timestamp for e in trace] or [0]
    for _ in range(draw(st.integers(1, 6))):
        ts = draw(st.sampled_from(anchors)) + draw(st.sampled_from(DEAD_OFFSETS))
        key = draw(st.sampled_from(sorted(DEAD_VALUES)))
        event = Event(key[0], key[1], draw(st.sampled_from(DEAD_VALUES[key])), ts)
        # Often first, so it sorts ahead of the live events of its millisecond.
        at = draw(st.one_of(st.just(0), st.integers(0, len(mixed))))
        mixed.insert(at, event)
    return trace, mixed


# At 80 000 rt's native timer falls due as ps1 leaves; an unreferenced
# event lands first in that millisecond.
_DEADLINE_CASE = (
    [Event("ps1", "presence", "present", 0), Event("mo1", "motion", "active", 1000),
     Event("mo1", "motion", "inactive", 20_000), Event("ps1", "presence", "not-present", 80_000)],
    [Event("lx1", "contact", "open", 80_000), Event("ps1", "presence", "present", 0),
     Event("mo1", "motion", "active", 1000), Event("mo1", "motion", "inactive", 20_000),
     Event("ps1", "presence", "not-present", 80_000)],
)


def _check_unreferenced_events(max_examples):
    """Events on keys no rule or policy references change no command artifact."""
    from tests.conftest import MINI_HOME

    home = dict(MINI_HOME, devices=[*MINI_HOME["devices"], DEAD_DEVICE])
    registry = load_home(yaml.safe_dump(home))
    rules = parse_rules(REPLAY_RULES, registry)
    corpus = compile_corpus(rules, parse_user_policies(REPLAY_UPS, registry), registry)

    @settings(max_examples=max_examples, deadline=None)
    @given(case=_traces_with_dead_events(), seed=st.integers(0, 3))
    @example(case=_DEADLINE_CASE, seed=0)
    def check(case, seed):
        trace, mixed = case
        config = SimConfig(seed=seed, refresh_ms=60_000)
        raw = run_raw(trace, rules, registry, config)
        assert run_raw(mixed, rules, registry, config) == raw
        assert (remove_redundant(raw.p_commands, mixed, registry)
                == remove_redundant(raw.p_commands, trace, registry))
        assert (run_pull_baseline(mixed, rules, registry, config)
                == run_pull_baseline(trace, rules, registry, config))
        assert (run_mediated(mixed, corpus, config)
                == run_mediated(trace, corpus, config))

    check()


def test_unreferenced_events_change_no_command():
    _check_unreferenced_events(60)


@pytest.mark.slow
def test_unreferenced_events_change_no_command_long():
    _check_unreferenced_events(2000)


def test_out_of_order_trace_replays_in_timestamp_order(mini_registry):
    rules = parse_rules(REPLAY_RULES, mini_registry)
    table = RuleTable(rules, mini_registry)
    corpus = compile_corpus(rules, [], mini_registry)
    trace = [
        Event("ps1", "presence", "present", 80_000),
        Event("mo1", "motion", "active", 10_000),
        Event("ts1", "temperature", 95.0, 80_000),
        Event("mo1", "motion", "inactive", 20_000),
        Event("ps1", "presence", "not-present", 80_000),
        Event("ps1", "presence", "present", 80_000),
    ]
    config = SimConfig(seed=0)
    replay = _RawReplay(trace, table, mini_registry, config)
    assert list(replay._trace) == sorted(trace, key=lambda e: e.timestamp)
    assert replay.run() == _HeapRawReplay(trace, table, mini_registry, config).run()
    assert (_MediatedReplay(trace, corpus, config).run()
            == _HeapMediatedReplay(trace, corpus, config).run())


def test_quiet_event_on_platform_deadline_takes_full_path(mini_registry):
    # rt's native timer falls due at 80 000. mode1.mode, one of its
    # conditions, triggers no rule; it changes at that millisecond, before a
    # ps1 change that triggers rq. The due timer runs after every trace event
    # of that millisecond, as in the mediated run: ps1 is then not-present,
    # so only rq fires.
    rules = parse_rules(
        "rt: when mo1.motion == inactive for 60000 if ps1.presence == present and "
        "mode1.mode != away then sl1.switch := on\n"
        "rq: when ps1.presence == not-present then f1.switch := on",
        mini_registry,
    )
    table = RuleTable(rules, mini_registry)
    trace = [
        Event("ps1", "presence", "present", 10_000),
        Event("mo1", "motion", "active", 10_000),
        Event("mo1", "motion", "inactive", 20_000),
        Event("mode1", "mode", "vacation", 80_000),
        Event("ps1", "presence", "not-present", 80_000),
    ]
    config = SimConfig(seed=0)
    raw = _RawReplay(trace, table, mini_registry, config).run()
    assert raw == _HeapRawReplay(trace, table, mini_registry, config).run()
    assert [(c.timestamp, c.key(), c.value, c.origin) for c in raw.p_commands] == [
        (80_000, ("f1", "switch"), "on", "rq"),
    ]
    med = run_mediated(trace, compile_corpus(rules, [], mini_registry), config)
    assert [(c.key(), c.value, c.origin) for c in med.p_commands] == [
        (("f1", "switch"), "on", "rq"),
    ]
    pruned = remove_redundant(raw.p_commands, trace, mini_registry)
    report = verify(med.p_commands, raw.p_commands, pruned_gt=pruned)
    assert (report.r_s, report.r_c) == (1.0, 1.0)


def test_quiet_lane_keeps_unknown_keys_on_full_path(mini_registry):
    _, corpus = _corpus(mini_registry)
    with pytest.raises(EngineError):
        run_mediated([Event("zz9", "motion", "active", 1000)], corpus, SimConfig(seed=0))


def test_all_quiet_trace_reports_nothing_and_counts_everything(mini_registry):
    rules, corpus = _corpus(mini_registry)  # R1 reads ps1, ts1 and f1 only
    trace = [
        Event("am1", "humidity", 60.0, 1000),
        Event("mo1", "motion", "active", 1000),
        Event("am1", "motion", "active", 2000),
        Event("mo1", "motion", "inactive", 3000),
    ]
    scenario = Scenario("quiet", mini_registry, rules, [], trace)
    counts = {"am1.humidity": 1, "mo1.motion": 2, "am1.motion": 1}
    med = run_mediated(trace, corpus, SimConfig(seed=0))
    assert med.reported_events == [] and med.p_commands == []
    runs = [med] + [run(trace, rules, mini_registry, SimConfig())
                    for run in (run_raw, run_pull_baseline)]
    for run in runs:
        assert run.actuations == []
        per_attribute = _metrics_summary(scenario, run)["per_attribute"]
        assert {k: v["raw"] for k, v in per_attribute.items() if v["raw"]} == counts


# ---------------------------------------------------------------------------
# redundancy pruning
# ---------------------------------------------------------------------------

def _remove_redundant_sorted(gt_commands, raw_trace, registry):
    """Reference pruning: one sort over every event and command."""
    states = dict(registry.initial_states())
    items = [(e.timestamp, 0, i, e) for i, e in enumerate(raw_trace)]
    items += [(c.timestamp, 1, i, c) for i, c in enumerate(gt_commands)]
    kept = []
    for _, is_command, _, obj in sorted(items, key=lambda t: t[:3]):
        if not is_command:
            states[obj.key()] = obj.value
        elif states.get(obj.key()) != obj.value:
            states[obj.key()] = obj.value
            kept.append(obj)
    return kept


_switch_items = st.tuples(
    st.sampled_from([("f1", "switch"), ("sl1", "switch")]),
    st.sampled_from(["on", "off"]),
    st.sampled_from([0, 1000, 1000, 2000, 3000]),
)


@settings(max_examples=200, deadline=None)
@given(events=st.lists(_switch_items, max_size=12), commands=st.lists(_switch_items, max_size=12))
def test_remove_redundant_matches_sorted_merge(mini_registry, events, commands):
    trace = [Event(d, a, v, t) for (d, a), v, t in events]
    gt = [Command(d, a, v, t, f"r{i}") for i, ((d, a), v, t) in enumerate(commands)]
    kept = remove_redundant(gt, trace, mini_registry)
    assert [id(c) for c in kept] == [id(c) for c in _remove_redundant_sorted(gt, trace, mini_registry)]


def test_remove_redundant_drops_repeat(mini_registry):
    commands = [
        Command("f1", "switch", "on", 1000, "r1"),
        Command("f1", "switch", "on", 5000, "r1"),
    ]
    kept = remove_redundant(commands, [], mini_registry)
    assert kept == [commands[0]]


def test_remove_redundant_keeps_alternation(mini_registry):
    commands = [
        Command("f1", "switch", "on", 1000, "r1"),
        Command("f1", "switch", "off", 5000, "r1"),
        Command("f1", "switch", "on", 9000, "r1"),
    ]
    assert remove_redundant(commands, [], mini_registry) == commands


def test_remove_redundant_all_redundant(mini_registry):
    commands = [Command("f1", "switch", "off", t, "r1") for t in (1000, 2000, 3000)]
    assert remove_redundant(commands, [], mini_registry) == []  # f1 starts off


def test_remove_redundant_sees_trace_writes(mini_registry):
    trace = [Event("f1", "switch", "on", 500)]  # a manual actuation in the trace
    commands = [Command("f1", "switch", "on", 1000, "r1")]
    assert remove_redundant(commands, trace, mini_registry) == []


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _cmds(*specs):
    return [Command("f1", "switch", v, t, origin) for (t, v, origin) in specs]


def test_verify_identical_logs():
    cmds = _cmds((1000, "on", "r1"), (9000, "off", "r1"))
    report = verify(cmds, list(cmds))
    assert report.r_s == 1.0 and report.r_c == 1.0
    assert report.unsound == [] and report.missed == []


def test_verify_extra_manual_command_breaks_soundness_only():
    gt = _cmds((1000, "on", "r1"), (9000, "off", "r1"), (20_000, "on", "r1"))
    p = gt + _cmds((30_000, "off", "manual"))
    report = verify(p, gt)
    assert report.r_s == pytest.approx(3 / 4)
    assert report.r_c == 1.0
    assert [c.origin for c in report.unsound] == ["manual"]


def test_verify_table_row_ratio():
    # 21 commands received, 17 sound: the published 0.81 soundness row.
    gt = _cmds(*[(i * 10_000, "on", "r") for i in range(17)])
    p = _cmds(*[(i * 10_000, "on", "r") for i in range(17)],
              *[(1_000_000 + i * 10_000, "on", "x") for i in range(4)])
    report = verify(p, gt)
    assert report.r_s == pytest.approx(17 / 21, abs=0.005)
    assert round(report.r_s, 2) == 0.81


def test_verify_window_enforced():
    gt = _cmds((1000, "on", "r1"))
    p = _cmds((4200, "on", "r1"))  # 3.2 s later: outside the window
    report = verify(p, gt, window_ms=3000)
    assert report.r_s == 0.0 and report.r_c == 0.0
    report = verify(p, gt, window_ms=3500)
    assert report.r_s == 1.0 and report.r_c == 1.0


def test_verify_matching_is_one_to_one():
    gt = _cmds((1000, "on", "r1"))
    p = _cmds((1000, "on", "r1"), (1500, "on", "r1"))
    report = verify(p, gt)
    assert report.r_s == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# pull baseline
# ---------------------------------------------------------------------------

PULL_RULES = "\n".join([
    "rclock_on: when time.clock == 07:00 then sl1.switch := on",
    "rclock_off: when time.clock == 18:00 then sl1.switch := off",
    R1,
])


def test_pull_only_time_rules_execute(mini_registry):
    rules = parse_rules(PULL_RULES, mini_registry)
    trace = [
        Event("ts1", "temperature", 90.0, 10_000),
        Event("ps1", "presence", "present", 8 * HOUR),
        Event("ps1", "presence", "not-present", 9 * HOUR),
        Event("ps1", "presence", "present", 10 * HOUR),
        Event("ps1", "presence", "not-present", 19 * HOUR),  # past the 18:00 trigger
    ]
    config = SimConfig(seed=0)
    pull = run_pull_baseline(trace, rules, mini_registry, config)
    raw = run_raw(trace, rules, mini_registry, config)
    pruned = remove_redundant(raw.p_commands, trace, mini_registry)
    report = verify(pull.p_commands, raw.p_commands, pruned_gt=pruned)
    per_origin = report.per_origin
    assert per_origin["rclock_on"][0] == per_origin["rclock_on"][1] > 0
    assert per_origin["rclock_off"][0] == per_origin["rclock_off"][1] > 0
    assert per_origin["r1"] == (0, per_origin["r1"][1])
    assert per_origin["r1"][1] > 0


def test_pull_no_time_rules_is_silent(mini_registry):
    rules = parse_rules(R1, mini_registry)
    trace = [Event("ps1", "presence", "present", 10_000)]
    run = run_pull_baseline(trace, rules, mini_registry, SimConfig())
    assert run.p_commands == []


def test_pull_refresh_sees_states_not_events(mini_registry):
    rules = parse_rules(R1, mini_registry)
    trace = [
        Event("ts1", "temperature", 90.0, 10_000),
        Event("ps1", "presence", "present", 120_000),
        Event("ps1", "presence", "not-present", 600_000),
    ]
    run = run_pull_baseline(trace, rules, mini_registry, SimConfig(refresh_ms=60_000))
    assert run.p_commands == []  # states refreshed every minute, still no trigger


# ---------------------------------------------------------------------------
# transport details
# ---------------------------------------------------------------------------

def test_latency_accounting_exact():
    csv = _latency_csv(3, SimConfig(seed=0, l1_ms=7, l2_ms=250))
    assert csv == "events,l1_ms,l2_ms,l_ha_ms\n3,7,250,507\n"


def test_command_drop_probability_breaks_completeness(mini_registry):
    text = R1 + "\nr1b: when ps1.presence == not-present then f1.switch := off"
    rules, corpus = _corpus(mini_registry, text)
    trace = [Event("ts1", "temperature", 90.0, 10_000)]
    t = 50_000
    for i in range(60):
        trace.append(Event("ps1", "presence", "present" if i % 2 == 0 else "not-present", t))
        t += 50_000
    config = SimConfig(seed=3, drop_prob=0.5)
    med = run_mediated(trace, corpus, config)
    raw = run_raw(trace, rules, mini_registry, SimConfig(seed=3))
    pruned = remove_redundant(raw.p_commands, trace, mini_registry)
    report = verify(med.p_commands, raw.p_commands, pruned_gt=pruned)
    assert report.r_c < 1.0
    assert report.r_s == 1.0  # surviving commands still match


def test_commands_pass_through_to_devices(mini_registry):
    rules, corpus = _corpus(mini_registry)
    trace = [
        Event("ts1", "temperature", 90.0, 10_000),
        Event("ps1", "presence", "present", 60_000),
    ]
    run = run_mediated(trace, corpus, SimConfig(seed=0))
    assert [(e.key(), e.value) for e in run.actuations] == [(("f1", "switch"), "on")]
    assert run.actuations[0].timestamp == run.p_commands[0].timestamp + 250  # one-way delay


# ---------------------------------------------------------------------------
# replica split and replay lifetime
# ---------------------------------------------------------------------------

def _replicate(tb, k):
    """``k`` copies of a testbed in one home; copy ``i`` suffixes every device
    id and rule id with ``x<i>``."""
    ids = sorted((d["id"] for d in tb.home["devices"]), key=len, reverse=True)
    device_ref = re.compile(r"\b(" + "|".join(map(re.escape, ids)) + r")\.")
    devices, lines = [], []
    for i in range(1, k + 1):
        suffix = f"x{i}"
        devices += [dict(d, id=d["id"] + suffix) for d in tb.home["devices"]]
        for line in tb.rules_text.splitlines():
            rule_id, body = line.split(":", 1)
            lines.append(rule_id + suffix + ":" + device_ref.sub(rf"\g<1>{suffix}.", body))
    return synth.Testbed(f"{tb.name}x{k}", dict(tb.home, devices=devices), "\n".join(lines))


def _command_multiset(commands, suffix=""):
    return Counter((c.timestamp, c.device + suffix, c.attribute, format_value(c.value),
                    c.origin + suffix) for c in commands)


def _check_replica_split(k, seed, days):
    """A home of ``k`` t4 replicas issues exactly what plain t4 issues on each
    replica's slice of the trace: no key of one replica reaches another."""
    plain = synth.testbed("t4")
    registry = plain.registry()
    rules = plain.rules(registry)
    corpus = compile_corpus(rules, [], registry)
    home = _replicate(plain, k)
    home_registry = home.registry()
    home_rules = home.rules(home_registry)
    home_corpus = compile_corpus(home_rules, [], home_registry)
    trace = synth.generate_trace(home_registry, seed=seed, days=days,
                                 events_target=1500 * k * days)
    config = SimConfig(seed=seed)
    whole = {"raw": run_raw(trace, home_rules, home_registry, config).p_commands,
             "mediated": run_mediated(trace, home_corpus, config).p_commands}
    split = {"raw": Counter(), "mediated": Counter()}
    for i in range(1, k + 1):
        suffix = f"x{i}"
        part = [Event(e.device[:-len(suffix)], e.attribute, e.value, e.timestamp)
                for e in trace if e.device.endswith(suffix)]
        split["raw"] += _command_multiset(run_raw(part, rules, registry, config).p_commands,
                                          suffix)
        split["mediated"] += _command_multiset(
            run_mediated(part, corpus, config).p_commands, suffix)
    for mode, commands in whole.items():
        assert commands, f"the {mode} home must actuate something"
        assert _command_multiset(commands) == split[mode], mode


def test_replicas_issue_what_each_replica_issues_alone():
    _check_replica_split(2, seed=5, days=1)


@pytest.mark.slow
@pytest.mark.parametrize("seed", [7, 8, 9])
def test_replicas_issue_what_each_replica_issues_alone_long(seed):
    _check_replica_split(3, seed=seed, days=2)


# ---------------------------------------------------------------------------
# renaming
# ---------------------------------------------------------------------------

def _reverse_renamed(tb):
    """A testbed whose device ids sort in the reverse order of ``tb``'s; and the renaming."""
    ids = sorted(d["id"] for d in tb.home["devices"])
    new = {old: f"d{len(ids) - i:03d}" for i, old in enumerate(ids)}
    device_ref = re.compile(r"\b(" + "|".join(map(re.escape, ids)) + r")\.")
    devices = [dict(d, id=new[d["id"]]) for d in tb.home["devices"]]
    rules_text = device_ref.sub(lambda m: new[m.group(1)] + ".", tb.rules_text)
    return synth.Testbed(f"{tb.name}-renamed", dict(tb.home, devices=devices), rules_text), new


def _check_renaming(name, seed, days):
    """Renaming every device leaves the commands as they were, up to the renaming, and
    the reported stream too, up to the order of one millisecond's reports."""
    plain = synth.testbed(name)
    renamed, new = _reverse_renamed(plain)
    back = {v: k for k, v in new.items()}
    registry = plain.registry()
    trace = synth.generate_trace(registry, seed=seed, days=days, events_target=1500 * days)
    config = SimConfig(seed=seed)
    runs = []
    renamed_trace = [e._replace(device=new[e.device]) for e in trace]
    for tb, events in ((plain, trace), (renamed, renamed_trace)):
        home = tb.registry()
        rules = tb.rules(home)
        runs.append((run_raw(events, rules, home, config),
                     run_mediated(events, compile_corpus(rules, [], home), config)))
    (raw, mediated), (renamed_raw, renamed_mediated) = runs
    for run, renamed_run in ((raw, renamed_raw), (mediated, renamed_mediated)):
        assert run.p_commands
        assert [c._replace(device=back[c.device]) for c in renamed_run.p_commands] == run.p_commands
    assert Counter(e._replace(device=back[e.device]) for e in renamed_mediated.reported_events) \
        == Counter(mediated.reported_events)


@pytest.mark.parametrize("name", ["t1", "t3"])
def test_renamed_devices_issue_the_same_commands(name):
    _check_renaming(name, seed=1, days=1)


@pytest.mark.slow
@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("name", synth.ALL_TESTBEDS)
def test_renamed_devices_issue_the_same_commands_long(name, seed):
    _check_renaming(name, seed=seed, days=2)


def test_finished_replay_leaves_no_reference_cycle(mini_registry):
    # The timer, delayed-action and diffKeep deadlines go through the
    # engine's schedule hook and the platform's wake hook.
    rules = parse_rules(REPLAY_RULES, mini_registry)
    table = RuleTable(rules, mini_registry)
    corpus = compile_corpus(rules, [], mini_registry)
    trace = [
        Event("ps1", "presence", "present", 0),
        Event("ts1", "temperature", 95.0, 1000),
        Event("mo1", "motion", "active", 1000),
        Event("mo1", "motion", "inactive", 20_000),
        Event("am1", "motion", "active", 30_000),
        Event("ps1", "presence", "not-present", 200_000),
    ]
    config = SimConfig(seed=0, refresh_ms=60_000)
    builds = {
        "raw": lambda: _RawReplay(trace, table, mini_registry, config),
        "pull": lambda: _PullReplay(trace, table, mini_registry, config),
        "mediated": lambda: _MediatedReplay(trace, corpus, config),
    }
    gc.collect()
    gc.disable()
    try:
        for mode, build in builds.items():
            replay = build()
            assert replay.run().p_commands or mode == "pull"
            freed = weakref.ref(replay)
            del replay
            assert freed() is None, f"the {mode} replay outlived its last reference"
    finally:
        gc.enable()


def test_replays_build_an_event_per_state_change_and_none_per_trace_event(mini_registry,
                                                                          monkeypatch):
    # The loop reads (key, value, ts) rows off the trace columns; only a
    # command that changes its device's state becomes an Event, the
    # actuation the replay records.
    rules = parse_rules(REPLAY_RULES, mini_registry)
    corpus = compile_corpus(rules, [], mini_registry)
    events = [
        Event("ps1", "presence", "present", 0),
        Event("ts1", "temperature", 95.0, 1000),
        Event("mo1", "motion", "active", 1000),
        Event("mo1", "motion", "inactive", 20_000),
        Event("am1", "motion", "active", 30_000),
        Event("am1", "humidity", 60.0, 40_000),
        Event("ps1", "presence", "not-present", 200_000),
        Event("ps1", "presence", "present", 300_000),
        Event("mo1", "motion", "active", 301_000),
        Event("mo1", "motion", "inactive", 302_000),
    ]
    trace = Trace.of([e._replace(timestamp=e.timestamp + day * 86_400_000)
                      for day in range(3) for e in events])
    built = []
    new = Event.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Event, "__new__", counting)
    config = SimConfig(seed=0)
    for run in (lambda: run_raw(trace, rules, mini_registry, config),
                lambda: run_mediated(trace, corpus, config)):
        built.clear()
        artifacts = run()
        assert len(artifacts.actuations) >= 6
        assert len(built) == len(artifacts.actuations)



# ---------------------------------------------------------------------------
# numeric values: every emission lies in the true value's cell
# ---------------------------------------------------------------------------

def _misplaced_numeric_emissions(patch):
    """Record each numeric emission the engine sends outside the cell of the
    true value it stands for, as (key, emitted, true value), through the
    monkeypatch ``patch``. A trigger's prefix sync stands for the value
    before the event, any other sync or report for the current one; an
    expiry reports the true value its timer started on."""
    misplaced = []

    def check(engine, emissions, key=None, prev=None):
        for e in emissions:
            cells = engine.cells.get(e.key())
            if cells is None or e.kind == KIND_EXPIRY:
                continue
            prefix = e.key() == key and e.kind == KIND_SYNC and e.provenance != ("repair",)
            truth = prev if prefix else engine.store.current(e.key())
            if cells.cell(e.value) != cells.cell(truth):
                misplaced.append((e.key(), e.value, truth))
        return emissions

    process_event, tick, time_tick = (
        PolicyEngine.process_event, PolicyEngine.tick, PolicyEngine.time_tick)

    def checked_event(self, key, value, ts):
        prev = self.store.db[key]
        return check(self, process_event(self, key, value, ts), key, prev)

    patch.setattr(PolicyEngine, "process_event", checked_event)
    patch.setattr(PolicyEngine, "tick", lambda self, *work: check(self, tick(self, *work)))
    patch.setattr(PolicyEngine, "time_tick", lambda self, ts: check(self, time_tick(self, ts)))
    return misplaced


# r1's CHECK sync of ts1.temperature must stay below r4's cut at 90, or r4's
# next true crossing needs a prefix sync; drawn in the cell of 88 between
# both cuts (86, 90), it does, and three messages are enough.
CUT_RULES = "\n".join([R1, "r4: when ts1.temperature > 90 then sl1.switch := on"])
CUT_TRACE = [
    Event("ts1", "temperature", 88.0, 1000),
    Event("ps1", "presence", "present", 2000),
    Event("ts1", "temperature", 95.0, 3000),
]


def test_check_sync_stays_in_the_cell_of_every_cut_on_its_key(mini_registry, monkeypatch):
    rules = parse_rules(CUT_RULES, mini_registry)
    corpus = compile_corpus(rules, [], mini_registry)
    misplaced = _misplaced_numeric_emissions(monkeypatch)
    for seed in range(200):
        med = run_mediated(CUT_TRACE, corpus, SimConfig(seed=seed))
        raw = run_raw(CUT_TRACE, rules, mini_registry, SimConfig(seed=seed))
        report = verify(med.p_commands, raw.p_commands,
                        pruned_gt=remove_redundant(raw.p_commands, CUT_TRACE, mini_registry))
        assert [(e.key()[0], e.kind) for e in med.reported_events] == [
            ("ts1", "sync"), ("ps1", "report"), ("ts1", "report")], seed
        assert (report.r_s, report.r_c) == (1.0, 1.0)
    assert misplaced == []


TEMPERATURE_CUTS = [60.0, 70.0, 80.0, 86.0, 90.0, 95.0]
HUMIDITY_CUTS = [30.0, 40.0, 50.0, 60.0, 70.0]
NUMERIC_VALUES = {
    "temperature": sorted({v + d for v in TEMPERATURE_CUTS for d in (-0.5, 0.0, 0.5)}),
    "humidity": sorted({v + d for v in HUMIDITY_CUTS for d in (-0.5, 0.0, 0.5)}),
}
NUMERIC_KEYS = {"temperature": "ts1.temperature", "humidity": "am1.humidity"}
NUMERIC_GAPS = [0, 1, 299, 300, 1000, 60_000, 60_001, 120_000]


@st.composite
def _numeric_atom(draw, ops=(">", "<=", "in")):
    """An atom on ts1.temperature or am1.humidity with cut points from the grid."""
    name = draw(st.sampled_from(sorted(NUMERIC_KEYS)))
    cuts = TEMPERATURE_CUTS if name == "temperature" else HUMIDITY_CUTS
    op = draw(st.sampled_from(ops))
    if op == "in":
        lo, hi = sorted(draw(st.lists(st.sampled_from(cuts), min_size=2, max_size=2, unique=True)))
        return f"{NUMERIC_KEYS[name]} in {format_value(lo)}..{format_value(hi)}"
    return f"{NUMERIC_KEYS[name]} {op} {format_value(draw(st.sampled_from(cuts)))}"


@st.composite
def _numeric_rule(draw, i):
    """One rule of a numeric pack: a numeric or binary trigger (held for a
    minute, or passing history, at times) with 0-2 numeric conditions."""
    shape = draw(st.sampled_from(["numeric", "binary", "held", "history"]))
    if shape == "binary":
        trigger = draw(st.sampled_from(["ps1.presence == present", "am1.motion == active",
                                        "mode1.mode != away"]))
    elif shape == "held":
        trigger = draw(_numeric_atom(ops=(">", "<="))) + " for 60000"
    else:
        trigger = draw(_numeric_atom())
    conditions = draw(st.lists(_numeric_atom(), max_size=2))
    action = draw(st.sampled_from(["f1.switch := on", "f1.switch := off", "sl1.switch := on",
                                   "sl1.switch := off"]))
    text = f"r{i}: when {trigger}"
    if conditions:
        text += " if " + " and ".join(conditions)
    return text + f" then {action}" + (" pass-history" if shape == "history" else "")


@st.composite
def _numeric_cases(draw):
    """A pack of 1-4 rules and a trace of up to 16 events on their keys."""
    n = draw(st.integers(1, 4))
    rules = "\n".join([draw(_numeric_rule(i)) for i in range(n)])
    steps = st.one_of(
        st.tuples(st.just(("ts1", "temperature")), st.sampled_from(NUMERIC_VALUES["temperature"])),
        st.tuples(st.just(("am1", "humidity")), st.sampled_from(NUMERIC_VALUES["humidity"])),
        st.tuples(st.just(("ps1", "presence")), st.sampled_from(["present", "not-present"])),
        st.tuples(st.just(("am1", "motion")), st.sampled_from(["active", "inactive"])),
        st.tuples(st.just(("mode1", "mode")), st.sampled_from(["home", "away"])),
    )
    trace, now = [], 0
    for (key, value), gap in draw(st.lists(st.tuples(steps, st.sampled_from(NUMERIC_GAPS)),
                                           max_size=16)):
        now += gap
        trace.append(Event(*key, value, now))
    return rules, trace


def _known_fault(rules, med, raw, config):
    """The known fidelity fault a numeric case meets, or None; each is
    pinned by a strict xfail in ``test_known_fidelity_faults``. Fidelity is
    asserted only on cases that meet none."""
    sent = med.reported_events
    reads_own = {r.id for r in rules if any(c.key() == r.trigger.key() for c in r.condition)}
    if any(e.kind == KIND_EXPIRY and e.tag in reads_own for e in sent):
        return "an expiry reports its start value to a condition on the same key"
    for i, prefix in enumerate(sent):
        if prefix.kind != KIND_SYNC or prefix.provenance == ("repair",):
            continue
        rest = sent[i + 1:]
        j = next((j for j, e in enumerate(rest) if e.key() == prefix.key()), None)
        if (j is not None and j > 0 and rest[j].kind == KIND_REPORT
                and rest[j].timestamp > prefix.timestamp):
            return "another key is reported while a diffKept report waits"
    round_trip = config.l1_ms + 2 * config.l2_ms   # the report up, the command down
    commands = sorted(raw.p_commands, key=lambda c: (c.key(), c.timestamp))
    if any(a.key() == b.key() and b.timestamp - a.timestamp <= round_trip
           for a, b in zip(commands, commands[1:])):
        return "one device commanded twice within the round trip"
    return None


def _check_numeric_cases(registry, max_examples):
    @settings(max_examples=max_examples, deadline=None)
    @given(case=_numeric_cases(), seed=st.integers(0, 3))
    def check(case, seed):
        text, trace = case
        rules = parse_rules(text, registry)
        config = SimConfig(seed=seed)
        with pytest.MonkeyPatch.context() as patch:
            misplaced = _misplaced_numeric_emissions(patch)
            med = run_mediated(trace, compile_corpus(rules, [], registry), config)
        assert misplaced == []
        raw = run_raw(trace, rules, registry, config)
        fault = _known_fault(rules, med, raw, config)
        hypothesis.event(f"known fault: {fault}")
        if fault is None:
            report = verify(med.p_commands, raw.p_commands,
                            pruned_gt=remove_redundant(raw.p_commands, trace, registry))
            assert (report.r_s, report.r_c) == (1.0, 1.0)

    check()


def test_numeric_packs_keep_fidelity_and_cells(mini_registry):
    _check_numeric_cases(mini_registry, 250)


@pytest.mark.slow
def test_numeric_packs_keep_fidelity_and_cells_long(mini_registry):
    _check_numeric_cases(mini_registry, 3000)


# Three faults the numeric property found, now mended; each case at every
# seed the property draws, and each fails before its fix.
@pytest.mark.parametrize("rules, trace", [
    # A pass-history rule's policy syncs its condition keys with its trigger,
    # so the platform tests the condition on the true humidity, not on the
    # initial 50 ...
    pytest.param(
        "r0: when ts1.temperature > 80 if am1.humidity > 50 then f1.switch := on pass-history",
        [Event("am1", "humidity", 51.0, 0), Event("ts1", "temperature", 81.0, 1000)],
        id="pass-history-condition"),
    # ... and not on the initial 70, which would fire r0 where raw does not.
    pytest.param(
        "r0: when am1.humidity > 50 if ts1.temperature <= 70 then f1.switch := on pass-history\n"
        "r1: when ps1.presence == present then sl1.switch := on",
        [Event("ts1", "temperature", 70.5, 0), Event("am1", "humidity", 50.5, 0),
         Event("ps1", "presence", "present", 1000)],
        id="pass-history-stale-condition"),
    # A clock trigger too: its policy syncs the presence before 00:02.
    pytest.param(
        "r0: when time.clock == 00:02 if ps1.presence == present then f1.switch := on "
        "pass-history",
        [Event("ps1", "presence", "present", 60_000)],
        id="pass-history-clock-trigger"),
    # The diffKeep prefix of a != trigger is the != value itself: any other
    # mode would satisfy != away, so the report would fire nothing.
    pytest.param(
        "r0: when mode1.mode != away then f1.switch := on",
        [Event("mode1", "mode", "away", 0), Event("mode1", "mode", "home", 1000)],
        id="unequal-trigger-prefix"),
    # r1 would fire on the platform's stale 70 and pass its condition there,
    # but the platform tests that condition on the report itself, which
    # fails it as the true 82 does: nothing is repaired, and r0's report
    # still crosses into 80..86.
    pytest.param(
        "r0: when ts1.temperature in 80..86 then f1.switch := on\n"
        "r1: when ts1.temperature in 80..86 if ts1.temperature in 60..70 "
        "then sl1.switch := on",
        [Event("ts1", "temperature", 82.0, 0)],
        id="repair-on-the-trigger-key"),
])
def test_mended_fidelity_faults(mini_registry, rules, trace):
    for seed in range(4):
        raw, report = _fidelity(trace, parse_rules(rules, mini_registry), mini_registry,
                                SimConfig(seed=seed))
        assert raw.p_commands, "the case issues a command raw"
        assert (report.r_s, report.r_c) == (1.0, 1.0), seed


@pytest.mark.parametrize("rules, trace", [
    # r1's redundancy guard reads f1 off: r0's command reaches the fan one
    # round trip (report up, command down) after the presence, while the raw
    # platform's acts at once.
    pytest.param(
        "r0: when ps1.presence == present then f1.switch := on\n"
        "r1: when am1.motion == active then f1.switch := off",
        [Event("ps1", "presence", "present", 0), Event("am1", "motion", "active", 300)],
        id="command-within-round-trip"),
    # r0's report of home waits 300 ms behind its diffKeep prefix; r1 reports
    # the humidity's drop meanwhile, so the platform tests r0's condition on
    # it, while the raw platform tested it on the humidity at 1000.
    pytest.param(
        "r0: when mode1.mode == home if am1.humidity > 30 then f1.switch := on\n"
        "r1: when am1.humidity <= 30 then sl1.switch := on",
        [Event("mode1", "mode", "away", 0), Event("mode1", "mode", "home", 1000),
         Event("am1", "humidity", 29.0, 1100)],
        id="report-during-diffkeep-delay"),
    # The expiry reports 75, the value r0's timer started on; the platform
    # tests r0's condition on it, while the raw platform tests the true 65.
    pytest.param(
        "r0: when ts1.temperature > 60 for 60000 if ts1.temperature <= 70 then f1.switch := on",
        [Event("ts1", "temperature", 59.0, 0), Event("ts1", "temperature", 75.0, 1000),
         Event("ts1", "temperature", 65.0, 2000)],
        id="expiry-reports-its-start-value"),
])
@pytest.mark.xfail(strict=True, reason="known fidelity fault; see _known_fault")
def test_known_fidelity_faults(mini_registry, rules, trace):
    _, report = _fidelity(trace, parse_rules(rules, mini_registry), mini_registry,
                          SimConfig(seed=0))
    assert (report.r_s, report.r_c) == (1.0, 1.0)
