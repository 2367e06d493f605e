import heapq

import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

from flowgate import synth
from flowgate.cli import _latency_csv, _metrics_summary
from flowgate.compiler import compile_corpus
from flowgate.dsl import load_home, parse_rules
from flowgate.engine import EngineError, PolicyEngine
from flowgate.model import Command, Event, Trace
from flowgate.platform_sim import SimulatedPlatform
from flowgate.scenario import Scenario, parse_user_policies
from flowgate.simulator import (
    SimConfig,
    _MediatedReplay,
    _PullReplay,
    _RawReplay,
    remove_redundant,
    run_mediated,
    run_pull_baseline,
    run_raw,
    verify,
)

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
    platform = SimulatedPlatform(rules, mini_registry)
    platform.receive("mo1", "motion", "active", 1000)
    platform.receive("mo1", "motion", "inactive", 2000)       # starts: due at 62 000
    assert list(platform._timers) == ["rt"]
    platform.receive("mo1", "motion", "active", 30_000)       # the counter edge cancels
    assert platform._timers == {}
    platform.receive("mo1", "motion", "inactive", 40_000)     # reset: due at 100 000
    platform.tick(99_999)
    assert platform.issued == []
    platform.tick(100_000)
    assert platform.issued == [Command("sl1", "switch", "on", 100_000, "rt")]
    assert platform._timers == {}
    platform.tick(10**9)
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


def test_each_deadline_ticks_once(monkeypatch):
    calls = {"engine": 0, "platform": 0}

    def counting(name, tick):
        def wrapper(self, now):
            calls[name] += 1
            return tick(self, now)
        return wrapper

    monkeypatch.setattr(PolicyEngine, "tick", counting("engine", PolicyEngine.tick))
    monkeypatch.setattr(SimulatedPlatform, "tick", counting("platform", SimulatedPlatform.tick))
    tb = synth.testbed("t4")
    registry = tb.registry()
    rules = tb.rules(registry)
    trace = synth.generate_trace(registry, seed=11, days=2, events_target=4000)
    run_mediated(trace, compile_corpus(rules, [], registry), SimConfig(seed=11))
    assert calls["engine"] / len(trace) < 1
    calls["platform"] = 0
    run_raw(trace, rules, registry, SimConfig(seed=11))
    assert calls["platform"] / len(trace) < 2


class _HeapTrace:
    """Reference loop: every trace event goes onto the heap, pushed before
    any other entry, and the heap alone orders the run."""

    def __init__(self, trace, *args):
        super().__init__(trace, *args)
        for seq, event in enumerate(trace, start=-len(trace)):
            heapq.heappush(self._heap, (event.timestamp, seq, self._device_event, event))
        self._trace = Trace()


class _HeapRawReplay(_HeapTrace, _RawReplay):
    pass


class _HeapPullReplay(_HeapTrace, _PullReplay):
    pass


class _HeapMediatedReplay(_HeapTrace, _MediatedReplay):
    pass


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
    manual = [Command("sl1", "switch", draw(st.sampled_from(["on", "off"])), ts)
              for ts in draw(st.lists(st.sampled_from([0, 300, 60_000, 120_000]), max_size=2))]
    return trace, manual


def test_streamed_trace_matches_heap_replay(mini_registry):
    rules = parse_rules(REPLAY_RULES, mini_registry)
    corpus = compile_corpus(rules, parse_user_policies(REPLAY_UPS, mini_registry), mini_registry)

    @settings(max_examples=120, deadline=None)
    @given(case=_replay_traces(), seed=st.integers(0, 3))
    def check(case, seed):
        trace, manual = case
        config = SimConfig(seed=seed, refresh_ms=60_000)
        assert (_RawReplay(trace, rules, mini_registry, config).run()
                == _HeapRawReplay(trace, rules, mini_registry, config).run())
        assert (_PullReplay(trace, rules, mini_registry, config).run()
                == _HeapPullReplay(trace, rules, mini_registry, config).run())
        assert (_MediatedReplay(trace, corpus, config, manual).run()
                == _HeapMediatedReplay(trace, corpus, config, manual).run())

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
    trace, manual = draw(_replay_traces())
    mixed = list(trace)
    anchors = [e.timestamp for e in trace] or [0]
    for _ in range(draw(st.integers(1, 6))):
        ts = draw(st.sampled_from(anchors)) + draw(st.sampled_from(DEAD_OFFSETS))
        key = draw(st.sampled_from(sorted(DEAD_VALUES)))
        event = Event(key[0], key[1], draw(st.sampled_from(DEAD_VALUES[key])), ts)
        # Often first, so it sorts ahead of the live events of its millisecond.
        at = draw(st.one_of(st.just(0), st.integers(0, len(mixed))))
        mixed.insert(at, event)
    return trace, mixed, manual


# At 80 000 rt's native timer falls due as ps1 leaves; an unreferenced
# event lands first in that millisecond.
_DEADLINE_CASE = (
    [Event("ps1", "presence", "present", 0), Event("mo1", "motion", "active", 1000),
     Event("mo1", "motion", "inactive", 20_000), Event("ps1", "presence", "not-present", 80_000)],
    [Event("lx1", "contact", "open", 80_000), Event("ps1", "presence", "present", 0),
     Event("mo1", "motion", "active", 1000), Event("mo1", "motion", "inactive", 20_000),
     Event("ps1", "presence", "not-present", 80_000)],
    [],
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
        trace, mixed, manual = case
        config = SimConfig(seed=seed, refresh_ms=60_000)
        raw = run_raw(trace, rules, registry, config)
        assert run_raw(mixed, rules, registry, config) == raw
        assert (remove_redundant(raw.p_commands, mixed, registry)
                == remove_redundant(raw.p_commands, trace, registry))
        assert (run_pull_baseline(mixed, rules, registry, config)
                == run_pull_baseline(trace, rules, registry, config))
        assert (run_mediated(mixed, corpus, config, manual)
                == run_mediated(trace, corpus, config, manual))

    check()


def test_unreferenced_events_change_no_command():
    _check_unreferenced_events(60)


@pytest.mark.slow
def test_unreferenced_events_change_no_command_long():
    _check_unreferenced_events(2000)


def test_out_of_order_trace_replays_in_timestamp_order(mini_registry):
    rules = parse_rules(REPLAY_RULES, mini_registry)
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
    replay = _RawReplay(trace, rules, mini_registry, config)
    assert list(replay._trace) == sorted(trace, key=lambda e: e.timestamp)
    assert replay.run() == _HeapRawReplay(trace, rules, mini_registry, config).run()
    assert (_MediatedReplay(trace, corpus, config, []).run()
            == _HeapMediatedReplay(trace, corpus, config, []).run())


def test_quiet_event_on_platform_deadline_takes_full_path(mini_registry):
    # rt's native timer falls due at 80 000. mode1.mode, one of its
    # conditions, is quiet in raw; it changes at that millisecond, before a
    # non-quiet ps1 change. The due timer runs after every trace event of
    # that millisecond, as in the mediated run: ps1 is then not-present, so
    # only rq fires.
    rules = parse_rules(
        "rt: when mo1.motion == inactive for 60000 if ps1.presence == present and "
        "mode1.mode != away then sl1.switch := on\n"
        "rq: when ps1.presence == not-present then f1.switch := on",
        mini_registry,
    )
    trace = [
        Event("ps1", "presence", "present", 10_000),
        Event("mo1", "motion", "active", 10_000),
        Event("mo1", "motion", "inactive", 20_000),
        Event("mode1", "mode", "vacation", 80_000),
        Event("ps1", "presence", "not-present", 80_000),
    ]
    config = SimConfig(seed=0)
    replay = _RawReplay(trace, rules, mini_registry, config)
    assert ("mode1", "mode") in replay.quiet_keys()
    assert ("ps1", "presence") not in replay.quiet_keys()
    raw = replay.run()
    assert raw == _HeapRawReplay(trace, rules, mini_registry, config).run()
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
    rows = _latency_csv(3, SimConfig(seed=0, l1_ms=7, l2_ms=250)).splitlines()
    assert rows[0] == "event,l1_ms,l2_ms,l_ha_ms"
    assert len(rows) == 3 + 1
    for i, row in enumerate(rows[1:]):
        event, l1, l2, l_ha = map(int, row.split(","))
        assert (event, l1, l2) == (i, 7, 250)
        assert l_ha == l1 + 2 * l2


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


def test_manual_command_stream_breaks_soundness_as_annotated(mini_registry):
    """Injected manual operations show up as unsound commands, like field noise."""
    rules, corpus = _corpus(mini_registry)
    trace = [
        Event("ts1", "temperature", 90.0, 10_000),
        Event("ps1", "presence", "present", 60_000),
    ]
    manual = [Command("sl1", "switch", "on", 200_000, "manual")]
    med = run_mediated(trace, corpus, SimConfig(seed=0), manual_commands=manual)
    raw = run_raw(trace, rules, mini_registry, SimConfig(seed=0))
    pruned = remove_redundant(raw.p_commands, trace, mini_registry)
    report = verify(med.p_commands, raw.p_commands, pruned_gt=pruned)
    assert report.r_s == pytest.approx((len(med.p_commands) - 1) / len(med.p_commands))
    assert report.r_c == 1.0
    assert [c.origin for c in report.unsound] == ["manual"]


def test_commands_pass_through_to_devices(mini_registry):
    rules, corpus = _corpus(mini_registry)
    trace = [
        Event("ts1", "temperature", 90.0, 10_000),
        Event("ps1", "presence", "present", 60_000),
    ]
    run = run_mediated(trace, corpus, SimConfig(seed=0))
    assert [(e.key(), e.value) for e in run.actuations] == [(("f1", "switch"), "on")]
    assert run.actuations[0].timestamp == run.p_commands[0].timestamp + 250  # one-way delay
