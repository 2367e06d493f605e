"""The platform's memoized rule moves against a platform that tests every rule on every report."""

import math

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from flowgate.dsl import load_home, parse_rules
from flowgate.model import AttributeKind, Event, ModelError, RuleAction
from flowgate.platform_sim import RuleTable, SimulatedPlatform, _NativeTimer
from flowgate.simulator import run_raw
from tests.conftest import MINI_HOME, Deadlines, run_due

# Binary, enumerated and numeric triggers (>, >=, !=, in-range, <=), a
# delayed action, and held-duration rules on a binary and on two numeric
# keys, whose timers start, reset and stop.
PLATFORM_RULES = "\n".join([
    "rb: when mo1.motion == active if ps1.presence == present then sl1.switch := on",
    "re: when mode1.mode != home then f1.switch := off",
    "rg: when ts1.temperature > 90 then sl1.switch := off",
    "rq: when ts1.temperature >= 86 if mode1.mode == home then f1.switch := on",
    "rn: when am1.humidity != 60 then f1.switch := off after 30000",
    "rr: when am1.humidity in 40..70 then sl1.switch := on",
    "rt: when mo1.motion == inactive for 60000 then sl1.switch := off",
    "rh: when ts1.temperature >= 95 for 30000 then f1.switch := off",
    "rl: when am1.humidity <= 40 for 20000 if ps1.presence == present then sl1.switch := on",
])
PLATFORM_KEYS = [("ps1", "presence"), ("ts1", "temperature"), ("am1", "humidity"),
                 ("am1", "motion"), ("mo1", "motion"), ("mode1", "mode")]


def _near(cuts):
    """Each cut point, the floats on either side of it, and a value between each pair of cuts."""
    values = {cuts[0] - 10.0, cuts[-1] + 10.0}
    for lo, hi in zip(cuts, cuts[1:]):
        values.add((lo + hi) / 2)
    for cut in cuts:
        values.update((math.nextafter(cut, -math.inf), cut, math.nextafter(cut, math.inf)))
    return sorted(values)


class _ScanningPlatform(SimulatedPlatform):
    """Reference: a report tests each rule's trigger, or the atom its timer
    watches, on the spot; nothing is memoized."""

    def __init__(self, rules, registry):
        super().__init__(RuleTable(rules, registry), registry, wake=Deadlines())
        self.rule_list = rules

    def receive(self, key, value, ts, kind="report", tag=""):
        if kind != "report":
            return super().receive(key, value, ts, kind, tag)
        prev = self.db.get(key)
        self.db[key] = value
        if prev is None:
            return
        for rule in self.rule_list:
            if rule.trigger.is_time or rule.trigger.key() != key:
                continue
            timer = rule.condition_timer
            if timer is None:
                if rule.trigger.fires(value, prev):
                    self._fire_rule(rule, ts)
            elif timer.watched.fires(value, prev):
                native = self._timers[rule.id] = _NativeTimer(rule)
                self._push(ts + timer.duration_ms, "timer", native)
            elif timer.watched.satisfied_by(prev) and not timer.watched.satisfied_by(value):
                self._timers.pop(rule.id, None)


def _running(platform):
    """The running timers, each with its rule and deadline."""
    return sorted((rid, deadline) for deadline, _, kind, payload in platform._pending
                  if kind == "timer" for rid, timer in platform._timers.items() if timer is payload)


def _check_steps(table, rules, registry, steps):
    tabled = SimulatedPlatform(table, registry, wake=Deadlines())
    scanning = _ScanningPlatform(rules, registry)
    now = 0
    for key, value, gap in steps:
        now += gap
        run_due(tabled, now)
        run_due(scanning, now)
        tabled.receive(key, value, now)
        scanning.receive(key, value, now)
        assert tabled.issued == scanning.issued
        assert _running(tabled) == _running(scanning)
        assert tabled.db == scanning.db
    run_due(tabled, now + 10**7)
    run_due(scanning, now + 10**7)
    assert tabled.issued == scanning.issued
    assert tabled._timers == scanning._timers == {}


@pytest.fixture(scope="module")
def platform_rules(mini_registry):
    rules = parse_rules(PLATFORM_RULES, mini_registry)
    return rules, RuleTable(rules, mini_registry)


def _platform_values(table, registry):
    """Every value the steps draw for each key: a numeric key's cut points
    and their neighbours, an enumerated or binary key's every value."""
    values = {}
    for key in PLATFORM_KEYS:
        desc = registry.lookup(*key)
        if desc.kind is AttributeKind.NUMERIC:
            values[key] = _near(table.thresholds[key])
        else:
            values[key] = list(desc.values)
    return values


def test_platform_cut_points_cover_every_numeric_trigger(platform_rules):
    _, table = platform_rules
    assert table.thresholds[("ts1", "temperature")] == (86.0, 90.0, 95.0)
    assert table.thresholds[("am1", "humidity")] == (40.0, 60.0, 70.0)


def test_rule_table_matches_scanning_platform_across_every_cut(platform_rules, mini_registry):
    # Walk each numeric key up and down through every cut point and its
    # neighbours, with the held-duration rules' deadlines in between.
    rules, table = platform_rules
    values = _platform_values(table, mini_registry)
    steps = [(("ps1", "presence"), "present", 0), (("mode1", "mode"), "away", 1)]
    for key in (("ts1", "temperature"), ("am1", "humidity")):
        walk = values[key] + values[key][::-1] + values[key][::2] + values[key][1::2]
        steps += [(key, v, gap) for v, gap in zip(walk, [1, 25_000, 30_000] * len(walk))]
    _check_steps(table, rules, mini_registry, steps)


def _check_random(platform_rules, registry, max_examples):
    rules, table = platform_rules
    values = _platform_values(table, registry)
    step = st.sampled_from(PLATFORM_KEYS).flatmap(lambda key: st.tuples(
        st.just(key), st.sampled_from(values[key]),
        st.sampled_from([0, 1, 10_000, 20_000, 30_000, 60_000])))

    @settings(max_examples=max_examples, deadline=None)
    @given(steps=st.lists(step, max_size=40))
    def check(steps):
        _check_steps(table, rules, registry, steps)

    check()


def test_rule_table_matches_scanning_platform(platform_rules, mini_registry):
    _check_random(platform_rules, mini_registry, 200)


@pytest.mark.slow
def test_rule_table_matches_scanning_platform_long(platform_rules, mini_registry):
    _check_random(platform_rules, mini_registry, 3000)


def test_action_values_are_canonical_once_checked():
    # An action's value is checked once, when its rule is parsed: the rule
    # holds the float the device stores, so the replay applies commands as
    # they are; a value out of bounds is rejected.
    registry = load_home(yaml.safe_dump({**MINI_HOME, "devices": [*MINI_HOME["devices"], {
        "id": "th1", "attributes": [{"name": "setpoint", "kind": "numeric", "min": 50,
                                     "max": 90, "initial": 68, "writable": True}]}]}))
    act = registry.check_action(RuleAction("th1", "setpoint", "72", 5))
    assert act == RuleAction("th1", "setpoint", 72.0, 5) and isinstance(act.value, float)
    [rule] = parse_rules("rs: when ps1.presence == present then th1.setpoint := 72", registry)
    trace = [Event("ps1", "presence", "present", 1000)]
    assert [(e.key(), e.value) for e in run_raw(trace, [rule], registry).actuations] == [
        (("th1", "setpoint"), 72.0)]
    with pytest.raises(ModelError):
        registry.check_action(RuleAction("th1", "setpoint", 95.0))
