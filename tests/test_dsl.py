import io
import random
from typing import Union

import pytest
from hypothesis import given, settings, strategies as st

from flowgate.dsl import (
    ParseError,
    format_trace,
    load_home,
    parse_rule,
    parse_rules,
    parse_trace,
    print_rule,
)
from flowgate.model import Event, ModelError, Operator


def test_parse_condition_rule(mini_registry):
    rule = parse_rule(
        "when ps1.presence == present if ts1.temperature > 86 then f1.switch := on",
        mini_registry,
    )
    assert rule.trigger.key() == ("ps1", "presence")
    assert rule.trigger.operator is Operator.EQ
    assert len(rule.condition) == 1
    assert rule.condition[0].operator is Operator.GT
    assert rule.actions[0].device == "f1"
    assert rule.condition_timer is None


def test_parse_trigger_action_rule(mini_registry):
    rule = parse_rule("when ts1.temperature > 86 then f1.switch := on", mini_registry)
    assert rule.condition == ()
    assert rule.trigger.key() == ("ts1", "temperature")


def test_parse_timer_rule(mini_registry):
    rule = parse_rule(
        "when mo1.motion == inactive for 300000 then sl1.switch := off", mini_registry
    )
    assert rule.condition_timer is not None
    assert rule.condition_timer.duration_ms == 300000
    assert rule.condition_timer.watched == rule.trigger


def test_parse_time_window_and_delay(mini_registry):
    rule = parse_rule(
        "when mo1.motion == inactive if time.clock in 17:00..08:00"
        " then sl1.switch := off after 600000",
        mini_registry,
    )
    assert rule.condition[0].is_time
    assert rule.actions[0].delay_ms == 600000


def test_parse_multi_action_and_history(mini_registry):
    rule = parse_rule(
        "when ps1.presence == present then f1.switch := on, sl1.switch := on pass-history",
        mini_registry,
    )
    assert len(rule.actions) == 2
    assert rule.uses_history


def test_parse_errors_have_positions(mini_registry):
    with pytest.raises(ParseError) as err:
        parse_rule("when ps1.presence == present then", mini_registry)
    assert "line" in str(err.value)
    with pytest.raises(ParseError):
        parse_rule("when nodev.presence == present then f1.switch := on", mini_registry)
    with pytest.raises(ParseError):
        # Ordering operator on a binary attribute.
        parse_rule("when ps1.presence > present then f1.switch := on", mini_registry)
    with pytest.raises(ParseError):
        # Value outside the attribute's vocabulary.
        parse_rule("when ps1.presence == maybe then f1.switch := on", mini_registry)
    with pytest.raises(ParseError):
        # Read-only attribute in an action.
        parse_rule("when ps1.presence == present then ts1.temperature := 70", mini_registry)


RULE_LINES = [
    "r1: when ps1.presence == present if ts1.temperature > 86 then f1.switch := on",
    "r2: when ts1.temperature > 86 then f1.switch := on",
    "r3: when mo1.motion == inactive for 300000 then sl1.switch := off",
    "r4: when mo1.motion == active if time.clock in 10:00..01:00 and mode1.mode != vacation"
    " then sl1.switch := on",
    "r5: when time.clock == 07:00 then f1.switch := on",
    "r6: when am1.humidity in 40..60 then sl1.switch := on, f1.switch := off after 1500",
]


@pytest.mark.parametrize("line", RULE_LINES)
def test_print_parse_round_trip(line, mini_registry):
    rule = parse_rule(line, mini_registry)
    printed = print_rule(rule)
    assert parse_rule(printed, mini_registry) == rule
    # And printing is a fixed point.
    assert print_rule(parse_rule(printed, mini_registry)) == printed


def test_parse_rules_skips_comments(mini_registry):
    text = "# header\n\n" + RULE_LINES[0] + "\n  # tail\n"
    assert len(parse_rules(text, mini_registry)) == 1


def test_parse_rules_rejects_duplicate_ids(mini_registry):
    text = RULE_LINES[0] + "\n" + RULE_LINES[0]
    with pytest.raises(ParseError):
        parse_rules(text, mini_registry)


def test_parse_trace_orders_and_dedupes(mini_registry):
    text = (
        "3000 ts1 temperature 90\n"
        "1000 ps1 presence present\n"
        "3000 ts1 temperature 90\n"   # exact duplicate
        "2000 mo1 motion active\n"
    )
    events = parse_trace(text, mini_registry, tolerance_ms=5000)
    assert [e.timestamp for e in events] == [1000, 2000, 3000]
    assert events[2].value == 90.0


@pytest.mark.parametrize("record", [
    "1000 ts1 temperature 20000",
    "1000 zz9 motion active",
    "1000 mo1 humidity 40",
], ids=["out-of-bounds", "unknown-device", "unknown-attribute"])
def test_parse_trace_bounds_error(mini_registry, record):
    with pytest.raises(ParseError) as err:
        parse_trace(f"500 ts1 temperature 20\n{record}\n", mini_registry)
    assert err.value.line == 2


def test_parse_trace_regression_error(mini_registry):
    text = "5000 ts1 temperature 90\n1000 ts1 temperature 80\n"
    with pytest.raises(ParseError):
        parse_trace(text, mini_registry, tolerance_ms=0)


def reference_parse_trace(source, registry=None, tolerance_ms=0):
    """The two-pass parser: every record validated, every record kept for dedupe, always sorted."""
    if isinstance(source, str):
        source = io.StringIO(source)
    events = []
    seen = set()
    max_ts = None
    for line_no, raw in enumerate(source, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) < 4:
            raise ParseError(f"trace record needs 4 fields, got {len(fields)}", line_no)
        ts_text, device, attribute, value_text = fields[:4]
        try:
            ts = int(ts_text)
        except ValueError:
            raise ParseError(f"bad timestamp {ts_text!r}", line_no) from None
        if max_ts is not None and ts < max_ts - tolerance_ms:
            raise ParseError(
                f"timestamp {ts} regresses more than {tolerance_ms}ms behind {max_ts}", line_no
            )
        max_ts = max(ts, max_ts) if max_ts is not None else ts
        value: Union[str, float]
        if registry is not None:
            try:
                value = registry.lookup(device, attribute).validate_value(value_text)
            except ModelError as exc:
                raise ParseError(str(exc), line_no) from None
        else:
            try:
                value = float(value_text)
            except ValueError:
                value = value_text
        key = (device, attribute, value, ts)
        if key in seen:
            continue
        seen.add(key)
        events.append(Event(device, attribute, value, ts))
    events.sort(key=lambda e: e.timestamp)
    return events


# Value spellings per key; equal numbers are written several ways.
TRACE_VALUES = {
    ("ts1", "temperature"): ["20", "20.0", "020", "21.5", "-3"],
    ("am1", "humidity"): ["20", "45"],
    ("mo1", "motion"): ["active", "inactive"],
    ("am1", "motion"): ["active", "inactive"],
    ("ps1", "presence"): ["present", "not-present"],
    ("mode1", "mode"): ["home", "away", "vacation"],
}
RESPELL = {"20": "20.0", "20.0": "020", "020": "20"}
BAD_RECORDS = [
    "mo1 motion", "12x mo1 motion active", "5.5 ps1 presence present", "{ts} mo1 motion maybe",
    "{ts} ts1 temperature 20000", "{ts} ts1 temperature nan", "{ts} zz9 motion active",
    "{ts} mo1 humidity 40",
]
NOISE = ["", "   ", "# a comment", "\t# indented comment"]


@st.composite
def trace_texts(draw):
    """Trace files with noise, re-spelled repeats, regressions and at most one bad record."""
    records: list[tuple[int, str, str, str]] = []
    lines = []
    ts = draw(st.integers(0, 3)) * 1000
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(["new"] * 4 + ["repeat"] * 2 + ["noise"]))
        if kind == "noise":
            lines.append(draw(st.sampled_from(NOISE)))
            continue
        if kind == "repeat" and records:
            old_ts, device, attribute, text = draw(st.sampled_from(records[-6:]))
            if draw(st.booleans()):   # the same value, spelled another way
                text = RESPELL.get(text, text)
            record = (old_ts, device, attribute, text)
        else:
            ts = max(0, ts + draw(st.sampled_from([0, 0, 500, 1000, 1000, 2500, -500, -1500])))
            device, attribute = draw(st.sampled_from(sorted(TRACE_VALUES)))
            record = (ts, device, attribute, draw(st.sampled_from(TRACE_VALUES[device, attribute])))
        records.append(record)
        sep = draw(st.sampled_from([" ", "  ", "\t"]))
        tail = draw(st.sampled_from(["", "", " # note", " extra-field", "  "]))
        lines.append(sep.join(str(f) for f in record) + tail)
    bad = draw(st.one_of(st.none(), st.sampled_from(BAD_RECORDS)))
    if bad is not None:   # sometimes also regressing, which is reported first
        bad_ts = max(0, ts - draw(st.sampled_from([0, 0, 1500, 6000])))
        lines.insert(draw(st.integers(0, len(lines))), bad.format(ts=bad_ts))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


def _outcome(parse, text, registry, tolerance_ms):
    try:
        return repr(list(parse(text, registry, tolerance_ms=tolerance_ms)))
    except ParseError as exc:
        return ("ParseError", exc.line, str(exc))


@settings(max_examples=200, deadline=None)
@given(trace_texts(), st.sampled_from([0, 1000, 2000, 5000]), st.booleans())
def test_parse_trace_matches_reference(mini_registry, text, tolerance_ms, checked):
    registry = mini_registry if checked else None
    expected = _outcome(reference_parse_trace, text, registry, tolerance_ms)
    assert _outcome(parse_trace, text, registry, tolerance_ms) == expected
    assert _outcome(parse_trace, io.StringIO(text), registry, tolerance_ms) == expected


def test_parse_trace_unchecked_nan_records_stay_distinct():
    # NaN never equals itself, so without a registry equal "nan" records do not collapse.
    text = "1000 ts1 temperature nan\n1000 ts1 temperature nan\n"
    assert len(parse_trace(text)) == len(reference_parse_trace(text)) == 2


def test_trace_round_trip_idempotent(mini_registry):
    rng = random.Random(5)
    events = []
    t = 0
    for _ in range(200):
        t += rng.randrange(1, 5000)
        events.append(Event("ts1", "temperature", float(rng.randrange(-100, 200)), t))
    parsed = parse_trace(format_trace(events), mini_registry)
    again = parse_trace(format_trace(parsed), mini_registry)
    assert parsed == again


@given(st.lists(st.sampled_from(["active", "inactive"]), min_size=1, max_size=40))
def test_trace_values_conform_to_descriptor(values):
    import yaml
    from tests.conftest import MINI_HOME

    registry = load_home(yaml.safe_dump(MINI_HOME))
    text = "".join(f"{1000 * i} mo1 motion {v}\n" for i, v in enumerate(values))
    for event in parse_trace(text, registry):
        assert event.value in ("active", "inactive")


def test_home_loader_keeps_on_off_strings(mini_registry):
    # YAML 1.1 would read bare on/off as booleans; the loader must not.
    desc = mini_registry.lookup("f1", "switch")
    assert desc.values == ("on", "off")
    assert mini_registry.initial_state("f1", "switch") == "off"


def test_home_loader_requires_bounds_for_unknown_numeric():
    import yaml
    home = {
        "name": "h",
        "devices": [{"id": "x1", "attributes": [
            {"name": "frobnication", "kind": "numeric", "initial": 1}
        ]}],
    }
    with pytest.raises(Exception):
        load_home(yaml.safe_dump(home))
