import io
import random
from array import array
from pathlib import Path
from typing import Union

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from flowgate import model, synth
from flowgate.dsl import (
    ParseError,
    _strict_loader,
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
        "1000 ps1 presence present\n"
        "3000 ts1 temperature 90\n"
        "3000 mo1 motion active\n"
        "3000 ts1 temperature 90.0\n"   # the same record, spelled another way
        "3000 ts1 temperature 91\n"
        "4000 ts1 temperature 91\n"     # the same value, a millisecond later
    )
    events = list(parse_trace(text, mini_registry))
    assert [(e.timestamp, e.value) for e in events] == [
        (1000, "present"), (3000, 90.0), (3000, "active"), (3000, 91.0), (4000, 91.0)]


@pytest.mark.parametrize("record", [
    "1000 ts1 temperature 20000",
    "1000 zz9 motion active",
    "1000 mo1 humidity 40",
], ids=["out-of-bounds", "unknown-device", "unknown-attribute"])
def test_parse_trace_bounds_error(mini_registry, record):
    # A comment, a blank line and a repeat before the record shift its line
    # number but not its place.
    with pytest.raises(ParseError) as err:
        parse_trace(f"500 ts1 temperature 20\n# note\n\n500 ts1 temperature 20\n{record}\n",
                    mini_registry)
    assert err.value.line == 5


@pytest.mark.parametrize("record", [
    "-1 mo1 motion active",
    "18446744073709551616 mo1 motion active",
], ids=["negative", "2**64"])
def test_parse_trace_timestamp_range_error(mini_registry, record):
    with pytest.raises(ParseError) as err:
        parse_trace(f"# out of range\n{record}\n", mini_registry)
    assert err.value.line == 2
    assert "is outside 0..18446744073709551615" in str(err.value)


def test_parse_trace_keeps_the_largest_timestamp(mini_registry):
    [event] = parse_trace("18446744073709551615 mo1 motion active\n", mini_registry)
    assert event.timestamp == 2**64 - 1


def test_parse_trace_event_past_the_place_column_is_an_error(mini_registry, monkeypatch):
    # One-byte place columns stand in for four-byte ones: the 257th event
    # has no place, and the error names its line.
    monkeypatch.setattr(model, "array", lambda code: array("B" if code == "I" else code))
    text = "# one byte per place\n" + "".join(
        f"{ts} mo1 motion {('active', 'inactive')[ts % 2]}\n" for ts in range(300))
    with pytest.raises(ParseError) as err:
        parse_trace(text, mini_registry)
    assert err.value.line == 258
    assert "at most 4294967296 events" in str(err.value)


def test_parse_trace_regression_error(mini_registry):
    text = "5000 ts1 temperature 90\n1000 ts1 temperature 80\n"
    with pytest.raises(ParseError) as err:
        parse_trace(text, mini_registry)
    assert err.value.line == 2


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
            raise ParseError(f"timestamp {ts} is older than {max_ts} on the record before it",
                             line_no)
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
        if not 0 <= ts < 2**64:
            raise ParseError(f"timestamp {ts} is outside 0..{2**64 - 1}", line_no)
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
    "{ts} mo1 humidity 40", "-1 mo1 motion active", "18446744073709551616 mo1 motion active",
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
            # Mostly a record of the latest millisecond, which collapses;
            # now and then an older one, which goes back in time.
            older = draw(st.integers(0, 9)) == 0
            pool = records[-6:] if older else [r for r in records if r[0] == ts]
            old_ts, device, attribute, text = draw(st.sampled_from(pool))
            if draw(st.booleans()):   # the same value, spelled another way
                text = RESPELL.get(text, text)
            record = (old_ts, device, attribute, text)
        else:
            ts += draw(st.sampled_from([0, 0, 500, 1000, 1000, 2500]))
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


def _outcome(parse, *args):
    try:
        return repr(list(parse(*args)))
    except ParseError as exc:
        return ("ParseError", exc.line, str(exc))


def _check_parse_trace_matches_reference(registry, max_examples):
    @settings(max_examples=max_examples, deadline=None)
    @given(trace_texts())
    def check(text):
        expected = _outcome(reference_parse_trace, text, registry, 0)
        assert _outcome(parse_trace, text, registry) == expected
        assert _outcome(parse_trace, io.StringIO(text), registry) == expected

    check()


def test_parse_trace_matches_reference(mini_registry):
    _check_parse_trace_matches_reference(mini_registry, 200)


@pytest.mark.slow
def test_parse_trace_matches_reference_long(mini_registry):
    _check_parse_trace_matches_reference(mini_registry, 2000)


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


DEMO = Path(__file__).resolve().parent.parent / "scenarios" / "demo"
STRICT_BOOLS = """\
words: [on, off, yes, no, On, OFF, Yes, NO, y, n]
bools: [true, false, True, FALSE]
"""


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
def test_yaml_backends_load_the_same_documents():
    c_loader, py_loader = _strict_loader(yaml.CSafeLoader), _strict_loader(yaml.SafeLoader)
    texts = [(DEMO / name).read_text() for name in ("scenario.yaml", "home.yaml", "ups.yaml")]
    texts += [yaml.safe_dump(synth.testbed(name).home) for name in synth.ALL_TESTBEDS]
    texts.append(STRICT_BOOLS)
    for text in texts:
        assert yaml.load(text, Loader=c_loader) == yaml.load(text, Loader=py_loader)
    for loader in (c_loader, py_loader):
        doc = yaml.load(STRICT_BOOLS, Loader=loader)
        assert doc["words"] == ["on", "off", "yes", "no", "On", "OFF", "Yes", "NO", "y", "n"]
        assert doc["bools"] == [True, False, True, False]
        assert all(type(b) is bool for b in doc["bools"])

