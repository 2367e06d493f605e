import pytest
from hypothesis import given, strategies as st

from flowgate.model import (
    AttributeDescriptor,
    AttributeKind,
    Command,
    DailyWindow,
    Event,
    ModelError,
    Operator,
    device_constraint,
    format_hhmm,
    minute_of_day,
    parse_hhmm,
)


def test_numeric_descriptor_needs_ordered_bounds():
    with pytest.raises(ModelError):
        AttributeDescriptor("temperature", AttributeKind.NUMERIC, min=50, max=50)


def test_binary_descriptor_needs_two_values():
    with pytest.raises(ModelError):
        AttributeDescriptor("motion", AttributeKind.BINARY, values=("active",))


def test_active_value_must_be_member():
    with pytest.raises(ModelError):
        AttributeDescriptor(
            "motion", AttributeKind.BINARY, values=("active", "inactive"), active_value="on"
        )


def test_validate_value_bounds():
    desc = AttributeDescriptor("temperature", AttributeKind.NUMERIC, min=-460, max=10000)
    assert desc.validate_value("90") == 90.0
    with pytest.raises(ModelError):
        desc.validate_value(20000)


def test_validate_value_membership():
    desc = AttributeDescriptor(
        "presence", AttributeKind.BINARY, values=("present", "not-present")
    )
    assert desc.validate_value("present") == "present"
    with pytest.raises(ModelError):
        desc.validate_value("maybe")


@pytest.mark.parametrize(
    "op,value,probe,expected",
    [
        (Operator.GT, 86.0, 90.0, True),
        (Operator.GT, 86.0, 86.0, False),
        (Operator.GE, 86.0, 86.0, True),
        (Operator.LT, 70.0, 69.9, True),
        (Operator.EQ, "present", "present", True),
        (Operator.NE, "present", "not-present", True),
        (Operator.IN_RANGE, (10.0, 20.0), 15.0, True),
        (Operator.IN_RANGE, (10.0, 20.0), 21.0, False),
    ],
)
def test_constraint_satisfied_by(op, value, probe, expected):
    c = device_constraint("d", "a", op, value)
    assert c.satisfied_by(probe) is expected


def test_constraint_fires_on_edges_only():
    c = device_constraint("ts1", "temperature", Operator.GT, 86.0)
    assert c.fires(90.0, 80.0)
    assert not c.fires(90.0, 88.0)   # already above: no crossing
    assert not c.fires(80.0, 70.0)
    eq = device_constraint("ps1", "presence", Operator.EQ, "present")
    assert eq.fires("present", "not-present")
    assert not eq.fires("present", "present")  # repeated value fires no event


def test_daily_window_wraps_midnight():
    w = DailyWindow(parse_hhmm("17:00"), parse_hhmm("08:00"))
    assert w.contains(parse_hhmm("17:30"))
    assert w.contains(parse_hhmm("03:00"))
    assert not w.contains(parse_hhmm("12:00"))
    assert not w.contains(parse_hhmm("08:00"))  # half-open end


def test_daily_window_rejects_empty():
    with pytest.raises(ModelError):
        DailyWindow(60, 60)


def test_minute_of_day():
    assert minute_of_day(0) == 0
    assert minute_of_day(7 * 3600 * 1000) == 7 * 60
    assert minute_of_day(25 * 3600 * 1000) == 60  # wraps to the next day


@given(st.integers(min_value=0, max_value=1439))
def test_hhmm_round_trip(minute):
    assert parse_hhmm(format_hhmm(minute)) == minute


@given(
    st.integers(min_value=0, max_value=1439),
    st.integers(min_value=0, max_value=1439),
    st.integers(min_value=0, max_value=1439),
)
def test_window_membership_against_linear_scan(start, end, probe):
    if start == end:
        return
    w = DailyWindow(start, end)
    if start < end:
        expected = start <= probe < end
    else:
        expected = probe >= start or probe < end
    assert w.contains(probe) is expected


def test_registry_lookup_defaults(mini_registry):
    desc = mini_registry.lookup("ts1", "temperature")
    assert (desc.min, desc.max) == (-460.0, 10000.0)
    desc = mini_registry.lookup("am1", "humidity")
    assert (desc.min, desc.max) == (0.0, 100.0)


def test_registry_lookup_unknown(mini_registry):
    with pytest.raises(ModelError):
        mini_registry.lookup("nosuch", "motion")
    with pytest.raises(ModelError):
        mini_registry.lookup("ps1", "color")


def test_event_and_command_are_immutable_hashable_tuples():
    event = Event("mo1", "motion", "active", 1000)
    with pytest.raises(AttributeError):
        event.value = "inactive"  # type: ignore[misc]
    assert event.key() == ("mo1", "motion")
    assert event == ("mo1", "motion", "active", 1000)
    assert {event, Event("mo1", "motion", "active", 1000)} == {event}
    assert hash(Event("ts1", "temperature", 20.0, 5)) == hash(Event("ts1", "temperature", 20, 5))
    command = Command("mo1", "motion", "active", 1000)
    assert command.origin == "manual"
    assert command.key() == event.key()
    with pytest.raises(AttributeError):
        command.origin = "r1"  # type: ignore[misc]
    assert event != command and command != event
    assert event != Command(*event, "r1")
    assert len({event, command}) == 2
