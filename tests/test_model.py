import dataclasses
import gc
import math
import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from flowgate.dsl import parse_trace
from flowgate.model import (
    AttributeDescriptor,
    AttributeKind,
    Cells,
    Command,
    Constraint,
    DailyWindow,
    Event,
    MAX_TIMESTAMP_MS,
    ModelError,
    Operator,
    Trace,
    Value,
    device_constraint,
    format_hhmm,
    format_value,
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


def reference_satisfied_by(c: Constraint, value: Value) -> bool:
    """The interpreter ``Constraint.satisfied_by`` replaced: it re-reads the
    operator and converts the ref on every call."""
    op = c.operator
    if op is Operator.ANY:
        return True
    if op is Operator.IN_WINDOW:
        assert isinstance(c.value, DailyWindow)
        return c.value.contains(int(value))
    if op is Operator.IN_RANGE:
        lo, hi = c.value  # type: ignore[misc]
        return float(lo) <= float(value) <= float(hi)
    if op in (Operator.EQ, Operator.NE):
        if isinstance(c.value, (int, float)) and not isinstance(c.value, bool):
            same = float(value) == float(c.value)
        else:
            same = value == c.value
        return same if op is Operator.EQ else not same
    v = float(value)
    ref = float(c.value)  # type: ignore[arg-type]
    if op is Operator.LT:
        return v < ref
    if op is Operator.LE:
        return v <= ref
    if op is Operator.GT:
        return v > ref
    return v >= ref


def _outcome(fn, *args):
    """``fn``'s result with its type, or the type of the exception it raised."""
    try:
        result = fn(*args)
    except Exception as exc:  # the comparison is of exception types
        return ("raises", type(exc))
    return ("returns", type(result), result)


def _assert_matches_reference(c: Constraint, new: Value, prev: Value) -> None:
    """``satisfied_by`` and ``fires`` return or raise as the reference does."""
    assert _outcome(c.satisfied_by, new) == _outcome(reference_satisfied_by, c, new), (c, new)
    expected = _outcome(
        lambda: reference_satisfied_by(c, new) and not reference_satisfied_by(c, prev)
    )
    assert _outcome(c.fires, new, prev) == expected, (c, new, prev)


_STRINGS = st.sampled_from(
    ["20", "020", "20.0", " 7 ", "1e3", "nan", "-inf", "", "present", "not-present"]
) | st.text(max_size=3)
_SCALARS = st.one_of(
    _STRINGS,
    st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, 20.0, 0.0, -0.0]),
    st.integers() | st.sampled_from([20, 0, 1, 2 ** 1100]),
    st.booleans(),
)
_WINDOWS = st.tuples(
    st.integers(min_value=0, max_value=1439), st.integers(min_value=0, max_value=1439)
).filter(lambda w: w[0] != w[1]).map(lambda w: DailyWindow(*w))


def _refs(op: Operator):
    """Refs for ``op``: scalars of every kind, plus the shapes the operator takes.

    An IN_WINDOW ref is a DailyWindow wherever a constraint is built; the
    test asserts that at construction rather than on every call.
    """
    if op is Operator.IN_WINDOW:
        return _WINDOWS
    if op is Operator.IN_RANGE:
        return _SCALARS | st.tuples(_SCALARS, _SCALARS) | st.lists(_SCALARS, max_size=3)
    if op is Operator.ANY:
        return _SCALARS | st.none()
    return _SCALARS


@given(st.sampled_from(Operator).flatmap(lambda op: st.tuples(st.just(op), _refs(op))),
       _SCALARS, _SCALARS)
def test_constraint_test_matches_reference_interpreter(op_ref, new, prev):
    op, ref = op_ref
    c = device_constraint("d", "a", op, ref)  # never raises, whatever the ref
    _assert_matches_reference(c, new, prev)


_GRID_SCALARS = [
    -1, 0, 1, 20, 2 ** 1100, -1.0, 0.0, 20.0, 20.5, math.nan, math.inf, -math.inf,
    True, False, "20", "020", "20.0", "present", "",
]


@pytest.mark.parametrize("op", list(Operator))
def test_constraint_test_matches_reference_on_a_grid(op):
    """Every ref and probe pair of a small grid, so equal bounds always meet."""
    refs = [DailyWindow(0, 20), DailyWindow(20, 1)] if op is Operator.IN_WINDOW else [
        *_GRID_SCALARS, (0.0, 20.0), (20, 20), ("0", 20.0), (0.0, "present"), ("present", 1),
    ]
    for ref in refs:
        c = device_constraint("d", "a", op, ref)
        for new in _GRID_SCALARS:
            for prev in _GRID_SCALARS:
                _assert_matches_reference(c, new, prev)


def test_in_window_needs_a_daily_window():
    with pytest.raises(AssertionError, match="DailyWindow"):
        device_constraint("time", "clock", Operator.IN_WINDOW, 600)


def test_unconvertible_ref_raises_when_evaluated():
    c = device_constraint("ps1", "presence", Operator.GT, "present")
    with pytest.raises(ValueError):
        c.satisfied_by(1.0)
    # The upper bound converts only when the comparison reaches it.
    r = device_constraint("ts1", "temperature", Operator.IN_RANGE, (10.0, "high"))
    assert not r.satisfied_by(5.0)
    with pytest.raises(ValueError):
        r.satisfied_by(15.0)


def test_constraint_identity_uses_only_its_fields():
    c = device_constraint("ts1", "temperature", Operator.GT, 86.0)
    same = device_constraint("ts1", "temperature", Operator.GT, 86)
    assert c == same and hash(c) == hash(same)
    assert c != device_constraint("ts1", "temperature", Operator.GE, 86.0)
    assert repr(c) == (
        "Constraint(type='device', subject='ts1', attribute='temperature', "
        "operator=<Operator.GT: '>'>, value=86.0)"
    )
    moved = dataclasses.replace(c, value=90.0)
    assert moved.satisfied_by(95.0) and not moved.satisfied_by(88.0)


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


@pytest.mark.parametrize("ts", [-1, MAX_TIMESTAMP_MS + 1], ids=["negative", "2**64"])
def test_trace_rejects_out_of_range_timestamp(ts):
    events = [Event("mo1", "motion", "active", 0), Event("ps1", "presence", "present", ts)]
    with pytest.raises(ModelError, match=f"ps1.presence: timestamp {ts} is outside"):
        Trace.of(events)


def test_trace_keeps_the_largest_timestamp():
    event = Event("mo1", "motion", "active", MAX_TIMESTAMP_MS)
    assert list(Trace.of([event])) == [event]


# ---------------------------------------------------------------------------
# Trace storage: guards on the bytes the store and its readers hold
# ---------------------------------------------------------------------------

def _mini_home_trace_text(registry, events, rare_key, rare_share):
    """``events`` synthetic records on every mini-home key; ``rare_key`` gets
    about ``rare_share`` of them."""
    rng = random.Random(7)
    common = [key for key in registry.all_pairs() if key != rare_key]
    lines, ts = [], 0
    for _ in range(events):
        ts += rng.choice([1, 250, 1000, 60_000])
        device, attribute = rare_key if rng.random() < rare_share else rng.choice(common)
        desc = registry.lookup(device, attribute)
        if desc.kind is AttributeKind.NUMERIC:
            value = format_value(float(rng.randrange(int(desc.min), int(desc.min) + 100)))
        else:
            value = rng.choice(desc.values)
        lines.append(f"{ts} {device} {attribute} {value}\n")
    return "".join(lines)


def _traced_bytes(build):
    """What ``build()`` returns, the bytes it still holds, and its peak allocation."""
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        built = build()
        held, peak = tracemalloc.get_traced_memory()
        return built, held - before, peak - before
    finally:
        if not tracing:
            tracemalloc.stop()


RARE = ("mode1", "mode")


@pytest.fixture(scope="module")
def mini_trace_text(mini_registry):
    return _mini_home_trace_text(mini_registry, 24_000, RARE, 0.01)


def test_trace_store_holds_under_30_bytes_per_event(mini_registry, mini_trace_text):
    # A timestamp is 8 bytes in its key's array('Q'), a value one pointer in
    # its key's list, and the place 4 bytes in its key's array('I'): about
    # 24 bytes with the columns' spare room. An int object per timestamp
    # would add 32.
    trace, held, _ = _traced_bytes(lambda: parse_trace(mini_trace_text, mini_registry))
    assert len(trace) >= 20_000
    assert held / len(trace) <= 30


def test_placed_allocates_under_a_byte_per_trace_event(mini_registry, mini_trace_text):
    # Streaming a key with 1% of the events merges only its places, packed
    # in 8 bytes per streamed event; a list mask over the whole trace would
    # cost 8 bytes per event.
    trace = parse_trace(mini_trace_text, mini_registry)
    share = len(trace.column(RARE)[0]) / len(trace)
    assert 0.005 < share < 0.02
    placed, _, peak = _traced_bytes(lambda: trace.placed({RARE}))
    assert peak / len(trace) <= 1
    expected = [(i, (e.key(), e.value, e.timestamp)) for i, e in enumerate(trace) if e.key() == RARE]
    assert list(placed) == expected


# ---------------------------------------------------------------------------
# Cells
# ---------------------------------------------------------------------------

class _EndRng:
    """A draw that always returns one end of the range it is given."""

    def __init__(self, end):
        self.end = end

    def uniform(self, lo, hi):
        return (lo, hi)[self.end]


def test_cells_ends_open_and_closed():
    # ts1.temperature's bounds, cut at 70 and 86: a cut is a closed cell of
    # its own, a gap is open at each cut and closed at each bound.
    cells = Cells((70.0, 86.0), -460.0, 10000.0)
    probes = [-460.0, 69.9, 70.0, 80.0, 86.0, 86.1, 10000.0]
    assert [cells.cell(v) for v in probes] == [0, 0, 1, 2, 3, 4, 4]
    assert cells.ends(0) == (-460.0, 70.0)     # < 70
    assert cells.ends(1) == (70.0, 70.0)       # == 70
    assert cells.ends(4) == (86.0, 10000.0)    # > 86
    assert cells.representatives() == [-195.0, 70.0, 78.0, 86.0, 5043.0]


def test_cells_sample_falls_back_to_the_midpoint_only_at_an_open_end():
    cells = Cells((70.0, 86.0), -460.0, 10000.0)
    assert cells.sample(90.0, _EndRng(0)) == 5043.0      # 86 is open: the midpoint
    assert cells.sample(90.0, _EndRng(1)) == 10000.0     # the bound is closed
    assert cells.sample(80.0, _EndRng(1)) == 78.0
    assert cells.sample(86.0, random.Random(0)) == 86.0  # a cut is its own cell
    rng = random.Random(1)
    for value in (-460.0, 0.0, 75.0, 99.0, 10000.0):
        cell = cells.cell(value)
        assert all(cells.cell(cells.sample(value, rng)) == cell for _ in range(200))


def test_cells_clip_cuts_outside_the_bounds():
    # Cuts beyond the bounds leave no cell of their own within them.
    cells = Cells((-1000.0, 0.0, 20000.0), -460.0, 10000.0)
    assert cells.ends(2) == (-460.0, 0.0)
    assert cells.ends(4) == (0.0, 10000.0)
    assert cells.representatives() == [-230.0, 0.0, 5000.0]
    assert Cells((), 0.0, 100.0).representatives() == [50.0]
    # A cut on a bound leaves the gap beside it empty.
    assert Cells((0.0, 100.0), 0.0, 100.0).representatives() == [0.0, 50.0, 100.0]
