"""Domain model: devices, attributes, events, commands and automation rules.

Everything here is immutable after construction and safe to share between
pipeline stages. Values of binary and enumerated attributes are kept as the
strings the devices actually emit (e.g. ``present`` / ``not-present``), never
coerced to booleans.

``Event`` and ``Command`` are named tuples: cheap to build, hashable, and
equal to a plain tuple of their fields. An ``Event`` never equals a
``Command``, whose five fields make a longer tuple. A loaded ``Trace`` keeps
its records in per-key columns; it builds ``Event`` tuples only when it is
iterated, and a replay reads plain ``(key, value, ts)`` rows instead.
"""

from __future__ import annotations

import operator
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Container, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from itertools import chain, repeat
from random import Random
from typing import Any, Callable, NamedTuple, Optional, Union

MS_PER_MINUTE = 60_000
MS_PER_DAY = 86_400_000
MINUTES_PER_DAY = 1440
# A timestamp is a count of milliseconds that a trace stores as an unsigned
# 64-bit integer.
MAX_TIMESTAMP_MS = 2**64 - 1
# An event's place in its trace is stored as an unsigned 32-bit integer.
MAX_PLACE = 2**32 - 1

# Bounds the platform documents for common sensor attributes; any other
# numeric attribute must declare min/max in the home configuration.
DEFAULT_NUMERIC_BOUNDS: dict[str, tuple[float, float]] = {
    "temperature": (-460.0, 10000.0),
    "humidity": (0.0, 100.0),
    "luminance": (0.0, 100000.0),
}


class ModelError(Exception):
    """Invalid configuration, rule or trace content."""


class AttributeKind(Enum):
    BINARY = "binary"
    NUMERIC = "numeric"
    ENUMERATED = "enumerated"


Value = Union[str, float]


@dataclass(frozen=True)
class AttributeDescriptor:
    """Schema for one attribute of one device."""

    name: str
    kind: AttributeKind
    values: tuple[str, ...] = ()          # binary/enumerated member set
    active_value: Optional[str] = None    # the state that "matters" for tracking
    min: Optional[float] = None
    max: Optional[float] = None
    unit: str = ""
    writable: bool = False

    def __post_init__(self) -> None:
        if self.kind is AttributeKind.NUMERIC:
            if self.min is None or self.max is None:
                raise ModelError(f"numeric attribute {self.name!r} needs min/max")
            if not self.min < self.max:
                raise ModelError(f"attribute {self.name!r}: min must be < max")
        elif self.kind is AttributeKind.BINARY:
            if len(self.values) != 2 or len(set(self.values)) != 2:
                raise ModelError(f"binary attribute {self.name!r} needs exactly two values")
        else:
            if len(self.values) < 2 or len(set(self.values)) != len(self.values):
                raise ModelError(f"enumerated attribute {self.name!r} needs >=2 distinct values")
        if self.active_value is not None and self.values and self.active_value not in self.values:
            raise ModelError(
                f"attribute {self.name!r}: active value {self.active_value!r} not in value set"
            )

    def validate_value(self, value: Value) -> Value:
        """Return the canonical form of ``value`` or raise ``ModelError``."""
        if self.kind is AttributeKind.NUMERIC:
            try:
                v = float(value)
            except (TypeError, ValueError):
                raise ModelError(f"attribute {self.name!r}: {value!r} is not numeric") from None
            assert self.min is not None and self.max is not None
            if not (self.min <= v <= self.max):
                raise ModelError(
                    f"attribute {self.name!r}: {v} outside bounds [{self.min}, {self.max}]"
                )
            return v
        if not isinstance(value, str) or value not in self.values:
            raise ModelError(f"attribute {self.name!r}: {value!r} not in {self.values}")
        return value


@dataclass(frozen=True)
class DeviceDescriptor:
    id: str
    label: str = ""
    room: str = ""
    attributes: dict[str, AttributeDescriptor] = field(default_factory=dict)
    initial: dict[str, Value] = field(default_factory=dict)


class Registry:
    """The home's device registry: descriptors plus initial states."""

    def __init__(self, devices: list[DeviceDescriptor], name: str = "home"):
        self.name = name
        self.devices: dict[str, DeviceDescriptor] = {}
        for dev in devices:
            if dev.id in self.devices:
                raise ModelError(f"duplicate device id {dev.id!r}")
            self.devices[dev.id] = dev

    def lookup(self, device: str, attribute: str) -> AttributeDescriptor:
        dev = self.devices.get(device)
        if dev is None:
            raise ModelError(f"unknown device {device!r}")
        desc = dev.attributes.get(attribute)
        if desc is None:
            raise ModelError(f"device {device!r} has no attribute {attribute!r}")
        return desc

    def check(self, c: Constraint) -> None:
        """Reject an operator or ref ``c``'s attribute cannot take; time atoms pass.

        An ordering operator needs a numeric attribute; a numeric attribute
        is compared only to numbers (both ends of an ``in-range`` pair, the
        first below the second); a binary or enumerated one only to its own
        values.
        """
        if c.is_time:
            return
        desc = self.lookup(c.subject, c.attribute)
        name = f"{c.subject}.{c.attribute}"
        if desc.kind is AttributeKind.NUMERIC:
            refs = (c.value,)
            if c.operator is Operator.IN_RANGE and isinstance(c.value, tuple) and len(c.value) == 2:
                refs = c.value
            for ref in refs:
                if isinstance(ref, bool) or not isinstance(ref, (int, float)):
                    raise ModelError(f"numeric attribute {name} compared to {ref!r}")
            if len(refs) == 2 and not refs[0] < refs[1]:
                lo, hi = map(format_value, refs)
                raise ModelError(f"empty range {lo}..{hi} of {name}")
        elif c.operator in ORDERING_OPS:
            raise ModelError(f"ordering operator on {desc.kind.value} attribute {name}")
        elif c.value not in desc.values:
            raise ModelError(f"{c.value!r} is not a value of {name}")

    def check_action(self, act: RuleAction) -> RuleAction:
        """``act`` with its value in canonical form; rejects an action whose
        target is read-only or cannot take its value."""
        desc = self.lookup(act.device, act.attribute)
        if not desc.writable:
            raise ModelError(f"{act.device}.{act.attribute} is not writable")
        return RuleAction(act.device, act.attribute, desc.validate_value(act.value), act.delay_ms)

    def initial_state(self, device: str, attribute: str) -> Value:
        desc = self.lookup(device, attribute)
        dev = self.devices[device]
        if attribute not in dev.initial:
            raise ModelError(f"no initial state for {device}.{attribute}")
        return desc.validate_value(dev.initial[attribute])

    def all_pairs(self) -> list[tuple[str, str]]:
        return [
            (dev_id, attr)
            for dev_id, dev in sorted(self.devices.items())
            for attr in sorted(dev.attributes)
        ]

    def initial_states(self) -> dict[tuple[str, str], Value]:
        return {(d, a): self.initial_state(d, a) for d, a in self.all_pairs()}


class Event(NamedTuple):
    """A timestamped attribute reading from a device."""

    device: str
    attribute: str
    value: Value
    timestamp: int  # ms on the simulation clock

    def key(self) -> tuple[str, str]:
        return (self.device, self.attribute)


class Command(NamedTuple):
    """An actuation directive emitted by the platform toward a device."""

    device: str
    attribute: str
    value: Value
    timestamp: int
    origin: str = "manual"  # rule id, or "manual"

    def key(self) -> tuple[str, str]:
        return (self.device, self.attribute)


# The kinds of message the mediator sends the platform; ``flowgate.engine``
# says what each one makes the platform do.
KIND_REPORT = "report"
KIND_SYNC = "sync"
KIND_EXPIRY = "expiry"

_timestamp = operator.attrgetter("timestamp")


class Trace:
    """A trace stored by key; iterated as events in timestamp order.

    An event's place is its 0-based index in trace order (timestamp order,
    ties in record order). Each key has three columns: its events' places,
    an ``array('I')`` (so a trace holds at most ``MAX_PLACE + 1`` events);
    their timestamps, an ``array('Q')`` of unsigned 64-bit milliseconds (0
    to ``MAX_TIMESTAMP_MS``); and the values read at them, each distinct
    value one shared object. That is about 24 bytes per event. Iterating
    builds ``Event`` tuples as they are read; ``placed(keys)`` builds none:
    it merges only ``keys``' place columns and zips ``(key, value, ts)``
    rows from their columns, the key one shared tuple.
    """

    __slots__ = ("keys", "places", "times", "values", "_ids")

    def __init__(self) -> None:
        self.keys: list[tuple[str, str]] = []    # key id -> (device, attribute)
        self.places: list[array[int]] = []        # key id -> its events' places
        self.times: list[array[int]] = []         # key id -> its timestamps
        self.values: list[list[Value]] = []       # key id -> its values
        self._ids: dict[tuple[str, str], int] = {}

    @classmethod
    def of(cls, events: Iterable[Event]) -> "Trace":
        """``events`` as a trace, stably sorted by timestamp."""
        if isinstance(events, Trace):
            return events
        trace = cls()
        for place, (device, attribute, value, ts) in enumerate(sorted(events, key=_timestamp)):
            kid = trace.key_id((device, attribute))
            try:
                trace.times[kid].append(ts)
            except OverflowError:
                raise ModelError(
                    f"event {device}.{attribute}: timestamp {ts} is outside 0..{MAX_TIMESTAMP_MS}"
                ) from None
            trace.values[kid].append(value)
            trace.places[kid].append(place)
        return trace

    def key_id(self, key: tuple[str, str]) -> int:
        """The id of ``key``, given empty columns when first seen."""
        kid = self._ids.get(key)
        if kid is None:
            kid = self._ids[key] = len(self.keys)
            self.keys.append(key)
            self.places.append(array("I"))
            self.times.append(array("Q"))
            self.values.append([])
        return kid

    def column(self, key: tuple[str, str]) -> tuple[Sequence[int], list[Value]]:
        """The timestamps of ``key``'s events and their values."""
        kid = self._ids.get(key)
        return ([], []) if kid is None else (self.times[kid], self.values[kid])

    @property
    def end(self) -> int:
        """The last event's timestamp; 0 for an empty trace."""
        return max((times[-1] for times in self.times if times), default=0)

    def _merged(self, kids: Iterable[int]) -> tuple[array[int], int]:
        """The events of the keys ``kids`` in trace order, each as ``place *
        n + kid`` for the returned ``n``: 8 bytes per event, no tuple."""
        n = len(self.keys)
        coded = (map(operator.add, map(operator.mul, self.places[kid], repeat(n)), repeat(kid))
                 for kid in kids)
        return array("Q", sorted(chain.from_iterable(coded))), n

    def placed(
        self, keys: Container[tuple[str, str]]
    ) -> Iterator[tuple[int, tuple[tuple[str, str], Value, int]]]:
        """The ``(key, value, ts)`` rows of the events on ``keys`` in trace
        order, each with its place in the trace."""
        merged, n = self._merged(kid for kid, key in enumerate(self.keys) if key in keys)
        rows = [zip(repeat(key), values, times)
                for key, times, values in zip(self.keys, self.times, self.values)]
        return zip(map(operator.floordiv, merged, repeat(n)),
                   map(next, map(rows.__getitem__, map(operator.mod, merged, repeat(n)))))

    def __iter__(self) -> Iterator[Event]:
        streams = [
            map(Event, repeat(device), repeat(attribute), values, times)
            for (device, attribute), times, values in zip(self.keys, self.times, self.values)
        ]
        merged, n = self._merged(range(len(self.keys)))
        return map(next, map(streams.__getitem__, map(operator.mod, merged, repeat(n))))

    def __len__(self) -> int:
        return sum(map(len, self.places))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return list(self) == list(other)

    def __repr__(self) -> str:
        return f"Trace({list(self)!r})"


# ---------------------------------------------------------------------------
# Constraints
# ---------------------------------------------------------------------------

class Operator(Enum):
    EQ = "=="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    IN_RANGE = "in-range"
    IN_WINDOW = "in-daily-window"
    ANY = "any"  # user-policy triggers: match every value

ORDERING_OPS = frozenset({Operator.LT, Operator.LE, Operator.GT, Operator.GE, Operator.IN_RANGE})


@dataclass(frozen=True)
class DailyWindow:
    """Half-open daily time window [start, end) in minutes, wrapping midnight."""

    start: int
    end: int

    def __post_init__(self) -> None:
        for m in (self.start, self.end):
            if not 0 <= m < MINUTES_PER_DAY:
                raise ModelError(f"window minute {m} out of range")
        if self.start == self.end:
            raise ModelError("daily window must not be empty (start == end)")

    def contains(self, minute: int) -> bool:
        minute %= MINUTES_PER_DAY
        if self.start < self.end:
            return self.start <= minute < self.end
        return minute >= self.start or minute < self.end

    def __str__(self) -> str:
        return f"{format_hhmm(self.start)}..{format_hhmm(self.end)}"


def parse_hhmm(text: str) -> int:
    """``HH:MM`` -> minute of day."""
    parts = text.split(":")
    if len(parts) != 2 or not all(p.isdigit() for p in parts):
        raise ModelError(f"bad time literal {text!r}")
    h, m = int(parts[0]), int(parts[1])
    if h >= 24 or m >= 60:
        raise ModelError(f"bad time literal {text!r}")
    return h * 60 + m


def format_hhmm(minute: int) -> str:
    return f"{minute // 60:02d}:{minute % 60:02d}"


def minute_of_day(timestamp_ms: int) -> int:
    return (timestamp_ms // MS_PER_MINUTE) % MINUTES_PER_DAY


TIME_SUBJECT = "time"
TIME_ATTRIBUTE = "clock"


# The numeric comparison each operator makes once both sides are floats.
_NUMERIC_TESTS: dict[Operator, Callable[[float, float], bool]] = {
    Operator.EQ: operator.eq,
    Operator.NE: operator.ne,
    Operator.LT: operator.lt,
    Operator.LE: operator.le,
    Operator.GT: operator.gt,
    Operator.GE: operator.ge,
}
_CONVERSION_ERRORS = (TypeError, ValueError, OverflowError)


def _always(value: Value) -> bool:
    return True


def _constraint_test(op: Operator, ref: object) -> Callable[[Value], bool]:
    """Build the test of ``value op ref`` against a concrete value.

    The ref is converted here, once. A ref that does not convert (the DSL
    parser builds ``presence > present`` before it reports the operator's
    kind) raises nothing here: its test converts it on every call instead,
    and raises then, in the order the conversions always ran.
    """
    if op is Operator.ANY:
        return _always
    if op is Operator.IN_WINDOW:
        assert isinstance(ref, DailyWindow), f"{op.value} needs a DailyWindow, got {ref!r}"
        contains = ref.contains
        return lambda value: contains(int(value))
    if op is Operator.IN_RANGE:
        try:
            lo, hi = ref  # type: ignore[misc]
            lo, hi = float(lo), float(hi)
        except _CONVERSION_ERRORS:
            def in_range(value: Value) -> bool:
                lo, hi = ref  # type: ignore[misc]
                return float(lo) <= float(value) <= float(hi)
            return in_range
        return lambda value: lo <= float(value) <= hi
    if (op is Operator.EQ or op is Operator.NE) and (
        isinstance(ref, bool) or not isinstance(ref, (int, float))
    ):
        return partial(operator.eq if op is Operator.EQ else operator.ne, ref)
    compare = _NUMERIC_TESTS[op]
    try:
        number = float(ref)  # type: ignore[arg-type]
    except _CONVERSION_ERRORS:
        return lambda value: compare(float(value), float(ref))  # type: ignore[arg-type]
    return lambda value: compare(float(value), number)


@dataclass(frozen=True)
class Constraint:
    """One atom over a device attribute or the time of day.

    ``satisfied_by(value)`` evaluates the atom against a concrete value
    (minute of day for time). ``fires(new, prev)`` is edge-trigger semantics:
    the atom becomes true on this event. That covers both the platform's
    binary de-duplication (an equal value fires no event) and
    threshold-crossing for numeric triggers. Both are built once, at
    construction, by ``_constraint_test``, as are ``is_time`` and the tuple
    ``key()`` returns; equality, hash and repr still use only the five fields below.
    """

    type: str                      # "device" | "time"
    subject: str                   # device id, or "time"
    attribute: str                 # attribute name, or "clock"
    operator: Operator
    value: object                  # Value | tuple[float, float] | DailyWindow | int
    satisfied_by: Callable[[Value], bool] = field(init=False, repr=False, compare=False)
    fires: Callable[[Value, Value], bool] = field(init=False, repr=False, compare=False)
    is_time: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        test = _constraint_test(self.operator, self.value)
        object.__setattr__(self, "satisfied_by", test)
        object.__setattr__(self, "fires", lambda new, prev: test(new) and not test(prev))
        object.__setattr__(self, "is_time", self.type == "time")
        object.__setattr__(self, "_key", (self.subject, self.attribute))

    def key(self) -> tuple[str, str]:
        return self._key

    def cut_points(self) -> tuple[float, ...]:
        """Numbers where a numeric atom's truth can flip: both ends of a range, none for ``any``."""
        if self.operator is Operator.IN_RANGE:
            lo, hi = self.value  # type: ignore[misc]
            return (float(lo), float(hi))
        return () if self.operator is Operator.ANY else (float(self.value),)  # type: ignore[arg-type]

    def __str__(self) -> str:
        if self.operator is Operator.ANY:
            return f"{self.subject}.{self.attribute} any"
        if self.operator is Operator.IN_WINDOW:
            return f"{self.subject}.{self.attribute} in {self.value}"
        if self.operator is Operator.IN_RANGE:
            lo, hi = self.value  # type: ignore[misc]
            return f"{self.subject}.{self.attribute} in {format_value(lo)}..{format_value(hi)}"
        if self.is_time and self.operator is Operator.EQ:
            return f"{self.subject}.{self.attribute} == {format_hhmm(int(self.value))}"  # type: ignore[arg-type]
        return f"{self.subject}.{self.attribute} {self.operator.value} {format_value(self.value)}"


# A conjunction of atoms compiled once: each atom's (key, None for the clock; test).
Guard = tuple[tuple[Optional[tuple[str, str]], Callable[[Value], bool]], ...]


def guard_of(atoms: Iterable[Constraint]) -> Guard:
    return tuple((None if c.is_time else c.key(), c.satisfied_by) for c in atoms)


def guard_failure(guard: Guard, clock: Optional[int], get: Callable[[tuple[str, str]], Optional[Value]],
                  fallback: Callable[[tuple[str, str]], Optional[Value]]) -> Optional[int]:
    """The index of the first atom of ``guard`` that fails, or None: a clock
    atom tests ``clock``'s minute of day (skipped if ``clock`` is None), a
    device atom ``get(key)``, else ``fallback(key)``; None fails it."""
    i = 0
    for key, test in guard:
        if key is None:
            if clock is not None and not test(minute_of_day(clock)):
                return i
        else:
            value = get(key)
            if value is None:
                value = fallback(key)
            if value is None or not test(value):
                return i
        i += 1
    return None


def format_value(value: object) -> str:
    """Compact, round-trippable rendering of an attribute value."""
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return repr(value)
    return str(value)


def device_constraint(device: str, attribute: str, op: Operator, value: object) -> Constraint:
    return Constraint("device", device, attribute, op, value)


def time_constraint(op: Operator, value: object) -> Constraint:
    return Constraint("time", TIME_SUBJECT, TIME_ATTRIBUTE, op, value)


def value_class(cuts: Sequence[float], value: float) -> int:
    """The class of a numeric ``value`` among the sorted distinct ``cuts``.

    The class is the pair ``(bisect_left(cuts, value), bisect_right(cuts,
    value))``, told apart by its sum: ``2i`` strictly between the ``i``-th
    cut and the one before, ``2i + 1`` on the ``i``-th cut itself. An atom
    whose cut points are all in ``cuts`` has one truth value per class.
    """
    return bisect_left(cuts, value) + bisect_right(cuts, value)


class Transitions:
    """What a change of one key's value does, memoized by value class.

    ``derive(prev, value)`` works the outcome out from the atoms on the key;
    it runs once per pair of classes. A binary or enumerated value is its
    own class (``cuts`` is None); a numeric one's is ``value_class(cuts,
    value)``, where ``cuts`` holds the cut points of every atom ``derive``
    tests. Each such atom has one truth value per class, so the memo is
    exact, and finite.
    """

    __slots__ = ("derive", "cuts", "_memo")

    def __init__(self, derive: Callable[[Value, Value], tuple[Any, ...]],
                 cuts: Optional[Sequence[float]]):
        self.derive = derive
        self.cuts = cuts
        self._memo: dict[tuple[object, object], tuple[Any, ...]] = {}

    def __call__(self, prev: Value, value: Value) -> tuple[Any, ...]:
        cuts = self.cuts
        if cuts is None:
            classes: tuple[object, object] = (prev, value)
        else:
            classes = (value_class(cuts, prev), value_class(cuts, value))  # type: ignore[arg-type]
        outcome = self._memo.get(classes)
        if outcome is None:
            outcome = self._memo[classes] = self.derive(prev, value)
        return outcome


def cut_points(atoms: Iterable[Constraint]) -> tuple[float, ...]:
    """The sorted distinct cut points of numeric ``atoms``."""
    return tuple(sorted({cut for atom in atoms for cut in atom.cut_points()}))


class Cells:
    """The cells into which sorted distinct ``cuts`` split one numeric key's
    range ``[lo, hi]``; the one place that decides which ends are open.

    A cell is numbered as ``value_class`` numbers its values: ``2i + 1`` is
    the ``i``-th cut alone, and ``2i`` the open gap before it (the last gap
    follows the last cut), closed only where a bound ends it. An atom whose
    cut points are all in ``cuts`` has one truth value per cell, so it
    classifies a value drawn in a cell as it classifies every other value
    of that cell.
    """

    __slots__ = ("cuts", "lo", "hi")

    def __init__(self, cuts: Sequence[float], lo: float, hi: float):
        self.cuts = cuts
        self.lo, self.hi = lo, hi

    def cell(self, value: float) -> int:
        return value_class(self.cuts, value)

    def ends(self, cell: int) -> tuple[float, float]:
        """The least and greatest end of ``cell``: its cut twice, or a gap's
        ends within the bounds, where an empty gap's first end exceeds its
        second or is a cut."""
        i, point = divmod(cell, 2)
        cuts = self.cuts
        if point:
            return cuts[i], cuts[i]
        return (max(self.lo, cuts[i - 1]) if i else self.lo,
                min(self.hi, cuts[i]) if i < len(cuts) else self.hi)

    def sample(self, value: float, rng: Random) -> float:
        """A value drawn uniformly in ``value``'s cell: on a cut, the cut."""
        cell = self.cell(value)
        lo, hi = self.ends(cell)
        if lo == hi:
            return value
        drawn = rng.uniform(lo, hi)
        return drawn if self.cell(drawn) == cell else (lo + hi) / 2   # an open end was drawn

    def representatives(self) -> list[float]:
        """One value of each cell that holds a value within the bounds, in ascending order."""
        mids = ((lo + hi) / 2 for lo, hi in map(self.ends, range(2 * len(self.cuts) + 1)))
        return [v for cell, v in enumerate(mids)
                if self.lo <= v <= self.hi and self.cell(v) == cell]


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RuleAction:
    device: str
    attribute: str
    value: Value
    delay_ms: int = 0


@dataclass(frozen=True)
class ConditionTimer:
    """The rule's trigger constraint must hold for ``duration_ms`` before firing."""

    duration_ms: int
    watched: Constraint


@dataclass(frozen=True)
class Rule:
    """A trigger-condition-action automation rule."""

    id: str
    trigger: Constraint
    condition: tuple[Constraint, ...] = ()
    condition_timer: Optional[ConditionTimer] = None
    actions: tuple[RuleAction, ...] = ()
    uses_history: bool = False
    guard: Guard = field(init=False, repr=False, compare=False)   # the conditions

    def __post_init__(self) -> None:
        object.__setattr__(self, "guard", guard_of(self.condition))

    def validate(self, registry: Registry) -> None:
        """Check every atom and action against ``registry``; errors name the rule."""
        try:
            if not self.actions:
                raise ModelError("no actions")
            for c in (self.trigger, *self.condition):
                registry.check(c)
            for act in self.actions:
                registry.check_action(act)
        except ModelError as exc:
            raise ModelError(f"rule {self.id}: {exc}") from None
