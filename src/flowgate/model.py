"""Domain model: devices, attributes, events, commands and automation rules.

Everything here is immutable after construction and safe to share between
pipeline stages. Values of binary and enumerated attributes are kept as the
strings the devices actually emit (e.g. ``present`` / ``not-present``), never
coerced to booleans.

``Event`` and ``Command``, built once per replayed event or issued command,
are named tuples: cheap to build, hashable, and equal to a plain tuple of
their fields. An ``Event`` never equals a ``Command``, whose five fields make
a longer tuple. A loaded ``Trace`` keeps its records in per-key columns and
builds ``Event`` tuples only when they are read.
"""

from __future__ import annotations

import operator
from array import array
from collections.abc import Container, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from enum import Enum
from itertools import compress, repeat
from typing import Callable, NamedTuple, Optional, Union

MS_PER_MINUTE = 60_000
MS_PER_DAY = 86_400_000
MINUTES_PER_DAY = 1440

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


_timestamp = operator.attrgetter("timestamp")


class Trace(Sequence[Event]):
    """A trace stored by key; read as a sequence of events in timestamp order.

    Each key has a column of ascending timestamps and one of the values
    read at them; ``order`` holds the key id of every event in trace order
    (ties in record order). Events are built only when read, and
    ``events(keys)`` builds only those on ``keys``.
    """

    __slots__ = ("keys", "times", "values", "order", "_ids")
    __hash__ = None  # type: ignore[assignment]

    def __init__(self) -> None:
        self.keys: list[tuple[str, str]] = []    # key id -> (device, attribute)
        self.times: list[list[int]] = []          # key id -> its timestamps
        self.values: list[list[Value]] = []       # key id -> its values
        self.order = array("I")                    # key id of each event
        self._ids: dict[tuple[str, str], int] = {}

    @classmethod
    def of(cls, events: Iterable[Event]) -> "Trace":
        """``events`` as a trace, stably sorted by timestamp."""
        if isinstance(events, Trace):
            return events
        trace = cls()
        for device, attribute, value, ts in sorted(events, key=_timestamp):
            kid = trace.key_id((device, attribute))
            trace.times[kid].append(ts)
            trace.values[kid].append(value)
            trace.order.append(kid)
        return trace

    def key_id(self, key: tuple[str, str]) -> int:
        """The id of ``key``, given empty columns when first seen."""
        kid = self._ids.get(key)
        if kid is None:
            kid = self._ids[key] = len(self.keys)
            self.keys.append(key)
            self.times.append([])
            self.values.append([])
        return kid

    def column(self, key: tuple[str, str]) -> tuple[list[int], list[Value]]:
        """The timestamps of ``key``'s events and their values."""
        kid = self._ids.get(key)
        return ([], []) if kid is None else (self.times[kid], self.values[kid])

    @property
    def end(self) -> int:
        """The last event's timestamp; 0 for an empty trace."""
        return max((times[-1] for times in self.times if times), default=0)

    def events(self, keys: Optional[Container[tuple[str, str]]] = None) -> Iterator[Event]:
        """The events in trace order, only those on ``keys`` if given."""
        order: Iterable[int] = self.order
        if keys is not None:
            wanted = [key in keys for key in self.keys]
            order = compress(order, map(wanted.__getitem__, order))
        streams = [
            map(Event, repeat(device), repeat(attribute), values, times)
            for (device, attribute), times, values in zip(self.keys, self.times, self.values)
        ]
        return map(next, map(streams.__getitem__, order))

    def __iter__(self) -> Iterator[Event]:
        return self.events()

    def __len__(self) -> int:
        return len(self.order)

    def __getitem__(self, i):  # type: ignore[override]
        if isinstance(i, slice):
            return list(self)[i]
        kid = self.order[i]
        nth = self.order[: i % len(self.order)].count(kid)
        device, attribute = self.keys[kid]
        return Event(device, attribute, self.values[kid][nth], self.times[kid][nth])

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
        if op is Operator.EQ:
            return lambda value: value == ref
        return lambda value: value != ref
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
    construction, by ``_constraint_test``; equality, hash and repr still use
    only the five fields below.
    """

    type: str                      # "device" | "time"
    subject: str                   # device id, or "time"
    attribute: str                 # attribute name, or "clock"
    operator: Operator
    value: object                  # Value | tuple[float, float] | DailyWindow | int
    satisfied_by: Callable[[Value], bool] = field(init=False, repr=False, compare=False)
    fires: Callable[[Value, Value], bool] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        test = _constraint_test(self.operator, self.value)
        object.__setattr__(self, "satisfied_by", test)
        object.__setattr__(self, "fires", lambda new, prev: test(new) and not test(prev))

    def key(self) -> tuple[str, str]:
        return (self.subject, self.attribute)

    @property
    def is_time(self) -> bool:
        return self.type == "time"

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

    def validate(self, registry: Registry) -> None:
        for c in (self.trigger, *self.condition):
            if c.is_time:
                continue
            desc = registry.lookup(c.subject, c.attribute)
            if c.operator in ORDERING_OPS and desc.kind is not AttributeKind.NUMERIC:
                raise ModelError(
                    f"rule {self.id}: ordering operator on non-numeric {c.subject}.{c.attribute}"
                )
            if c.operator in (Operator.EQ, Operator.NE) and desc.kind is not AttributeKind.NUMERIC:
                desc.validate_value(c.value)  # type: ignore[arg-type]
        if not self.actions:
            raise ModelError(f"rule {self.id}: no actions")
        for act in self.actions:
            desc = registry.lookup(act.device, act.attribute)
            if not desc.writable:
                raise ModelError(f"rule {self.id}: {act.device}.{act.attribute} is not writable")
            desc.validate_value(act.value)
