"""Text formats: the rule DSL, trace files and YAML configuration loaders.

Rule grammar, one rule per line::

    <id>: when <constraint> [for <ms>] [if <constraint> {and <constraint>}]
          then <device>.<attr> := <value> [after <ms>] {, <action>}

Constraints are ``dev.attr <op> <value>``, ``dev.attr in <lo>..<hi>``,
``time.clock == HH:MM`` or ``time.clock in HH:MM..HH:MM``. A line may end
with the ``pass-history`` marker for rules over historical values, which this
gateway does not minimize.
"""

from __future__ import annotations

import io
import math
import re
from array import array
from typing import IO, Callable, Iterable, Optional, Sequence, TypeVar, Union

import yaml

from .model import (
    AttributeDescriptor,
    AttributeKind,
    Command,
    Constraint,
    ConditionTimer,
    DailyWindow,
    DEFAULT_NUMERIC_BOUNDS,
    DeviceDescriptor,
    Event,
    MAX_PLACE,
    MAX_TIMESTAMP_MS,
    ModelError,
    Operator,
    Registry,
    Rule,
    RuleAction,
    TIME_SUBJECT,
    Trace,
    Value,
    device_constraint,
    format_value,
    parse_hhmm,
    time_constraint,
)


T = TypeVar("T")


class ParseError(ModelError):
    """Syntax error with position information."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        where = f" at line {line}" if line else ""
        where += f", column {column}" if column else ""
        super().__init__(f"{message}{where}")


# ---------------------------------------------------------------------------
# Rule DSL
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<time>\d{1,2}:\d{2})
    | (?P<number>-?\d+(?:\.\d+)?)
    | (?P<op>==|!=|<=|>=|<|>|:=)
    | (?P<range>\.\.)
    | (?P<word>[A-Za-z_][A-Za-z0-9_-]*)
    | (?P<dot>\.)
    | (?P<comma>,)
    | (?P<colon>:)
    """,
    re.VERBOSE,
)

class _Tokens:
    def __init__(self, text: str, line_no: int):
        self.text = text
        self.line_no = line_no
        self.items: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            if text[pos].isspace():
                pos += 1
                continue
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                raise ParseError(f"unexpected character {text[pos]!r}", line_no, pos + 1)
            kind = m.lastgroup or ""
            self.items.append((kind, m.group(), pos + 1))
            pos = m.end()
        self.i = 0

    def peek(self) -> Optional[tuple[str, str, int]]:
        return self.items[self.i] if self.i < len(self.items) else None

    def next(self, expect_kind: Optional[str] = None, expect_text: Optional[str] = None):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of rule", self.line_no, len(self.text) + 1)
        kind, text, col = tok
        if expect_kind and kind != expect_kind:
            raise ParseError(f"expected {expect_kind}, found {text!r}", self.line_no, col)
        if expect_text and text != expect_text:
            raise ParseError(f"expected {expect_text!r}, found {text!r}", self.line_no, col)
        self.i += 1
        return tok

    def accept_word(self, word: str) -> bool:
        tok = self.peek()
        if tok and tok[0] == "word" and tok[1] == word:
            self.i += 1
            return True
        return False

    @property
    def done(self) -> bool:
        return self.i >= len(self.items)


def _parse_subject(tok: _Tokens) -> tuple[str, str, int]:
    _, subject, col = tok.next("word")
    tok.next("dot")
    _, attribute, _ = tok.next("word")
    return subject, attribute, col


def _parse_constraint(tok: _Tokens, registry: Registry, line: int) -> Constraint:
    subject, attribute, col = _parse_subject(tok)
    is_time = subject == TIME_SUBJECT

    nxt = tok.peek()
    if nxt is None:
        raise ParseError("constraint missing operator", line, col)

    if nxt[0] == "word" and nxt[1] == "in":
        tok.next()
        if is_time:
            start = parse_hhmm(tok.next("time")[1])
            tok.next("range")
            end = parse_hhmm(tok.next("time")[1])
            return time_constraint(Operator.IN_WINDOW, DailyWindow(start, end))
        lo = float(tok.next("number")[1])
        tok.next("range")
        hi = float(tok.next("number")[1])
        c = device_constraint(subject, attribute, Operator.IN_RANGE, (lo, hi))
        return _checked(registry.check, c, line, col)

    kind, text, col = tok.next("op")
    if text == ":=":
        raise ParseError("':=' is only valid in actions", line, col)
    op = Operator(text)
    if tok.peek() is None:
        raise ParseError("constraint missing value", line, col)
    if is_time:
        minute = parse_hhmm(tok.next("time")[1])
        if op is not Operator.EQ:
            raise ParseError("time-of-day triggers support '==' or 'in' only", line, col)
        return time_constraint(Operator.EQ, minute)
    c = device_constraint(subject, attribute, op, _parse_value(tok))
    return _checked(registry.check, c, line, col)


def _parse_value(tok: _Tokens) -> Value:
    val_tok = tok.peek()
    if val_tok is not None and val_tok[0] == "number":
        return float(tok.next("number")[1])
    return tok.next("word")[1]


def _checked(check: Callable[[T], None], item: T, line: int, col: int) -> T:
    """``item``, once ``check`` accepts it; its error gains the position."""
    try:
        check(item)
    except ModelError as exc:
        raise ParseError(str(exc), line, col) from None
    return item


def _parse_action(tok: _Tokens, registry: Registry, line: int) -> RuleAction:
    device, attribute, col = _parse_subject(tok)
    tok.next("op", ":=")
    if tok.peek() is None:
        raise ParseError("action missing value", line, col)
    value = _parse_value(tok)
    delay = 0
    if tok.accept_word("after"):
        delay = int(float(tok.next("number")[1]))
    return _checked(registry.check_action, RuleAction(device, attribute, value, delay), line, col)


def parse_rule(text: str, registry: Registry, line_no: int = 1) -> Rule:
    """Parse one DSL line into a :class:`Rule` whose every atom and action ``registry`` accepts."""
    tok = _Tokens(text, line_no)

    rule_id = ""
    first = tok.peek()
    if first and first[0] == "word" and first[1] != "when":
        _, rule_id, _ = tok.next("word")
        tok.next("colon")

    tok.next("word", "when")
    trigger = _parse_constraint(tok, registry, line_no)
    if trigger.is_time and trigger.operator is not Operator.EQ:
        # The platform fires a time trigger at one minute of the day.
        raise ParseError("a time trigger needs '== HH:MM'", line_no)

    timer: Optional[ConditionTimer] = None
    if tok.accept_word("for"):
        duration = int(float(tok.next("number")[1]))
        if trigger.is_time:
            raise ParseError("'for' timers need a device trigger", line_no)
        timer = ConditionTimer(duration, trigger)

    condition: list[Constraint] = []
    if tok.accept_word("if"):
        condition.append(_parse_constraint(tok, registry, line_no))
        while tok.accept_word("and"):
            condition.append(_parse_constraint(tok, registry, line_no))

    tok.next("word", "then")
    actions = [_parse_action(tok, registry, line_no)]
    while True:
        nxt = tok.peek()
        if nxt and nxt[0] == "comma":
            tok.next()
            actions.append(_parse_action(tok, registry, line_no))
        else:
            break

    uses_history = tok.accept_word("pass-history")
    if not tok.done:
        kind, text, col = tok.peek()  # type: ignore[misc]
        raise ParseError(f"trailing input {text!r}", line_no, col)

    if not rule_id:
        rule_id = f"rule{line_no}"
    return Rule(
        id=rule_id,
        trigger=trigger,
        condition=tuple(condition),
        condition_timer=timer,
        actions=tuple(actions),
        uses_history=uses_history,
    )


def print_rule(rule: Rule) -> str:
    """Render a rule back to its DSL line; parse(print(r)) == r."""
    parts = [f"{rule.id}: when {rule.trigger}"]
    if rule.condition_timer is not None:
        parts.append(f"for {rule.condition_timer.duration_ms}")
    if rule.condition:
        parts.append("if " + " and ".join(str(c) for c in rule.condition))
    acts = []
    for a in rule.actions:
        s = f"{a.device}.{a.attribute} := {format_value(a.value)}"
        if a.delay_ms:
            s += f" after {a.delay_ms}"
        acts.append(s)
    parts.append("then " + ", ".join(acts))
    if rule.uses_history:
        parts.append("pass-history")
    return " ".join(parts)


def parse_rules(source: Union[str, IO[str]], registry: Registry) -> list[Rule]:
    """Parse a rule file: one rule per line, ``#`` comments and blanks skipped."""
    if isinstance(source, str):
        source = io.StringIO(source)
    rules: list[Rule] = []
    seen: set[str] = set()
    for line_no, raw in enumerate(source, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        rule = parse_rule(line, registry, line_no)
        if rule.id in seen:
            raise ParseError(f"duplicate rule id {rule.id!r}", line_no)
        seen.add(rule.id)
        rules.append(rule)
    return rules


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------

def parse_trace(source: Union[str, IO[str]], registry: Registry) -> Trace:
    """Parse a trace file into a timestamp-ordered :class:`Trace`.

    A record older than the one before it, whose timestamp is negative or
    above ``MAX_TIMESTAMP_MS``, or that comes after ``MAX_PLACE + 1`` events,
    is an error naming its line. An exact repeat of a record at the same
    millisecond collapses to one event.

    One pass: each distinct ``device attribute value`` text is looked up and
    validated once, and each record lands in its key's columns, its place
    the count of events before it. A record whose text after its first
    space was seen before skips the split: only its timestamp is parsed.
    Only a record at the latest millisecond can repeat an earlier one, so
    only such a record is compared with its key's events at that
    millisecond.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    trace = Trace()
    # Validated (key's places, key's timestamps, key's values, value), keyed by the
    # record's text after its first space. A text is kept only from a record
    # whose first field is exactly the text before that space, so any line
    # it matches later splits into the same fields.
    validated: dict[str, tuple[array[int], array[int], list[Value], Value]] = {}
    last_ts = -math.inf
    lines = iter(source)
    # ``enumerate`` numbers the events, restarting at the same place after a
    # skipped (blank, comment or repeat) line; a line's number is its place
    # plus ``offset``, one more than the lines skipped before it.
    place, offset = 0, 1
    while True:
        for place, line in enumerate(lines, place):
            ts_text, _, rest = line.partition(" ")
            record = validated.get(rest)
            if record is not None:
                try:
                    ts = int(ts_text)
                except ValueError:
                    record = None
            if record is None:
                # A new text, a bad timestamp, or a blank, comment or oddly spaced line.
                if "#" in line:
                    line = line.split("#", 1)[0]
                fields = line.split()
                if not fields:
                    break
                if len(fields) < 4:
                    raise ParseError(f"trace record needs 4 fields, got {len(fields)}", place + offset)
                try:
                    ts = int(fields[0])
                except ValueError:
                    raise ParseError(f"bad timestamp {fields[0]!r}", place + offset) from None
            if ts < last_ts:
                raise ParseError(
                    f"timestamp {ts} is older than {last_ts} on the record before it", place + offset
                )
            if record is None:
                device, attribute, value_text = fields[1:4]
                try:
                    value = registry.lookup(device, attribute).validate_value(value_text)
                except ModelError as exc:
                    raise ParseError(str(exc), place + offset) from None
                kid = trace.key_id((device, attribute))
                record = (trace.places[kid], trace.times[kid], trace.values[kid], value)
                if fields[0] == ts_text:
                    validated[rest] = record
            places, times, values, value = record
            if ts == last_ts and _repeats(times, values, ts, value):
                break
            last_ts = ts
            try:
                times.append(ts)
            except OverflowError:
                raise ParseError(f"timestamp {ts} is outside 0..{MAX_TIMESTAMP_MS}", place + offset) from None
            try:
                places.append(place)
            except OverflowError:
                raise ParseError(f"a trace holds at most {MAX_PLACE + 1} events", place + offset) from None
            values.append(value)
        else:
            return trace
        offset += 1


def _repeats(times: Sequence[int], values: list[Value], ts: int, value: Value) -> bool:
    """Whether one key's events at ``ts``, the last in its column, already hold ``value``."""
    for j in range(len(times) - 1, -1, -1):
        if times[j] != ts:
            return False
        if values[j] is value or values[j] == value:
            return True
    return False


def format_trace(events: Iterable[Event]) -> str:
    return "".join(
        f"{e.timestamp} {e.device} {e.attribute} {format_value(e.value)}\n" for e in events
    )


def format_commands(commands: Iterable[Command]) -> str:
    return "".join(
        f"{c.timestamp} {c.device} {c.attribute} {format_value(c.value)} {c.origin}\n"
        for c in commands
    )


# ---------------------------------------------------------------------------
# YAML configuration
# ---------------------------------------------------------------------------

def _strict_loader(base: type) -> type:
    """``base`` minus the YAML 1.1 on/off/yes/no booleans.

    Device vocabularies use bare ``on`` / ``off``; only ``true``/``false``
    stay boolean.
    """
    StrictBoolLoader = type("StrictBoolLoader", (base,), {})
    StrictBoolLoader.add_implicit_resolver(
        "tag:yaml.org,2002:bool", re.compile(r"^(?:true|True|TRUE|false|False|FALSE)$"), list("tTfF")
    )
    # Drop the inherited 1.1 resolvers for the affected first characters.
    for ch in "yYnNoO":
        StrictBoolLoader.yaml_implicit_resolvers[ch] = [
            (tag, regexp)
            for tag, regexp in StrictBoolLoader.yaml_implicit_resolvers.get(ch, [])
            if tag != "tag:yaml.org,2002:bool"
        ]
    return StrictBoolLoader


# libyaml parses when PyYAML was built with it; the resolver edits apply to both.
_StrictBoolLoader = _strict_loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader))


def load_yaml(source: Union[str, IO[str]]) -> object:
    """One YAML document; malformed YAML raises :class:`ModelError` naming the file and line."""
    try:
        return yaml.load(source, Loader=_StrictBoolLoader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f"{mark.name} line {mark.line + 1}" if mark else getattr(source, "name", "<string>")
        problem = getattr(exc, "problem", None) or getattr(exc, "reason", None) or exc
        raise ModelError(f"malformed YAML in {where}: {problem}") from None


def load_home(source: Union[str, IO[str]]) -> Registry:
    """Load a home configuration file into a :class:`Registry`."""
    data = load_yaml(source)
    entries = data.get("devices") if isinstance(data, dict) else None
    if not isinstance(entries, list):
        raise ModelError("home configuration needs a top-level 'devices' list")
    devices = []
    for n, entry in enumerate(entries, start=1):
        if not isinstance(entry, dict) or "id" not in entry:
            raise ModelError(f"home device {n} must be a mapping with an 'id', got {entry!r}")
        device = str(entry["id"])
        attributes = entry.get("attributes", [])
        if not isinstance(attributes, list):
            raise ModelError(f"device {device!r}: attributes must be a list, got {attributes!r}")
        attrs: dict[str, AttributeDescriptor] = {}
        initial: dict[str, Value] = {}
        for a in attributes:
            if not isinstance(a, dict) or "name" not in a:
                raise ModelError(
                    f"device {device!r}: attribute {a!r} must be a mapping with a 'name'"
                )
            name = str(a["name"])
            try:
                if name in attrs:
                    raise ModelError("defined twice")
                attrs[name] = desc = _attribute(name, a)
                if "initial" in a:
                    initial[name] = desc.validate_value(a["initial"])
            except ModelError as exc:
                raise ModelError(f"device {device!r} attribute {name!r}: {exc}") from None
        devices.append(
            DeviceDescriptor(
                id=device,
                label=str(entry.get("label", "")),
                room=str(entry.get("room", "")),
                attributes=attrs,
                initial=initial,
            )
        )
    return Registry(devices, name=str(data.get("name", "home")))


def _attribute(name: str, a: dict) -> AttributeDescriptor:
    """One attribute entry of a home file as its descriptor."""
    try:
        kind = AttributeKind(a.get("kind"))
    except ValueError as exc:   # a missing kind reads as None
        raise ModelError(str(exc)) from None
    bounds = a.get("min"), a.get("max")
    if kind is AttributeKind.NUMERIC and bounds == (None, None):
        if name not in DEFAULT_NUMERIC_BOUNDS:
            raise ModelError(f"numeric attribute {name!r} needs explicit min/max")
        bounds = DEFAULT_NUMERIC_BOUNDS[name]
    try:
        amin, amax = (None if b is None else float(b) for b in bounds)
    except (TypeError, ValueError):
        raise ModelError(
            f"min and max must be numbers, got {bounds[0]!r} and {bounds[1]!r}"
        ) from None
    values = a.get("values", [])
    if not isinstance(values, list):
        raise ModelError(f"values must be a list, got {values!r}")
    return AttributeDescriptor(
        name=name,
        kind=kind,
        values=tuple(str(v) for v in values),
        active_value=a.get("active"),
        min=amin,
        max=amax,
        unit=str(a.get("unit", "")),
        writable=bool(a.get("writable", False)),
    )
