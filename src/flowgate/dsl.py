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
from typing import IO, Iterable, Optional, Union

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

_OPS = {
    "==": Operator.EQ,
    "!=": Operator.NE,
    "<": Operator.LT,
    "<=": Operator.LE,
    ">": Operator.GT,
    ">=": Operator.GE,
}


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


def _parse_constraint(tok: _Tokens, registry: Optional[Registry], line: int) -> Constraint:
    subject, attribute, col = _parse_subject(tok)
    is_time = subject == TIME_SUBJECT
    if not is_time and registry is not None:
        try:
            registry.lookup(subject, attribute)
        except ModelError as exc:
            raise ParseError(str(exc), line, col) from None

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
        if not lo < hi:
            raise ParseError(f"empty range {lo}..{hi}", line, col)
        c = device_constraint(subject, attribute, Operator.IN_RANGE, (lo, hi))
        check_operator_kind(c, registry, line, col)
        return c

    kind, text, col = tok.next("op")
    if text == ":=":
        raise ParseError("':=' is only valid in actions", line, col)
    op = _OPS[text]
    val_tok = tok.peek()
    if val_tok is None:
        raise ParseError("constraint missing value", line, col)
    if is_time:
        minute = parse_hhmm(tok.next("time")[1])
        if op is not Operator.EQ:
            raise ParseError("time-of-day triggers support '==' or 'in' only", line, col)
        return time_constraint(Operator.EQ, minute)
    if val_tok[0] == "number":
        value: Union[str, float] = float(tok.next("number")[1])
    else:
        value = tok.next("word")[1]
    c = device_constraint(subject, attribute, op, value)
    check_operator_kind(c, registry, line, col)
    return c


def check_operator_kind(
    c: Constraint, registry: Optional[Registry], line: int = 0, col: int = 0
) -> None:
    """Reject an operator or value the attribute's kind cannot take."""
    if registry is None or c.is_time:
        return
    desc = registry.lookup(c.subject, c.attribute)
    if c.operator in (Operator.LT, Operator.LE, Operator.GT, Operator.GE, Operator.IN_RANGE):
        if desc.kind is not AttributeKind.NUMERIC:
            raise ParseError(
                f"ordering operator on {desc.kind.value} attribute {c.subject}.{c.attribute}",
                line,
                col,
            )
    elif desc.kind is AttributeKind.NUMERIC:
        if not isinstance(c.value, float):
            raise ParseError(
                f"numeric attribute {c.subject}.{c.attribute} compared to {c.value!r}", line, col
            )
    else:
        if c.value not in desc.values:
            raise ParseError(
                f"{c.value!r} is not a value of {c.subject}.{c.attribute}", line, col
            )


def _parse_action(tok: _Tokens, registry: Optional[Registry], line: int) -> RuleAction:
    device, attribute, col = _parse_subject(tok)
    tok.next("op", ":=")
    val_tok = tok.peek()
    if val_tok is None:
        raise ParseError("action missing value", line, col)
    value: Union[str, float]
    if val_tok[0] == "number":
        value = float(tok.next("number")[1])
    else:
        value = tok.next("word")[1]
    delay = 0
    if tok.accept_word("after"):
        delay = int(float(tok.next("number")[1]))
    if registry is not None:
        try:
            desc = registry.lookup(device, attribute)
            if not desc.writable:
                raise ParseError(f"{device}.{attribute} is not writable", line, col)
            desc.validate_value(value)
        except ParseError:
            raise
        except ModelError as exc:
            raise ParseError(str(exc), line, col) from None
    return RuleAction(device, attribute, value, delay)


def parse_rule(text: str, registry: Optional[Registry] = None, line_no: int = 1) -> Rule:
    """Parse one DSL line into a :class:`Rule`."""
    tok = _Tokens(text, line_no)

    rule_id = ""
    first = tok.peek()
    if first and first[0] == "word" and first[1] != "when":
        _, rule_id, _ = tok.next("word")
        tok.next("colon")

    tok.next("word", "when")
    trigger = _parse_constraint(tok, registry, line_no)

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
    rule = Rule(
        id=rule_id,
        trigger=trigger,
        condition=tuple(condition),
        condition_timer=timer,
        actions=tuple(actions),
        uses_history=uses_history,
    )
    if registry is not None:
        rule.validate(registry)
    return rule


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


def parse_rules(source: Union[str, IO[str]], registry: Optional[Registry] = None) -> list[Rule]:
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

def parse_trace(
    source: Union[str, IO[str]],
    registry: Optional[Registry] = None,
    tolerance_ms: int = 0,
) -> Trace:
    """Parse a trace file into a timestamp-ordered :class:`Trace`.

    Exact duplicate records collapse to one event. A record whose timestamp
    regresses more than ``tolerance_ms`` behind the running maximum is an
    error; smaller regressions are repaired by a final stable sort.

    One pass: each distinct ``device attribute value`` text is looked up and
    validated once, and each record lands in its key's columns. Only a
    record that sets no new maximum can repeat an earlier one, so only such
    a record is compared with its key's latest events.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    trace = Trace()
    order = trace.order
    # Validated (key's timestamps, key's values, key id, value), keyed by the
    # record's text after its timestamp.
    validated: dict[str, tuple[list[int], list[Value], int, Value]] = {}
    max_ts = floor = -math.inf
    regressed = False
    for line_no, line in enumerate(source, start=1):
        if "#" in line:
            line = line.split("#", 1)[0]
        # head[-1] is the text after the timestamp; a one-field line's lone
        # field holds no whitespace, so it matches no key.
        head = line.split(None, 1)
        if not head:
            continue
        record = validated.get(head[-1])
        if record is None:
            fields = line.split()
            if len(fields) < 4:
                raise ParseError(f"trace record needs 4 fields, got {len(fields)}", line_no)
        try:
            ts = int(head[0])
        except ValueError:
            raise ParseError(f"bad timestamp {head[0]!r}", line_no) from None
        if ts < floor:
            raise ParseError(
                f"timestamp {ts} regresses more than {tolerance_ms}ms behind {max_ts}", line_no
            )
        if record is None:
            device, attribute, value_text = fields[1:4]
            value: Value
            if registry is None:
                # Unchecked and not cached, so each "nan" stays its own value.
                try:
                    value = float(value_text)
                except ValueError:
                    value = value_text
            else:
                try:
                    value = registry.lookup(device, attribute).validate_value(value_text)
                except ModelError as exc:
                    raise ParseError(str(exc), line_no) from None
            kid = trace.key_id((device, attribute))
            record = (trace.times[kid], trace.values[kid], kid, value)
            if registry is not None:
                validated[head[1]] = record
        times, values, kid, value = record
        if ts > max_ts:
            max_ts, floor = ts, ts - tolerance_ms
        else:
            regressed = regressed or ts < max_ts
            if _repeats(times, values, ts, value, tolerance_ms):
                continue
        times.append(ts)
        values.append(value)
        order.append(kid)
    # Iterating the unsorted columns yields record order; Trace.of sorts it.
    return Trace.of(list(trace)) if regressed else trace


def _repeats(
    times: list[int], values: list[Value], ts: int, value: Value, tolerance_ms: int
) -> bool:
    """Whether one key's kept events already hold ``value`` at ``ts``.

    An event kept at ``t`` came within ``tolerance_ms`` of the running
    maximum, so every event kept before it is at most ``t + tolerance_ms``:
    the walk back stops at the first event older than ``ts - tolerance_ms``.
    """
    since = ts - tolerance_ms
    for j in range(len(times) - 1, -1, -1):
        t = times[j]
        if t < since:
            return False
        if t == ts and (values[j] is value or values[j] == value):
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

class _StrictBoolLoader(yaml.SafeLoader):
    """SafeLoader minus the YAML 1.1 on/off/yes/no booleans.

    Device vocabularies use bare ``on`` / ``off``; only ``true``/``false``
    stay boolean.
    """


_StrictBoolLoader.add_implicit_resolver(
    "tag:yaml.org,2002:bool", re.compile(r"^(?:true|True|TRUE|false|False|FALSE)$"), list("tTfF")
)
# Drop the inherited 1.1 resolvers for the affected first characters.
for _ch in "yYnNoO":
    _StrictBoolLoader.yaml_implicit_resolvers[_ch] = [
        (tag, regexp)
        for tag, regexp in _StrictBoolLoader.yaml_implicit_resolvers.get(_ch, [])
        if tag != "tag:yaml.org,2002:bool"
    ]


def load_yaml(source: Union[str, IO[str]]) -> object:
    return yaml.load(source, Loader=_StrictBoolLoader)


def load_home(source: Union[str, IO[str]]) -> Registry:
    """Load a home configuration file into a :class:`Registry`."""
    data = load_yaml(source)
    if not isinstance(data, dict) or "devices" not in data:
        raise ModelError("home configuration needs a top-level 'devices' list")
    devices = []
    for entry in data["devices"]:
        attrs: dict[str, AttributeDescriptor] = {}
        initial: dict[str, object] = {}
        for a in entry.get("attributes", []):
            kind = AttributeKind(a["kind"])
            amin, amax = a.get("min"), a.get("max")
            if kind is AttributeKind.NUMERIC and amin is None and amax is None:
                if a["name"] not in DEFAULT_NUMERIC_BOUNDS:
                    raise ModelError(
                        f"numeric attribute {a['name']!r} needs explicit min/max"
                    )
                amin, amax = DEFAULT_NUMERIC_BOUNDS[a["name"]]
            desc = AttributeDescriptor(
                name=a["name"],
                kind=kind,
                values=tuple(str(v) for v in a.get("values", [])),
                active_value=a.get("active"),
                min=float(amin) if amin is not None else None,
                max=float(amax) if amax is not None else None,
                unit=str(a.get("unit", "")),
                writable=bool(a.get("writable", False)),
            )
            attrs[desc.name] = desc
            if "initial" in a:
                initial[desc.name] = desc.validate_value(a["initial"])
        devices.append(
            DeviceDescriptor(
                id=str(entry["id"]),
                label=str(entry.get("label", "")),
                room=str(entry.get("room", "")),
                attributes=attrs,
                initial=initial,  # type: ignore[arg-type]
            )
        )
    return Registry(devices, name=str(data.get("name", "home")))
