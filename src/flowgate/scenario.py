"""Scenario files: one YAML document binding home, rules, policies and trace."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import IO, Callable, TypeVar, Union

from .compiler import DIFFKEEP_DELAY_DEFAULT_MS
from .dsl import load_home, load_yaml, parse_rules, parse_trace
from .model import (
    Constraint,
    DailyWindow,
    Event,
    ModelError,
    Operator,
    Registry,
    Rule,
    Trace,
    parse_hhmm,
)
from .policy import Method, MethodCall, UserPolicySpec
from .simulator import SimConfig

MODES = ("mediated", "raw", "pull")

# The keys each configuration table may hold; a misspelt key is an error, not
# a setting silently left at its default.
_SCENARIO_KEYS = ("name", "home", "rules", "user_policies", "trace", "mode", "engine",
                  "fidelity_floor")
_ENGINE_KEYS = (*(f.name for f in fields(SimConfig)), "diffkeep_ms")
_POLICY_KEYS = ("id", "style", "target", "window", "context", "action")
_TARGET_KEYS = ("device", "attribute")
_WINDOW_KEYS = ("start", "end")

T = TypeVar("T")


def _context_constraint(c: dict, registry: Registry) -> Constraint:
    """One user-policy context atom, checked as the rule DSL checks its atoms."""
    device, attribute, op = str(c["device"]), str(c["attribute"]), Operator(c["op"])
    if op is Operator.ANY or op is Operator.IN_WINDOW:
        raise ModelError(f"operator {op.value} does not apply to a device attribute")
    value = c["value"]
    if op is Operator.IN_RANGE and isinstance(value, list):
        value = tuple(map(_number, value))
    constraint = Constraint("device", device, attribute, op, _number(value))
    registry.check(constraint)
    return constraint


def _check_keys(table: dict, known: tuple[str, ...], where: str) -> None:
    """Reject the first key of ``table`` that is not ``known``, naming ``where`` it is."""
    for key in table:
        if key not in known:
            raise ModelError(f"unknown key {key!r} in {where}; expected one of {', '.join(known)}")


def _number(value: object) -> object:
    """A YAML number as the float the DSL reads; any other value as it is."""
    if isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    return value


def parse_user_policies(source: Union[str, IO[str]], registry: Registry) -> list[UserPolicySpec]:
    """Load the user-policy configuration file."""
    data = load_yaml(source)
    if data is None:
        return []
    if not isinstance(data, list):
        raise ModelError("user policy file must be a list of entries")
    specs = []
    for i, entry in enumerate(data):
        if not isinstance(entry, dict):
            raise ModelError(f"user policy entry {i + 1} must be a mapping, got {entry!r}")
        policy_id = str(entry.get("id", f"up{i + 1}"))
        _check_keys(entry, _POLICY_KEYS, f"user policy {policy_id!r}")
        if "style" not in entry:
            raise ModelError(f"user policy {policy_id!r}: missing style")
        target = entry.get("target") or {}
        if not isinstance(target, dict):
            raise ModelError(f"user policy {policy_id!r}: target must be a mapping")
        _check_keys(target, _TARGET_KEYS, f"the target of user policy {policy_id!r}")
        device = target.get("device", "")
        attribute = target.get("attribute")
        window = None
        if entry.get("window"):
            w = entry["window"]
            if isinstance(w, dict):
                _check_keys(w, _WINDOW_KEYS, f"the window of user policy {policy_id!r}")
            try:
                window = DailyWindow(parse_hhmm(str(w["start"])), parse_hhmm(str(w["end"])))
            except (ModelError, KeyError, TypeError):
                raise ModelError(
                    f"user policy {policy_id!r}: window needs start and end as HH:MM, got {w!r}"
                ) from None
        atoms = entry.get("context") or []
        if not isinstance(atoms, list):
            raise ModelError(f"user policy {policy_id!r}: context must be a list, got {atoms!r}")
        context = []
        for c in atoms:
            try:
                context.append(_context_constraint(c, registry))
            except (ModelError, KeyError, TypeError, ValueError) as exc:
                raise ModelError(f"user policy {policy_id!r}: bad context {c}: {exc}") from None
        action = None
        if entry.get("action"):
            name = str(entry["action"])
            if name == "block":
                action = MethodCall(Method.BLOCK)
            elif name == "keep":
                action = MethodCall(Method.KEEP)
            else:
                raise ModelError(f"user policy action must be block or keep, got {name!r}")
        spec = UserPolicySpec(
            id=policy_id,
            style=str(entry["style"]),
            target_device=str(device),
            target_attribute=str(attribute) if attribute is not None else None,
            window=window,
            context=tuple(context),
            action=action,
        )
        spec.check_target(registry)
        specs.append(spec)
    return specs


@dataclass
class Scenario:
    """A fully loaded scenario: registry, rules, user policies and trace."""

    name: str
    registry: Registry
    rules: list[Rule]
    user_specs: list[UserPolicySpec]
    trace: Union[Trace, list[Event]]      # a Trace when loaded from files
    mode: str = "mediated"
    config: SimConfig = field(default_factory=SimConfig)
    diffkeep_ms: int = DIFFKEEP_DELAY_DEFAULT_MS
    fidelity_floor: float = 0.0


def scenario_table(path: Path) -> tuple[dict, str, str]:
    """The checked top-level table of the scenario file ``path``, its name and its mode.

    Checks the table's keys, its mode and the keys of its ``engine:`` table;
    reads none of the files the table names.
    """
    data = _read("scenario", path, load_yaml)
    if not isinstance(data, dict):
        raise ModelError(f"scenario file {path} must be a mapping")
    _check_keys(data, _SCENARIO_KEYS, f"scenario file {path}")
    mode = _setting(data, "mode", Scenario.mode)
    if mode not in MODES:
        raise ModelError(f"scenario mode must be one of {', '.join(MODES)}, got {mode!r}")
    engine = data.get("engine") or {}
    if not isinstance(engine, dict):
        raise ModelError(f"scenario 'engine' must be a mapping of settings, got {engine!r}")
    _check_keys(engine, _ENGINE_KEYS, f"the 'engine' settings of scenario file {path}")
    return data, str(data.get("name", path.stem)), mode


def load_scenario(path: Union[str, Path]) -> Scenario:
    path = Path(path)
    data, name, mode = scenario_table(path)

    def _load(key: str, parse: Callable[[IO[str]], T]) -> T:
        value = data.get(key)
        if value is None:
            raise ModelError(f"scenario is missing the {key!r} path")
        if not isinstance(value, str):
            raise ModelError(f"scenario {key!r} must be a file path, got {value!r}")
        return _read(key, path.parent / value, parse)   # an absolute value replaces the parent

    registry = _load("home", load_home)
    rules = _load("rules", lambda fh: parse_rules(fh, registry))
    user_specs = []
    if data.get("user_policies") is not None:
        user_specs = _load("user_policies", lambda fh: parse_user_policies(fh, registry))
    trace = _load("trace", lambda fh: parse_trace(fh, registry))
    engine = data.get("engine") or {}
    return Scenario(
        name=name,
        registry=registry,
        rules=rules,
        user_specs=user_specs,
        trace=trace,
        mode=mode,
        config=SimConfig(**{f.name: _setting(engine, f.name, f.default) for f in fields(SimConfig)}),
        diffkeep_ms=_setting(engine, "diffkeep_ms", DIFFKEEP_DELAY_DEFAULT_MS),
        fidelity_floor=_setting(data, "fidelity_floor", Scenario.fidelity_floor),
    )


def _read(what: str, path: Path, parse: Callable[[IO[str]], T]) -> T:
    """``parse`` over the UTF-8 text of ``path``; an unreadable file is a :class:`ModelError`."""
    try:
        with path.open(encoding="utf-8") as fh:
            return parse(fh)
    except UnicodeDecodeError:
        raise ModelError(f"{what} file {path} is not UTF-8 text") from None
    except OSError as exc:
        raise ModelError(f"cannot read {what} file {path}: {exc.strerror or exc}") from None


def _setting(table: dict, name: str, default: T) -> T:
    """``table[name]`` as the type of ``default``, else ``default``; a bad value is a :class:`ModelError`."""
    convert = type(default)
    try:
        return convert(table.get(name, default))
    except (TypeError, ValueError):
        kind = "an integer" if convert is int else "a number"
        raise ModelError(f"scenario setting {name!r} must be {kind}, got {table[name]!r}") from None
