"""Scenario files: one YAML document binding home, rules, policies and trace."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import IO, Optional, Sequence, Union

from .dsl import check_operator_kind, load_home, load_yaml, parse_rules, parse_trace
from .model import (
    AttributeKind,
    Constraint,
    DailyWindow,
    Event,
    ModelError,
    Operator,
    Registry,
    Rule,
    parse_hhmm,
)
from .policy import Method, MethodCall, UserPolicySpec

_OP_NAMES = {
    "==": Operator.EQ,
    "!=": Operator.NE,
    "<": Operator.LT,
    "<=": Operator.LE,
    ">": Operator.GT,
    ">=": Operator.GE,
    "in-range": Operator.IN_RANGE,
}

MODES = ("mediated", "raw", "pull")


def _context_constraint(c: dict, registry: Registry) -> Constraint:
    """One user-policy context atom, checked as the rule DSL checks its atoms."""
    device, attribute, op = str(c["device"]), str(c["attribute"]), _OP_NAMES[c["op"]]
    value = c["value"]
    if registry.lookup(device, attribute).kind is AttributeKind.NUMERIC:
        if op is Operator.IN_RANGE:
            lo, hi = value
            value = (float(lo), float(hi))
        else:
            value = float(value)
    constraint = Constraint("device", device, attribute, op, value)
    check_operator_kind(constraint, registry)
    return constraint


def parse_user_policies(source: Union[str, IO[str]], registry: Registry) -> list[UserPolicySpec]:
    """Load the user-policy configuration file."""
    data = load_yaml(source)
    if data is None:
        return []
    if not isinstance(data, list):
        raise ModelError("user policy file must be a list of entries")
    specs = []
    for i, entry in enumerate(data):
        target = entry.get("target") or {}
        device = target.get("device", "")
        attribute = target.get("attribute")
        window = None
        if entry.get("window"):
            w = entry["window"]
            window = DailyWindow(parse_hhmm(str(w["start"])), parse_hhmm(str(w["end"])))
        policy_id = str(entry.get("id", f"up{i + 1}"))
        context = []
        for c in entry.get("context", []):
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
        if spec.target_attribute is not None:
            registry.lookup(spec.target_device, spec.target_attribute)
        elif spec.target_device not in registry.devices:
            raise ModelError(f"unknown device {spec.target_device!r}")
        specs.append(spec)
    return specs


@dataclass
class Scenario:
    """A fully loaded scenario: registry, rules, user policies and trace."""

    name: str
    registry: Registry
    rules: list[Rule]
    user_specs: list[UserPolicySpec]
    trace: Sequence[Event]      # a Trace when loaded from files
    mode: str = "mediated"
    seed: int = 0
    diffkeep_ms: int = 300
    l1_ms: int = 0
    l2_ms: int = 250
    drop_prob: float = 0.0
    refresh_ms: int = 0
    fidelity_floor: float = 0.0


def load_scenario(path: Union[str, Path]) -> Scenario:
    path = Path(path)
    with path.open() as fh:
        data = load_yaml(fh)
    if not isinstance(data, dict):
        raise ModelError(f"scenario file {path} must be a mapping")
    base = path.parent

    def _read(key: str) -> Optional[Path]:
        value = data.get(key)
        if value is None:
            return None
        p = Path(value)
        return p if p.is_absolute() else base / p

    home_path = _read("home")
    rules_path = _read("rules")
    trace_path = _read("trace")
    for name, p in (("home", home_path), ("rules", rules_path), ("trace", trace_path)):
        if p is None:
            raise ModelError(f"scenario is missing the {name!r} path")
        if not p.exists():
            raise ModelError(f"scenario {name} file not found: {p}")
    with home_path.open() as fh:
        registry = load_home(fh)
    with rules_path.open() as fh:
        rules = parse_rules(fh, registry)
    ups_path = _read("user_policies")
    user_specs = []
    if ups_path is not None:
        if not ups_path.exists():
            raise ModelError(f"user policy file not found: {ups_path}")
        with ups_path.open() as fh:
            user_specs = parse_user_policies(fh, registry)
    with trace_path.open() as fh:
        trace = parse_trace(fh, registry)
    mode = str(data.get("mode", "mediated"))
    if mode not in MODES:
        raise ModelError(f"scenario mode must be one of {', '.join(MODES)}, got {mode!r}")

    engine = data.get("engine") or {}
    return Scenario(
        name=str(data.get("name", path.stem)),
        registry=registry,
        rules=rules,
        user_specs=user_specs,
        trace=trace,
        mode=mode,
        seed=int(engine.get("seed", 0)),
        diffkeep_ms=int(engine.get("diffkeep_ms", 300)),
        l1_ms=int(engine.get("l1_ms", 0)),
        l2_ms=int(engine.get("l2_ms", 250)),
        drop_prob=float(engine.get("drop_prob", 0.0)),
        refresh_ms=int(engine.get("refresh_ms", 0)),
        fidelity_floor=float(data.get("fidelity_floor", 0.0)),
    )
