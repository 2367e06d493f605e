"""Data-flow policies: the TRIGGER/CHECK filtering programs the engine runs.

A policy has one TRIGGER block matching a fresh event and an ordered list of
CHECK blocks inspecting stored state. Each block may carry a ``fetch*`` /
``branch`` pair that selects between its ``run`` and ``else`` report method
based on the last value reported upstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .model import Constraint, DailyWindow, ModelError, Operator, Registry, format_value


class Method(Enum):
    KEEP = "keep"
    BLOCK = "block"
    DIFF_KEEP = "diffKeep"
    RANDOMIZE = "randomize"


@dataclass(frozen=True)
class MethodCall:
    """A report method with its parameters and report delay."""

    method: Method
    params: tuple = ()
    delay_ms: int = 0

    def __post_init__(self) -> None:
        if self.method is Method.RANDOMIZE:
            if self.params and isinstance(self.params[0], str):
                if len(self.params) < 2:
                    raise ModelError("randomize over members needs at least two")
            else:
                if len(self.params) != 2:
                    raise ModelError("randomize needs (v1, v2)")
                v1, v2 = self.params
                if not float(v1) < float(v2):
                    raise ModelError(f"randomize needs v1 < v2, got ({v1}, {v2})")
        elif self.method is Method.DIFF_KEEP and len(self.params) != 1:
            raise ModelError("diffKeep needs one value")

    def __str__(self) -> str:
        args = ", ".join(format_value(p) for p in self.params)
        s = f"{self.method.value}({args})"
        if self.delay_ms:
            s += f"({self.delay_ms})"
        return s


def keep() -> MethodCall:
    return MethodCall(Method.KEEP)


def block() -> MethodCall:
    return MethodCall(Method.BLOCK)


def diff_keep(value: str, delay_ms: int) -> MethodCall:
    return MethodCall(Method.DIFF_KEEP, (value,), delay_ms)


@dataclass(frozen=True)
class TriggerBlock:
    """Matches the incoming event and decides how to report it."""

    match: Constraint                       # match + satisfy over the new event
    branch: Optional[Constraint] = None     # fetch* the last reported value, test it
    run_action: Optional[MethodCall] = None
    else_action: Optional[MethodCall] = None

    def __post_init__(self) -> None:
        if self.else_action is not None and self.branch is None:
            raise ModelError("else action needs a branch")


@dataclass(frozen=True)
class CheckBlock:
    """Fetches one stored state and checks a constraint against it."""

    fetch: Constraint                       # fetch + satisfy over current state
    branch: Optional[Constraint] = None
    run_action: Optional[MethodCall] = None
    else_action: Optional[MethodCall] = None

    def __post_init__(self) -> None:
        if self.else_action is not None and self.branch is None:
            raise ModelError("else action needs a branch")


class PolicyOrigin(Enum):
    AUTOMATION = "automation"
    USER = "user"


@dataclass(frozen=True)
class Policy:
    id: str
    origin: PolicyOrigin
    source_id: str                          # rule id or user policy id
    trigger_block: TriggerBlock
    check_blocks: tuple[CheckBlock, ...] = ()
    # Timer plumbing for bundles (Fig-5-style cooperating policies).
    timer_start: Optional[str] = None       # startTimer(id) + addCallback on trigger
    timer_stop: Optional[str] = None        # stopTimer(id) on trigger
    timer_duration_ms: int = 0


@dataclass(frozen=True)
class UserPolicySpec:
    """A whitelist/blacklist/conditional policy as users author it."""

    id: str
    style: str                              # whitelist | blacklist | conditional
    target_device: str
    target_attribute: Optional[str]         # None: every attribute of the device
    window: Optional[DailyWindow] = None
    context: tuple[Constraint, ...] = ()
    action: Optional[MethodCall] = None     # conditional style only

    def check_target(self, registry: Registry) -> None:
        """Raise a :class:`ModelError` unless ``registry`` has the target device and attribute."""
        if self.target_attribute is not None:
            registry.lookup(self.target_device, self.target_attribute)
        elif self.target_device not in registry.devices:
            raise ModelError(f"unknown device {self.target_device!r}")

    def __post_init__(self) -> None:
        if self.style not in ("whitelist", "blacklist", "conditional"):
            raise ModelError(f"unknown user-policy style {self.style!r}")
        if not self.target_device:
            raise ModelError("user policy needs a target")
        if self.style == "conditional" and self.action is None:
            raise ModelError("conditional user policy needs an action")


def _fmt_subject(c: Constraint) -> str:
    return f"({c.type}).({c.subject}).({c.attribute})"


def _fmt_satisfy(c: Constraint) -> str:
    if c.operator is Operator.IN_WINDOW or c.operator is Operator.IN_RANGE:
        return f"({c.operator.value})->({c.value})"
    return f"({c.operator.value})->({format_value(c.value)})"


def dump_policy(policy: Policy) -> str:
    """Human-readable dump mirroring the policy format's field names."""
    lines = [f"POLICY {policy.id} [{policy.origin.value}] from {policy.source_id}"]
    tb = policy.trigger_block
    lines.append("TRIGGER:{")
    lines.append(f"    match {_fmt_subject(tb.match)}")
    lines.append(f"    satisfy {_fmt_satisfy(tb.match)}")
    if tb.branch is not None:
        lines.append(f"    fetch* {_fmt_subject(tb.match)}*")
        lines.append(f"    branch {_fmt_satisfy(tb.branch)}")
    extra = []
    if policy.timer_start:
        extra.append(f"startTimer({policy.timer_start})+addCallback({policy.timer_start})")
    if policy.timer_stop:
        extra.append(f"stopTimer({policy.timer_stop})")
    run = str(tb.run_action) if tb.run_action else ""
    if extra:
        run = "; ".join(extra + ([run] if run else []))
    lines.append(f"    run {run or 'block()'}")
    if tb.else_action is not None:
        lines.append(f"    else {tb.else_action}")
    lines.append("}")
    if policy.check_blocks:
        lines.append("CHECK: [{")
        for i, cb in enumerate(policy.check_blocks):
            if i:
                lines.append("}, {")
            lines.append(f"    fetch {_fmt_subject(cb.fetch)}")
            lines.append(f"    satisfy {_fmt_satisfy(cb.fetch)}")
            if cb.branch is not None:
                lines.append(f"    fetch* {_fmt_subject(cb.fetch)}*")
                lines.append(f"    branch {_fmt_satisfy(cb.branch)}")
            if cb.run_action is not None:
                lines.append(f"    run {cb.run_action}")
            if cb.else_action is not None:
                lines.append(f"    else {cb.else_action}")
        lines.append("}]")
    return "\n".join(lines)
