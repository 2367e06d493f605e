"""Derivation of data-minimization policies from automation rules.

Each rule yields one policy whose TRIGGER mirrors the rule trigger and whose
CHECK blocks carry the rule conditions plus, for single-action rules, a
redundancy guard asserting the action target differs from the commanded
value. Rules with a held-duration trigger expand into a cooperating bundle
(start / stop policies around a timer); the copy of the rule forwarded to the
platform has the timer removed so it is not applied twice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

from .model import (
    AttributeDescriptor,
    AttributeKind,
    Cells,
    Constraint,
    ModelError,
    Operator,
    Registry,
    Rule,
    cut_points,
    device_constraint,
    time_constraint,
)
from .policy import (
    CheckBlock,
    Method,
    MethodCall,
    Policy,
    PolicyOrigin,
    TriggerBlock,
    UserPolicySpec,
    block,
    diff_keep,
    keep,
)
from .platform_sim import RuleTable


class CompileError(ModelError):
    pass


DIFFKEEP_DELAY_DEFAULT_MS = 300


def _randomize_for(c: Constraint, desc: AttributeDescriptor) -> MethodCall:
    """Obfuscated report that still satisfies ``c`` on the platform side."""
    if desc.kind is AttributeKind.NUMERIC:
        if c.operator is Operator.NE:
            raise CompileError(f"no numeric interval for operator {c.operator.value}")
        # The closed hull of the cells on which ``c`` holds, then the bounds.
        cells = Cells(cut_points((c,)), -math.inf, math.inf)
        held = [cells.ends(cells.cell(v)) for v in cells.representatives() if c.satisfied_by(v)]
        lo = max(float(desc.min), held[0][0])  # type: ignore[arg-type]
        hi = min(float(desc.max), held[-1][1])  # type: ignore[arg-type]
        if lo > hi:
            raise CompileError(f"constraint {c} admits no value within bounds")
        if lo == hi:
            return keep()  # single admissible value: nothing to hide
        return MethodCall(Method.RANDOMIZE, (lo, hi))
    if c.operator is Operator.NE:
        members = tuple(v for v in desc.values if v != c.value)
        if len(members) > 1:
            return MethodCall(Method.RANDOMIZE, members)
    return keep()


def _trigger_block(rule: Rule, registry: Registry, diffkeep_ms: int) -> TriggerBlock:
    trig = rule.trigger
    if trig.is_time:
        # The platform fires time triggers from its own clock; nothing to report.
        return TriggerBlock(match=trig, run_action=block())
    desc = registry.lookup(trig.subject, trig.attribute)
    if desc.kind is AttributeKind.NUMERIC:
        # Fig-3 scheme: suppress when the platform already holds a satisfying
        # value, obfuscate otherwise. The engine additionally repairs the
        # platform's view when its stored value masks a real crossing.
        return TriggerBlock(
            match=trig,
            branch=trig,
            run_action=block(),
            else_action=_randomize_for(trig, desc),
        )
    if trig.operator in (Operator.EQ, Operator.NE):
        value = str(trig.value) if trig.operator is Operator.EQ else "*"
        return TriggerBlock(
            match=trig,
            branch=trig,
            run_action=diff_keep(value, diffkeep_ms),
            else_action=keep(),
        )
    raise CompileError(f"rule {rule.id}: unsupported trigger operator {trig.operator.value}")


def _condition_check(c: Constraint, registry: Registry) -> CheckBlock:
    if c.is_time:
        return CheckBlock(fetch=c)
    desc = registry.lookup(c.subject, c.attribute)
    return CheckBlock(
        fetch=c,
        branch=c,
        run_action=block(),
        else_action=_randomize_for(c, desc),
    )


def _redundancy_checks(rule: Rule) -> list[CheckBlock]:
    # Suppression is per-policy, so a conjunctive guard over several actions
    # would block reports other actions still need; and a delayed action's
    # redundancy is decided at issue time, which trigger-time state cannot
    # predict. Derive the guard only for a single immediate action.
    if len(rule.actions) != 1 or rule.actions[0].delay_ms:
        return []
    act = rule.actions[0]
    guard = device_constraint(act.device, act.attribute, Operator.NE, act.value)
    return [CheckBlock(fetch=guard)]


def derive_policy(rule: Rule, registry: Registry, diffkeep_ms: int = DIFFKEEP_DELAY_DEFAULT_MS) -> Policy:
    """Derive the data-minimization policy for a rule without a held-duration trigger."""
    if rule.condition_timer is not None:
        raise CompileError(f"rule {rule.id} has a timer; derive a bundle instead")
    rule.validate(registry)
    if rule.uses_history:
        # Rules over historical values pass everything through unfiltered.
        trig = rule.trigger
        any_match = Constraint(trig.type, trig.subject, trig.attribute, Operator.ANY, None)
        return Policy(
            id=f"ap:{rule.id}",
            origin=PolicyOrigin.AUTOMATION,
            source_id=rule.id,
            trigger_block=TriggerBlock(match=any_match, run_action=keep()),
        )
    checks = [_condition_check(c, registry) for c in rule.condition]
    checks.extend(_redundancy_checks(rule))
    return Policy(
        id=f"ap:{rule.id}",
        origin=PolicyOrigin.AUTOMATION,
        source_id=rule.id,
        trigger_block=_trigger_block(rule, registry, diffkeep_ms),
        check_blocks=tuple(checks),
    )


def _negate(c: Constraint) -> Constraint:
    inverse = {
        Operator.EQ: Operator.NE,
        Operator.NE: Operator.EQ,
        Operator.GT: Operator.LE,
        Operator.GE: Operator.LT,
        Operator.LT: Operator.GE,
        Operator.LE: Operator.GT,
    }
    if c.operator not in inverse:
        raise CompileError(f"cannot watch {c} over a duration")
    return Constraint(c.type, c.subject, c.attribute, inverse[c.operator], c.value)


def derive_timer_bundle(
    rule: Rule, registry: Registry, diffkeep_ms: int = DIFFKEEP_DELAY_DEFAULT_MS
) -> list[Policy]:
    """Expand a held-duration rule into a start/stop policy pair.

    The start policy arms a timer and registers the report of the watched
    event as its callback; the stop policy cancels the timer when the watched
    constraint stops holding. Conditions and the redundancy guard are
    evaluated when the timer fires, which is when the platform-side copy of
    the rule (with the timer stripped) must execute.
    """
    timer = rule.condition_timer
    if timer is None:
        raise CompileError(f"rule {rule.id} has no timer")
    rule.validate(registry)
    watched = timer.watched
    if watched.is_time:
        raise CompileError(f"rule {rule.id}: cannot watch a time constraint")
    checks = [_condition_check(c, registry) for c in rule.condition]
    checks.extend(_redundancy_checks(rule))
    stripped = strip_timer(rule)
    start = Policy(
        id=f"ap:{rule.id}:start",
        origin=PolicyOrigin.AUTOMATION,
        source_id=rule.id,
        trigger_block=_trigger_block(stripped, registry, diffkeep_ms),
        check_blocks=tuple(checks),
        timer_start=rule.id,
        timer_duration_ms=timer.duration_ms,
    )
    stop = Policy(
        id=f"ap:{rule.id}:stop",
        origin=PolicyOrigin.AUTOMATION,
        source_id=rule.id,
        trigger_block=TriggerBlock(match=_negate(watched), run_action=block()),
        timer_stop=rule.id,
    )
    return [start, stop]


def strip_timer(rule: Rule) -> Rule:
    """The copy of a timer rule forwarded to the platform, timer removed."""
    if rule.condition_timer is None:
        return rule
    return Rule(
        id=rule.id,
        trigger=rule.condition_timer.watched,
        condition=rule.condition,
        condition_timer=None,
        actions=rule.actions,
        uses_history=rule.uses_history,
    )


def encode_user_policy(spec: UserPolicySpec, registry: Registry) -> Policy:
    """Encode a whitelist/blacklist/conditional user policy."""
    spec.check_target(registry)
    attr = spec.target_attribute if spec.target_attribute is not None else "*"
    match = Constraint("device", spec.target_device, attr, Operator.ANY, None)
    if spec.style == "whitelist":
        action = keep()
    elif spec.style == "blacklist":
        action = block()
    else:
        assert spec.action is not None
        action = spec.action
    checks: list[CheckBlock] = []
    if spec.window is not None:
        checks.append(CheckBlock(fetch=time_constraint(Operator.IN_WINDOW, spec.window)))
    for c in spec.context:
        registry.check(c)
        checks.append(CheckBlock(fetch=c))
    return Policy(
        id=f"up:{spec.id}",
        origin=PolicyOrigin.USER,
        source_id=spec.id,
        trigger_block=TriggerBlock(match=match, run_action=action),
        check_blocks=tuple(checks),
    )


@dataclass
class CompiledCorpus:
    """Everything the engine and the simulated platform need for one home.

    ``rules`` is the platform-side rule table: every rule with its timer
    stripped, and each held-duration rule gated, so that only its bundle's
    expiry report fires it. The engine predicts the platform from the same table.
    ``cells[key]`` splits each numeric key at the cut points of every atom
    on it: the rules' triggers, conditions and held-duration watches, and
    the policies' triggers, branches and CHECK fetches (user contexts too).
    """

    registry: Registry
    rules: RuleTable
    cells: dict[tuple[str, str], Cells]
    policies: list[Policy] = field(default_factory=list)        # UPs first, then APs
    user_policies: list[Policy] = field(default_factory=list)
    automation_policies: list[Policy] = field(default_factory=list)


def compile_corpus(
    rules: list[Rule],
    user_specs: list[UserPolicySpec],
    registry: Registry,
    diffkeep_ms: int = DIFFKEEP_DELAY_DEFAULT_MS,
) -> CompiledCorpus:
    user_policies = [encode_user_policy(spec, registry) for spec in user_specs]
    automation_policies: list[Policy] = []
    for rule in rules:
        if rule.condition_timer is not None:
            automation_policies.extend(derive_timer_bundle(rule, registry, diffkeep_ms))
        else:
            automation_policies.append(derive_policy(rule, registry, diffkeep_ms))
    table = RuleTable(map(strip_timer, rules), registry,
                      gated=(rule.id for rule in rules if rule.condition_timer is not None))
    policies = [*user_policies, *automation_policies]
    atoms: dict[tuple[str, str], list[Constraint]] = {}
    for c in _atoms(rules, policies):
        atoms.setdefault(c.key(), []).append(c)
    cells = {(device, attr): Cells(cut_points(atoms.get((device, attr), ())), desc.min, desc.max)
             for device, attr in registry.all_pairs()
             for desc in [registry.lookup(device, attr)] if desc.kind is AttributeKind.NUMERIC}
    return CompiledCorpus(registry, table, cells, policies, user_policies, automation_policies)


def _atoms(rules: list[Rule], policies: list[Policy]) -> Iterator[Constraint]:
    """Every atom of ``rules`` and ``policies``: a held-duration watch is its
    start policy's trigger, and a branch repeats its block's trigger or fetch."""
    for rule in rules:
        yield rule.trigger
        yield from rule.condition
    for policy in policies:
        yield policy.trigger_block.match
        yield from (cb.fetch for cb in policy.check_blocks)
