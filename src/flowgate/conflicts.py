"""Pairwise policy conflict detection as a small constraint-satisfaction core.

Two policies conflict when (1) one event can trigger both, (2) their CHECK
constraint sets are co-satisfiable, and (3) they prescribe different report
actions for the same data. The constraint language has only order/equality
atoms over independent variables, so satisfiability reduces to testing, per
variable, one value of each cell the atoms' cut points make (``model.Cells``)
or each member of a finite domain; no external solver is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .model import (
    MINUTES_PER_DAY,
    AttributeKind,
    Cells,
    Constraint,
    Operator,
    Registry,
    Value,
    cut_points,
)
from .policy import MethodCall, Policy


@dataclass
class ConstraintSet:
    """A conjunction of atoms, each over one device attribute or the time of day."""

    atoms: list[Constraint]
    registry: Registry


def _domain(var: tuple[str, str], atoms: list[Constraint], registry: Registry) -> Iterable[Value]:
    """Candidate values of ``var``, among which one satisfies ``atoms`` if any value does:
    every minute of the day, one value per cell of the atoms' cut points, or every member."""
    if atoms[0].is_time:
        return range(MINUTES_PER_DAY)
    desc = registry.lookup(*var)
    if desc.kind is AttributeKind.NUMERIC:
        cells = Cells(cut_points(atoms), desc.min, desc.max)  # type: ignore[arg-type]
        return cells.representatives()
    return desc.values


def satisfiable(cs: ConstraintSet) -> tuple[bool, Optional[dict[tuple[str, str], Value]]]:
    """Decide the conjunction; return a witness assignment when satisfiable."""
    by_var: dict[tuple[str, str], list[Constraint]] = {}
    for atom in cs.atoms:
        by_var.setdefault(atom.key(), []).append(atom)

    witness: dict[tuple[str, str], Value] = {}
    for var, atoms in sorted(by_var.items()):
        value = next((v for v in _domain(var, atoms, cs.registry)
                      if all(a.satisfied_by(v) for a in atoms)), None)
        if value is None:
            return False, None
        witness[var] = value
    return True, witness


@dataclass
class ConflictReport:
    pair: tuple[str, str]
    verdict: str                                         # "conflict" | "no-conflict"
    witness: Optional[dict[tuple[str, str], Value]] = None
    witness_star: Optional[dict[tuple[str, str], Value]] = None  # last-reported values
    clashing_actions: Optional[tuple[MethodCall, MethodCall]] = None
    shared_object: Optional[tuple[str, str]] = None

    @property
    def is_conflict(self) -> bool:
        return self.verdict == "conflict"


def _effect(call: MethodCall) -> tuple:
    return (call.method.value, tuple(call.params), call.delay_ms)


_Blocks = list[tuple[Optional[Constraint], Optional[MethodCall], Optional[MethodCall]]]


def _policy_blocks(policy: Policy) -> dict[tuple[str, str], _Blocks]:
    """Per data object: (branch, run, else) of every block acting on it."""
    out: dict[tuple[str, str], _Blocks] = {}
    tb = policy.trigger_block
    if not tb.match.is_time and (tb.run_action or tb.else_action):
        out.setdefault(tb.match.key(), []).append((tb.branch, tb.run_action, tb.else_action))
    for cb in policy.check_blocks:
        if cb.fetch.is_time:
            continue
        if cb.run_action or cb.else_action:
            out.setdefault(cb.fetch.key(), []).append((cb.branch, cb.run_action, cb.else_action))
    return out


def _resolved(blocks: _Blocks, star: Value) -> list[MethodCall]:
    """Actions the policy would take on the object given its last-reported value."""
    out = []
    for branch, run, els in blocks:
        chosen = run if branch is None or branch.satisfied_by(star) else els
        if chosen is not None:
            out.append(chosen)
    return out


def _star_candidates(blocks1: _Blocks, blocks2: _Blocks, obj: tuple[str, str],
                     registry: Registry) -> list[Value]:
    """Last-reported values that can flip either policy's branch resolution."""
    desc = registry.lookup(*obj)
    if desc.kind is not AttributeKind.NUMERIC:
        return list(desc.values)
    branches = [branch for branch, _, _ in (*blocks1, *blocks2) if branch is not None]
    cells = Cells(cut_points(branches), desc.min, desc.max)  # type: ignore[arg-type]
    return cells.representatives()


def _objects_clash(
    p1: Policy, p2: Policy, registry: Registry
) -> Optional[tuple[tuple[str, str], MethodCall, MethodCall, Value]]:
    """Condition (3): some reachable last-reported value makes the two
    policies prescribe different effects for the same data object."""
    b1, b2 = _policy_blocks(p1), _policy_blocks(p2)
    for key1 in sorted(b1):
        for key2 in sorted(b2):
            if key1[0] != key2[0]:
                continue
            if key1[1] != key2[1] and "*" not in (key1[1], key2[1]):
                continue
            obj = key1 if key1[1] != "*" else key2
            if obj[1] == "*":
                continue  # both wildcards: no concrete attribute to compare on
            for star in _star_candidates(b1[key1], b2[key2], obj, registry):
                r1 = _resolved(b1[key1], star)
                r2 = _resolved(b2[key2], star)
                for c1 in r1:
                    for c2 in r2:
                        if _effect(c1) != _effect(c2):
                            return obj, c1, c2, star
    return None


def _co_triggerable(p1: Policy, p2: Policy, registry: Registry) -> Optional[list[Constraint]]:
    """Atoms one event must satisfy to trigger both, or None if impossible."""
    t1, t2 = p1.trigger_block.match, p2.trigger_block.match
    if t1.is_time != t2.is_time:
        return None  # a clock instant and a device event never co-trigger
    if t1.is_time:
        return [t1, t2]
    if t1.subject != t2.subject:
        return None
    if t1.attribute != t2.attribute and "*" not in (t1.attribute, t2.attribute):
        return None
    attr = t1.attribute if t1.attribute != "*" else t2.attribute
    if attr == "*":  # both cover the whole device: anchor on its first attribute
        device = registry.devices[t1.subject]
        attr = sorted(device.attributes)[0]
    atoms = []
    for t in (t1, t2):
        if t.operator is not Operator.ANY:
            atoms.append(t)
    if not atoms:
        # Both match everything: anchor the variable so a witness names it.
        atoms.append(Constraint("device", t1.subject, attr, Operator.ANY, None))
    return [
        a if a.attribute != "*" else Constraint(a.type, a.subject, attr, a.operator, a.value)
        for a in atoms
    ]


def detect_conflict(p1: Policy, p2: Policy, registry: Registry) -> ConflictReport:
    """The three-part conflict criterion for one policy pair."""
    pair = (p1.id, p2.id)
    trigger_atoms = _co_triggerable(p1, p2, registry)
    if trigger_atoms is None:
        return ConflictReport(pair, "no-conflict")
    check_atoms = [cb.fetch for cb in (*p1.check_blocks, *p2.check_blocks)]
    ok, witness = satisfiable(ConstraintSet([*trigger_atoms, *check_atoms], registry))
    if not ok:
        return ConflictReport(pair, "no-conflict")
    clash = _objects_clash(p1, p2, registry)
    if clash is None:
        return ConflictReport(pair, "no-conflict")
    obj, c1, c2, star = clash
    return ConflictReport(pair, "conflict", witness=witness, witness_star={obj: star},
                          clashing_actions=(c1, c2), shared_object=obj)


def scan_on_update(changed: Policy, corpus: list[Policy], registry: Registry) -> list[ConflictReport]:
    """Check a new or updated policy against its counterparts.

    A user policy is checked against every automation policy and vice versa;
    pairs of the same origin are not scanned.
    """
    reports = []
    for other in corpus:
        if other.id == changed.id:
            continue
        if other.origin is changed.origin:
            continue
        reports.append(detect_conflict(changed, other, registry))
    return reports
