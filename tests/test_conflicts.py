import random
import time

import yaml

from flowgate.compiler import compile_corpus, derive_policy, derive_timer_bundle, encode_user_policy
from flowgate.conflicts import ConstraintSet, detect_conflict, satisfiable, scan_on_update
from flowgate.dsl import load_home, parse_rule
from flowgate.engine import PolicyEngine, evaluate_policy
from flowgate.model import (
    DailyWindow,
    Operator,
    device_constraint,
    parse_hhmm,
    time_constraint,
)
from flowgate.policy import Method, MethodCall, UserPolicySpec
from tests.conftest import Deadlines
from tests.oracle_conflicts import oracle_conflict


def test_satisfiable_empty_interval(mini_registry):
    cs = ConstraintSet([
        device_constraint("ts1", "temperature", Operator.GT, 86.0),
        device_constraint("ts1", "temperature", Operator.LT, 80.0),
    ], mini_registry)
    ok, witness = satisfiable(cs)
    assert not ok and witness is None


def test_satisfiable_duplicate_equalities(mini_registry):
    cs = ConstraintSet([
        device_constraint("ps1", "presence", Operator.EQ, "present"),
        device_constraint("ps1", "presence", Operator.EQ, "present"),
    ], mini_registry)
    ok, witness = satisfiable(cs)
    assert ok
    assert witness[("ps1", "presence")] == "present"


def test_satisfiable_overlapping_windows(mini_registry):
    cs = ConstraintSet([
        time_constraint(Operator.IN_WINDOW, DailyWindow(parse_hhmm("17:00"), parse_hhmm("08:00"))),
        time_constraint(Operator.IN_WINDOW, DailyWindow(parse_hhmm("10:00"), parse_hhmm("18:00"))),
    ], mini_registry)
    ok, witness = satisfiable(cs)
    assert ok
    minute = witness[("time", "clock")]
    # Brute force at minute granularity agrees and the witness lies inside.
    valid = [m for m in range(1440) if (m >= 1020 or m < 480) and (600 <= m < 1080)]
    assert minute in valid


def test_conflict_ap_vs_blocking_up(mini_registry, r1):
    ap = derive_policy(r1, mini_registry)
    up = encode_user_policy(
        UserPolicySpec(id="u1", style="blacklist", target_device="ps1",
                       target_attribute="presence"),
        mini_registry,
    )
    report = detect_conflict(ap, up, mini_registry)
    assert report.is_conflict
    assert report.shared_object == ("ps1", "presence")
    methods = {c.method for c in report.clashing_actions}
    assert Method.BLOCK in methods
    assert methods & {Method.KEEP, Method.DIFF_KEEP}
    assert report.witness is not None


def test_no_conflict_disjoint_devices(mini_registry, r1):
    ap = derive_policy(r1, mini_registry)
    up = encode_user_policy(
        UserPolicySpec(id="u2", style="blacklist", target_device="mo1",
                       target_attribute="motion"),
        mini_registry,
    )
    assert not detect_conflict(ap, up, mini_registry).is_conflict


def test_no_conflict_disjoint_triggers(mini_registry):
    hot = derive_policy(
        parse_rule("ra: when ts1.temperature > 86 then f1.switch := on", mini_registry),
        mini_registry,
    )
    cold = derive_policy(
        parse_rule("rb: when ts1.temperature < 50 then f1.switch := off", mini_registry),
        mini_registry,
    )
    assert not detect_conflict(hot, cold, mini_registry).is_conflict


def test_conflict_is_symmetric(mini_registry, r1):
    ap = derive_policy(r1, mini_registry)
    up = encode_user_policy(
        UserPolicySpec(id="u3", style="blacklist", target_device="ps1",
                       target_attribute="presence"),
        mini_registry,
    )
    assert (detect_conflict(ap, up, mini_registry).verdict
            == detect_conflict(up, ap, mini_registry).verdict)


def test_scan_on_update_pairs_and_empty_corpus(mini_registry, r1):
    ap = derive_policy(r1, mini_registry)
    up = encode_user_policy(
        UserPolicySpec(id="u4", style="whitelist", target_device="sl1",
                       target_attribute="switch"),
        mini_registry,
    )
    assert scan_on_update(up, [], mini_registry) == []
    reports = scan_on_update(up, [ap, up], mini_registry)
    assert len(reports) == 1  # only the cross-origin pair
    reports = scan_on_update(ap, [ap, up], mini_registry)
    assert len(reports) == 1


def test_conditional_up_blocks_only_in_context(mini_registry):
    """A conditional policy passes the target through unless its context holds."""
    rule = parse_rule(
        "rp: when ps1.presence == present then f1.switch := on pass-history", mini_registry
    )
    spec = UserPolicySpec(
        id="u5", style="conditional", target_device="ps1", target_attribute="presence",
        context=(device_constraint("mode1", "mode", Operator.EQ, "vacation"),),
        action=MethodCall(Method.BLOCK),
    )
    corpus = compile_corpus([rule], [spec], mini_registry)
    engine = PolicyEngine(corpus, seed=0, schedule=Deadlines())
    engine.store.db[("mode1", "mode")] = "home"
    out = engine.process_event(("ps1", "presence"), "present", 1000)
    assert [e.value for e in out] == ["present"]
    engine.store.db[("mode1", "mode")] = "vacation"
    out = engine.process_event(("ps1", "presence"), "not-present", 2000)
    assert out == []


# ---------------------------------------------------------------------------
# Randomized equivalence against the brute-force oracle
# ---------------------------------------------------------------------------

LAB_HOME = {
    "name": "lab",
    "devices": [
        {"id": "d1", "label": "motion", "room": "a", "attributes": [
            {"name": "motion", "kind": "binary", "values": ["active", "inactive"],
             "active": "active", "initial": "inactive"}]},
        {"id": "d2", "label": "mode", "room": "a", "attributes": [
            {"name": "mode", "kind": "enumerated", "values": ["home", "away", "night"],
             "initial": "home"}]},
        {"id": "d3", "label": "level", "room": "b", "attributes": [
            {"name": "level", "kind": "numeric", "min": 0, "max": 8, "initial": 0}]},
        {"id": "d4", "label": "actuator", "room": "b", "attributes": [
            {"name": "switch", "kind": "binary", "values": ["on", "off"],
             "active": "on", "initial": "off", "writable": True}]},
    ],
}


def lab_registry():
    return load_home(yaml.safe_dump(LAB_HOME))


def _random_atom(rng):
    kind = rng.randrange(3)
    if kind == 0:
        return f"d1.motion {rng.choice(['==', '!='])} {rng.choice(['active', 'inactive'])}"
    if kind == 1:
        return f"d2.mode {rng.choice(['==', '!='])} {rng.choice(['home', 'away', 'night'])}"
    op = rng.choice(["<", "<=", ">", ">="])
    return f"d3.level {op} {rng.randrange(0, 9)}"


def _random_rule_text(rng, i):
    if rng.random() < 0.15:
        trigger = f"time.clock == {rng.randrange(24):02d}:{rng.randrange(60):02d}"
    else:
        trigger = _random_atom(rng)
    parts = [f"g{i}: when {trigger}"]
    conds = [_random_atom(rng) for _ in range(rng.randrange(0, 3))]
    if rng.random() < 0.25:
        a, b = rng.randrange(24), rng.randrange(24)
        if a != b:
            conds.append(f"time.clock in {a:02d}:00..{b:02d}:00")
    if conds:
        parts.append("if " + " and ".join(conds))
    delay = " after 5000" if rng.random() < 0.2 else ""
    parts.append(f"then d4.switch := {rng.choice(['on', 'off'])}{delay}")
    return " ".join(parts)


def _random_policy(rng, i, registry):
    if rng.random() < 0.4:
        styles = ["blacklist", "whitelist", "conditional"]
        style = rng.choice(styles)
        target = rng.choice([("d1", "motion"), ("d2", "mode"), ("d3", "level"), ("d4", None)])
        window = None
        if rng.random() < 0.4:
            a, b = rng.randrange(24), rng.randrange(24)
            if a != b:
                window = DailyWindow(a * 60, b * 60)
        context = ()
        if rng.random() < 0.4:
            member = rng.choice(["home", "away", "night"])
            context = (device_constraint("d2", "mode", Operator.EQ, member),)
        action = MethodCall(Method.BLOCK) if style == "conditional" else None
        spec = UserPolicySpec(
            id=f"u{i}", style=style, target_device=target[0], target_attribute=target[1],
            window=window, context=context, action=action,
        )
        return encode_user_policy(spec, registry)
    rule = parse_rule(_random_rule_text(rng, i), registry)
    if rng.random() < 0.25 and not rule.trigger.is_time and rule.trigger.operator is Operator.EQ:
        timed = parse_rule(
            _random_rule_text(rng, i).split(" then ")[0].replace("when", "when", 1)
            + " then d4.switch := off",
            registry,
        )
    if rule.condition_timer is not None:
        return derive_timer_bundle(rule, registry)[0]
    return derive_policy(rule, registry)


def test_verdicts_match_brute_force_on_random_pairs():
    registry = lab_registry()
    rng = random.Random(2024)
    mismatches = []
    slowest = 0.0
    for trial in range(500):
        p1 = _random_policy(rng, trial * 2, registry)
        p2 = _random_policy(rng, trial * 2 + 1, registry)
        started = time.perf_counter()
        analytic = detect_conflict(p1, p2, registry).is_conflict
        slowest = max(slowest, time.perf_counter() - started)
        expected = oracle_conflict(p1, p2, registry)
        if analytic != expected:
            mismatches.append((trial, p1.id, p2.id, analytic, expected))
    assert mismatches == [], mismatches[:5]
    assert slowest < 0.4  # well under the per-pair budget


def test_conflict_witness_replays_to_differing_decisions(mini_registry, r1):
    """A witness, fed through the engine, makes the two policies disagree."""
    ap = derive_policy(r1, mini_registry)
    up = encode_user_policy(
        UserPolicySpec(id="u6", style="blacklist", target_device="ps1",
                       target_attribute="presence"),
        mini_registry,
    )
    report = detect_conflict(ap, up, mini_registry)
    assert report.is_conflict
    corpus = compile_corpus([r1], [], mini_registry)
    engine = PolicyEngine(corpus, seed=0, schedule=Deadlines())
    for key, value in report.witness.items():
        if key != ("time", "clock"):
            engine.store.db[key] = value
    for key, value in (report.witness_star or {}).items():
        engine.store.db_star[key] = value
    obj = report.shared_object
    ap_decisions = evaluate_policy(obj, ap, engine.store, 1000)
    up_decisions = evaluate_policy(obj, up, engine.store, 1000)
    ap_on_obj = [d for d in ap_decisions if d.key() == obj]
    up_on_obj = [d for d in up_decisions if d.key() == obj]
    assert ap_on_obj and up_on_obj
    ap_blocks = ap_on_obj[0].method.method is Method.BLOCK
    assert ap_blocks != (up_on_obj[0].method.method is Method.BLOCK)
