import pytest
import yaml

from flowgate.compiler import (
    CompileError,
    compile_corpus,
    derive_policy,
    derive_timer_bundle,
    encode_user_policy,
)
from flowgate.dsl import parse_rule, parse_rules
from flowgate.engine import PolicyEngine
from flowgate.model import (
    KIND_SYNC,
    DailyWindow,
    ModelError,
    Operator,
    Rule,
    RuleAction,
    device_constraint,
    parse_hhmm,
)
from flowgate.policy import Method, MethodCall, PolicyOrigin, UserPolicySpec, keep
from flowgate.scenario import parse_user_policies
from tests.conftest import R1_TEXT, Deadlines


def test_derive_r1_matches_known_shape(mini_registry, r1):
    """The canonical presence/temperature/fan rule compiles to the known policy."""
    policy = derive_policy(r1, mini_registry)
    tb = policy.trigger_block
    assert tb.match.key() == ("ps1", "presence")
    assert tb.match.operator is Operator.EQ and tb.match.value == "present"
    assert tb.branch == tb.match
    assert tb.run_action.method is Method.DIFF_KEEP
    assert tb.run_action.params == ("present",)
    assert tb.else_action.method is Method.KEEP

    temp, guard = policy.check_blocks
    assert temp.fetch.key() == ("ts1", "temperature")
    assert temp.fetch.operator is Operator.GT and temp.fetch.value == 86.0
    assert temp.run_action.method is Method.BLOCK
    assert temp.else_action.method is Method.RANDOMIZE
    assert temp.else_action.params == (86.0, 10000.0)  # up to the attribute maximum

    # Redundancy suppression: no report, just the constraint.
    assert guard.fetch.key() == ("f1", "switch")
    assert guard.fetch.operator is Operator.NE and guard.fetch.value == "on"
    assert guard.run_action is None


def test_derive_trigger_action_rule(mini_registry):
    rule = parse_rule("r2: when ts1.temperature > 86 then f1.switch := on", mini_registry)
    policy = derive_policy(rule, mini_registry)
    tb = policy.trigger_block
    assert tb.run_action.method is Method.BLOCK
    assert tb.else_action.method is Method.RANDOMIZE
    assert tb.else_action.params == (86.0, 10000.0)
    assert len(policy.check_blocks) == 1  # just the redundancy guard
    assert policy.check_blocks[0].fetch.key() == ("f1", "switch")


def test_derive_pass_through_for_history_rules(mini_registry):
    rule = parse_rule(
        "rh: when ts1.temperature > 86 then f1.switch := on pass-history", mini_registry
    )
    policy = derive_policy(rule, mini_registry)
    assert policy.trigger_block.match.operator is Operator.ANY
    assert policy.trigger_block.run_action.method is Method.KEEP
    assert policy.check_blocks == ()


def test_derive_skips_guard_for_multi_action_and_delayed(mini_registry):
    multi = parse_rule(
        "rm: when ps1.presence == present then f1.switch := on, sl1.switch := on",
        mini_registry,
    )
    assert derive_policy(multi, mini_registry).check_blocks == ()
    delayed = parse_rule(
        "rd: when ps1.presence == present then f1.switch := off after 60000", mini_registry
    )
    assert derive_policy(delayed, mini_registry).check_blocks == ()


def test_condition_order_is_preserved_before_guard(mini_registry):
    rule = parse_rule(
        "rc: when ps1.presence == present if ts1.temperature > 86 and am1.humidity < 40"
        " then f1.switch := on",
        mini_registry,
    )
    policy = derive_policy(rule, mini_registry)
    keys = [cb.fetch.key() for cb in policy.check_blocks]
    assert keys == [("ts1", "temperature"), ("am1", "humidity"), ("f1", "switch")]


def test_timer_bundle_structure(mini_registry):
    rule = parse_rule(
        "rt: when mo1.motion == inactive for 300000 then sl1.switch := off", mini_registry
    )
    start, stop = derive_timer_bundle(rule, mini_registry)
    assert start.timer_start == "rt" and start.timer_duration_ms == 300000
    assert start.trigger_block.match.value == "inactive"
    assert stop.timer_stop == "rt"
    assert stop.trigger_block.match.operator is Operator.NE
    assert stop.trigger_block.match.value == "inactive"
    with pytest.raises(CompileError):
        derive_timer_bundle(
            parse_rule("rx: when mo1.motion == active then sl1.switch := on", mini_registry),
            mini_registry,
        )


def test_timer_bundle_compiles_into_corpus(mini_registry):
    rules = parse_rules(
        "rt: when mo1.motion == inactive for 300000 then sl1.switch := off", mini_registry
    )
    corpus = compile_corpus(rules, [], mini_registry)
    assert len(corpus.automation_policies) == 2
    assert list(corpus.rules.gated) == ["rt"] and corpus.rules.on_key == {}
    forwarded = corpus.rules.gated["rt"]
    assert forwarded.condition_timer is None  # stripped so the timer is not doubled
    assert forwarded.trigger.value == "inactive"


def test_encode_blacklist_window(mini_registry):
    spec = UserPolicySpec(
        id="up1", style="blacklist", target_device="mo1", target_attribute="motion",
        window=DailyWindow(parse_hhmm("17:00"), parse_hhmm("08:00")),
    )
    policy = encode_user_policy(spec, mini_registry)
    assert policy.origin is PolicyOrigin.USER
    assert policy.trigger_block.match.operator is Operator.ANY
    assert policy.trigger_block.run_action.method is Method.BLOCK
    assert policy.check_blocks[0].fetch.is_time


def test_encode_whitelist_always_keeps(mini_registry):
    spec = UserPolicySpec(id="up2", style="whitelist", target_device="sl1",
                          target_attribute="switch")
    policy = encode_user_policy(spec, mini_registry)
    assert policy.trigger_block.run_action.method is Method.KEEP
    assert policy.check_blocks == ()


def test_encode_conditional_with_context(mini_registry):
    spec = UserPolicySpec(
        id="up3", style="conditional", target_device="ps1", target_attribute="presence",
        context=(device_constraint("mode1", "mode", Operator.EQ, "vacation"),),
        action=MethodCall(Method.BLOCK),
    )
    policy = encode_user_policy(spec, mini_registry)
    assert policy.check_blocks[0].fetch.key() == ("mode1", "mode")


def test_encode_rejects_empty_target(mini_registry):
    with pytest.raises(Exception):
        UserPolicySpec(id="up4", style="blacklist", target_device="", target_attribute=None)


def test_randomize_always_satisfies_originating_constraint(mini_registry):
    """Sampled check reports must re-satisfy the platform-side predicate."""
    corpus = compile_corpus(parse_rules(R1_TEXT, mini_registry), [], mini_registry)
    engine = PolicyEngine(corpus, seed=11, schedule=Deadlines())
    call = MethodCall(Method.RANDOMIZE, (86.0, 10000.0))
    for _ in range(10_000):
        [(value, _, _)] = engine._plan(("ts1", "temperature"), [call], 90.0, KIND_SYNC)
        assert 86.0 < value <= 10000.0


def test_compiled_policies_reference_registry_pairs(mini_registry):
    rules = parse_rules(
        "\n".join([
            "r1: when ps1.presence == present if ts1.temperature > 86 then f1.switch := on",
            "rt: when mo1.motion == inactive for 300000 then sl1.switch := off",
        ]),
        mini_registry,
    )
    corpus = compile_corpus(rules, [], mini_registry)
    for policy in corpus.policies:
        for c in (policy.trigger_block.match, *(cb.fetch for cb in policy.check_blocks)):
            if not c.is_time:
                assert mini_registry.lookup(*c.key()) is not None


def test_trigger_thresholds_collected(mini_registry):
    rules = parse_rules(
        "\n".join([
            "ra: when ts1.temperature > 86 then f1.switch := on",
            "rb: when ts1.temperature > 90 then sl1.switch := on",
        ]),
        mini_registry,
    )
    corpus = compile_corpus(rules, [], mini_registry)
    assert corpus.rules.thresholds[("ts1", "temperature")] == (86.0, 90.0)


# Atoms no attribute can take: (device, attribute, operator, ref).
BAD_ATOMS = {
    "order-on-binary": ("ps1", "presence", ">", "present"),
    "word-below": ("ts1", "temperature", "<", "cold"),
    "word-equal": ("ts1", "temperature", "==", "cold"),
    "word-range": ("ts1", "temperature", "in-range", ("cold", "hot")),
    "empty-range": ("ts1", "temperature", "in-range", (90, 10)),
    "foreign-value": ("mode1", "mode", "==", "party"),
}
_OPERATORS = {"<": Operator.LT, ">": Operator.GT, "==": Operator.EQ, "in-range": Operator.IN_RANGE}


def _atom_text(device, attribute, op, ref):
    if op == "in-range":
        return f"{device}.{attribute} in {ref[0]}..{ref[1]}"
    return f"{device}.{attribute} {op} {ref}"


@pytest.mark.parametrize("entry", ["parse_rule", "parse_user_policies", "encode_user_policy",
                                   "compile_corpus"])
@pytest.mark.parametrize("atom", BAD_ATOMS.values(), ids=BAD_ATOMS)
def test_every_entry_point_rejects_a_bad_atom(mini_registry, atom, entry):
    device, attribute, op, ref = atom
    c = device_constraint(device, attribute, _OPERATORS[op], ref)
    with pytest.raises(ModelError):
        if entry == "parse_rule":
            parse_rule(f"rb: when mo1.motion == active if {_atom_text(*atom)}"
                       " then f1.switch := on", mini_registry)
        elif entry == "parse_user_policies":
            context = {"device": device, "attribute": attribute, "op": op,
                       "value": list(ref) if isinstance(ref, tuple) else ref}
            parse_user_policies(yaml.safe_dump([{
                "id": "upc", "style": "conditional", "target": {"device": "am1"},
                "context": [context], "action": "keep"}]), mini_registry)
        elif entry == "encode_user_policy":
            encode_user_policy(UserPolicySpec("upc", "conditional", "am1", None, context=(c,),
                                              action=keep()), mini_registry)
        else:
            trigger = device_constraint("mo1", "motion", Operator.EQ, "active")
            rule = Rule("rb", trigger, condition=(c,), actions=(RuleAction("f1", "switch", "on"),))
            compile_corpus([rule], [], mini_registry)
