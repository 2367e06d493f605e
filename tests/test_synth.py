import pytest

from flowgate import synth
from flowgate.compiler import compile_corpus
from flowgate.engine import PolicyEngine
from flowgate.model import DailyWindow, Event
from flowgate.policy import UserPolicySpec
from flowgate.simulator import SimConfig, run_mediated
from tests.conftest import Deadlines


@pytest.mark.parametrize("name", synth.ALL_TESTBEDS)
def test_testbeds_compile(name):
    tb = synth.testbed(name)
    registry = tb.registry()
    rules = tb.rules(registry)
    corpus = compile_corpus(rules, tb.user_specs(registry), registry)
    assert corpus.policies


def test_rule_pack_covers_all_shapes():
    ids = []
    for name in synth.ALL_TESTBEDS:
        tb = synth.testbed(name)
        ids.extend(r.id for r in tb.rules())
    # All 35 published rule shapes are present (a/b/c suffixes split OR-branches).
    roots = {i.rstrip("abc") for i in ids}
    assert roots == {f"r{n}" for n in range(1, 36)}


def test_generated_traces_are_sensor_only_and_alternating():
    tb = synth.testbed("t2")
    registry = tb.registry()
    trace = synth.generate_trace(registry, seed=3, days=2, events_target=3000)
    assert len(trace) >= 3000
    last = {}
    for e in trace:
        desc = registry.lookup(e.device, e.attribute)
        assert not desc.writable
        if desc.kind.value == "binary":
            assert last.get(e.key()) != e.value  # sensors report transitions
            last[e.key()] = e.value
    assert trace == sorted(trace, key=lambda e: e.timestamp)


def test_generated_trace_deterministic():
    registry = synth.testbed("t1").registry()
    a = synth.generate_trace(registry, seed=9, days=1)
    b = synth.generate_trace(registry, seed=9, days=1)
    assert a == b
    c = synth.generate_trace(registry, seed=10, days=1)
    assert a != c


def test_windowed_user_policy_blocks_only_in_window(mini_registry, r1):
    spec = UserPolicySpec(
        id="up", style="blacklist", target_device="ps1", target_attribute="presence",
        window=DailyWindow(17 * 60, 8 * 60),
    )
    corpus = compile_corpus([r1], [spec], mini_registry)

    def run_at(hour):
        engine = PolicyEngine(corpus, seed=0, schedule=Deadlines())
        engine.store.db[("ts1", "temperature")] = 90.0
        ts = hour * 3_600_000
        return engine.process_event(("ps1", "presence"), "present", ts)

    assert [e for e in run_at(18) if e.key() == ("ps1", "presence")] == []
    inside = [e for e in run_at(12) if e.key() == ("ps1", "presence")]
    assert inside and inside[0].value == "present"


def test_emissions_only_touch_policy_referenced_attributes():
    """Nothing is fabricated outside method semantics."""
    tb = synth.testbed("t1")
    registry = tb.registry()
    rules = tb.rules(registry)
    corpus = compile_corpus(rules, [], registry)
    referenced = set()
    for p in corpus.policies:
        atoms = (p.trigger_block.match, *(cb.fetch for cb in p.check_blocks))
        referenced |= {c.key() for c in atoms if not c.is_time}
    trace = synth.generate_trace(registry, seed=21, days=2, events_target=3000)
    run = run_mediated(trace, corpus, SimConfig(seed=21))
    for e in run.reported_events:
        assert e.key() in referenced
