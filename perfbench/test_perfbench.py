"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

import json
from collections import Counter

import pytest

import run
import tracing
import workloads
from flowgate import synth
from flowgate.compiler import compile_corpus
from flowgate.simulator import SimConfig, run_mediated, run_raw

DEMO = run.ROOT / "scenarios" / "demo" / "scenario.yaml"
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _strip(name: str, suffix: str) -> str:
    assert name.endswith(suffix), name
    return name[: -len(suffix)]


def test_replicas_multiply_devices_and_rules_with_unique_ids():
    t4 = synth.testbed("t4")
    x4 = workloads.replicate(t4, 4)
    registry = x4.registry()
    rules = x4.rules(registry)
    assert len(registry.devices) == 4 * len(t4.registry().devices)
    assert len(rules) == 4 * len(t4.rules())
    assert len({r.id for r in rules}) == len(rules)
    for rule in rules:
        suffix = rule.id[rule.id.rindex("x"):]
        devices = {rule.trigger.subject, *(a.device for a in rule.actions),
                   *(c.subject for c in rule.condition if not c.is_time)}
        devices.discard("time")
        assert all(d.endswith(suffix) for d in devices), (rule.id, devices)
    corpus = compile_corpus(rules, [], registry)
    assert len(corpus.policies) == 84


def test_single_replica_issues_the_same_commands_as_plain_t4():
    plain, x1 = synth.testbed("t4"), workloads.replicate(synth.testbed("t4"), 1)

    def commands(tb):
        registry = tb.registry()
        rules = tb.rules(registry)
        trace = synth.generate_trace(registry, seed=5, days=1, events_target=1500)
        config = SimConfig(seed=5)
        mediated = run_mediated(trace, compile_corpus(rules, [], registry), config)
        raw = run_raw(trace, rules, registry, config)
        return trace, mediated.p_commands, raw.p_commands

    trace_a, med_a, raw_a = commands(plain)
    trace_b, med_b, raw_b = commands(x1)
    assert [(e.timestamp, e.device, e.attribute, e.value) for e in trace_a] == [
        (e.timestamp, _strip(e.device, "x1"), e.attribute, e.value) for e in trace_b
    ]
    for a, b in ((med_a, med_b), (raw_a, raw_b)):
        assert a, "the day must actuate something"
        assert [(c.timestamp, c.device, c.attribute, c.value, c.origin) for c in a] == [
            (c.timestamp, _strip(c.device, "x1"), c.attribute, c.value, _strip(c.origin, "x1"))
            for c in b
        ]


def test_traced_layer_times_sum_within_run_time(tmp_path):
    traced = run.run_pass([DEMO], tmp_path / "pass", traced=True)
    rec = traced.recorder
    (cli_span,) = [s for s in rec.spans if s.name == "cli.run"]
    stages = [s for s in rec.spans if s.parent == cli_span.id]
    assert {s.name for s in stages} == set(tracing.STAGES)
    assert sum(s.seconds for s in stages) <= cli_span.seconds == traced.run_s
    for span in rec.spans:
        assert rec.self_seconds(span) >= 0, span.name
    calls = Counter(r.name for r in rec.rollups.values())
    assert calls["engine.process_event"] == 1 and calls["platform_sim.tick"] == 2
    metrics = run.layer_metrics(traced, traced.run_s)
    layer_sum = sum(v for k, (v, unit) in metrics.items()
                    if unit == "s" and k.endswith(("load_s", "compile_s", "raw_s", "mediated_s",
                                                   "prune_s", "verify_s", "summary_s",
                                                   "artifacts_s")))
    assert layer_sum == pytest.approx(traced.run_s, rel=1e-6)


def test_smoke_profile_on_demo_reports_every_declared_metric(tmp_path):
    for trace, declared in ((False, "end_to_end"), (True, "per_layer")):
        result = run.measure([DEMO], seconds=1, trace=trace, out_root=tmp_path / str(trace))
        assert result["correct"], result
        assert result["failed"] == 0 and result["attempted"] > 0
        assert set(result["metrics"]) == {m["name"] for m in BENCHMARK[declared]}
        for m in BENCHMARK[declared]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert (tmp_path / "True" / "spans.json").is_file()


def test_output_check_catches_a_tampered_command_log(tmp_path):
    run.run_pass([DEMO], tmp_path, traced=False)
    clean = run.Fidelity()
    run.check_outputs(tmp_path, "demo", clean)
    assert clean.problems == [] and clean.p_commands > 0
    log = tmp_path / "demo" / "p_commands.log"
    lines = log.read_text().splitlines(keepends=True)
    log.write_text("".join(lines[1:]))
    tampered = run.Fidelity()
    run.check_outputs(tmp_path, "demo", tampered)
    assert tampered.problems
