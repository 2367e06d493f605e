"""Acceptance gate: every release criterion, one test each, printed verdicts.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import random
import time
from collections import Counter

import pytest
import yaml

from flowgate import synth
from flowgate.cli import _latency_csv, main as cli_main
from flowgate.compiler import compile_corpus
from flowgate.conflicts import detect_conflict
from flowgate.dsl import format_trace, load_home, parse_rules
from flowgate.engine import PolicyEngine
from flowgate.metrics import (
    HomeMeta,
    attack_report,
    catr,
    ctr,
    infer_activities,
    reduction_rate,
)
from flowgate.model import AttributeKind, Event
from flowgate.simulator import (
    SimConfig,
    remove_redundant,
    run_mediated,
    run_pull_baseline,
    run_raw,
    verify,
)
from tests.conftest import Deadlines, run_due
from tests.oracle_conflicts import oracle_conflict
from tests.test_conflicts import _random_policy, lab_registry
from tests.test_metrics import grid_measure, random_timeline


def _verdict(n, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {n}: {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------

def test_criterion_01_automation_fidelity():
    """All rule shapes, four homes, >=10^4 events each: exact soundness and
    completeness, in under a minute."""
    started = time.time()
    results = []
    for name in synth.ALL_TESTBEDS:
        tb = synth.testbed(name)
        registry = tb.registry()
        rules = tb.rules(registry)
        corpus = compile_corpus(rules, [], registry)
        trace = synth.generate_trace(registry, seed=11, days=7, events_target=12_000)
        assert len(trace) >= 10_000, f"{name}: trace too small ({len(trace)})"
        config = SimConfig(seed=11)
        mediated = run_mediated(trace, corpus, config)
        raw = run_raw(trace, rules, registry, config)
        pruned = remove_redundant(raw.p_commands, trace, registry)
        report = verify(mediated.p_commands, raw.p_commands, pruned_gt=pruned)
        results.append((name, len(trace), report.r_s, report.r_c))
    elapsed = time.time() - started
    ok = all(r_s == 1.0 and r_c == 1.0 for _, _, r_s, r_c in results) and elapsed < 60
    detail = ", ".join(f"{n}: R_S={s:.2f} R_C={c:.2f} ({e} ev)" for n, e, s, c in results)
    _verdict(1, ok, f"{detail}; {elapsed:.1f}s")


def test_criterion_02_case_analysis(mini_registry, r1):
    corpus = compile_corpus([r1], [], mini_registry)

    def emissions(db, db_star, event):
        engine = PolicyEngine(corpus, seed=3, schedule=Deadlines())
        for k, v in db.items():
            engine.store.db[k] = v
        for k, v in db_star.items():
            engine.store.db_star[k] = v
        out = engine.process_event(event.key(), event.value, event.timestamp)
        out.extend(run_due(engine, 10**9))
        return out

    counts = []
    # (1) the presence sensor sends nothing; another device does.
    counts.append(len(emissions({}, {}, Event("ts1", "temperature", 90.0, 1000))))
    # (2) a "not present" event.
    counts.append(len(emissions({("ts1", "temperature"): 90.0, ("ps1", "presence"): "present"},
                                {}, Event("ps1", "presence", "not-present", 1000))))
    # (3) temperature below the threshold.
    counts.append(len(emissions({("ts1", "temperature"): 80.0}, {},
                                Event("ps1", "presence", "present", 1000))))
    # (4) the fan is already on.
    counts.append(len(emissions({("ts1", "temperature"): 90.0, ("f1", "switch"): "on"}, {},
                                Event("ps1", "presence", "present", 1000))))
    # (5) present with a satisfying temperature on file.
    out = emissions({("ts1", "temperature"): 90.0},
                    {("ts1", "temperature"): 70.0, ("ps1", "presence"): "not-present"},
                    Event("ps1", "presence", "present", 1000))
    temp = [e for e in out if e.key() == ("ts1", "temperature")]
    temp_ok = len(temp) == 1 and 86.0 < float(temp[0].value) <= 10000.0
    ok = counts == [0, 0, 0, 0] and len(out) <= 2 and temp_ok
    _verdict(2, ok, f"cases 1-4 -> {counts}, case 5 -> {len(out)} emissions, "
                    f"temperature {float(temp[0].value):.1f}")


def test_criterion_03_pull_baseline_dichotomy():
    tb = synth.testbed("t3")
    registry = tb.registry()
    rules = tb.rules(registry)
    trace = synth.generate_trace(registry, seed=13, days=3, events_target=6000)
    config = SimConfig(seed=13)
    pull = run_pull_baseline(trace, rules, registry, config)
    raw = run_raw(trace, rules, registry, config)
    pruned = remove_redundant(raw.p_commands, trace, registry)
    report = verify(pull.p_commands, raw.p_commands, pruned_gt=pruned)
    time_rules = {"r20a", "r20b"}
    ok = True
    rows = []
    for origin, (matched, total) in report.per_origin.items():
        r_c = matched / total
        rows.append(f"{origin}={r_c:.2f}")
        if origin in time_rules:
            ok = ok and r_c == 1.0
        else:
            ok = ok and r_c == 0.0
    covered = time_rules <= set(report.per_origin) and len(report.per_origin) > len(time_rules)
    _verdict(3, ok and covered, " ".join(sorted(rows)))


def test_criterion_04_reduction_structure():
    total_raw = total_reported = 0
    unused_ok = True
    for name in synth.ALL_TESTBEDS:
        tb = synth.testbed(name)
        registry = tb.registry()
        rules = tb.rules(registry)
        corpus = compile_corpus(rules, [], registry)
        trace = synth.generate_trace(registry, seed=17, days=7, events_target=12_000)
        run = run_mediated(trace, corpus, SimConfig(seed=17))
        raw_counts = Counter(e.key() for e in trace)
        reported_counts = Counter(e.key() for e in run.reported_events)
        total_raw += sum(raw_counts.values())
        total_reported += sum(reported_counts.values())
        referenced = set()
        for rule in rules:
            for c in (rule.trigger, *rule.condition):
                if not c.is_time:
                    referenced.add(c.key())
        for key, raw_n in raw_counts.items():
            desc = registry.lookup(*key)
            if desc.kind is AttributeKind.NUMERIC and key not in referenced and raw_n:
                if reduction_rate(raw_n, reported_counts[key]) != 1.0:
                    unused_ok = False
    aggregate = reduction_rate(total_raw, total_reported)
    ok = aggregate >= 0.90 and unused_ok
    _verdict(4, ok, f"aggregate RR={aggregate:.4f}, unused numeric attributes fully blocked: "
                    f"{unused_ok}")


def test_criterion_05_metric_oracles():
    row_ok = abs(reduction_rate(1244, 9) - 0.9928) <= 1e-4
    rng = random.Random(515)
    horizon = (0, 400_000)
    worst = 0.0
    for i in range(100):
        if i % 2 == 0:
            values = [float(v) for v in range(5)]
            true_tl = random_timeline(rng, horizon[1], values)
            obs_tl = random_timeline(rng, horizon[1], values)
            expected = grid_measure(true_tl, obs_tl, horizon,
                                    lambda tv, ov: tv == ov) / horizon[1]
            worst = max(worst, abs(ctr(true_tl, obs_tl, horizon) - expected))
        else:
            values = ["active", "inactive"]
            true_tl = random_timeline(rng, horizon[1], values)
            obs_tl = random_timeline(rng, horizon[1], values)
            denom = grid_measure(true_tl, obs_tl, horizon, lambda tv, ov: ov == "active")
            actual = catr(true_tl, obs_tl, "active", horizon)
            if denom == 0:
                assert actual is None
                continue
            num = grid_measure(true_tl, obs_tl, horizon,
                               lambda tv, ov: ov == "active" and tv == "active")
            worst = max(worst, abs(actual - num / denom))
    ok = row_ok and worst <= 1e-9
    _verdict(5, ok, f"table row {reduction_rate(1244, 9):.4f}, "
                    f"worst tracking deviation {worst:.2e}")


def test_criterion_06_conflicts_vs_brute_force():
    registry = lab_registry()
    rng = random.Random(606)
    mismatches = 0
    slowest = 0.0
    for trial in range(500):
        p1 = _random_policy(rng, trial * 2, registry)
        p2 = _random_policy(rng, trial * 2 + 1, registry)
        started = time.perf_counter()
        analytic = detect_conflict(p1, p2, registry).is_conflict
        slowest = max(slowest, time.perf_counter() - started)
        if analytic != oracle_conflict(p1, p2, registry):
            mismatches += 1
    ok = mismatches == 0 and slowest < 0.4
    _verdict(6, ok, f"500 pairs, {mismatches} mismatches, slowest analytic check "
                    f"{slowest * 1000:.1f} ms")


ALTERNATION_HOME = {
    "name": "alt",
    "devices": [
        {"id": "s1", "label": "door", "room": "a", "attributes": [
            {"name": "contact", "kind": "binary", "values": ["open", "closed"],
             "active": "open", "initial": "closed"}]},
        {"id": "s2", "label": "motion", "room": "a", "attributes": [
            {"name": "motion", "kind": "binary", "values": ["active", "inactive"],
             "active": "active", "initial": "inactive"}]},
        {"id": "a1", "label": "light", "room": "a", "attributes": [
            {"name": "switch", "kind": "binary", "values": ["on", "off"],
             "active": "on", "initial": "off", "writable": True}]},
        {"id": "a2", "label": "siren", "room": "a", "attributes": [
            {"name": "switch", "kind": "binary", "values": ["on", "off"],
             "active": "on", "initial": "off", "writable": True}]},
    ],
}

ALTERNATION_RULES = "\n".join([
    "ra: when s1.contact == open then a1.switch := on",
    "rb: when s1.contact == closed then a1.switch := off",
    "rc: when s2.motion == active if s1.contact == closed then a2.switch := on",
    "rd: when s2.motion == inactive then a2.switch := off",
])


def test_criterion_07_alternation_property():
    registry = load_home(yaml.safe_dump(ALTERNATION_HOME))
    rules = parse_rules(ALTERNATION_RULES, registry)
    corpus = compile_corpus(rules, [], registry)
    rng = random.Random(707)
    binary_keys = {("s1", "contact"): ("open", "closed"),
                   ("s2", "motion"): ("active", "inactive")}
    violations = 0
    missed_fires = 0
    for _ in range(10_000):
        # A short random binary trace; sensors alternate by construction.
        state = {k: v[1] for k, v in binary_keys.items()}
        trace = []
        t = 0
        for _ in range(rng.randrange(4, 14)):
            t += rng.randrange(1000, 600_000)
            key = list(binary_keys)[rng.randrange(2)]
            cur = state[key]
            nxt = binary_keys[key][0] if cur == binary_keys[key][1] else binary_keys[key][1]
            state[key] = nxt
            trace.append(Event(key[0], key[1], nxt, t))
        config = SimConfig(seed=rng.randrange(1 << 30))
        mediated = run_mediated(trace, corpus, config)
        raw = run_raw(trace, rules, registry, config)
        pruned = remove_redundant(raw.p_commands, trace, registry)
        report = verify(mediated.p_commands, raw.p_commands, pruned_gt=pruned)
        if report.r_s != 1.0 or report.r_c != 1.0:
            missed_fires += 1
        streams = {}
        for e in mediated.reported_events:
            desc = registry.lookup(e.device, e.attribute)
            if desc.kind is AttributeKind.BINARY:
                streams.setdefault(e.key(), []).append(e.value)
        for values in streams.values():
            if any(a == b for a, b in zip(values, values[1:])):
                violations += 1
    ok = violations == 0 and missed_fires == 0
    _verdict(7, ok, f"10^4 traces, {violations} alternation violations, "
                    f"{missed_fires} fidelity breaks")


def test_criterion_08_latency_accounting():
    registry = synth.testbed("t1").registry()
    trace = synth.generate_trace(registry, seed=8, days=1, events_target=1500)
    csv = _latency_csv(len(trace), SimConfig(seed=8, l1_ms=12, l2_ms=250))
    header, row = csv.splitlines()
    events, l1, l2, l_ha = map(int, row.split(","))
    exact = l_ha == l1 + 2 * l2 == 512
    ok = header == "events,l1_ms,l2_ms,l_ha_ms" and exact and events == len(trace)
    _verdict(8, ok, f"{events} events, L_HA = L1 + 2*L2 exactly: {exact}")


def test_criterion_09_activity_inference_degradation():
    tb = synth.testbed("t3")
    registry = tb.registry()
    rules = tb.rules(registry)
    corpus = compile_corpus(rules, [], registry)
    meta = HomeMeta.from_registry(registry)
    day, gt = synth.scripted_day(registry)
    horizon = (0, 24 * 3_600_000)
    raw_labels = infer_activities(day, meta, horizon)
    raw_recall = attack_report(gt, raw_labels).total_recall
    mediated = run_mediated(day, corpus, SimConfig(seed=9))
    filtered_log = [e.as_event() for e in mediated.reported_events]
    filtered_labels = infer_activities(filtered_log, meta, horizon)
    filtered_recall = attack_report(gt, filtered_labels).total_recall
    ok = raw_recall >= 0.9 and filtered_recall <= raw_recall / 2
    _verdict(9, ok, f"raw recall {raw_recall:.2f} -> filtered recall {filtered_recall:.2f}")


def test_criterion_10_deterministic_runs(tmp_path):
    tb = synth.testbed("t2")
    registry = tb.registry()
    trace = synth.generate_trace(registry, seed=10, days=2, events_target=3000)
    scn_dir = tmp_path / "scenario"
    scn_dir.mkdir()
    (scn_dir / "home.yaml").write_text(yaml.safe_dump(tb.home))
    (scn_dir / "rules.dsl").write_text(tb.rules_text + "\n")
    (scn_dir / "trace.log").write_text(format_trace(trace))
    (scn_dir / "scenario.yaml").write_text(yaml.safe_dump({
        "name": "det", "home": "home.yaml", "rules": "rules.dsl", "trace": "trace.log",
        "mode": "mediated", "engine": {"seed": 77, "l2_ms": 250},
    }))
    outs = []
    for i in (1, 2):
        out = tmp_path / f"run{i}"
        code = cli_main(["run", "--scenario", str(scn_dir / "scenario.yaml"),
                         "--out", str(out), "--floor", "1.0"])
        assert code == 0
        outs.append(out)
    files1 = sorted(p.name for p in outs[0].iterdir())
    files2 = sorted(p.name for p in outs[1].iterdir())
    identical = files1 == files2 and all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes() for name in files1
    )
    _verdict(10, identical, f"{len(files1)} artifact files byte-identical: {identical}")
