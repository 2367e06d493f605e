import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
import yaml

from flowgate import cli, synth
from flowgate.cli import _metrics_summary, main as cli_main
from flowgate.dsl import format_trace
from flowgate.engine import Emission
from flowgate.model import Event, ModelError
from flowgate.scenario import Scenario, load_scenario, parse_user_policies
from flowgate.simulator import RunArtifacts

DEMO = Path(__file__).resolve().parent.parent / "scenarios" / "demo"


@pytest.fixture()
def demo_scenario(tmp_path):
    tb = synth.testbed("t1")
    registry = tb.registry()
    trace = synth.generate_trace(registry, seed=5, days=1, events_target=1200)
    (tmp_path / "home.yaml").write_text(yaml.safe_dump(tb.home))
    (tmp_path / "rules.dsl").write_text(tb.rules_text + "\n")
    (tmp_path / "ups.yaml").write_text(tb.ups_text)
    (tmp_path / "trace.log").write_text(format_trace(trace))
    scenario = {
        "name": "demo", "home": "home.yaml", "rules": "rules.dsl", "trace": "trace.log",
        "mode": "mediated", "engine": {"seed": 5},
    }
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(scenario))
    with_ups = dict(scenario, user_policies="ups.yaml", name="demo-ups")
    (tmp_path / "scenario-ups.yaml").write_text(yaml.safe_dump(with_ups))
    return tmp_path


def test_compile_writes_policy_dump(demo_scenario, capsys):
    code = cli_main(["compile", "--scenario", str(demo_scenario / "scenario.yaml"),
                     "--out", str(demo_scenario / "out")])
    assert code == 0
    dump = (demo_scenario / "out" / "policies.txt").read_text()
    assert "TRIGGER:{" in dump and "CHECK: [{" in dump
    assert "match (device).(pr1).(presence)" in dump
    err = capsys.readouterr().err
    # 4 plain rules plus two 2-policy timer bundles.
    assert "compiled 8 automation policies from 6 rules" in err


def test_compile_counts_ups(demo_scenario, capsys):
    code = cli_main(["compile", "--scenario", str(demo_scenario / "scenario-ups.yaml"),
                     "--out", str(demo_scenario / "out2")])
    assert code == 0
    assert "2 user policies" in capsys.readouterr().err


def test_conflicts_reports_up_against_ap(demo_scenario, capsys):
    code = cli_main(["conflicts", "--scenario", str(demo_scenario / "scenario-ups.yaml")])
    assert code == 0
    out = capsys.readouterr()
    assert "conflict" in out.out
    # Both UPs are checked against all 8 automation policies.
    assert "16 pairs checked" in out.err


def test_conflicts_empty_without_ups(demo_scenario, capsys):
    code = cli_main(["conflicts", "--scenario", str(demo_scenario / "scenario.yaml")])
    assert code == 0
    assert "0 pairs checked" in capsys.readouterr().err


def test_run_writes_artifacts_and_meets_floor(demo_scenario, capsys):
    out = demo_scenario / "run"
    code = cli_main(["run", "--scenario", str(demo_scenario / "scenario.yaml"),
                     "--out", str(out), "--floor", "1.0"])
    assert code == 0
    for name in ("reported_events.log", "p_commands.log", "gt_commands.log",
                 "gt_pruned.log", "latency.csv", "verification.json", "metrics.json",
                 "policies.txt"):
        assert (out / name).exists(), name
    verification = json.loads((out / "verification.json").read_text())
    assert verification["r_s"] == 1.0 and verification["r_c"] == 1.0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["aggregate_rr"] > 0.9


def test_run_floor_failure_exit_code(demo_scenario, capsys):
    # Blocking user policies break automation on purpose; the floor catches it.
    out = demo_scenario / "run-ups"
    code = cli_main(["run", "--scenario", str(demo_scenario / "scenario-ups.yaml"),
                     "--out", str(out), "--floor", "1.0"])
    assert code == 1
    assert "below floor" in capsys.readouterr().err


def test_run_pull_mode(demo_scenario, capsys):
    path = demo_scenario / "scenario.yaml"
    out = demo_scenario / "run-pull"
    code = cli_main(["run", "--scenario", str(path), "--mode", "pull", "--out", str(out)])
    assert code == 0
    verification = json.loads((out / "verification.json").read_text())
    assert verification["r_c"] < 1.0  # device-triggered rules never execute
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["aggregate_rr"] is not None


@pytest.mark.parametrize("mode", ["mediated", "pull"])
def test_run_counts_every_trace_event(demo_scenario, capsys, mode):
    path = demo_scenario / "scenario.yaml"
    out = demo_scenario / f"run-counts-{mode}"
    cli_main(["run", "--scenario", str(path), "--mode", mode, "--out", str(out)])
    trace = load_scenario(path).trace
    # Reduction rates count every trace event as raw input, in both modes.
    trace_counts = Counter(f"{e.device}.{e.attribute}" for e in trace)
    metrics = json.loads((out / "metrics.json").read_text())
    raw_counts = {k: v["raw"] for k, v in metrics["per_attribute"].items() if v["raw"]}
    assert raw_counts == trace_counts
    # One modelled latency row per pushed event; pull pushes none.
    rows = (out / "latency.csv").read_text().splitlines()
    assert rows[0] == "event,l1_ms,l2_ms,l_ha_ms"
    assert len(rows) - 1 == (len(trace) if mode == "mediated" else 0)


def test_truth_applies_actuation_after_same_millisecond_trace_event(mini_registry):
    # The replay runs every trace event of a millisecond before the heap's
    # actuations, so the fan is truly on from 60 500 although a switch
    # record at that millisecond says off.
    trace = [Event("f1", "switch", "off", 60_500), Event("mo1", "motion", "active", 120_000)]
    run = RunArtifacts(reported_events=[Emission("f1", "switch", "on", 0)],
                       actuations=[Event("f1", "switch", "on", 60_500)])
    scenario = Scenario("tie", mini_registry, [], [], trace)
    entry = _metrics_summary(scenario, run)["per_attribute"]["f1.switch"]
    assert entry["raw"] == 1
    assert entry["catr"] == round((120_000 - 60_500) / 120_000, 4)


def test_run_raw_mode(demo_scenario, capsys):
    out = demo_scenario / "run-raw"
    code = cli_main(["run", "--scenario", str(demo_scenario / "scenario.yaml"),
                     "--mode", "raw", "--out", str(out)])
    assert code == 0
    assert (out / "gt_commands.log").exists()
    assert (out / "gt_pruned.log").exists()


def test_metrics_recomputes_table(demo_scenario, capsys):
    out = demo_scenario / "run-metrics"
    cli_main(["run", "--scenario", str(demo_scenario / "scenario.yaml"), "--out", str(out)])
    capsys.readouterr()
    code = cli_main(["metrics", "--scenario", str(demo_scenario / "scenario.yaml"),
                     "--out", str(out)])
    assert code == 0
    table = capsys.readouterr().out
    assert "aggregate RR" in table
    assert "mo1.motion" in table


def test_metrics_default_directory_follows_mode(demo_scenario, monkeypatch, capsys):
    monkeypatch.chdir(demo_scenario)
    path = str(demo_scenario / "scenario.yaml")
    assert cli_main(["run", "--scenario", path, "--mode", "pull"]) == 0
    assert (demo_scenario / "runs" / "demo-pull" / "metrics.json").exists()
    capsys.readouterr()
    assert cli_main(["metrics", "--scenario", path, "--mode", "pull"]) == 0
    assert "aggregate RR" in capsys.readouterr().out
    # Without --mode the scenario's own mode (mediated) names the directory.
    assert cli_main(["metrics", "--scenario", path]) == 2


def test_unknown_scenario_mode_is_rejected(demo_scenario):
    data = yaml.safe_load((demo_scenario / "scenario.yaml").read_text())
    path = demo_scenario / "scenario-pul.yaml"
    path.write_text(yaml.safe_dump(dict(data, mode="pul")))
    with pytest.raises(ModelError, match="mediated, raw, pull, got 'pul'"):
        load_scenario(path)


@pytest.mark.parametrize("delay", [0, 500])
def test_diffkeep_ms_sets_the_report_delay(tmp_path, capsys, delay):
    out = tmp_path / "run"
    cli_main(["run", "--scenario", str(DEMO / "scenario.yaml"), "--diffkeep-ms", str(delay),
              "--out", str(out)])
    last: dict[tuple[str, str], list[str]] = {}
    gaps = []
    for line in (out / "reported_events.log").read_text().splitlines():
        ts, device, attribute, value, provenance, kind = line.split()
        prev = last.get((device, attribute))
        # A diffKeep report follows its policy's complement sync on the same key.
        if kind == "report" and prev and prev[2:] == [provenance, "sync"] and prev[1] != value:
            gaps.append(int(ts) - int(prev[0]))
        last[device, attribute] = [ts, value, provenance, kind]
    assert gaps and set(gaps) == {delay}


def test_metrics_without_run_fails(demo_scenario, capsys):
    code = cli_main(["metrics", "--scenario", str(demo_scenario / "scenario.yaml"),
                     "--out", str(demo_scenario / "nowhere")])
    assert code == 2


@pytest.mark.parametrize("mode, compiles", [("raw", 0), ("mediated", 1)])
def test_run_compiles_only_when_policies_are_used(demo_scenario, monkeypatch, mode, compiles):
    calls = []
    compile_corpus = cli.compile_corpus

    def counting(*args, **kwargs):
        calls.append(mode)
        return compile_corpus(*args, **kwargs)

    monkeypatch.setattr(cli, "compile_corpus", counting)
    code = cli_main(["run", "--scenario", str(demo_scenario / "scenario.yaml"), "--mode", mode,
                     "--out", str(demo_scenario / mode)])
    assert code == 0
    assert len(calls) == compiles


# Every flag but --scenario, with a value argparse accepts.
_FLAG_VALUES = {
    "--seed": "1", "--diffkeep-ms": "300", "--l2-ms": "250", "--mode": "pull",
    "--drop-prob": "0.1", "--out": "runs/x", "--floor": "1.0",
}
_COMMAND_FLAGS = {
    "compile": {"--diffkeep-ms", "--out"},
    "conflicts": {"--diffkeep-ms"},
    "metrics": {"--mode", "--out"},
    "run": set(_FLAG_VALUES),
}


@pytest.mark.parametrize("command, flag", [
    (command, flag)
    for command, used in _COMMAND_FLAGS.items()
    for flag in _FLAG_VALUES
    if flag not in used
])
def test_unused_flag_is_a_usage_error(command, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main([command, "--scenario", "scenario.yaml", flag, _FLAG_VALUES[flag]])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(_COMMAND_FLAGS))
def test_each_command_takes_the_flags_it_reads(command):
    argv = [command, "--scenario", "scenario.yaml"]
    for flag in sorted(_COMMAND_FLAGS[command]):
        argv += [flag, _FLAG_VALUES[flag]]
    args = cli.build_parser().parse_args(argv)
    assert args.fn is getattr(cli, f"cmd_{command}")


BAD_CONTEXTS = {
    "range-on-binary": {"device": "ps1", "attribute": "presence", "op": "in-range",
                        "value": ["low", "high"]},
    "range-of-words": {"device": "ts1", "attribute": "temperature", "op": "in-range",
                       "value": ["low", "high"]},
    "order-on-binary": {"device": "ps1", "attribute": "presence", "op": ">", "value": 3},
    "foreign-value": {"device": "mode1", "attribute": "mode", "op": "==", "value": "party"},
    "unknown-op": {"device": "ps1", "attribute": "presence", "op": "~", "value": "present"},
}


def _ups(context):
    return yaml.safe_dump([{"id": "upc", "style": "conditional", "target": {"device": "am1"},
                            "context": [context], "action": "keep"}])


@pytest.mark.parametrize("context", BAD_CONTEXTS.values(), ids=BAD_CONTEXTS)
def test_bad_user_policy_context_fails_at_load(mini_registry, context):
    with pytest.raises(ModelError, match="user policy 'upc'"):
        parse_user_policies(_ups(context), mini_registry)


def test_numeric_user_policy_context_takes_whole_numbers(mini_registry):
    context = {"device": "ts1", "attribute": "temperature", "op": "in-range", "value": [10, 20]}
    (spec,) = parse_user_policies(_ups(context), mini_registry)
    assert spec.context[0].value == (10.0, 20.0)
    assert spec.context[0].satisfied_by(15.0)


def _bad_trace(path: Path, record: str) -> int:
    """Write ``record`` as line 11 of the trace; returns that line number."""
    lines = path.read_text().splitlines(keepends=True)
    ts = int(lines[9].split()[0])
    lines.insert(10, record.format(ts=ts) + "\n")
    path.write_text("".join(lines))
    return 11


@pytest.mark.parametrize("fault", ["value", "regression", "context"])
def test_input_error_ends_in_one_line(demo_scenario, fault):
    scenario = demo_scenario / ("scenario-ups.yaml" if fault == "context" else "scenario.yaml")
    if fault == "context":
        context = {"device": "mo1", "attribute": "motion", "op": "in-range", "value": ["a", "b"]}
        (demo_scenario / "ups.yaml").write_text(_ups(context))
        expected = "user policy 'upc'"
    else:
        record = "{ts} mo1 motion sideways" if fault == "value" else "0 mo1 motion active"
        expected = f"at line {_bad_trace(demo_scenario / 'trace.log', record)}"
    src = Path(cli.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "flowgate.cli", "run", "--scenario", str(scenario),
         "--out", str(demo_scenario / "run-bad")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("flowgate: ") and proc.stderr.count("\n") == 1
    assert expected in proc.stderr
    assert "Traceback" not in proc.stderr
