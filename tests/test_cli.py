import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
import yaml

import flowgate.scenario as scenario_module
from flowgate import cli, synth
from flowgate.cli import _metrics_summary, main as cli_main
from flowgate.dsl import format_trace
from flowgate.engine import Emission
from flowgate.model import Event, ModelError
from flowgate.scenario import _ENGINE_KEYS, Scenario, load_scenario, parse_user_policies
from flowgate.simulator import RunArtifacts, VerifyReport

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
    # One latency-model row that counts the pushed events; pull pushes none.
    header, row = (out / "latency.csv").read_text().splitlines()
    assert header == "events,l1_ms,l2_ms,l_ha_ms"
    assert int(row.split(",")[0]) == (len(trace) if mode == "mediated" else 0)


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


def test_metrics_recomputes_table(demo_scenario, monkeypatch, capsys):
    out = demo_scenario / "run-metrics"
    cli_main(["run", "--scenario", str(demo_scenario / "scenario.yaml"), "--out", str(out)])
    capsys.readouterr()
    code = cli_main(["metrics", "--scenario", str(demo_scenario / "scenario.yaml"),
                     "--out", str(out)])
    assert code == 0
    table = capsys.readouterr().out
    assert "aggregate RR" in table
    assert "mo1.motion" in table

    # The table comes from metrics.json alone: the trace is never parsed.
    def unparsed(*args):
        raise AssertionError("flowgate metrics parsed the trace")

    monkeypatch.setattr(scenario_module, "parse_trace", unparsed)
    assert cli_main(["metrics", "--scenario", str(demo_scenario / "scenario.yaml"),
                     "--out", str(out)]) == 0
    assert capsys.readouterr().out == table
    # The scenario table is still checked.
    data = yaml.safe_load((demo_scenario / "scenario.yaml").read_text())
    bad = demo_scenario / "scenario-bad.yaml"
    bad.write_text(yaml.safe_dump(dict(data, colour="red")))
    assert cli_main(["metrics", "--scenario", str(bad), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("flowgate: unknown key 'colour'") and err.count("\n") == 1


def test_metrics_default_directory_follows_mode(demo_scenario, monkeypatch, capsys):
    monkeypatch.chdir(demo_scenario)
    path = str(demo_scenario / "scenario.yaml")
    assert cli_main(["run", "--scenario", path, "--mode", "pull"]) == 0
    assert (demo_scenario / "runs" / "demo-pull" / "metrics.json").exists()
    capsys.readouterr()
    assert cli_main(["metrics", "--scenario", path, "--mode", "pull"]) == 0
    assert "aggregate RR" in capsys.readouterr().out
    # Without --mode the scenario's own mode (mediated) names the directory.
    assert cli_main(["metrics", "--scenario", path]) == 4


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
    assert code == 4
    assert "run `flowgate run` first" in capsys.readouterr().err


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


# Each setting a run takes: (its flag, where the scenario sets it, its default,
# a scenario value, a flag value). ``out`` has no scenario key.
_SETTINGS = {
    "seed": ("--seed", "engine", 0, 5, 9),
    "diffkeep_ms": ("--diffkeep-ms", "engine", 300, 100, 700),
    "l1_ms": (None, "engine", 0, 7, None),
    "l2_ms": ("--l2-ms", "engine", 250, 100, 400),
    "drop_prob": ("--drop-prob", "engine", 0.0, 0.25, 0.5),
    "refresh_ms": (None, "engine", 0, 60_000, None),
    "fidelity_floor": ("--floor", "top", 0.0, 1.5, 1.25),
    "mode": ("--mode", "top", "mediated", "pull", "raw"),
    "out": ("--out", None, "runs/demo-mediated", None, "elsewhere"),
}


def _received(name, seen, err):
    """The value of setting ``name`` that the run acted on."""
    if name == "diffkeep_ms":
        return seen["diffkeep_ms"]
    if name == "mode":
        return seen["replays"][-1]
    if name == "fidelity_floor":
        return float(err.rsplit("below floor ", 1)[1])
    if name == "out":
        return next(str(p.parent) for p in Path().glob("**/gt_commands.log"))
    values = {getattr(config, name) for config in seen["configs"]}
    assert len(values) == 1  # every replay of a run gets the same settings
    return values.pop()


@pytest.mark.parametrize("name, given", [
    (name, given)
    for name, (flag, where, *_) in _SETTINGS.items()
    for given in ("neither", "scenario", "flag", "both")
    if (where or given in ("neither", "flag")) and (flag or given in ("neither", "scenario"))
])
def test_settings_reach_the_run(demo_scenario, monkeypatch, capsys, name, given):
    assert {key for key, setting in _SETTINGS.items() if setting[1] == "engine"} == set(_ENGINE_KEYS)
    flag, where, default, in_scenario, on_flag = _SETTINGS[name]
    data = yaml.safe_load((demo_scenario / "scenario.yaml").read_text())
    del data["mode"], data["engine"]
    expected = default
    if given in ("scenario", "both"):
        (data.setdefault("engine", {}) if where == "engine" else data)[name] = in_scenario
        expected = in_scenario
    argv = ["run", "--scenario", str(demo_scenario / "settings.yaml")]
    if given in ("flag", "both"):
        argv += [flag, str(on_flag)]
        expected = on_flag
    (demo_scenario / "settings.yaml").write_text(yaml.safe_dump(data))

    seen: dict = {"configs": [], "replays": []}

    def replay(mode):
        def record(trace, *args):
            seen["configs"].append(args[-1])
            seen["replays"].append(mode)
            return RunArtifacts()
        return record

    compile_corpus = cli.compile_corpus

    def compiling(*args, diffkeep_ms):
        seen["diffkeep_ms"] = diffkeep_ms
        return compile_corpus(*args, diffkeep_ms=diffkeep_ms)

    monkeypatch.setattr(cli, "run_raw", replay("raw"))
    monkeypatch.setattr(cli, "run_mediated", replay("mediated"))
    monkeypatch.setattr(cli, "run_pull_baseline", replay("pull"))
    monkeypatch.setattr(cli, "compile_corpus", compiling)
    # Every run then falls below any floor, so each names the floor it applied.
    monkeypatch.setattr(cli, "verify", lambda *a, **k: VerifyReport(-1.0, -1.0))
    monkeypatch.chdir(demo_scenario)
    code = cli_main(argv)
    err = capsys.readouterr().err
    assert code == (0 if name == "mode" and expected == "raw" else 1)
    assert _received(name, seen, err) == expected


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
    "any-op": {"device": "ps1", "attribute": "presence", "op": "any", "value": "present"},
    "window-op": {"device": "ps1", "attribute": "presence", "op": "in-daily-window",
                  "value": "present"},
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


# A malformed user-policy file per fault, and what its error line names.
BAD_UPS = {
    "context": (_ups({"device": "mo1", "attribute": "motion", "op": "in-range",
                      "value": ["a", "b"]}), "user policy 'upc'"),
    "no-style": (yaml.safe_dump([{"id": "upx", "target": {"device": "mo1"}}]),
                 "user policy 'upx': missing style"),
    "target-as-text": (yaml.safe_dump([{"id": "upt", "style": "blacklist", "target": "mo1"}]),
                       "user policy 'upt': target must be a mapping"),
    "window-without-end": (
        yaml.safe_dump([{"id": "upw", "style": "blacklist", "target": {"device": "mo1"},
                         "window": {"start": "17:00"}}]),
        "user policy 'upw': window needs start and end"),
    "window-as-text": (
        yaml.safe_dump([{"id": "upw", "style": "blacklist", "target": {"device": "mo1"},
                         "window": "17:00-08:00"}]),
        "user policy 'upw': window needs start and end"),
    "context-not-a-list": (
        yaml.safe_dump([{"id": "upc", "style": "conditional", "target": {"device": "am1"},
                         "context": 5, "action": "keep"}]),
        "user policy 'upc': context must be a list"),
    "entry-not-a-mapping": (yaml.safe_dump(["upx"]), "user policy entry 1 must be a mapping"),
    "target-unknown-key": (
        yaml.safe_dump([{"id": "upt", "style": "blacklist",
                         "target": {"device": "mo1", "atribute": "motion"}}]),
        "unknown key 'atribute' in the target of user policy 'upt'"),
    "window-unknown-key": (
        yaml.safe_dump([{"id": "upw", "style": "blacklist", "target": {"device": "mo1"},
                         "window": {"start": "17:00", "end": "08:00", "zone": "utc"}}]),
        "unknown key 'zone' in the window of user policy 'upw'"),
}


def _run_ends_in_one_line(scenario: Path, out: Path) -> str:
    """Run ``flowgate run`` in a child process, expect a one-line input error; its text."""
    src = Path(cli.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "flowgate.cli", "run", "--scenario", str(scenario),
         "--out", str(out)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("flowgate: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
    return proc.stderr


# Line 7 of the t1 rules file: an ordering test of a numeric attribute against a word.
COLD_RULE = "rz: when mo1.motion == active if mu1.temperature < cold then sl1.switch := on"
# Also line 7: a time trigger over a window, which names no minute to fire at.
WINDOW_RULE = "rw: when time.clock in 18:00..20:00 then sl1.switch := on"


@pytest.mark.parametrize("fault", [
    "value", "regression", "negative-timestamp", "timestamp-2**64", "rule-word", "window-trigger",
    *BAD_UPS])
def test_input_error_ends_in_one_line(demo_scenario, fault):
    if fault == "negative-timestamp":
        trace = demo_scenario / "trace.log"
        trace.write_text("-1 mo1 motion active\n" + trace.read_text())
        expected = "timestamp -1 is outside 0..18446744073709551615 at line 1"
        scenario = demo_scenario / "scenario.yaml"
    elif fault == "timestamp-2**64":
        line = _bad_trace(demo_scenario / "trace.log", "18446744073709551616 mo1 motion active")
        expected = f"timestamp {2**64} is outside 0..{2**64 - 1} at line {line}"
        scenario = demo_scenario / "scenario.yaml"
    elif fault in BAD_UPS:
        text, expected = BAD_UPS[fault]
        (demo_scenario / "ups.yaml").write_text(text)
        scenario = demo_scenario / "scenario-ups.yaml"
    elif fault in ("rule-word", "window-trigger"):
        with (demo_scenario / "rules.dsl").open("a") as fh:
            fh.write((COLD_RULE if fault == "rule-word" else WINDOW_RULE) + "\n")
        expected = ("numeric attribute mu1.temperature compared to 'cold' at line 7, column 50"
                    if fault == "rule-word" else "a time trigger needs '== HH:MM' at line 7")
        scenario = demo_scenario / "scenario.yaml"
    else:
        record = "{ts} mo1 motion sideways" if fault == "value" else "0 mo1 motion active"
        expected = f"at line {_bad_trace(demo_scenario / 'trace.log', record)}"
        scenario = demo_scenario / "scenario.yaml"
    assert expected in _run_ends_in_one_line(scenario, demo_scenario / "run-bad")


def _home_edit(edit):
    """A rewrite of the t1 home that applies ``edit`` to its device list, ``[mu1, mo1, ...]``."""
    def rewrite(home: dict) -> str:
        edit(home["devices"])
        return yaml.safe_dump(home)
    return rewrite


def _scenario_edit(**changes):
    return lambda doc: yaml.safe_dump({**doc, **changes})


# A malformed input file per fault: (file, its new text or bytes from the old
# document, what the error line names). YAML files are passed in parsed, others
# as text. Syntax errors are checked by file name and line only, since the
# wording is the YAML backend's.
BAD_CONFIG = {
    "home-syntax": ("home.yaml", lambda doc: "devices:\n  - id: [unclosed\n", "home.yaml line "),
    "scenario-syntax": ("scenario-ups.yaml", lambda doc: "name: [demo\n", "scenario-ups.yaml line "),
    "ups-syntax": ("ups.yaml", lambda doc: "- id: up1\n style: [\n", "ups.yaml line "),
    "home-control-character": ("home.yaml", lambda doc: "name: \x07\n", "home.yaml: "),
    "seed-not-a-number": (
        "scenario-ups.yaml", lambda doc: yaml.safe_dump({**doc, "engine": {"seed": "abc"}}),
        "setting 'seed' must be an integer, got 'abc'"),
    "drop-prob-not-a-number": (
        "scenario-ups.yaml", lambda doc: yaml.safe_dump({**doc, "engine": {"drop_prob": [1]}}),
        "setting 'drop_prob' must be a number"),
    "engine-not-a-mapping": (
        "scenario-ups.yaml", lambda doc: yaml.safe_dump({**doc, "engine": 5}),
        "'engine' must be a mapping"),
    "attribute-without-kind": (
        "home.yaml", _home_edit(lambda devices: devices[1]["attributes"][0].pop("kind")),
        "device 'mo1' attribute 'motion'"),
    "attribute-not-a-mapping": (
        "home.yaml", _home_edit(lambda devices: devices[1].update(attributes=["motion"])),
        "device 'mo1': attribute 'motion' must be a mapping with a 'name'"),
    "attribute-without-name": (
        "home.yaml", _home_edit(lambda devices: devices[1]["attributes"][0].pop("name")),
        "device 'mo1': attribute {"),
    "devices-not-a-list": (
        "home.yaml", lambda doc: yaml.safe_dump({**doc, "devices": 5}),
        "home configuration needs a top-level 'devices' list"),
    "device-without-id": (
        "home.yaml", _home_edit(lambda devices: devices[1].pop("id")),
        "home device 2 must be a mapping with an 'id'"),
    "device-not-a-mapping": (
        "home.yaml", _home_edit(lambda devices: devices.append("mo9")),
        "must be a mapping with an 'id', got 'mo9'"),
    "attributes-not-a-list": (
        "home.yaml", _home_edit(lambda devices: devices[1].update(attributes=5)),
        "device 'mo1': attributes must be a list, got 5"),
    "values-not-a-list": (
        "home.yaml", _home_edit(lambda devices: devices[1]["attributes"][0].update(values=5)),
        "device 'mo1' attribute 'motion': values must be a list, got 5"),
    "min-not-a-number": (
        "home.yaml", _home_edit(lambda devices: devices[0]["attributes"][1].update(min="abc")),
        "device 'mu1' attribute 'temperature': min and max must be numbers"),
    "repeated-attribute": (
        "home.yaml",
        _home_edit(lambda devices: devices[1]["attributes"].append(
            dict(devices[1]["attributes"][0]))),
        "device 'mo1' attribute 'motion': defined twice"),
    "home-not-a-path": ("scenario-ups.yaml", _scenario_edit(home=5),
                        "scenario 'home' must be a file path, got 5"),
    "home-a-list": ("scenario-ups.yaml", _scenario_edit(home=["a", "b"]),
                    "scenario 'home' must be a file path, got ['a', 'b']"),
    "trace-a-directory": ("scenario-ups.yaml", _scenario_edit(trace="."),
                          "cannot read trace file "),
    "ups-a-directory": ("scenario-ups.yaml", _scenario_edit(user_policies="."),
                        "cannot read user_policies file "),
    "trace-not-utf-8": ("trace.log", lambda text: b"\xff" + text.encode(),
                        "is not UTF-8 text"),
    # A misspelt key would otherwise drop what it holds: every user policy,
    # a blacklist's window, an engine setting.
    "scenario-unknown-key": (
        "scenario-ups.yaml",
        lambda doc: yaml.safe_dump({**doc, "user_policy": doc.pop("user_policies")}),
        "unknown key 'user_policy' in scenario file "),
    "policy-unknown-key": (
        "ups.yaml",
        lambda doc: yaml.safe_dump([{**e, "windw": e.pop("window")} for e in doc]),
        "unknown key 'windw' in user policy 'up1'"),
    "engine-unknown-key": (
        "scenario-ups.yaml", lambda doc: yaml.safe_dump({**doc, "engine": {"sed": 1}}),
        "unknown key 'sed' in the 'engine' settings of scenario file "),
}


@pytest.mark.parametrize("fault", BAD_CONFIG)
def test_config_error_ends_in_one_line(demo_scenario, fault):
    name, rewrite, expected = BAD_CONFIG[fault]
    path = demo_scenario / name
    text = path.read_text()
    new = rewrite(yaml.safe_load(text) if name.endswith(".yaml") else text)
    path.write_bytes(new if isinstance(new, bytes) else new.encode())
    stderr = _run_ends_in_one_line(demo_scenario / "scenario-ups.yaml", demo_scenario / "run-bad")
    assert expected in stderr
