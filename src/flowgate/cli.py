"""Batch command-line front end: compile, conflicts, run, metrics."""

from __future__ import annotations

import argparse
import json
import sys
from heapq import merge
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Optional

from .compiler import CompiledCorpus, compile_corpus
from .conflicts import scan_on_update
from .dsl import format_commands
from .metrics import StateTimeline, catr, ctr, reduction_rate
from .model import AttributeKind, Event, ModelError, Trace, Value, format_value
from .policy import dump_policy
from .scenario import MODES, Scenario, load_scenario
from .simulator import (
    RunArtifacts,
    SimConfig,
    remove_redundant,
    run_mediated,
    run_pull_baseline,
    run_raw,
    verify,
)


def _sim_config(scenario: Scenario, args: argparse.Namespace) -> SimConfig:
    return SimConfig(
        seed=args.seed if args.seed is not None else scenario.seed,
        l1_ms=scenario.l1_ms,
        l2_ms=args.l2_ms if args.l2_ms is not None else scenario.l2_ms,
        drop_prob=args.drop_prob if args.drop_prob is not None else scenario.drop_prob,
        refresh_ms=scenario.refresh_ms,
    )


def _compile(scenario: Scenario, args: argparse.Namespace) -> CompiledCorpus:
    diffkeep_ms = args.diffkeep_ms if args.diffkeep_ms is not None else scenario.diffkeep_ms
    return compile_corpus(
        scenario.rules, scenario.user_specs, scenario.registry, diffkeep_ms=diffkeep_ms
    )


def _out_dir(scenario: Scenario, args: argparse.Namespace) -> Path:
    """``--out``, else ``runs/<scenario name>-<mode>`` with ``--mode`` over the scenario's."""
    return Path(args.out or f"runs/{scenario.name}-{args.mode or scenario.mode}")


def cmd_compile(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    corpus = _compile(scenario, args)
    dump = "\n\n".join(dump_policy(p) for p in corpus.policies)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "policies.txt").write_text(dump + "\n")
    else:
        print(dump)
    print(
        f"compiled {len(corpus.automation_policies)} automation policies "
        f"from {len(scenario.rules)} rules and {len(corpus.user_policies)} user policies",
        file=sys.stderr,
    )
    return 0


def cmd_conflicts(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    corpus = _compile(scenario, args)
    rows = []
    for up in corpus.user_policies:
        for report in scan_on_update(up, corpus.policies, scenario.registry):
            rows.append(report)
    header = f"{'pair':40} {'verdict':12} witness / clash"
    print(header)
    print("-" * len(header))
    for r in rows:
        detail = ""
        if r.is_conflict:
            w = ", ".join(
                f"{k[0]}.{k[1]}={format_value(v)}" for k, v in sorted(r.witness.items())
            )
            a1, a2 = r.clashing_actions
            obj = f"{r.shared_object[0]}.{r.shared_object[1]}"
            detail = f"[{w}] {obj}: {a1} vs {a2}"
        print(f"{r.pair[0] + ' / ' + r.pair[1]:40} {r.verdict:12} {detail}")
    print(f"{len(rows)} pairs checked, "
          f"{sum(1 for r in rows if r.is_conflict)} conflicts", file=sys.stderr)
    return 0


def _emission_log(artifacts: RunArtifacts) -> str:
    lines = []
    for e in artifacts.reported_events:
        provenance = ",".join(e.provenance) or "-"
        kind = e.kind if not e.tag else f"{e.kind}:{e.tag}"
        lines.append(
            f"{e.timestamp} {e.device} {e.attribute} {format_value(e.value)} {provenance} {kind}"
        )
    return "\n".join(lines) + ("\n" if lines else "")


def _latency_csv(events: int, config: SimConfig) -> str:
    """The modelled latency L_HA = L1 + 2*L2 of each of ``events`` device events."""
    l1, l2 = config.l1_ms, config.l2_ms
    suffix = f",{l1},{l2},{l1 + 2 * l2}\n"  # the same on every row
    return "event,l1_ms,l2_ms,l_ha_ms\n" + "".join(f"{i}{suffix}" for i in range(events))


def _metrics_summary(scenario: Scenario, artifacts: RunArtifacts) -> dict:
    registry = scenario.registry
    trace = Trace.of(scenario.trace)
    horizon = (0, trace.end)
    per_attribute = {}
    total_raw = 0
    total_reported = 0
    actuations: dict[tuple[str, str], list[tuple[int, Value]]] = {}
    for device, attribute, value, ts in artifacts.actuations:
        actuations.setdefault((device, attribute), []).append((ts, value))
    observed_by_key: dict[tuple[str, str], list[Event]] = {}
    for r in artifacts.reported_events:
        observed_by_key.setdefault(r.key(), []).append(r.as_event())
    for key in registry.all_pairs():
        times, values = trace.column(key)
        raw = len(times)
        reported = len(observed_by_key.get(key, ()))
        desc = registry.lookup(*key)
        entry: dict = {"raw": raw, "reported": reported}
        if raw:
            entry["rr"] = round(reduction_rate(raw, min(reported, raw)), 4)
        total_raw += raw
        total_reported += min(reported, raw)
        if horizon[1] > 0:
            initial = registry.initial_state(*key)
            # Same-millisecond trace events land before actuations, the order
            # the replay applied them in; merge keeps that order on ties.
            steps: Iterable[tuple[int, Value]] = zip(times, values)
            if key in actuations:
                steps = merge(steps, actuations[key], key=itemgetter(0))
            true_tl = StateTimeline.from_steps(steps, initial)
            obs_tl = StateTimeline.from_events(observed_by_key.get(key, []), initial)
            if desc.kind is AttributeKind.NUMERIC:
                entry["ctr"] = round(ctr(true_tl, obs_tl, horizon), 4)
            elif desc.active_value:
                value = catr(true_tl, obs_tl, desc.active_value, horizon)
                entry["catr"] = None if value is None else round(value, 4)
        per_attribute[f"{key[0]}.{key[1]}"] = entry
    aggregate = reduction_rate(total_raw, total_reported) if total_raw else None
    return {
        "aggregate_rr": None if aggregate is None else round(aggregate, 4),
        "per_attribute": per_attribute,
    }


def cmd_run(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    if args.mode:
        scenario.mode = args.mode
    config = _sim_config(scenario, args)
    out = _out_dir(scenario, args)
    out.mkdir(parents=True, exist_ok=True)

    raw = run_raw(scenario.trace, scenario.rules, scenario.registry, config)
    gt_pruned = remove_redundant(raw.p_commands, scenario.trace, scenario.registry)

    if scenario.mode == "raw":
        (out / "gt_commands.log").write_text(format_commands(raw.p_commands))
        (out / "gt_pruned.log").write_text(format_commands(gt_pruned))
        print(f"raw run: {len(raw.p_commands)} commands "
              f"({len(gt_pruned)} after redundancy pruning)")
        return 0

    corpus = _compile(scenario, args)
    if scenario.mode == "pull":
        run = run_pull_baseline(scenario.trace, scenario.rules, scenario.registry, config)
    else:
        run = run_mediated(scenario.trace, corpus, config)

    report = verify(run.p_commands, raw.p_commands, pruned_gt=gt_pruned)
    (out / "reported_events.log").write_text(_emission_log(run))
    (out / "p_commands.log").write_text(format_commands(run.p_commands))
    (out / "gt_commands.log").write_text(format_commands(raw.p_commands))
    (out / "gt_pruned.log").write_text(format_commands(gt_pruned))
    # Pull mode pushes no device events, so it models no latency.
    events = 0 if scenario.mode == "pull" else len(scenario.trace)
    (out / "latency.csv").write_text(_latency_csv(events, config))
    (out / "policies.txt").write_text(
        "\n\n".join(dump_policy(p) for p in corpus.policies) + "\n"
    )
    verification = {
        "r_s": report.r_s,
        "r_c": report.r_c,
        "p_commands": len(run.p_commands),
        "gt_commands": len(raw.p_commands),
        "gt_pruned": len(gt_pruned),
        "unsound": [
            f"{c.timestamp} {c.device}.{c.attribute}={format_value(c.value)}"
            for c in report.unsound
        ],
        "missed": [
            f"{c.timestamp} {c.device}.{c.attribute}={format_value(c.value)}"
            for c in report.missed
        ],
        "per_origin": {k: list(v) for k, v in report.per_origin.items()},
    }
    (out / "verification.json").write_text(json.dumps(verification, indent=2, sort_keys=True) + "\n")
    metrics = _metrics_summary(scenario, run)
    (out / "metrics.json").write_text(json.dumps(metrics, indent=2, sort_keys=True) + "\n")

    print(f"{scenario.mode} run: R_S={report.r_s:.4f} R_C={report.r_c:.4f} "
          f"({len(run.p_commands)} commands, {len(run.reported_events)} reports)")
    floor = args.floor if args.floor is not None else scenario.fidelity_floor
    if report.r_s < floor or report.r_c < floor:
        print(f"fidelity below floor {floor}", file=sys.stderr)
        return 1
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    path = _out_dir(load_scenario(args.scenario), args) / "metrics.json"
    if not path.exists():
        print(f"no metrics at {path}; run `flowgate run` first", file=sys.stderr)
        return 2
    metrics = json.loads(path.read_text())
    print(f"{'attribute':28} {'raw':>7} {'reported':>9} {'RR':>6} {'CTR/CATR':>9}")
    for name, entry in sorted(metrics["per_attribute"].items()):
        rr = entry.get("rr")
        tracking = entry.get("ctr", entry.get("catr"))
        print(
            f"{name:28} {entry['raw']:>7} {entry['reported']:>9} "
            f"{'-' if rr is None else f'{rr:.2f}':>6} "
            f"{'-' if tracking is None else f'{tracking:.2f}':>9}"
        )
    print(f"aggregate RR: {metrics['aggregate_rr']}")
    return 0


_FLAGS: dict[str, dict] = {
    "--seed": {"type": int},
    "--diffkeep-ms": {"type": int},
    "--l2-ms": {"type": int},
    "--mode": {"choices": MODES},
    "--drop-prob": {"type": float},
    "--out": {"help": "artifact directory"},
    "--floor": {"type": float, "help": "exit nonzero when R_S or R_C falls below this"},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowgate",
        description="Compile automation rules into data-minimization policies, "
        "simulate the mediated home and score fidelity and privacy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Each command takes only the flags it reads.
    for name, fn, flags in (
        ("compile", cmd_compile, ("--diffkeep-ms", "--out")),
        ("conflicts", cmd_conflicts, ("--diffkeep-ms",)),
        ("run", cmd_run, tuple(_FLAGS)),
        ("metrics", cmd_metrics, ("--mode", "--out")),
    ):
        p = sub.add_parser(name)
        p.add_argument("--scenario", required=True, help="scenario YAML path")
        for flag in flags:
            p.add_argument(flag, default=None, **_FLAGS[flag])
        p.set_defaults(fn=fn)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ModelError as exc:   # bad input: one line, and a code of its own
        print(f"flowgate: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
