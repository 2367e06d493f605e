"""flowgate benchmark: replay workloads through ``flowgate run`` and time it.

Usage (from the repository root)::

    python3 perfbench/run.py --workload homes-7d --seed 11 --seconds 38 --trace 0

The workload's scenario files are generated from ``--seed`` in a child
process (not timed, cached under ``.perfbench_work/inputs``). This process
then runs the real ``flowgate run`` command (``flowgate.cli.main``) over
every scenario, pass after pass, until ``--seconds`` are spent, and prints
one JSON object as the last line of standard output.

``--trace 0`` reports the end-to-end metrics; only the seven pipeline stages
are wrapped. ``--trace 1`` alternates untraced passes with traced passes,
which also wrap the per-event engine and platform methods, and reports the
per-layer metrics. Every run checks the program's outputs: artifacts are
byte-identical across passes (traced and untraced alike), and the
soundness/completeness figures in ``verification.json`` agree with an
independent re-match of the command logs.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
MIN_SETUPS = 5           # set-up samples behind the setup_s median
MATCH_WINDOW_MS = 3000   # the verifier's command-matching window
GEN_TIMEOUT_S = 120

E2E_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "mediated_events_per_s": "1/s",
    "peak_rss_mb": "MB",
    "r_s": "ratio",
    "r_c": "ratio",
    "aggregate_rr": "ratio",
}


@dataclass
class ScenarioResult:
    """One scenario's ``flowgate run`` within one pass."""

    name: str
    run_s: float = 0.0
    stages: dict[str, float] = field(default_factory=dict)
    events: int = 0
    policies: int = 0
    emissions: dict[str, int] = field(default_factory=dict)
    digest: dict[str, str] = field(default_factory=dict)
    pruned_gt: int = 0      # ground-truth commands known when a run raised
    error: str = ""


@dataclass
class PassResult:
    traced: bool
    scenarios: list[ScenarioResult]
    recorder: object

    @property
    def run_s(self) -> float:
        return sum(s.run_s for s in self.scenarios)

    def stage_s(self, *names: str) -> float:
        return sum(s.stages.get(n, 0.0) for s in self.scenarios for n in names)

    @property
    def events(self) -> int:
        return sum(s.events for s in self.scenarios)


def _digest(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def ensure_inputs(workload: str, seed: int) -> list[Path]:
    """Generate (or reuse) the workload's scenario files; returns scenario paths."""
    import workloads

    # Key the cache on the generator's sources, so an edited generator (or
    # flowgate.synth) never reuses stale inputs.
    sources = hashlib.sha256()
    for path in [Path(workloads.__file__), *sorted((ROOT / "src" / "flowgate").glob("*.py"))]:
        sources.update(path.read_bytes())
    target = WORK / "inputs" / f"{workload}-s{seed}-{sources.hexdigest()[:12]}"
    if not (target / "DONE").exists():
        tmp = target.with_name(f"{target.name}.tmp{os.getpid()}")
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(
            [sys.executable, str(Path(workloads.__file__)), "--workload", workload,
             "--seed", str(seed), "--out", str(tmp)],
            check=True, timeout=GEN_TIMEOUT_S, stdout=subprocess.DEVNULL,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        )
        (tmp / "DONE").write_text("")
        shutil.rmtree(target, ignore_errors=True)
        tmp.rename(target)
    return [target / spec.name / "scenario.yaml" for spec in workloads.WORKLOADS[workload]]


def run_pass(paths: list[Path], out_root: Path, traced: bool) -> PassResult:
    """One ``flowgate run`` per scenario, with stage spans (and call rollups)."""
    from flowgate import cli
    import tracing

    rec = tracing.Recorder()
    results = []
    shutil.rmtree(out_root, ignore_errors=True)
    gc.collect()
    with tracing.instrumented(rec, calls=traced):
        for path in paths:
            res = ScenarioResult(path.parent.name)
            out = out_root / res.name
            rec.results.clear()
            try:
                with rec.span("cli.run") as span, contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(["run", "--scenario", str(path), "--out", str(out)])
                if code != 0:
                    res.error = f"flowgate run exited {code}"
            except Exception as exc:  # a crashing scenario is recorded, not fatal
                res.error = f"{type(exc).__name__}: {exc}"
                pruned = rec.results.get("simulator.prune")
                res.pruned_gt = len(pruned) if isinstance(pruned, list) else 0
            res.run_s = span.seconds
            for s in rec.spans:
                if s.parent == span.id:
                    res.stages[s.name] = res.stages.get(s.name, 0.0) + s.seconds
            if not res.error:
                res.events = len(rec.results["scenario.load"].trace)
                res.policies = len(rec.results["compiler.compile"].policies)
                for e in rec.results["simulator.mediated"].reported_events:
                    res.emissions[e.kind] = res.emissions.get(e.kind, 0) + 1
                res.digest = _digest(out)
            results.append(res)
    rec.results.clear()
    return PassResult(traced, results, rec)


def time_setup(paths: list[Path]) -> float:
    """One set-up of every scenario: load (home, rules, trace) plus compile."""
    from flowgate import cli

    gc.collect()
    t0 = time.perf_counter()
    for path in paths:
        scenario = cli.load_scenario(path)
        cli.compile_corpus(scenario.rules, scenario.user_specs, scenario.registry,
                           diffkeep_ms=scenario.diffkeep_ms)
    return time.perf_counter() - t0


# -- output checks -------------------------------------------------------------------

def _read_commands(path: Path) -> list[tuple[int, str]]:
    out = []
    for line in path.read_text().splitlines():
        ts, device, attribute, value, _origin = line.split(" ")
        out.append((int(ts), f"{device} {attribute} {value}"))
    return out


def _unmatched(needles, haystack) -> int:
    """Greedy earliest-first one-to-one matching within the window."""
    pools: dict[str, list[int]] = {}
    for ts, key in sorted(haystack):
        pools.setdefault(key, []).append(ts)
    cursor: dict[str, int] = {}
    misses = 0
    for ts, key in sorted(needles):
        pool = pools.get(key, [])
        i = cursor.get(key, 0)
        while i < len(pool) and pool[i] < ts - MATCH_WINDOW_MS:
            i += 1
        if i < len(pool) and pool[i] <= ts + MATCH_WINDOW_MS:
            i += 1
        else:
            misses += 1
        cursor[key] = i
    return misses


@dataclass
class Fidelity:
    p_commands: int = 0
    pruned_gt: int = 0
    unsound: int = 0
    missed: int = 0
    raw_attr: int = 0
    reported_attr: int = 0
    problems: list[str] = field(default_factory=list)


def check_outputs(out_root: Path, scenario: str, fid: Fidelity) -> None:
    """Re-derive one scenario's fidelity from its logs and cross-check the JSON."""
    out = out_root / scenario
    ver = json.loads((out / "verification.json").read_text())
    metrics = json.loads((out / "metrics.json").read_text())
    p = _read_commands(out / "p_commands.log")
    gt = _read_commands(out / "gt_commands.log")
    pruned = _read_commands(out / "gt_pruned.log")
    unsound = _unmatched(p, gt)
    missed = _unmatched(pruned, p)
    expect = {
        "p_commands": len(p), "gt_commands": len(gt), "gt_pruned": len(pruned),
        "unsound": unsound, "missed": missed,
        "r_s": 1.0 if not p else (len(p) - unsound) / len(p),
        "r_c": 1.0 if not pruned else (len(pruned) - missed) / len(pruned),
    }
    got = dict(ver, unsound=len(ver["unsound"]), missed=len(ver["missed"]))
    for key, value in expect.items():
        if got[key] != value:
            fid.problems.append(f"{scenario}: verification {key}={got[key]} but logs give {value}")
    raw = sum(e["raw"] for e in metrics["per_attribute"].values())
    reported = sum(min(e["reported"], e["raw"]) for e in metrics["per_attribute"].values())
    if raw and metrics["aggregate_rr"] != round(1 - reported / raw, 4):
        fid.problems.append(f"{scenario}: aggregate_rr {metrics['aggregate_rr']} disagrees "
                            f"with per-attribute counts")
    fid.p_commands += len(p)
    fid.pruned_gt += len(pruned)
    fid.unsound += unsound
    fid.missed += missed
    fid.raw_attr += raw
    fid.reported_attr += reported


def check_repeats(passes: list[PassResult]) -> list[str]:
    """Every pass must reproduce the first pass's artifacts byte for byte."""
    problems = []
    first = passes[0]
    for i, p in enumerate(passes[1:], 1):
        for a, b in zip(first.scenarios, p.scenarios):
            if a.digest != b.digest:
                kind = "traced" if p.traced else "untraced"
                diff = sorted(k for k in a.digest.keys() | b.digest.keys()
                              if a.digest.get(k) != b.digest.get(k))
                problems.append(f"{a.name}: pass {i} ({kind}) differs in {diff}")
    return problems


# -- metrics ---------------------------------------------------------------------------

def _med(values) -> float:
    return statistics.median(values)


def _quantile(sorted_ns, q: float) -> float:
    return sorted_ns[min(len(sorted_ns) - 1, int(q * len(sorted_ns)))] / 1e3


def end_to_end(passes: list[PassResult], setups: list[float], fid: Fidelity) -> dict[str, float]:
    return {
        "run_s": _med(p.run_s for p in passes),
        "setup_s": _med(setups),
        "mediated_events_per_s": _med(
            p.events / p.stage_s("simulator.mediated") for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "r_s": 1.0 if not fid.p_commands else 1 - fid.unsound / fid.p_commands,
        "r_c": 1.0 if not fid.pruned_gt else 1 - fid.missed / fid.pruned_gt,
        "aggregate_rr": 1 - fid.reported_attr / fid.raw_attr,
    }


def layer_metrics(traced: PassResult, untraced_run_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer figures of one traced pass; counts state their base in the name."""
    rec = traced.recorder
    span_name = {s.id: s.name for s in rec.spans}
    calls: dict[tuple[str, str], list] = {}
    for r in rec.rollups.values():
        entry = calls.setdefault((r.name, span_name.get(r.parent, "")), [0, 0, 0])
        entry[0] += r.calls
        entry[1] += r.hits
        entry[2] += r.total_ns

    def stat(name: str, stage: str = "simulator.mediated") -> list:
        return calls.get((name, stage), [0, 0, 0])   # calls, hits, total_ns

    def secs(name: str, *stages: str) -> float:
        return sum(stat(name, st)[2] for st in stages) / 1e9

    def self_s(stage: str) -> float:
        return sum(rec.self_seconds(s) for s in rec.spans if s.name == stage)

    events = traced.events
    both = ("simulator.raw", "simulator.mediated")
    ticks, ticks_emitting, _ = stat("engine.tick")
    evals, evals_deciding, _ = stat("engine.evaluate_policy")
    pe = sorted(rec.process_event_ns)
    emissions: dict[str, int] = {}
    for s in traced.scenarios:
        for kind, count in s.emissions.items():
            emissions[kind] = emissions.get(kind, 0) + count
    return {
        "scenario.load_s": (traced.stage_s("scenario.load"), "s"),
        "compiler.compile_s": (traced.stage_s("compiler.compile"), "s"),
        "compiler.policies": (sum(s.policies for s in traced.scenarios), "count"),
        "simulator.raw_s": (traced.stage_s("simulator.raw"), "s"),
        "simulator.raw_self_s": (self_s("simulator.raw"), "s"),
        "simulator.mediated_s": (traced.stage_s("simulator.mediated"), "s"),
        "simulator.mediated_self_s": (self_s("simulator.mediated"), "s"),
        "simulator.prune_s": (traced.stage_s("simulator.prune"), "s"),
        "simulator.verify_s": (traced.stage_s("simulator.verify"), "s"),
        "engine.process_event_s": (secs("engine.process_event", "simulator.mediated"), "s"),
        "engine.process_event_us_p50": (_quantile(pe, 0.50) if pe else 0.0, "us"),
        "engine.process_event_us_p99": (_quantile(pe, 0.99) if pe else 0.0, "us"),
        "engine.tick_s": (secs("engine.tick", "simulator.mediated"), "s"),
        "engine.tick_calls_per_event": (ticks / events, "calls/event"),
        "engine.tick_empty_share": (1 - ticks_emitting / max(ticks, 1), "share"),
        "engine.policy_evals_per_event": (evals / events, "calls/event"),
        "engine.policy_hit_share": (evals_deciding / max(evals, 1), "share"),
        "engine.emissions.report": (emissions.get("report", 0), "count"),
        "engine.emissions.sync": (emissions.get("sync", 0), "count"),
        "engine.emissions.expiry": (emissions.get("expiry", 0), "count"),
        "platform_sim.receive_s": (secs("platform_sim.receive", *both), "s"),
        "platform_sim.tick_s": (secs("platform_sim.tick", *both), "s"),
        "platform_sim.tick_calls_per_event.raw": (
            stat("platform_sim.tick", "simulator.raw")[0] / events, "calls/event"),
        "platform_sim.tick_calls_per_event.mediated": (
            stat("platform_sim.tick")[0] / events, "calls/event"),
        "metrics.summary_s": (traced.stage_s("metrics.summary"), "s"),
        "cli.artifacts_s": (self_s("cli.run"), "s"),
        "bench.trace_overhead_share": (traced.run_s / untraced_run_s - 1, "share"),
    }


# -- driver ------------------------------------------------------------------------------

def measure(paths: list[Path], seconds: float, trace: bool, out_root: Path) -> dict:
    started = time.perf_counter()
    passes: list[PassResult] = []

    def kind_next() -> bool:
        return trace and len(passes) % 2 == 1   # traced runs alternate with untraced

    def fits(traced: bool) -> bool:
        """Another pass, plus the set-ups still owed, ends within ``seconds``."""
        same = [p.run_s for p in passes if p.traced == traced]
        owed = 0 if trace else max(0, MIN_SETUPS - len(passes) - 1)
        setup = _med(p.stage_s("scenario.load", "compiler.compile") for p in passes)
        return time.perf_counter() - started + _med(same) + owed * setup <= seconds

    while len(passes) < 2 or fits(kind_next()):
        passes.append(run_pass(paths, out_root / f"pass{len(passes) % 2}", kind_next()))
        if any(s.error for s in passes[-1].scenarios):
            break

    problems = [f"{s.name}: {s.error}" for p in passes for s in p.scenarios if s.error]
    fid = Fidelity()
    attempted = failed = 0
    if not problems:
        problems += check_repeats(passes)
        for s in passes[-1].scenarios:
            try:
                check_outputs(out_root / f"pass{(len(passes) - 1) % 2}", s.name, fid)
            except (OSError, ValueError, KeyError) as exc:
                fid.problems.append(f"{s.name}: unreadable artifacts: {exc}")
        problems += fid.problems
        attempted = fid.p_commands + fid.pruned_gt
        failed = fid.unsound + fid.missed
    else:
        for s in passes[-1].scenarios:
            if s.error:
                attempted += max(1, s.pruned_gt)
                failed += max(1, s.pruned_gt)

    metrics: dict[str, tuple[float, str]] = {}
    if not problems:
        untraced = [p for p in passes if not p.traced]
        if trace:
            traced = [p for p in passes if p.traced]
            base = _med(p.run_s for p in untraced)
            per_pass = [layer_metrics(p, base) for p in traced]
            metrics = {k: (_med(m[k][0] for m in per_pass), u) for k, (_, u) in per_pass[0].items()}
            traced[-1].recorder.dump(out_root / "spans.json")
        else:
            setups = [p.stage_s("scenario.load", "compiler.compile") for p in untraced]
            while len(setups) < MIN_SETUPS:
                setups.append(time_setup(paths))
            values = end_to_end(untraced, setups, fid)
            metrics = {k: (v, E2E_UNITS[k]) for k, v in values.items()}
    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": max(1, attempted),
        "failed": failed if not problems else max(1, failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=38)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "flowgate" / "__init__.py").is_file():
        print(f"flowgate sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}")
    paths = ensure_inputs(args.workload, args.seed)
    out_root = WORK / "out" / f"{args.workload}-s{args.seed}-t{args.trace}"
    result = measure(paths, args.seconds, bool(args.trace), out_root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
