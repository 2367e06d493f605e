"""Benchmark workloads: scenario packs generated from ``flowgate.synth``.

Each workload is a list of scenarios. A scenario is written to disk as the
four files ``flowgate run`` reads (``home.yaml``, ``rules.dsl``,
``trace.log``, ``scenario.yaml``), so the program under test receives only
those files. Generation is deterministic in the seed and is never timed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import yaml

from flowgate import synth
from flowgate.dsl import format_trace


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    testbed: str
    replicas: int          # 0: the plain testbed; k >= 1: k suffixed copies
    days: int
    events_target: int
    # Pins the trace to one seed; the workload seed then varies only the
    # engine's RNG (randomised report values). None: the trace follows the
    # workload seed.
    trace_seed: Optional[int] = None


def _homes(days: int, events_target: int) -> tuple[ScenarioSpec, ...]:
    return tuple(
        ScenarioSpec(f"{tb}-{days}d", tb, 0, days, events_target) for tb in synth.ALL_TESTBEDS
    )


# Workload name -> its scenarios.
WORKLOADS = {
    "homes-7d": _homes(7, 12_000),
    # The duplicate-deadline pile-up this workload exposes grows with how long
    # some timer stays pending, which is set by the trace: across trace seeds
    # 1-10 engine ticks per event range 58-97 and run time varies 2x. One
    # fixed trace keeps the workload comparable run to run.
    "scaled-t4x4": (ScenarioSpec("t4x4-2d", "t4", 4, 2, 16_000, trace_seed=11),),
    "homes-28d": _homes(28, 48_000),
}


def replicate(tb: synth.Testbed, k: int) -> synth.Testbed:
    """``k`` independent copies of a testbed in one home.

    Copy ``i`` (1-based) suffixes every device id and rule id with ``x<i>``;
    labels and rooms are kept, so each copy's sensors behave like the
    original's.
    """
    devices = [d["id"] for d in tb.home["devices"]]
    # Longest ids first, so no id is rewritten inside a longer one.
    dev_re = re.compile(
        r"\b(" + "|".join(sorted(map(re.escape, devices), key=len, reverse=True)) + r")\."
    )
    rule_re = re.compile(r"^(\s*)([A-Za-z_][A-Za-z0-9_-]*):", re.MULTILINE)
    home_devices = []
    rules = []
    for i in range(1, k + 1):
        suffix = f"x{i}"
        home_devices += [dict(d, id=d["id"] + suffix) for d in tb.home["devices"]]
        text = dev_re.sub(lambda m: m.group(1) + suffix + ".", tb.rules_text)
        rules.append(rule_re.sub(lambda m: f"{m.group(1)}{m.group(2)}{suffix}:", text))
    home = dict(tb.home, name=f"{tb.home['name']}-x{k}", devices=home_devices)
    return synth.Testbed(f"{tb.name}x{k}", home, "\n".join(rules))


def write_scenario(spec: ScenarioSpec, seed: int, out_dir: Path) -> Path:
    """Write one scenario's input files; returns the ``scenario.yaml`` path."""
    tb = synth.testbed(spec.testbed)
    if spec.replicas:
        tb = replicate(tb, spec.replicas)
    trace_seed = seed if spec.trace_seed is None else spec.trace_seed
    trace = synth.generate_trace(
        tb.registry(), seed=trace_seed, days=spec.days, events_target=spec.events_target
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "home.yaml").write_text(yaml.safe_dump(tb.home))
    (out_dir / "rules.dsl").write_text(tb.rules_text + "\n")
    (out_dir / "trace.log").write_text(format_trace(trace))
    path = out_dir / "scenario.yaml"
    path.write_text(yaml.safe_dump({
        "name": spec.name, "home": "home.yaml", "rules": "rules.dsl", "trace": "trace.log",
        "mode": "mediated", "engine": {"seed": seed, "l2_ms": 250},
    }))
    return path


def write_workload(name: str, seed: int, out_dir: Path) -> list[Path]:
    """Write every scenario of a workload under ``out_dir``."""
    return [
        write_scenario(spec, seed, out_dir / spec.name) for spec in WORKLOADS[name]
    ]


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description="Write a workload's scenario files.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    for path in write_workload(args.workload, args.seed, args.out):
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
