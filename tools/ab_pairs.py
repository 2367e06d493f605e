"""Paired benchmark runs of two checkouts: a parent and a change.

Usage (from anywhere)::

    python3 tools/ab_pairs.py PARENT_DIR CHANGE_DIR --workload homes-28d --seed 11 --pairs 10

Each pair runs ``perfbench/run.py`` once in each checkout, one after the
other, with the same workload, seed and ``--seconds``; the side that goes
first alternates from pair to pair, so a slow spell of the machine does not
always fall on the same side. Every run reads its own checkout's sources and
generates its inputs under its own ``.perfbench_work``.

For each end-to-end metric the tool prints each side's median and quartiles
over its runs, the change of the medians, and how many pairs the change won
(ties count for neither side). A gain may be claimed when the change wins at
least nine tenths of the pairs and the medians differ by more than the
parent's interquartile range; the last column says whether both hold.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in ``checkout``; its final JSON line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: perfbench/run.py exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{checkout}: run reported incorrect output\n{proc.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def directions(checkout: Path) -> dict[str, str]:
    """Which way each end-to-end metric improves, from ``checkout``'s BENCHMARK.json."""
    benchmark = json.loads((checkout / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in benchmark["end_to_end"]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """Lower quartile, median and upper quartile (inclusive method)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def report(pairs: list[tuple[dict, dict]], better: dict[str, str]) -> str:
    rows = [f"{'metric':<24} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34} "
            f"{'change':>8} {'wins':>6}  claim"]
    for name, direction in better.items():
        base = [b[name] for b, _ in pairs if name in b]
        new = [c[name] for _, c in pairs if name in c]
        if len(base) != len(pairs) or len(new) != len(pairs):
            continue
        sign = 1 if direction == "higher" else -1
        wins = sum(sign * (c - b) > 0 for b, c in zip(base, new))
        (b1, bm, b3), (c1, cm, c3) = quartiles(base), quartiles(new)
        change = (cm - bm) / bm if bm else 0.0
        claim = wins * 10 >= 9 * len(pairs) and sign * (cm - bm) > b3 - b1
        rows.append(f"{name:<24} {f'{bm:.6g} [{b1:.6g}, {b3:.6g}]':>34} "
                    f"{f'{cm:.6g} [{c1:.6g}, {c3:.6g}]':>34} {change:>+8.1%} "
                    f"{f'{wins}/{len(pairs)}':>6}  {'yes' if claim else 'no'}")
    return "\n".join(rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=38, help="run length of every run")
    args = parser.parse_args(argv)
    sides = (args.parent.resolve(), args.change.resolve())
    pairs = []
    for i in range(args.pairs):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        got: dict[int, dict] = {}
        for side in order:
            got[side] = run_once(sides[side], args.workload, args.seed, args.seconds)
        pairs.append((got[0], got[1]))
        print(f"pair {i + 1}/{args.pairs} done ({'parent' if order[0] == 0 else 'change'} first)",
              file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {args.pairs} pairs, {args.seconds:g} s per run")
    print(report(pairs, directions(sides[1])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
