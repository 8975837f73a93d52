#!/usr/bin/env python3
"""Alternating benchmark pairs: this checkout against a parent checkout, on one
workload, for every end-to-end metric that BENCHMARK.json declares.  Not
imported by any test.  Run from the repository root:

    git worktree add ../parent HEAD~1
    python3 tests/oracles/pairs.py --parent ../parent --workload real-axis
    python3 tests/oracles/pairs.py --parent . --workload census --pairs 1 --seconds 1

Each pair runs ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`` once in each checkout, one run after the other, and the side
that runs first alternates from pair to pair (the parent first in pair 0),
so that a drift of the machine's speed weighs on both sides alike.  The
last line of each run's stdout is its JSON result.

Per metric it prints both medians, the change's relative move, the
interquartile range of the parent's runs, in how many pairs the change was
better by the metric's ``better`` direction, whether the change's median
is worse than the parent's by more than the metric's relative ``bound``,
and whether a claimed gain in the metric would be met: the change wins at
least 9/10 of the pairs, and its median beats the parent's by more than
the parent's interquartile range.
Then the ``failed`` count of every run, per side.  BENCHMARK.json is read
from this checkout.  Nothing is written: the runs' output is parsed from
their stdout.  The exit code is 1 if a run exits nonzero or prints no
result, else 0; a metric beyond its bound is reported, not an error.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[2]


def run_once(checkout: Path, args) -> Optional[Dict[str, object]]:
    """The JSON result of one benchmark run in checkout, or None if the run broke."""
    argv = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(f"run in {checkout} exited {done.returncode}\n{done.stderr}")
        return None
    return json.loads(lines[-1])


def quartile_spread(values: List[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="a checkout of the parent commit")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=12.0)
    args = parser.parse_args(argv)
    sides = {"parent": Path(args.parent).resolve(), "change": ROOT}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    results: Dict[str, List[Dict[str, object]]] = {"parent": [], "change": []}
    for k in range(args.pairs):
        for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
            result = run_once(sides[side], args)
            if result is None:
                return 1
            results[side].append(result)

    print(f"{args.workload}, seed {args.seed}: {args.pairs} alternating pairs of {args.seconds:g} s runs, "
          f"parent {sides['parent']}")
    print(f"  {'metric':12s} {'better':6s} {'parent':>12s} {'change':>12s} {'move':>8s} {'parent IQR':>11s} "
          f"{'wins':>6s} {'bound':>6s}  {'worse than bound':16s}  claim met")
    for m in spec:
        name, higher = m["name"], m["better"] == "higher"
        parent, change = ([r["metrics"][name]["value"] for r in results[side]] for side in ("parent", "change"))
        mp, mc = statistics.median(parent), statistics.median(change)
        move = (mc - mp) / mp
        wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        worse = (-move if higher else move) > m["bound"]
        iqr = quartile_spread(parent)
        met = 10 * wins >= 9 * args.pairs and ((mc - mp) if higher else (mp - mc)) > iqr
        print(f"  {name:12s} {m['better']:6s} {mp:12.6g} {mc:12.6g} {move:+8.2%} {iqr:11.4g} "
              f"{wins:3d}/{args.pairs:<2d} {m['bound']:6.0%}  {'YES' if worse else 'no':16s}  {'yes' if met else 'no'}")
    for side in ("parent", "change"):
        print(f"  failed, {side}: {[r['failed'] for r in results[side]]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
