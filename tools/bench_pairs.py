"""Run the benchmark of two checkouts in alternating pairs and say whether
this checkout's gain in median operation time (``op_p50_ms``, lower is
better) is a claim the runs support.

Usage, from the repository root:

    python3 tools/bench_pairs.py --parent PATH --workload W [--pairs 10]
                                 [--seconds 20] [--first-seed 1]

``--parent`` is the root of the checkout to compare against (a ``git
archive`` or ``git clone`` of the parent commit); the change is the checkout
that holds this file. Pair k runs ``perfbench/run.py --workload W --seed S
--seconds T --trace 0`` of each checkout, each in its own process from its
own root, with seed S = first seed + k for both; the parent goes first in
pairs 1, 3, 5, ... and the change in pairs 2, 4, 6, ..., so a drift of the
host's speed over a pair favours neither side. A pair is a win when the change's
``op_p50_ms`` is strictly lower than the parent's; a tie counts for neither
side.

The tool prints each pair (seed, which side ran first, both values, their
ratio, the winner), each side's median and quartiles, each side's median of
every end-to-end metric of ``BENCHMARK.json`` (to check that none got
worse), the wins, and the verdict of the claim rule: the change wins at
least 9 of every 10 pairs (rounded up), and its median is lower than the
parent's by more than the parent's interquartile range. Quartiles are
``statistics.quantiles(values, n=4, method="inclusive")``. A run whose
operations fail, or that exits non-zero, stops the tool with exit code 1.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRIC = "op_p50_ms"


def verdict(parent: list[float], change: list[float]) -> dict:
    """The claim rule on paired times (pair k is ``parent[k]``, ``change[k]``;
    lower is better): the wins of the change (ties count for neither side),
    the wins needed, each side's quartiles, the parent's median less the
    change's, the parent's interquartile range, and whether the claim holds:
    enough wins and a gap larger than that range."""
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need two equal lists of at least two paired values")
    wins = sum(p > c for p, c in zip(parent, change))
    needed = math.ceil(9 * len(parent) / 10)  # 9 of every 10 pairs, exact in integers
    pq, cq = (tuple(statistics.quantiles(v, n=4, method="inclusive")) for v in (parent, change))
    gap = pq[1] - cq[1]
    iqr = pq[2] - pq[0]
    return {
        "wins": wins,
        "needed": needed,
        "parent": pq,
        "change": cq,
        "gap": gap,
        "parent_iqr": iqr,
        "holds": wins >= needed and gap > iqr,
    }


def end_to_end() -> list[str]:
    """The names of the end-to-end metrics of ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [entry["name"] for entry in spec["end_to_end"]]


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict[str, float]:
    """One untraced benchmark run of ``checkout``: its end-to-end metrics."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    result = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        raise SystemExit(f"error: {checkout} seed {seed} exited {result.returncode}:\n"
                         f"{result.stderr[-2000:]}")
    report = json.loads(lines[-1])
    if report["failed"]:
        raise SystemExit(f"error: {checkout} seed {seed}: {report['failed']} of "
                         f"{report['attempted']} operations failed")
    return {name: float(m["value"]) for name, m in report["metrics"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="root of the parent checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    runs = {"parent": [], "change": []}
    print(f"{'pair':>4} {'seed':>4} {'first':>6} {'parent':>12} {'change':>12} {'ratio':>7}  winner")
    for k in range(args.pairs):
        seed = args.first_seed + k
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run(sides[side], args.workload, seed, args.seconds))
        values = {side: runs[side][-1][METRIC] for side in sides}
        gain = values["parent"] - values["change"]
        winner = "change" if gain > 0.0 else "parent" if gain < 0.0 else "tie"
        print(f"{k + 1:>4} {seed:>4} {order[0]:>6} {values['parent']:>12.4f} "
              f"{values['change']:>12.4f} {values['change'] / values['parent']:>7.4f}  {winner}",
              flush=True)
    v = verdict(*([r[METRIC] for r in runs[side]] for side in sides))
    for side in sides:
        q1, median, q3 = v[side]
        print(f"{side}: median {median:.4f}, quartiles {q1:.4f} .. {q3:.4f} ({METRIC})")
    for name in end_to_end():
        medians = [statistics.median(r[name] for r in runs[side]) for side in sides]
        print(f"median {name}: parent {medians[0]:.6g}, change {medians[1]:.6g}")
    print(f"wins: {v['wins']} of {args.pairs} (needed {v['needed']})")
    print(f"median gap {v['gap']:.4f} vs parent IQR {v['parent_iqr']:.4f}")
    print(f"claim holds: {'yes' if v['holds'] else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
