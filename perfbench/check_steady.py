"""Check that the benchmark's exact counts repeat across runs of one seed.

Runs every workload twice untraced and twice traced with the same seed and
compares the figures that must not depend on timing: accuracy, the outer
and inner iteration counts, every per-operation call count, and the saved
model's size. Any difference means nondeterminism in the program or the
benchmark. Exits 1 on drift, 0 otherwise.

    python3 perfbench/check_steady.py [--seed 7] [--seconds 1]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("gallery_train", "probe_stream", "split_protocol")
EXACT = (
    "trainer.outer_iters",
    "trainer.itr_inner_iters",
    "persistence.model_bytes",
    "spd.spd_log.per_probe",
    "descriptors.distinct_per_encode",
)


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: correctness checks failed\n{proc.stdout}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def exact_figures(untraced: dict, traced: dict) -> dict:
    figures = {"accuracy": untraced["accuracy"]}
    for name, value in traced.items():
        if name.endswith(".calls") or name in EXACT:
            figures[name] = value
    return figures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args()
    drift = 0
    for workload in WORKLOADS:
        first, second = (
            exact_figures(run(workload, args.seed, args.seconds, 0), run(workload, args.seed, args.seconds, 1))
            for _ in range(2)
        )
        for name in first:
            if first[name] != second[name]:
                drift += 1
                print(f"DRIFT {workload} {name}: {first[name]!r} then {second[name]!r}")
        print(f"{workload}: {len(first)} exact figures compared; accuracy {first['accuracy']!r}, "
              f"spd_log calls/op {first['spd.spd_log.calls']!r}, "
              f"outer {first['trainer.outer_iters']!r}, inner {first['trainer.itr_inner_iters']!r}, "
              f"model bytes {first['persistence.model_bytes']!r}")
    print("steady" if not drift else f"{drift} figures drifted")
    return 1 if drift else 0


if __name__ == "__main__":
    sys.exit(main())
