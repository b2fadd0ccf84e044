"""Run fixed split protocol cases and write their per-split accuracies and
objective traces as JSON, to compare the accuracy of two checkouts.

Usage, from the repository root:

    python3 tools/accuracy_table.py --out FILE [--src PATH] [--against FILE]
                                    [--regimes NAME ...] [--seeds N ...]

``--src`` names the ``src`` directory of the checkout to import (default: the
one next to this file), so one copy of this script can run any commit that
has the public API it calls (``generate_synthetic``, ``TrainConfig``,
``run_experiment``):

    python3 tools/accuracy_table.py --src /path/to/parent/src --out parent.json
    python3 tools/accuracy_table.py --out change.json --against parent.json

``--against`` reads a JSON this tool wrote and prints, for every record both
runs hold, whether its per-split accuracies are equal and whether its
per-split outer iteration counts are; how many records of each run have no
pair in the other (a row added or dropped); how many records of this run
have splits that stop at different outer iterations (a stack of galleries
that stop apart, in which ``train`` steps every gallery until the last
stops); then each record whose accuracies differ, each record whose
iteration counts differ (a stop that moved while the accuracies stayed),
and the mean accuracy difference per regime, normalisation and row.

The cases are fixed here, before any result is read. Every regime draws
``generate_synthetic`` data with 10 classes and trains with
``subspace_dim=5``:

* ``d10``: d=10, 10 sets per class of 20 samples, separation 3.0, 5
  training sets per class, ``target_dim`` 8 (N=50);
* ``d32``: d=32, 9 sets per class of 60 samples, separation 1.0, 3 training
  sets per class, ``target_dim`` 9 (N=30, far fewer than the lifts' widths);
* ``d64``: as ``d32`` at d=64, where a set has fewer samples than dimensions.

Each regime runs data seeds 1-10, with ``normalize_kernels`` off and on; the
data seed is also the configuration's ``seed``, from which the split seeds
derive. Each case is one ``run_experiment(..., n_splits=4, ablate=True)``
call, whose rows are ``cov``, ``subspace``, ``gauss`` and ``combined``, and
one ``run_experiment(..., n_splits=4)`` call at ``learning_rate=0.0``, whose
combined row is ``frozen``: every channel fused with the gating held at its
start, each weight 1/Q. ROADMAP items 4 (a gating step that moves) and 20
(channel-level gating) read ``frozen`` beside ``combined``, the gain or loss
of learning the gating. Each row is one record: its per-split accuracies,
and each split's first objective, last objective and outer iteration count.
BLAS is pinned to one thread, because the thread count changes the bits.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"

# name: (dim, sets per class, samples per set, separation, training sets per class, target_dim)
REGIMES = {
    "d10": (10, 10, 20, 3.0, 5, 8),
    "d32": (32, 9, 60, 1.0, 3, 9),
    "d64": (64, 9, 60, 1.0, 3, 9),
}
SEEDS = tuple(range(1, 11))
CLASSES = 10
SUBSPACE_DIM = 5
N_SPLITS = 4


def run_case(sf, regime: str, seed: int, normalize: bool) -> list[dict]:
    """The records of one case, one per report row, in row name order."""
    dim, per_class, samples, separation, train_per_class, target_dim = REGIMES[regime]
    sets = sf.generate_synthetic(
        classes=CLASSES, sets_per_class=per_class, dim=dim, samples=samples,
        separation=separation, seed=seed,
    )
    cfg = sf.TrainConfig(
        subspace_dim=SUBSPACE_DIM, target_dim=target_dim, seed=seed, normalize_kernels=normalize
    )
    report = sf.run_experiment(
        sets, cfg, n_splits=N_SPLITS, train_per_class=train_per_class, ablate=True
    )
    frozen = sf.run_experiment(
        sets, replace(cfg, learning_rate=0.0), n_splits=N_SPLITS, train_per_class=train_per_class
    )
    rows = dict(report.ablation, frozen=frozen)
    return [
        {
            "regime": regime,
            "seed": seed,
            "normalize": normalize,
            "row": row,
            "accuracies": [s.accuracy for s in row_report.splits],
            "first_objective": [s.objective_trace[0] for s in row_report.splits],
            "last_objective": [s.objective_trace[-1] for s in row_report.splits],
            "iterations": [len(s.objective_trace) for s in row_report.splits],
        }
        for row, row_report in sorted(rows.items())
    ]


def _key(record: dict) -> tuple:
    return record["regime"], record["seed"], record["normalize"], record["row"]


def print_paired(change: list[dict], parent: list[dict]) -> None:
    """Paired per-record differences of ``change`` against ``parent``."""
    before = {_key(r): r for r in parent}
    pairs = [(before[_key(r)], r) for r in change if _key(r) in before]
    differ = [(a, b) for a, b in pairs if a["accuracies"] != b["accuracies"]]
    stops = [(a, b) for a, b in pairs if a["iterations"] != b["iterations"]]
    print(f"{len(pairs) - len(differ)} of {len(pairs)} paired records have equal accuracies")
    print(f"{len(stops)} of {len(pairs)} paired records have different iteration counts")
    print(
        f"{len(change) - len(pairs)} of {len(change)} records of this run and "
        f"{len(parent) - len(pairs)} of {len(parent)} of the other have no pair"
    )
    mixed = sum(len(set(r["iterations"])) > 1 for r in change)
    print(f"{mixed} of {len(change)} records of this run have splits that stop apart")
    for what, listed in (("differs", differ), ("stops differently", stops)):
        for a, b in listed:
            print(
                "{}: {} seed {} normalize {} {}: accuracies {} -> {}, last objectives {} -> {}, "
                "iterations {} -> {}".format(
                    what, *_key(b), a["accuracies"], b["accuracies"],
                    [f"{x:.6g}" for x in a["last_objective"]],
                    [f"{x:.6g}" for x in b["last_objective"]], a["iterations"], b["iterations"],
                )
            )
    groups: dict[tuple, list[float]] = {}
    for a, b in pairs:
        shift = float(np.mean(b["accuracies"]) - np.mean(a["accuracies"]))
        groups.setdefault((a["regime"], a["normalize"], a["row"]), []).append(shift)
    print("regime normalize row: mean accuracy change over seeds (largest)")
    for (regime, normalize, row), shifts in sorted(groups.items()):
        print(
            f"{regime} {str(normalize):<5} {row:<8} {np.mean(shifts):+.4f} "
            f"({max(shifts, key=abs):+.4f})"
        )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    parser.add_argument("--src", type=Path, default=SRC, help="src directory to import")
    parser.add_argument("--against", type=Path, help="JSON of another run to pair with")
    parser.add_argument("--regimes", nargs="+", choices=sorted(REGIMES), default=list(REGIMES))
    parser.add_argument("--seeds", nargs="+", type=int, choices=SEEDS, default=list(SEEDS))
    args = parser.parse_args()
    # read before the run writes, as ``--out`` may name the same file
    parent = json.loads(args.against.read_text())["records"] if args.against else None
    sys.path.insert(0, str(args.src.resolve()))
    import setfuse as sf

    records = [
        record
        for regime in args.regimes
        for seed in args.seeds
        for normalize in (False, True)
        for record in run_case(sf, regime, seed, normalize)
    ]
    lines = ",\n".join(json.dumps(record) for record in records)
    args.out.write_text(f'{{"records": [\n{lines}\n]}}\n')  # one record per line
    if parent is not None:
        print_paired(records, parent)


if __name__ == "__main__":
    main()
