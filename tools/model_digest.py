"""Print SHA-256 digests per fixed training case, to check that two checkouts
train bit-identical models.

Usage, from the repository root:

    python3 tools/model_digest.py [--src PATH]

``--src`` names the ``src`` directory of the checkout to import (default: the
one next to this file), so one copy of this script can digest any commit:

    python3 tools/model_digest.py --src /path/to/other/checkout/src

Each train case prints two digests. ``model`` hashes what the trained model
holds and derives (transform, gating parameters, training weights, every
lifted feature array and scale, the objective trace, labels and set ids). A
model holds no Gram matrix, so no Gram is hashed: the Grams exist only inside
training, and the digests of what training learns from them stand for them.
``saved`` hashes the
bytes of the saved model directory. So a change of persistence format alone
keeps every ``model`` digest and changes the ``saved`` ones. ``probe_stream``
prints one more line for ten held-out probes sent to the loaded model:
``predictions`` hashes each probe's label and nearest index, ``profiles``
its distance profile. So a change that rounds distances differently but
predicts alike keeps every digest but ``profiles``. ``train_ragged`` trains
on sets of 12, 16 and 20 samples, interleaved. Each split protocol case
prints one ``model`` digest, over every ``SplitResult`` field but the
wall-clock ``train_seconds``, of every report it returns:
``experiment_ablate`` the combined row and each ablation row,
``dimension_sweep`` one report per projection width,
``experiment_capped`` one report on sets short enough to cap
``subspace_dim``, ``experiment_learning_rate_1`` one report at
``learning_rate=1.0`` (its splits stop early), ``experiment_interleaved``
one report on the sets reordered so that their classes interleave (each
split's gallery then orders its classes its own way),
``experiment_two_ranks`` one report on the sets with one set of a class
duplicated (its splits differ in span rank, so the row trains as two stacks)
and ``experiment_d32`` one report on ten splits of N=50 galleries at set
dimension 32.
``stacked_halvings`` prints one ``model`` digest over four random galleries,
their lifted rows stacked per channel, that ``trainer.train`` trains as one
stack, without seeds (training draws nothing at random), in which some gating
steps halve while others are accepted and the galleries stop at different
iterations (3, 8, 8 and 3). BLAS is
pinned to one thread, because the thread count changes the bits.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"


class _Digest:
    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, *values) -> None:
        for v in values:
            if isinstance(v, np.ndarray):
                a = np.ascontiguousarray(v)
                self._h.update(f"{a.dtype.str}{a.shape}".encode())
                self._h.update(a.tobytes())
            else:
                self._h.update(repr(v).encode())

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def _add_model(d: _Digest, model) -> None:
    d.add(model.transform, model.gating.coeffs, model.gating.biases, model.train_weights)
    d.add(*model.features, model.scales, model.n_train)
    d.add(model.objective_trace, model.labels, model.set_ids)


def _saved_digest(sf, model, out: Path) -> str:
    d = _Digest()
    sf.save_model(model, out)
    for f in sorted(out.iterdir()):
        d.add(f.name, f.read_bytes())
    return d.hexdigest()


def _train_case(sf, sets, cfg, workdir: Path, name: str):
    """The ``model`` and ``saved`` digests of one training, saved to ``workdir / name``."""
    d = _Digest()
    model = sf.train_on_sets(sets, cfg)
    _add_model(d, model)
    return ("model", d.hexdigest()), ("saved", _saved_digest(sf, model, workdir / name))


def _reports_digest(reports) -> str:
    """Digest of every split of each report, in key order."""
    d = _Digest()
    for name, report in sorted(reports.items()):
        for s in report.splits:
            d.add(name, s.split_index, s.seed, s.accuracy, s.n_train, s.n_test, s.objective_trace)
    return d.hexdigest()


def _cases(sf, workdir: Path):
    def cfg(seed, **kw):
        return sf.TrainConfig(subspace_dim=5, target_dim=8, seed=seed, **kw)

    # the perfbench gallery_train data at run seed 3, first variant
    seed = int(np.random.SeedSequence([3, 0]).generate_state(1)[0])
    sets = sf.generate_synthetic(
        classes=5, sets_per_class=60, dim=10, samples=20, separation=5.0, seed=0
    )
    gallery, _ = sf.split_sets(sets, 50, np.random.default_rng(seed))
    yield "gallery_train", _train_case(sf, gallery, cfg(seed), workdir, "gallery_train")

    # the perfbench probe_stream model at seed 3, saved, loaded and probed
    sets = sf.generate_synthetic(
        classes=6, sets_per_class=36, dim=32, samples=40, separation=5.0, seed=3
    )
    gallery, probes = sf.split_sets(sets, 16, np.random.default_rng(3))
    yield "probe_stream", _train_case(sf, gallery, cfg(3), workdir, "probe_stream")
    loaded = sf.load_model(workdir / "probe_stream")
    predictions, profiles = _Digest(), _Digest()
    for probe in probes[:10]:
        pred = sf.predict(probe, loaded)
        predictions.add(pred.label, pred.nearest_index)
        profiles.add(pred.distances)
    yield "probe_stream", (
        ("predictions", predictions.hexdigest()),
        ("profiles", profiles.hexdigest()),
    )

    # the perfbench split_protocol data at seed 3, trained whole
    sets = sf.generate_synthetic(
        classes=10, sets_per_class=10, dim=10, samples=20, separation=3.0, seed=3
    )
    yield "normalize_kernels", _train_case(
        sf, sets, cfg(3, normalize_kernels=True), workdir, "normalize_kernels"
    )
    yield "learning_rate_1", _train_case(
        sf, sets, cfg(3, learning_rate=1.0), workdir, "learning_rate_1"
    )
    yield "learning_rate_0", _train_case(
        sf, sets, cfg(3, learning_rate=0.0), workdir, "learning_rate_0"
    )
    # the same sets holding 12, 16 and 20 samples, interleaved
    ragged = [
        sf.ImageSet(features=s.features[:, : (12, 16, 20)[i % 3]], label=s.label, set_id=s.set_id)
        for i, s in enumerate(sets)
    ]
    yield "train_ragged", _train_case(sf, ragged, cfg(3), workdir, "train_ragged")

    report = sf.run_experiment(sets, cfg(3), n_splits=10, train_per_class=5, ablate=True)
    yield "experiment_ablate", (("model", _reports_digest(report.ablation)), ("saved", None))

    sweep = sf.run_dimension_sweep(sets, cfg(3), target_dims=[4, 8], n_splits=4, train_per_class=5)
    yield "dimension_sweep", (("model", _reports_digest(sweep)), ("saved", None))

    # class0 sets keep 4 of their 20 samples, so every split caps subspace_dim 5 to 4
    short = [
        sf.ImageSet(
            features=s.features[:, :4] if s.label == "class0" else s.features,
            label=s.label,
            set_id=s.set_id,
        )
        for s in sets
    ]
    report = sf.run_experiment(short, cfg(3), n_splits=4, train_per_class=5)
    yield "experiment_capped", (
        ("model", _reports_digest({"combined": report})),
        ("saved", None),
    )

    report = sf.run_experiment(sets, cfg(3, learning_rate=1.0), n_splits=10, train_per_class=5)
    yield "experiment_learning_rate_1", (
        ("model", _reports_digest({"combined": report})),
        ("saved", None),
    )

    # the same sets ordered set 0 of each class, then set 1 of each class, ...
    interleaved = [s for _, s in sorted(enumerate(sets), key=lambda p: (p[0] % 10, p[1].label))]
    report = sf.run_experiment(interleaved, cfg(3), n_splits=10, train_per_class=5)
    yield "experiment_interleaved", (
        ("model", _reports_digest({"combined": report})),
        ("saved", None),
    )

    # the same sets with class1's second set a copy of its first: a split that
    # trains on both has one Gram column difference fewer, so the row trains
    # in two stacks of different span ranks
    first = next(i for i, s in enumerate(sets) if s.label == "class1")
    twins = list(sets)
    twins[first + 1] = sf.ImageSet(
        features=sets[first].features, label="class1", set_id=sets[first + 1].set_id
    )
    report = sf.run_experiment(twins, cfg(3), n_splits=10, train_per_class=5)
    yield "experiment_two_ranks", (
        ("model", _reports_digest({"combined": report})),
        ("saved", None),
    )

    # ten splits of N=50 galleries at d=32, whose lifted rows make each
    # problem about 1.4 MB, so they train in several stacks
    sets = sf.generate_synthetic(
        classes=10, sets_per_class=10, dim=32, samples=40, separation=3.0, seed=3
    )
    report = sf.run_experiment(sets, cfg(3), n_splits=10, train_per_class=5)
    yield "experiment_d32", (("model", _reports_digest({"combined": report})), ("saved", None))

    # four galleries of 12 random lifted rows, zero-padded to the lift widths
    # of sets of dimension 4, trained as one stack at a rate at which some
    # gating steps halve while others are accepted, and the galleries stop
    # at different iterations
    from setfuse.kernels import lift_width
    from setfuse.trainer import train

    rng = np.random.default_rng(21)
    galleries, labels = [], []
    for _ in range(4):
        rows = [rng.standard_normal((12, 14)) / np.sqrt(14) for _ in sf.DESCRIPTOR_NAMES]
        galleries.append([
            np.pad(r, ((0, 0), (0, lift_width(q, 4) - 14))) for q, r in zip(sf.DESCRIPTOR_NAMES, rows)
        ])
        labels.append([f"c{c}" for c in rng.permutation(np.arange(12) % 3)])
    stacked = [np.stack(channel) for channel in zip(*galleries)]  # (4, 12, D_q) per channel
    d = _Digest()
    halving = sf.TrainConfig(target_dim=3, iters=8, learning_rate=1000.0)
    for model in train(stacked, labels, [[f"s{i}" for i in range(12)]] * 4, halving):
        _add_model(d, model)
    yield "stacked_halvings", (("model", d.hexdigest()), ("saved", None))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=SRC, help="src directory to import")
    args = parser.parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    import setfuse as sf

    with tempfile.TemporaryDirectory() as tmp:
        for name, digests in _cases(sf, Path(tmp)):
            print(f"{name:<26} " + "  ".join(f"{k} {v or '-'}" for k, v in digests))


if __name__ == "__main__":
    main()
