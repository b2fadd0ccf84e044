"""The benchmark's workloads and their correctness checks.

Each workload builds its inputs from the run seed in ``setup`` (which also
runs one untimed warm-up operation), exposes one round of operation inputs
as ``items``, runs one operation with ``op`` and checks every result with
``record``. ``finish`` runs the remaining checks outside the timed region
and returns the held-out accuracy. All library calls go through module
attribute lookups at call time, so a tracer installed after import sees
them.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import numpy as np
import setfuse as sf


def config(seed: int) -> "sf.TrainConfig":
    return sf.TrainConfig(subspace_dim=5, target_dim=8, seed=seed)


def sub_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


class Tally:
    """Operations attempted and failed, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)
        return ok


def check_prediction(tally: Tally, pred, n_train: int, what: str) -> bool:
    d = np.asarray(pred.distances)
    return tally.check(
        d.shape == (n_train,) and bool(np.isfinite(d).all()),
        f"{what}: distance profile not finite or of the wrong length",
    )


def check_self_probes(tally: Tally, model, gallery, what: str) -> None:
    """A gallery member sent as a probe must come back as itself at distance 0.

    The probe's kernel column equals the member's Gram column bit for bit, so
    its projected distance is zero up to the rounding of the projection.
    """
    n = len(gallery)
    for i in sorted({0, n // 2, n - 1}):
        pred = sf.predict(gallery[i], model)
        if not check_prediction(tally, pred, n, f"{what} self-probe {i}"):
            continue
        d = pred.distances
        scale = float(np.median(d))
        tally.check(
            pred.nearest_index == i and d[i] <= 1e-12 * max(scale, 1.0),
            f"{what} self-probe {i}: nearest {pred.nearest_index} at {d[i]:.3e}",
        )


class GalleryTrain:
    """Train on an N=250 gallery; the dense O(N^3) trainer and Gram bank dominate.

    The class geometry comes from a fixed data seed: on this generator the
    early-stopping rule ends training after 3 to 20 outer iterations depending
    on the drawn classes, a threefold spread in training time that no run
    length averages out.
    The run seed draws ``VARIANTS`` train/held-out splits and training seeds;
    one round trains each once, and accuracy is their mean held-out accuracy.
    """

    DATA_SEED = 0
    VARIANTS = 3

    def __init__(self, seed: int, workdir: Path, tally: Tally):
        self.seed = seed
        self.tally = tally

    def setup(self) -> None:
        sets = sf.generate_synthetic(
            classes=5, sets_per_class=60, dim=10, samples=20, separation=5.0, seed=self.DATA_SEED
        )
        self.variants = []
        for j in range(self.VARIANTS):
            s = sub_seed(self.seed, j)
            gallery, held_out = sf.split_sets(sets, 50, np.random.default_rng(s))
            self.variants.append((gallery, held_out, config(s)))
        self.items = list(range(self.VARIANTS))
        self.models = [None] * self.VARIANTS
        self.signatures = [None] * self.VARIANTS
        self.record(0, self.op(0))

    def op(self, j: int):
        gallery, _, cfg = self.variants[j]
        return sf.train_on_sets(gallery, cfg)

    def record(self, j: int, model) -> None:
        sig = (model.objective_trace, model.transform.tobytes())
        if self.signatures[j] is None:
            self.signatures[j] = sig
        else:
            self.tally.check(sig == self.signatures[j], f"variant {j}: retraining changed the model")
        self.models[j] = model

    def finish(self) -> float:
        accs = []
        for j, (gallery, held_out, _) in enumerate(self.variants):
            model = self.models[j]
            if model is None:
                model = self.op(j)
                self.record(j, model)
            hits = 0
            for k, probe in enumerate(held_out):
                pred = sf.predict(probe, model)
                check_prediction(self.tally, pred, len(gallery), f"variant {j} probe {k}")
                hits += pred.label == probe.label
            accs.append(hits / len(held_out))
            check_self_probes(self.tally, model, gallery, f"variant {j}")
        return float(np.mean(accs))


class ProbeStream:
    """Classify 120 distinct d=32 probes, one at a time, against an N=96 model.

    The model went through save_model/load_model during set-up, so the
    stream reads the model the way a deployed classifier would.
    """

    def __init__(self, seed: int, workdir: Path, tally: Tally):
        self.seed = seed
        self.tally = tally
        self.model_dir = workdir / "model"

    def setup(self) -> None:
        sets = sf.generate_synthetic(
            classes=6, sets_per_class=36, dim=32, samples=40, separation=5.0, seed=self.seed
        )
        self.gallery, self.items = sf.split_sets(sets, 16, np.random.default_rng(self.seed))
        model = sf.train_on_sets(self.gallery, config(self.seed))
        shutil.rmtree(self.model_dir, ignore_errors=True)
        sf.save_model(model, self.model_dir)
        self.model_bytes = sum(f.stat().st_size for f in self.model_dir.iterdir())
        self.model = sf.load_model(self.model_dir)
        self.results = {}
        before = sf.predict(self.items[0], model)
        after = self.op(self.items[0])
        self.tally.check(
            np.array_equal(before.distances, after.distances),
            "save/load round trip changed the first probe's distances",
        )
        self.record(0, after)

    def op(self, probe):
        return sf.predict(probe, self.model)

    def record(self, i: int, pred) -> None:
        if not check_prediction(self.tally, pred, len(self.gallery), f"probe {i}"):
            return
        sig = (pred.nearest_index, pred.distances.tobytes())
        first = self.results.setdefault(i, (sig, pred.label))
        self.tally.check(first[0] == sig, f"probe {i}: repeated prediction differs")

    def finish(self) -> float:
        for i, probe in enumerate(self.items):
            if i not in self.results:
                self.record(i, self.op(probe))
        check_self_probes(self.tally, self.model, self.gallery, "loaded model")
        hits = sum(self.results[i][1] == p.label for i, p in enumerate(self.items) if i in self.results)
        return hits / len(self.items)


class SplitProtocol:
    """The paper's protocol: ten random splits of a 10-class set collection."""

    N_SPLITS = 10
    TRAIN_PER_CLASS = 5

    def __init__(self, seed: int, workdir: Path, tally: Tally):
        self.seed = seed
        self.tally = tally

    def setup(self) -> None:
        self.sets = sf.generate_synthetic(
            classes=10, sets_per_class=10, dim=10, samples=20, separation=3.0, seed=self.seed
        )
        self.items = [self.sets]
        self.report = None
        # one split warms every code path at the timed sizes
        sf.run_experiment(self.sets, config(self.seed), n_splits=1, train_per_class=self.TRAIN_PER_CLASS)

    def op(self, sets):
        return sf.run_experiment(
            sets, config(self.seed), n_splits=self.N_SPLITS, train_per_class=self.TRAIN_PER_CLASS
        )

    def record(self, i: int, report) -> None:
        splits = report.splits
        n_train = self.TRAIN_PER_CLASS * 10
        shape_ok = len(splits) == self.N_SPLITS and all(
            s.n_train == n_train and s.n_test == len(self.sets) - n_train for s in splits
        )
        values_ok = all(
            0.0 <= s.accuracy <= 1.0
            and s.objective_trace
            and all(np.isfinite(v) and 0.0 <= v <= 1.0 for v in s.objective_trace)
            for s in splits
        )
        self.tally.check(shape_ok and values_ok, "split report has the wrong shape or values")
        if self.report is None:
            self.report = report
        else:
            same = [(s.accuracy, s.objective_trace) for s in report.splits] == [
                (s.accuracy, s.objective_trace) for s in self.report.splits
            ]
            self.tally.check(same, "repeated run_experiment gave a different report")

    def finish(self) -> float:
        if self.report is None:
            self.record(0, self.op(self.sets))
        return self.report.mean_accuracy


WORKLOADS = {
    "gallery_train": GalleryTrain,
    "probe_stream": ProbeStream,
    "split_protocol": SplitProtocol,
}
