"""Experiment orchestration: splits, training pipelines, sweeps, ablations.

Every split derives its own seed from the run seed and the split index, so
splits are mutually independent and the whole experiment is reproducible
from one integer.

A set's descriptors and lifted rows depend only on the set, ``alpha`` and
the split's effective subspace dimension, so one ``run_experiment`` call
(with its ablation rows) or one ``run_dimension_sweep`` call encodes and
lifts each set once and every split reads those rows: it builds its kernel
bank from its training rows and scores each test set from the test set's
rows, through the same steps ``train_on_sets`` and ``predict`` take.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .classify import check_probe, nearest, profile_from_rows
from .config import TrainConfig
from .data import generate_synthetic, load_dataset
from .descriptors import DescriptorTriple, ImageSet, encode_set
from .errors import BadSpec, InsufficientSetsPerClass
from .kernels import KernelBank, KernelId, build_kernel_bank, lift_row, stack_rows
from .trainer import ModelState, train

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SplitResult:
    """Outcome of one train/test split.

    ``train_seconds`` times the split's kernel bank build (Grams from the
    training sets' lifted rows) plus training. Encoding and lifting are shared
    by every split of the call and not counted.
    """

    split_index: int
    seed: int
    accuracy: float
    n_train: int
    n_test: int
    train_seconds: float
    objective_trace: tuple[float, ...]


@dataclass(frozen=True)
class ExperimentReport:
    """Aggregate outcome of a split protocol, optionally with ablation rows."""

    splits: tuple[SplitResult, ...]
    config: TrainConfig
    n_splits: int
    train_per_class: int
    ablation: Mapping[str, "ExperimentReport"] | None = None

    @property
    def accuracies(self) -> np.ndarray:
        return np.array([s.accuracy for s in self.splits])

    @property
    def mean_accuracy(self) -> float:
        return float(self.accuracies.mean())

    @property
    def std_accuracy(self) -> float:
        return float(self.accuracies.std())


def split_seed(base_seed: int, split_index: int) -> int:
    """Stable per-split seed derived from the run seed."""
    return int(np.random.SeedSequence([base_seed, split_index]).generate_state(1)[0])


def effective_subspace_dim(sets: Sequence[ImageSet], requested: int) -> int:
    """Cap the subspace dimension at what every set can support; ``BadSpec``
    for an empty list."""
    if not sets:
        raise BadSpec("no image sets given")
    d = sets[0].dim
    n_min = min(s.n_samples for s in sets)
    return max(1, min(requested, d, n_min))


def encode_gallery(
    sets: Sequence[ImageSet], cfg: TrainConfig
) -> tuple[list[DescriptorTriple], TrainConfig]:
    """Encode a gallery, capping the subspace dimension to the gallery rank.

    Returns the triples and the (possibly adjusted) configuration that probe
    encoding must reuse.
    """
    cfg = _capped_config(sets, cfg)
    return [encode_set(s, cfg) for s in sets], cfg


def _capped_config(sets: Sequence[ImageSet], cfg: TrainConfig) -> TrainConfig:
    q = effective_subspace_dim(sets, cfg.subspace_dim)
    if q != cfg.subspace_dim:
        logger.warning("subspace_dim capped from %d to %d for this gallery", cfg.subspace_dim, q)
        cfg = replace(cfg, subspace_dim=q)
    return cfg


def train_on_sets(sets: Sequence[ImageSet], cfg: TrainConfig) -> ModelState:
    """Full pipeline: encode a gallery, build the kernel bank, train."""
    triples, cfg = encode_gallery(sets, cfg)
    bank = build_kernel_bank(triples, cfg.kernel_ids, normalize=cfg.normalize_kernels)
    labels = [s.label for s in sets]
    return train(bank, labels, cfg, set_ids=[s.set_id for s in sets])


def split_sets(
    sets: Sequence[ImageSet], train_per_class: int, rng: np.random.Generator
) -> tuple[list[ImageSet], list[ImageSet]]:
    """Random train/test split with a fixed number of training sets per class.

    Every class must contribute at least ``train_per_class + 1`` sets so the
    test side is never empty.
    """
    train_idx, test_idx = _split_indices(sets, train_per_class, rng)
    return [sets[i] for i in train_idx], [sets[i] for i in test_idx]


def _split_indices(
    sets: Sequence[ImageSet], train_per_class: int, rng: np.random.Generator
) -> tuple[list[int], list[int]]:
    """Positions in ``sets`` of ``split_sets``' two sides, each ascending."""
    by_label: dict[str, list[int]] = {}
    for idx, s in enumerate(sets):
        by_label.setdefault(s.label, []).append(idx)
    train_idx: list[int] = []
    test_idx: list[int] = []
    for label in sorted(by_label):
        members = by_label[label]
        if len(members) < train_per_class + 1:
            raise InsufficientSetsPerClass(
                f"class {label!r} has {len(members)} sets; needs at least {train_per_class + 1}"
            )
        order = rng.permutation(len(members))
        chosen = [members[i] for i in order]
        train_idx.extend(chosen[:train_per_class])
        test_idx.extend(chosen[train_per_class:])
    train_idx.sort()
    test_idx.sort()
    return train_idx, test_idx


class _LiftedSets:
    """The sets of one protocol call, each encoded and lifted on first use.

    Entries are keyed by position in ``sets`` and effective subspace
    dimension q (``alpha``, the only other input of encoding, is fixed for
    the call), never by ``set_id``, which need not be unique. A row is
    ``lift_row`` of the encoded set, so stacked rows equal ``lift_features``
    bit for bit. The memo lives as long as the call: for N sets it holds
    N x sum(D_q) lifted floats plus each set's descriptors.
    """

    def __init__(self, sets: list[ImageSet]):
        self.sets = sets
        self._triples: dict[tuple[int, int], DescriptorTriple] = {}
        self._rows: dict[tuple[int, int, KernelId], np.ndarray] = {}

    def _triple(self, i: int, cfg: TrainConfig) -> DescriptorTriple:
        key = (i, cfg.subspace_dim)
        if key not in self._triples:
            self._triples[key] = encode_set(self.sets[i], cfg)
        return self._triples[key]

    def _row(self, i: int, cfg: TrainConfig, kid: KernelId) -> np.ndarray:
        key = (i, cfg.subspace_dim, kid)
        if key not in self._rows:
            row = lift_row(self._triple(i, cfg), kid)
            row.setflags(write=False)  # every split of the call reads this array
            self._rows[key] = row
        return self._rows[key]

    def rows(self, i: int, cfg: TrainConfig) -> tuple[np.ndarray, ...]:
        """Set i's lifted row per channel of ``cfg``."""
        return tuple(self._row(i, cfg, kid) for kid in cfg.kernel_ids)

    def features(self, idx: Sequence[int], cfg: TrainConfig) -> list[np.ndarray]:
        """The (len(idx), D_q) lifted features of the sets at ``idx`` per channel,
        encoded all first and then lifted channel by channel, as
        ``encode_gallery`` and ``build_kernel_bank`` would."""
        for i in idx:
            self._triple(i, cfg)
        ids = [self.sets[i].set_id for i in idx]
        return [
            stack_rows((self._row(i, cfg, kid) for i in idx), len(idx), ids)
            for kid in cfg.kernel_ids
        ]


def _resolve_sets(source) -> list[ImageSet]:
    if isinstance(source, (str, Path)):
        return load_dataset(source)
    if isinstance(source, Mapping):
        return generate_synthetic(**source)
    return list(source)


def _run_split(
    lifted: _LiftedSets, cfg: TrainConfig, train_per_class: int, split_index: int
) -> SplitResult:
    seed = split_seed(cfg.seed, split_index)
    sets = lifted.sets
    train_idx, test_idx = _split_indices(sets, train_per_class, np.random.default_rng(seed))
    split_cfg = _capped_config([sets[i] for i in train_idx], replace(cfg, seed=seed))
    features = lifted.features(train_idx, split_cfg)
    started = time.perf_counter()
    bank = KernelBank(split_cfg.kernel_ids, tuple(features), split_cfg.normalize_kernels)
    model = train(
        bank,
        [sets[i].label for i in train_idx],
        split_cfg,
        set_ids=[sets[i].set_id for i in train_idx],
    )
    elapsed = time.perf_counter() - started
    hits = 0
    for i in test_idx:
        check_probe(sets[i], model)
        prediction = nearest(profile_from_rows(lifted.rows(i, split_cfg), model), model)
        hits += prediction.label == sets[i].label
    return SplitResult(
        split_index=split_index,
        seed=seed,
        accuracy=hits / len(test_idx),
        n_train=len(train_idx),
        n_test=len(test_idx),
        train_seconds=elapsed,
        objective_trace=model.objective_trace,
    )


def _check_protocol(n_splits: int, train_per_class: int) -> None:
    if n_splits < 1 or train_per_class < 1:
        raise BadSpec(f"n_splits and train_per_class must be >= 1, got {n_splits} and {train_per_class}")


def _experiment(
    lifted: _LiftedSets, cfg: TrainConfig, n_splits: int, train_per_class: int, ablate: bool
) -> ExperimentReport:
    def protocol(run_cfg: TrainConfig) -> ExperimentReport:
        return ExperimentReport(
            splits=tuple(_run_split(lifted, run_cfg, train_per_class, i) for i in range(n_splits)),
            config=run_cfg,
            n_splits=n_splits,
            train_per_class=train_per_class,
        )

    combined = protocol(cfg)
    if not ablate:
        return combined
    rows = {
        name: protocol(replace(cfg, descriptors=(name,))) for name in ("cov", "subspace", "gauss")
    }
    rows["combined"] = combined
    return replace(combined, ablation=rows)


def run_experiment(
    source,
    cfg: TrainConfig,
    n_splits: int = 10,
    train_per_class: int = 3,
    ablate: bool = False,
) -> ExperimentReport:
    """Run a split protocol end to end.

    ``source`` may be a manifest path, an iterable of ``ImageSet``, or a
    mapping of ``generate_synthetic`` keyword arguments. With ``ablate``,
    each descriptor is also evaluated alone on the same splits and the
    single-channel reports are attached under ``report.ablation`` along with
    the combined row. Each set is encoded and lifted once per call, however
    many splits and ablation rows use it.
    """
    _check_protocol(n_splits, train_per_class)
    lifted = _LiftedSets(_resolve_sets(source))
    return _experiment(lifted, cfg, n_splits, train_per_class, ablate)


def run_dimension_sweep(
    source,
    cfg: TrainConfig,
    target_dims: Sequence[int],
    n_splits: int = 10,
    train_per_class: int = 3,
) -> dict[int, ExperimentReport]:
    """Evaluate the protocol once per candidate projection width; every width
    reads the same once-encoded, once-lifted sets."""
    lifted = _LiftedSets(_resolve_sets(source))
    out: dict[int, ExperimentReport] = {}
    for dim in target_dims:
        _check_protocol(n_splits, train_per_class)
        out[int(dim)] = _experiment(
            lifted, replace(cfg, target_dim=int(dim)), n_splits, train_per_class, ablate=False
        )
    return out
