"""Experiment orchestration: splits, training pipelines, sweeps, ablations.

Every split derives its own seed from the run seed and the split index, so
splits are mutually independent and the whole experiment is reproducible
from one integer.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .classify import predict
from .config import TrainConfig
from .data import generate_synthetic, load_dataset
from .descriptors import DescriptorTriple, ImageSet, encode_set
from .errors import BadSpec, InsufficientSetsPerClass
from .kernels import build_kernel_bank
from .trainer import ModelState, train

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SplitResult:
    """Outcome of one train/test split."""

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
    """Cap the subspace dimension at what every set can support."""
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
    q = effective_subspace_dim(sets, cfg.subspace_dim)
    if q != cfg.subspace_dim:
        logger.warning("subspace_dim capped from %d to %d for this gallery", cfg.subspace_dim, q)
        cfg = replace(cfg, subspace_dim=q)
    return [encode_set(s, cfg) for s in sets], cfg


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
    return [sets[i] for i in train_idx], [sets[i] for i in test_idx]


def _resolve_sets(source) -> list[ImageSet]:
    if isinstance(source, (str, Path)):
        return load_dataset(source)
    if isinstance(source, Mapping):
        return generate_synthetic(**source)
    return list(source)


def _run_split(sets, cfg: TrainConfig, train_per_class: int, split_index: int) -> SplitResult:
    seed = split_seed(cfg.seed, split_index)
    rng = np.random.default_rng(seed)
    train_sets, test_sets = split_sets(sets, train_per_class, rng)
    split_cfg = replace(cfg, seed=seed)
    started = time.perf_counter()
    model = train_on_sets(train_sets, split_cfg)
    elapsed = time.perf_counter() - started
    hits = sum(1 for s in test_sets if predict(s, model).label == s.label)
    return SplitResult(
        split_index=split_index,
        seed=seed,
        accuracy=hits / len(test_sets),
        n_train=len(train_sets),
        n_test=len(test_sets),
        train_seconds=elapsed,
        objective_trace=model.objective_trace,
    )


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
    the combined row.
    """
    if n_splits < 1 or train_per_class < 1:
        raise BadSpec(f"n_splits and train_per_class must be >= 1, got {n_splits} and {train_per_class}")
    sets = _resolve_sets(source)

    def protocol(run_cfg: TrainConfig) -> tuple[SplitResult, ...]:
        return tuple(_run_split(sets, run_cfg, train_per_class, i) for i in range(n_splits))

    combined = ExperimentReport(
        splits=protocol(cfg),
        config=cfg,
        n_splits=n_splits,
        train_per_class=train_per_class,
    )
    if not ablate:
        return combined

    rows: dict[str, ExperimentReport] = {}
    for name in ("cov", "subspace", "gauss"):
        sub_cfg = replace(cfg, descriptors=(name,))
        rows[name] = ExperimentReport(
            splits=protocol(sub_cfg),
            config=sub_cfg,
            n_splits=n_splits,
            train_per_class=train_per_class,
        )
    rows["combined"] = combined
    return replace(combined, ablation=rows)


def run_dimension_sweep(
    source,
    cfg: TrainConfig,
    target_dims: Sequence[int],
    n_splits: int = 10,
    train_per_class: int = 3,
) -> dict[int, ExperimentReport]:
    """Evaluate the protocol once per candidate projection width."""
    sets = _resolve_sets(source)
    out: dict[int, ExperimentReport] = {}
    for dim in target_dims:
        out[int(dim)] = run_experiment(
            sets, replace(cfg, target_dim=int(dim)), n_splits=n_splits, train_per_class=train_per_class
        )
    return out
