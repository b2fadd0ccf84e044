"""Experiment orchestration: splits, training pipelines, sweeps, ablations.

Every split derives its own seed from the run seed and the split index and
draws its train/test split from it, so splits are mutually independent and
the whole experiment is reproducible from one integer; training draws
nothing at random, so that seed is all a split's result depends on besides
the sets and the config.

A split protocol call (``run_experiment`` with its ablation rows, or
``run_dimension_sweep``) takes the list of ``ImageSet`` that ``train_on_sets``
takes. It first checks its sets and every split, then encodes the sets with
one ``encode_sets`` call and lifts the collection with one ``lift_features``
call per channel into a read-only (N, D_q) array F. Every split trains on its
training rows ``F[train_idx]`` and scores its test rows ``F[test_idx]`` with
one ``classify.distance_profile`` call, so it reports what ``train_on_sets``
and ``predict`` would give. The splits of a report row train in stacks of
``trainer.stack_size`` (``trainer.STACK_BYTES``, which counts the training
rows a stack gathers), one ``trainer.train`` call each, which trains the
stack in lockstep; each split's model has the bits it gets alone. A stack's
training rows are one gather per channel, ``F[[train_idx, ...]]`` (S, N,
D_q), whose views its models keep. Ten splits of N=50, d=10 galleries form
one stack, at d=32 stacks of two, and at N=250 or d >= 64 every split
trains alone. A row gathers, trains and scores one stack at a time, so it
holds one stack's training rows and models.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from .classify import distance_profile
from .config import TrainConfig, check_int, check_type
from .descriptors import ImageSet, common_dim, encode_sets
from .errors import BadSpec, InsufficientSetsPerClass, TooFewSamples
from .kernels import DESCRIPTOR_NAMES, lift_features
from .trainer import ModelState, stack_size, train

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SplitResult:
    """Outcome of one train/test split.

    ``train_seconds`` is the split's share of its report row's training: the
    row's splits train in stacks, one ``train`` call each, whose Gram builds
    (from the training sets' lifted rows) plus training are summed over the
    row and divided evenly among its splits, so the column sums to the
    row's training time. Encoding and lifting are shared by every split of
    the call and not counted.
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
    train_per_class: int
    ablation: Mapping[str, "ExperimentReport"] | None = None

    @property
    def n_splits(self) -> int:
        return len(self.splits)

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
    """Cap the subspace dimension at what every set can support.

    ``BadSpec`` unless ``sets`` is a non-empty list or tuple of ``ImageSet``;
    ``DimensionMismatch`` naming the first set whose dimension differs.
    """
    return max(1, min(requested, common_dim(sets), min(s.n_samples for s in sets)))


def _capped_config(sets: Sequence[ImageSet], cfg: TrainConfig) -> TrainConfig:
    check_type("cfg", cfg, TrainConfig)
    q = effective_subspace_dim(sets, cfg.subspace_dim)
    if q != cfg.subspace_dim:
        logger.warning("subspace_dim capped from %d to %d for this gallery", cfg.subspace_dim, q)
        cfg = replace(cfg, subspace_dim=q)
    return cfg


def train_on_sets(sets: Sequence[ImageSet], cfg: TrainConfig) -> ModelState:
    """Full pipeline: encode a gallery (capping ``subspace_dim`` to what it
    supports), lift it once per channel, train."""
    cfg = _capped_config(sets, cfg)
    stack = encode_sets(sets, cfg)
    rows = [lift_features(stack, name)[None] for name in cfg.descriptors]
    return train(rows, [[s.label for s in sets]], [[s.set_id for s in sets]], cfg)[0]


def split_sets(
    sets: Sequence[ImageSet], train_per_class: int, rng: np.random.Generator
) -> tuple[list[ImageSet], list[ImageSet]]:
    """Random train/test split with a fixed number of training sets per class.

    ``sets`` must be a non-empty list or tuple of ``ImageSet`` of one
    dimension (``descriptors.common_dim``), ``train_per_class`` an integer
    >= 1, and every class must contribute at least ``train_per_class + 1``
    sets so the test side is never empty.
    """
    common_dim(sets)
    check_type("rng", rng, np.random.Generator)
    train_idx, test_idx = _split_indices(sets, train_per_class, rng)
    return [sets[i] for i in train_idx], [sets[i] for i in test_idx]


def _split_indices(
    sets: Sequence[ImageSet], train_per_class: int, rng: np.random.Generator
) -> tuple[list[int], list[int]]:
    """Positions in ``sets`` of ``split_sets``' two sides, each ascending."""
    check_int("train_per_class", train_per_class, 1)
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


@dataclass(frozen=True)
class _Split:
    index: int
    seed: int
    train: list[int]
    test: list[int]


def _plan_splits(
    sets: Sequence[ImageSet], cfg: TrainConfig, n_splits: int, train_per_class: int
) -> list[_Split]:
    """Every split of a call, checked before anything is encoded.

    A split trains at the subspace dimension its training sets support; a
    test set with fewer samples raises ``TooFewSamples``, as ``predict``
    would. So every split that passes uses the call's capped dimension.
    """
    splits = []
    for i in range(n_splits):
        seed = split_seed(cfg.seed, i)
        train_idx, test_idx = _split_indices(sets, train_per_class, np.random.default_rng(seed))
        q = effective_subspace_dim([sets[j] for j in train_idx], cfg.subspace_dim)
        for j in test_idx:
            if sets[j].n_samples < q:
                raise TooFewSamples(
                    f"split {i}: test set {j} ({sets[j].set_id!r}) has {sets[j].n_samples} "
                    f"samples, fewer than subspace_dim={q}"
                )
        splits.append(_Split(i, seed, train_idx, test_idx))
    return splits


def _run_row(
    sets: Sequence[ImageSet],
    lifted: Mapping[str, np.ndarray],
    cfg: TrainConfig,
    splits: Sequence[_Split],
) -> tuple[SplitResult, ...]:
    """Train and score the splits of a report row one stack of ``stack_size``
    splits at a time: gather the stack's training rows with one index per
    channel, train them with one ``train`` call, score each split's test
    sets with its model, and drop the stack before the next one's rows are
    gathered."""
    names = cfg.descriptors
    size = stack_size(len(splits[0].train), [lifted[name].shape[1] for name in names])
    labels = np.array([s.label for s in sets], dtype=object)
    set_ids = np.array([s.set_id for s in sets], dtype=object)
    scored, seconds = [], 0.0
    for begin in range(0, len(splits), size):
        stack = splits[begin : begin + size]
        index = np.array([split.train for split in stack])
        rows = [lifted[name][index] for name in names]
        for r in rows:
            r.setflags(write=False)  # a fresh C-contiguous gather, so the models keep views of it
        started = time.perf_counter()
        models = train(rows, labels[index], set_ids[index], cfg)
        seconds += time.perf_counter() - started
        scored += [
            (split, _accuracy(sets, lifted, names, split, model), model.objective_trace)
            for split, model in zip(stack, models)
        ]
        del rows, models  # the models keep the rows: free them before the next gather
    return tuple(
        SplitResult(
            split_index=split.index,
            seed=split.seed,
            accuracy=accuracy,
            n_train=len(split.train),
            n_test=len(split.test),
            train_seconds=seconds / len(splits),
            objective_trace=trace,
        )
        for split, accuracy, trace in scored
    )


def _accuracy(sets, lifted, names, split: _Split, model: ModelState) -> float:
    """The share of a split's test sets whose stacked rows ``model`` labels right."""
    profile = distance_profile([lifted[name][split.test] for name in names], model)
    nearest = np.argmin(profile, axis=1).tolist()
    hits = sum(model.labels[j] == sets[i].label for i, j in zip(split.test, nearest))
    return hits / len(split.test)


def _protocol(
    sets: Sequence[ImageSet], cfg: TrainConfig, n_splits: int, train_per_class: int, ablate: bool
) -> Callable[[TrainConfig], ExperimentReport]:
    """Check a call's arguments, sets and splits, encode each set once and
    lift the collection once per channel of ``cfg.descriptors``, or of
    every descriptor with ``ablate``.

    Returns the function that runs the split protocol for a configuration
    that differs from ``cfg`` only in ``target_dim`` or in ``descriptors``
    (within those lifted).
    """
    check_int("n_splits", n_splits, 1)
    check_int("train_per_class", train_per_class, 1)
    capped = _capped_config(sets, cfg)
    splits = _plan_splits(sets, cfg, n_splits, train_per_class)
    stack = encode_sets(sets, capped)
    names = DESCRIPTOR_NAMES if ablate else cfg.descriptors
    lifted = {name: lift_features(stack, name) for name in names}

    def run(row_cfg: TrainConfig) -> ExperimentReport:
        capped_row = replace(row_cfg, subspace_dim=capped.subspace_dim)
        return ExperimentReport(
            splits=_run_row(sets, lifted, capped_row, splits),
            config=capped_row,
            train_per_class=train_per_class,
        )

    return run


def run_experiment(
    sets: Sequence[ImageSet],
    cfg: TrainConfig,
    n_splits: int = 10,
    train_per_class: int = 3,
    ablate: bool = False,
) -> ExperimentReport:
    """Run a split protocol end to end over a list of ``ImageSet``.

    With ``ablate``, each descriptor is also evaluated alone on the same
    splits and the single-channel reports are attached under
    ``report.ablation`` along with the combined row. Each set is encoded and
    lifted once per call, however many splits and ablation rows use it.
    """
    check_type("ablate", ablate, bool)
    run = _protocol(sets, cfg, n_splits, train_per_class, ablate)
    combined = run(cfg)
    if not ablate:
        return combined
    rows = {name: run(replace(cfg, descriptors=(name,))) for name in DESCRIPTOR_NAMES}
    rows["combined"] = combined
    return replace(combined, ablation=rows)


def run_dimension_sweep(
    sets: Sequence[ImageSet],
    cfg: TrainConfig,
    target_dims: Sequence[int],
    n_splits: int = 10,
    train_per_class: int = 3,
) -> dict[int, ExperimentReport]:
    """Evaluate the protocol once per distinct projection width, in first-seen
    order; every width reads the same once-encoded, once-lifted sets.
    ``BadSpec`` before anything is encoded unless ``target_dims`` is a
    non-empty list or tuple; ``TrainConfig`` checks every width before the
    first run."""
    if not (isinstance(target_dims, (list, tuple)) and target_dims):
        raise BadSpec(f"target_dims must be a non-empty list or tuple, got {target_dims!r:.80}")
    run = _protocol(sets, cfg, n_splits, train_per_class, ablate=False)
    configs = {c.target_dim: c for c in [replace(cfg, target_dim=dim) for dim in target_dims]}
    return {dim: run(c) for dim, c in configs.items()}
