"""Experiment orchestration tests: splits, protocols, sweeps, ablation."""

import os
import warnings
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import setfuse.classify as classify_module
import setfuse.experiment as experiment_module
import setfuse.kernels as kernels_module
import setfuse.trainer as trainer_module
from setfuse.classify import predict
from setfuse.config import TrainConfig
from setfuse.data import generate_synthetic, load_dataset, save_dataset
from setfuse.persistence import save_model
from setfuse.descriptors import ImageSet, encode_sets
from setfuse.errors import (
    BadSpec,
    DimensionMismatch,
    InsufficientSetsPerClass,
    NonFinite,
    RankDeficient,
    TooFewSamples,
)
from setfuse.experiment import (
    ExperimentReport,
    effective_subspace_dim,
    run_dimension_sweep,
    run_experiment,
    split_seed,
    split_sets,
    train_on_sets,
)
from setfuse.trainer import gram_spans

from helpers import build_kernel_bank, random_image_set, spy, stack_length


def small_source():
    return dict(
        classes=3, sets_per_class=4, dim=6, samples=12, separation=5.0, seed=21
    )


def small_sets():
    return generate_synthetic(**small_source())


def interleaved_sets():
    """The small sets reordered so that their classes interleave: each split's
    gallery then lists its classes in its own order."""
    ordered = sorted(enumerate(small_sets()), key=lambda p: (p[0] % 4, p[1].label))
    return [s for _, s in ordered]


def duplicated_sets():
    """The small sets with class1's second set a copy of its first: a split
    that trains on both has one Gram column difference fewer, so splits
    differ in span rank."""
    sets = small_sets()
    first = next(i for i, s in enumerate(sets) if s.label == "class1")
    sets[first + 1] = ImageSet(
        features=sets[first].features, label="class1", set_id=sets[first + 1].set_id
    )
    return sets


def fast_cfg(**overrides):
    base = dict(subspace_dim=4, target_dim=4, iters=3, itr_iters=10, seed=21)
    base.update(overrides)
    return TrainConfig(**base)


class TestSplitSeed:
    def test_stable_and_distinct(self):
        assert split_seed(42, 0) == split_seed(42, 0)
        seeds = {split_seed(42, i) for i in range(20)}
        assert len(seeds) == 20
        assert split_seed(42, 0) != split_seed(43, 0)


class TestSplitSets:
    def test_disjoint_and_balanced(self):
        sets = generate_synthetic(**small_source())
        rng = np.random.default_rng(0)
        train_sets, test_sets = split_sets(sets, 3, rng)
        assert len(train_sets) == 9
        assert len(test_sets) == 3
        train_ids = {s.set_id for s in train_sets}
        test_ids = {s.set_id for s in test_sets}
        assert train_ids.isdisjoint(test_ids)
        assert train_ids | test_ids == {s.set_id for s in sets}
        for label in ("class0", "class1", "class2"):
            assert sum(1 for s in train_sets if s.label == label) == 3

    def test_deterministic_given_rng_state(self):
        sets = generate_synthetic(**small_source())
        a = split_sets(sets, 2, np.random.default_rng(5))
        b = split_sets(sets, 2, np.random.default_rng(5))
        assert [s.set_id for s in a[0]] == [s.set_id for s in b[0]]
        assert [s.set_id for s in a[1]] == [s.set_id for s in b[1]]

    def test_too_few_sets_per_class(self):
        sets = generate_synthetic(**small_source())
        with pytest.raises(InsufficientSetsPerClass):
            split_sets(sets, 4, np.random.default_rng(0))

    @pytest.mark.parametrize("train_per_class", [0, -1, 1.0, True])
    def test_train_per_class_must_be_a_positive_integer(self, train_per_class):
        sets = generate_synthetic(**small_source())
        with pytest.raises(BadSpec, match="train_per_class"):
            split_sets(sets, train_per_class, np.random.default_rng(0))


class TestEffectiveSubspaceDim:
    def test_subspace_dim_capped_by_samples(self):
        rng = np.random.default_rng(140)
        sets = [
            random_image_set(rng, d=8, n=5, label=f"c{i % 2}", set_id=f"s{i}")
            for i in range(4)
        ]
        model = train_on_sets(sets, fast_cfg(subspace_dim=10))
        assert model.config.subspace_dim == 5
        # each projection-kernel row is a flattened rank-5 projector Y Y^T
        projectors = model.features[1].reshape(-1, 8, 8)
        assert np.allclose(np.trace(projectors, axis1=1, axis2=2), 5.0)

    def test_effective_dim_floor_is_one(self):
        rng = np.random.default_rng(141)
        sets = [random_image_set(rng, d=4, n=2)]
        assert effective_subspace_dim(sets, 10) == 2
        assert effective_subspace_dim(sets, 0) == 1


class TestEmptySetList:
    def test_train_on_sets(self):
        with pytest.raises(BadSpec, match="no image sets"):
            train_on_sets([], fast_cfg())

    def test_run_experiment(self):
        with pytest.raises(BadSpec, match="no image sets"):
            run_experiment([], fast_cfg())

    def test_run_dimension_sweep(self):
        with pytest.raises(BadSpec, match="no image sets"):
            run_dimension_sweep([], fast_cfg(), target_dims=[2])

    def test_split_sets(self):
        with pytest.raises(BadSpec, match="no image sets"):
            split_sets([], 1, np.random.default_rng(0))


# A directory that cannot be made, so a save that passed its checks would
# fail with IoError instead of writing.
UNWRITABLE = Path(os.devnull) / "ds"


class TestCollectionMustBeAListOfSets:
    """Every entry point takes a list or tuple of ``ImageSet``; anything else,
    a manifest path or a generator included, is a ``BadSpec``. So is a
    generator, config or model argument of another type."""

    @pytest.mark.parametrize(
        "sets, match",
        [
            ("data/manifest.csv", "got str"),
            (Path("data/manifest.csv"), "got .*Path"),
            (["x"], "item 0 is a str"),
            (None, "got NoneType"),
            ((s for s in ()), "got generator"),
        ],
        ids=["str-path", "path", "list-of-str", "none", "generator"],
    )
    @pytest.mark.parametrize(
        "run",
        [
            lambda sets: train_on_sets(sets, fast_cfg()),
            lambda sets: encode_sets(sets, fast_cfg()),
            lambda sets: run_experiment(sets, fast_cfg(), n_splits=1),
            lambda sets: run_dimension_sweep(sets, fast_cfg(), target_dims=[2], n_splits=1),
            lambda sets: split_sets(sets, 1, np.random.default_rng(0)),
            lambda sets: save_dataset(sets, UNWRITABLE),
        ],
        ids=[
            "train_on_sets", "encode_sets", "run_experiment", "run_dimension_sweep",
            "split_sets", "save_dataset",
        ],
    )
    def test_raises_bad_spec(self, run, sets, match):
        with pytest.raises(BadSpec, match=match):
            run(sets)

    @pytest.mark.parametrize(
        "run, match",
        [
            (lambda sets, out: split_sets(sets, 1, 0), "rng must be of type Generator, got int"),
            (lambda sets, out: split_sets(sets, 1, None), "rng .* got NoneType"),
            (lambda sets, out: split_sets(sets, 1, "x"), "rng .* got str"),
            (lambda sets, out: train_on_sets(sets, None), "cfg must be of type TrainConfig"),
            (lambda sets, out: run_experiment(sets, None, n_splits=1), "cfg .* got NoneType"),
            (
                lambda sets, out: run_dimension_sweep(sets, None, target_dims=[2], n_splits=1),
                "cfg .* got NoneType",
            ),
            (lambda sets, out: predict(sets[0], None), "model must be of type ModelState"),
            (lambda sets, out: save_model(None, out), "model .* got NoneType"),
        ],
        ids=[
            "split_sets-int", "split_sets-none", "split_sets-str", "train_on_sets",
            "run_experiment", "run_dimension_sweep", "predict", "save_model",
        ],
    )
    def test_argument_of_another_type_raises_bad_spec(self, tmp_path, run, match):
        # refused before any work: save_model writes nothing
        with pytest.raises(BadSpec, match=match):
            run(small_sets(), tmp_path / "model")
        assert not (tmp_path / "model").exists()

    @pytest.mark.parametrize(
        "run, match",
        [
            (lambda: ImageSet([["a", "b"], ["c", "d"]], "c", "s1"), "set 's1': features"),
            (lambda: ImageSet(np.ones((2, 3)) * (1 + 1j), "c", "s1"), "set 's1': features"),
            (lambda: ImageSet([[1.0, 2j], [3.0, 4.0]], "c", "s1"), "set 's1': features"),
            (lambda: ImageSet(np.array([[1.0, 2j]], dtype=object), "c", "s1"), "real numbers"),
            (lambda: ImageSet([[1.0, 2.0], [3.0]], "c", "s1"), "set 's1': features"),
            (lambda: ImageSet([[True, False], [False, True]], "c", "s1"), "real numbers"),
            (lambda: ImageSet([[True, 0.5], [1.0, 2.0]], "c", "s1"), "real numbers"),
            (lambda: ImageSet([[np.True_, 0.5], [1.0, 2.0]], "c", "s1"), "real numbers"),
            (lambda: ImageSet(np.eye(2, dtype=bool), "c", "s1"), "set 's1': features"),
            (lambda: ImageSet([["1.5", "2"], ["3", "4"]], "c", "s1"), "real numbers"),
            (lambda: ImageSet(np.array([["1.5", "2"], ["3", "4"]]), "c", "s1"), "real numbers"),
            (lambda: ImageSet(np.array([[b"1", b"2"], [b"3", b"4"]]), "c", "s1"), "real numbers"),
            (
                lambda: ImageSet(np.array([[1.0, True], [2.0, 3.0]], dtype=object), "c", "s1"),
                "real numbers",
            ),
            (
                lambda: ImageSet(np.array([[1.0, "2"], [3.0, 4.0]], dtype=object), "c", "s1"),
                "real numbers",
            ),
            (
                lambda: ImageSet(np.array([[1.0, np.complex64(2j)]], dtype=object), "c", "s1"),
                "real numbers",
            ),
            (lambda: run_experiment(small_sets(), fast_cfg(), ablate="no"), "ablate .* got str"),
        ],
        ids=[
            "str", "complex", "complex-list", "complex-object", "ragged", "bool-list",
            "bool-in-float-list", "numpy-bool-in-float-list",
            "bool-array", "numeric-str-list", "numeric-str-array", "bytes-array", "bool-object",
            "str-object", "numpy-complex-object", "ablate-str",
        ],
    )
    def test_non_real_features_and_mistyped_ablate_raise_bad_spec(self, monkeypatch, run, match):
        encoded = spy(monkeypatch, experiment_module, "encode_sets")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no imaginary part is dropped with a warning
            with pytest.raises(BadSpec, match=match):
                run()
        assert encoded == []

    def test_tuple_accepted(self):
        sets = small_sets()
        assert report_splits(run_experiment(tuple(sets), fast_cfg(), n_splits=1)) == (
            report_splits(run_experiment(sets, fast_cfg(), n_splits=1))
        )


class TestTrainOnSets:
    def test_produces_working_model(self):
        sets = generate_synthetic(**small_source())
        model = train_on_sets(sets, fast_cfg())
        assert model.n_train == 12
        assert len(model.objective_trace) >= 1
        from setfuse.classify import predict

        hits = sum(1 for s in sets if predict(s, model).label == s.label)
        assert hits == len(sets)


class TestSeedDrawsOnlySplits:
    def test_training_does_not_read_the_seed(self):
        a, b = (train_on_sets(small_sets(), fast_cfg(seed=seed)) for seed in (1, 2))
        assert a.transform.tobytes() == b.transform.tobytes()
        assert a.gating.coeffs.tobytes() == b.gating.coeffs.tobytes()
        assert a.gating.biases.tobytes() == b.gating.biases.tobytes()
        assert a.objective_trace == b.objective_trace

    def test_seed_draws_the_splits(self, monkeypatch):
        # the set ids of each train call's galleries
        galleries = spy(
            monkeypatch, experiment_module, "train",
            lambda rows, labels, set_ids, cfg: [list(ids) for ids in set_ids],
        )
        for seed in (1, 2):
            run_experiment(small_sets(), fast_cfg(seed=seed), n_splits=2)
        assert len(galleries) == 2 and galleries[0] != galleries[1]


class TestRunExperiment:
    def test_report_shape_and_accuracy(self):
        report = run_experiment(small_sets(), fast_cfg(), n_splits=3)
        assert isinstance(report, ExperimentReport)
        assert len(report.splits) == 3
        assert report.accuracies.shape == (3,)
        assert 0.0 <= report.mean_accuracy <= 1.0
        assert report.mean_accuracy >= 0.5  # well separated classes
        for i, split in enumerate(report.splits):
            assert split.split_index == i
            assert split.seed == split_seed(fast_cfg().seed, i)
            assert split.n_train == 9
            assert split.n_test == 3
            assert split.train_seconds >= 0.0

    def test_reproducible(self):
        a = run_experiment(small_sets(), fast_cfg(), n_splits=2)
        b = run_experiment(small_sets(), fast_cfg(), n_splits=2)
        assert np.array_equal(a.accuracies, b.accuracies)
        assert a.splits[0].objective_trace == b.splits[0].objective_trace

    def test_sets_iterable_source(self):
        sets = generate_synthetic(**small_source())
        report = run_experiment(sets, fast_cfg(), n_splits=2)
        assert len(report.splits) == 2

    def test_manifest_source(self, tmp_path):
        sets = generate_synthetic(**small_source())
        manifest = save_dataset(sets, tmp_path / "ds")
        report = run_experiment(load_dataset(manifest), fast_cfg(), n_splits=2)
        direct = run_experiment(sets, fast_cfg(), n_splits=2)
        assert np.array_equal(report.accuracies, direct.accuracies)

    def test_bad_protocol_arguments(self):
        with pytest.raises(BadSpec):
            run_experiment(small_sets(), fast_cfg(), n_splits=0)
        with pytest.raises(BadSpec):
            run_experiment(small_sets(), fast_cfg(), train_per_class=0)

    @pytest.mark.parametrize(
        "kwargs",
        [{"n_splits": 2.0}, {"n_splits": True}, {"train_per_class": 3.0}],
        ids=["splits-float", "splits-bool", "train-float"],
    )
    def test_protocol_counts_must_be_integers(self, kwargs):
        with pytest.raises(BadSpec, match=next(iter(kwargs))):
            run_experiment(small_sets(), fast_cfg(), **kwargs)

    def test_ablation_rows(self):
        report = run_experiment(small_sets(), fast_cfg(), n_splits=2, ablate=True)
        assert report.ablation is not None
        assert sorted(report.ablation) == ["combined", "cov", "gauss", "subspace"]
        assert report.ablation["combined"].mean_accuracy == report.mean_accuracy
        for name in ("cov", "subspace", "gauss"):
            row = report.ablation[name]
            assert row.config.descriptors == (name,)
            assert len(row.splits) == 2

    def test_no_ablation_by_default(self):
        report = run_experiment(small_sets(), fast_cfg(), n_splits=1)
        assert report.ablation is None


class TestDimensionSweep:
    def test_one_report_per_dimension(self):
        sweep = run_dimension_sweep(
            small_sets(), fast_cfg(), target_dims=[2, 4], n_splits=2
        )
        assert sorted(sweep) == [2, 4]
        for dim, report in sweep.items():
            assert report.config.target_dim == dim
            assert len(report.splits) == 2

    @pytest.mark.parametrize(
        "kwargs", [{"n_splits": 0}, {"train_per_class": 0}], ids=["no-splits", "no-train"]
    )
    def test_bad_protocol_arguments_rejected_without_widths(self, kwargs):
        with pytest.raises(BadSpec, match=next(iter(kwargs))):
            run_dimension_sweep(small_sets(), fast_cfg(), target_dims=[2], **kwargs)

    @pytest.mark.parametrize(
        "target_dims, keys", [([2, 2], [2]), ([4, 2, 4], [4, 2])], ids=["twice", "first-seen"]
    )
    def test_each_width_runs_once(self, monkeypatch, target_dims, keys):
        # the cost ``run_dimension_sweep``'s docstring states: the protocol
        # runs once per distinct width, one train call training both splits
        calls = spy(
            monkeypatch, experiment_module, "train",
            lambda rows, labels, set_ids, cfg: [cfg.target_dim] * len(labels),
        )
        sweep = run_dimension_sweep(small_sets(), fast_cfg(), target_dims=target_dims, n_splits=2)
        assert list(sweep) == keys
        assert calls == [[dim, dim] for dim in keys]

    @pytest.mark.parametrize(
        "target_dims",
        [[], (), 4, None, "4", {4}],
        ids=["empty", "empty-tuple", "int", "none", "str", "set"],
    )
    def test_widths_must_be_a_non_empty_list_or_tuple(self, monkeypatch, target_dims):
        encoded = spy(monkeypatch, experiment_module, "encode_sets")
        with pytest.raises(BadSpec, match="target_dims"):
            run_dimension_sweep(small_sets(), fast_cfg(), target_dims=target_dims, n_splits=1)
        assert encoded == []

    @pytest.mark.parametrize("width", [2.5, True, "a", None])
    def test_widths_must_be_integers(self, width):
        with pytest.raises(BadSpec, match="target_dim"):
            run_dimension_sweep(small_sets(), fast_cfg(), target_dims=[width], n_splits=1)


def capped_sets():
    """The small sets, with every class0 set cut to 5 samples, so that each
    split caps a ``subspace_dim`` of 6 to 5."""
    return [
        ImageSet(features=s.features[:, :5] if s.label == "class0" else s.features,
                 label=s.label, set_id=s.set_id)
        for s in generate_synthetic(**small_source())
    ]


def reference_splits(sets, cfg, n_splits, train_per_class=3):
    """Each split through the public per-split path: ``split_sets``,
    ``train_on_sets`` and ``predict``, encoding every set afresh."""
    out = []
    for i in range(n_splits):
        seed = split_seed(cfg.seed, i)
        train_sets, test_sets = split_sets(sets, train_per_class, np.random.default_rng(seed))
        model = train_on_sets(train_sets, replace(cfg, seed=seed))
        hits = sum(1 for s in test_sets if predict(s, model).label == s.label)
        out.append(
            (hits / len(test_sets), model.objective_trace, seed, len(train_sets), len(test_sets))
        )
    return out


def report_splits(report):
    return [(s.accuracy, s.objective_trace, s.seed, s.n_train, s.n_test) for s in report.splits]


class TestSharedLiftsMatchPerSplitPath:
    """``run_experiment`` encodes and lifts each set once per call; every
    split must still report exactly what the per-split public path gives."""

    @pytest.mark.parametrize(
        "overrides, collection",
        [
            ({}, small_sets),
            ({"normalize_kernels": True}, small_sets),
            ({"descriptors": ("subspace",)}, small_sets),
            ({"learning_rate": 1.0}, small_sets),
            ({"learning_rate": 0.0}, small_sets),
            ({}, interleaved_sets),
            ({}, duplicated_sets),
        ],
        ids=[
            "default", "normalized", "single-descriptor", "rate-1", "rate-0", "interleaved",
            "duplicated",
        ],
    )
    def test_report_equals_reference(self, overrides, collection):
        sets = collection()
        cfg = fast_cfg(**overrides)
        report = run_experiment(sets, cfg, n_splits=3)
        assert report_splits(report) == reference_splits(sets, cfg, 3)

    def test_duplicated_sets_give_splits_of_two_span_ranks(self):
        # the "duplicated" report above covers a row whose splits train in
        # separate stacks: the span ranks of the three splits' Grams differ
        sets, cfg = duplicated_sets(), fast_cfg()
        ranks = set()
        for i in range(3):
            train_sets, _ = split_sets(sets, 3, np.random.default_rng(split_seed(cfg.seed, i)))
            bank = build_kernel_bank(encode_sets(train_sets, cfg), cfg.descriptors)
            ranks.add(int(gram_spans(np.array(bank.grams)[None])[1][0]))
        assert len(ranks) == 2

    def test_every_ablation_row_equals_reference(self):
        sets = generate_synthetic(**small_source())
        cfg = fast_cfg()
        report = run_experiment(sets, cfg, n_splits=2, ablate=True)
        for name, row in report.ablation.items():
            row_cfg = cfg if name == "combined" else replace(cfg, descriptors=(name,))
            assert report_splits(row) == reference_splits(sets, row_cfg, 2), name

    def test_every_sweep_width_equals_reference(self):
        sets = generate_synthetic(**small_source())
        cfg = fast_cfg()
        sweep = run_dimension_sweep(sets, cfg, target_dims=[2, 3, 4], n_splits=2)
        for dim, report in sweep.items():
            assert report_splits(report) == reference_splits(sets, replace(cfg, target_dim=dim), 2)

    def test_duplicate_set_ids_give_reference_report(self):
        sets = [
            ImageSet(features=s.features, label=s.label, set_id="dup")
            for s in generate_synthetic(**small_source())
        ]
        cfg = fast_cfg()
        report = run_experiment(sets, cfg, n_splits=3)
        assert report_splits(report) == reference_splits(sets, cfg, 3)

    def test_capped_subspace_dim_gives_reference_report(self):
        sets = capped_sets()
        cfg = fast_cfg(subspace_dim=6)
        report = run_experiment(sets, cfg, n_splits=3)
        assert report_splits(report) == reference_splits(sets, cfg, 3)

    def test_capped_reports_record_the_capped_config(self):
        sets = capped_sets()
        cfg = fast_cfg(subspace_dim=6)
        capped = replace(cfg, subspace_dim=5)
        train_sets, _ = split_sets(sets, 3, np.random.default_rng(split_seed(cfg.seed, 0)))
        assert train_on_sets(train_sets, cfg).config == capped
        report = run_experiment(sets, cfg, n_splits=1, ablate=True)
        assert report.config == capped
        for name, row in report.ablation.items():
            want = capped if name == "combined" else replace(capped, descriptors=(name,))
            assert row.config == want, name
        sweep = run_dimension_sweep(sets, cfg, target_dims=[2, 4], n_splits=1)
        assert [r.config for r in sweep.values()] == [
            replace(capped, target_dim=dim) for dim in (2, 4)
        ]


def gallery_count(rows, labels, set_ids, cfg):
    """The galleries of a ``train`` call: one stack of a split protocol row
    when, as here, its galleries share one span rank."""
    return len(labels)


class TestStackBudget:
    """README "Experiment cost": a report row's splits train in stacks of as
    many as ``stack_size`` allows, from the per-problem bytes and
    ``STACK_BYTES``."""

    def protocol_sets(self, sets_per_class, classes):
        return generate_synthetic(
            classes=classes, sets_per_class=sets_per_class, dim=10, samples=20, separation=3.0,
            seed=3,
        )

    def test_small_galleries_stack(self, monkeypatch):
        # the split protocol benchmark's rows: ten splits of N=50 galleries
        sizes = spy(monkeypatch, experiment_module, "train", gallery_count)
        sets = self.protocol_sets(10, 10)
        cfg = TrainConfig(subspace_dim=5, target_dim=8, iters=2, seed=3)
        run_experiment(sets, cfg, n_splits=10, train_per_class=5)
        size = trainer_module.stack_size(50, [100, 100, 121])
        assert size > 1
        assert sizes == [min(size, 10 - k) for k in range(0, 10, size)]

    def test_large_galleries_train_alone(self, monkeypatch):
        # an N=250 row, as large as the gallery training benchmark's gallery
        sizes = spy(monkeypatch, experiment_module, "train", gallery_count)
        sets = self.protocol_sets(51, 5)
        cfg = TrainConfig(subspace_dim=5, target_dim=8, iters=1, seed=3)
        run_experiment(sets, cfg, n_splits=2, train_per_class=50)
        assert trainer_module.stack_size(250, [100, 100, 121]) == 1
        assert sizes == [1, 1]

    @pytest.mark.parametrize(
        "n, dim, per_row",
        [(50, 10, 10), (250, 10, 1), (50, 32, 2), (50, 200, 1)],
        ids=["N50-d10", "N250-d10", "N50-d32", "N50-d200"],
    )
    def test_the_budget_counts_the_gallery_rows(self, n, dim, per_row):
        # a problem's lifted rows (N x sum D_q) count with its Grams, span
        # columns and basis: at d=200 the rows of one N=50 gallery take 48 MB
        widths = [kernels_module.lift_width(name, dim) for name in kernels_module.DESCRIPTOR_NAMES]
        # the galleries of a ten-split row that one stack holds
        assert min(trainer_module.stack_size(n, widths), 10) == per_row

    def test_each_stack_is_scored_before_the_next_is_copied(self, monkeypatch):
        # README "Experiment cost": a row gathers a stack's training rows (one
        # fresh read-only, C-contiguous array per channel, whose views the
        # models keep), trains them with one call of at most ``stack_size``
        # galleries and scores every split of the stack, its test rows in one
        # call, before it trains the next stack, by which time the rows are
        # freed. N=50, d=32 galleries train in stacks of two.
        events = []  # ("train", gallery count), ("score", probe count)
        gathered = []  # a weak reference to each stack's gathered rows

        def training(rows, labels, set_ids, cfg):
            assert all(ref() is None for ref in gathered)
            assert all(r.flags.owndata and r.flags.c_contiguous for r in rows)
            assert not any(r.flags.writeable for r in rows)
            gathered.extend(weakref.ref(r) for r in rows)
            events.append(("train", len(labels)))

        spy(monkeypatch, experiment_module, "train", training)
        spy(
            monkeypatch, experiment_module, "distance_profile",
            lambda rows, model: events.append(("score", len(rows[0]))),
        )
        sets = generate_synthetic(
            classes=10, sets_per_class=10, dim=32, samples=20, separation=3.0, seed=3
        )
        cfg = TrainConfig(subspace_dim=5, target_dim=8, iters=2, seed=3)
        run_experiment(sets, cfg, n_splits=10, train_per_class=5)
        assert events == [("train", 2), ("score", 50), ("score", 50)] * 5
        assert len(gathered) == 5 * 3


class TestEncodeOncePerCall:
    """README "Experiment cost": one call encodes each set once and lifts
    each Gaussian embedding once through ``spd_log``, which is the only
    matrix ``spd_log`` lifts; ``encode_sets`` takes each covariance's log
    with its basis."""

    @staticmethod
    def counted(monkeypatch, run):
        """The sets encoded and the matrices ``spd_log`` lifted by ``run()``."""
        encoded = spy(monkeypatch, experiment_module, "encode_sets", lambda sets, cfg: len(sets))
        lifted = spy(monkeypatch, kernels_module, "spd_log", stack_length)
        run()
        return sum(encoded), sum(lifted)

    @pytest.mark.parametrize(
        "run",
        [
            lambda sets: run_experiment(sets, fast_cfg(), n_splits=3),
            lambda sets: run_experiment(sets, fast_cfg(), n_splits=2, ablate=True),
            lambda sets: run_dimension_sweep(sets, fast_cfg(), target_dims=[2, 4], n_splits=2),
        ],
        ids=["run_experiment", "ablation", "dimension_sweep"],
    )
    def test_each_set_once(self, monkeypatch, run):
        sets = small_sets()
        assert self.counted(monkeypatch, lambda: run(sets)) == (len(sets), len(sets))

    def test_nothing_shared_across_calls(self, monkeypatch):
        sets = small_sets()

        def twice():
            run_experiment(sets, fast_cfg(), n_splits=1)
            run_experiment(sets, fast_cfg(), n_splits=1)

        assert self.counted(monkeypatch, twice)[0] == 2 * len(sets)


def profile_shapes(rows, model):
    """The channel and probe counts of a ``distance_profile`` call."""
    return len(rows), len(rows[0])


class TestOneProbePath:
    """README "Prediction cost" and "Experiment cost": ``predict`` scores its
    probe, a stack of one, and every split of a split protocol its stack of
    test sets, with one ``distance_profile`` call."""

    def test_predict_calls_distance_profile_once(self, monkeypatch):
        calls = spy(monkeypatch, classify_module, "distance_profile", profile_shapes)
        sets = generate_synthetic(**small_source())
        model = train_on_sets(sets[:9], fast_cfg())
        for s in sets[9:]:
            predict(s, model)
        assert calls == [(3, 1)] * 3

    @pytest.mark.parametrize("ablate", [False, True], ids=["combined", "ablate"])
    def test_one_call_per_split(self, monkeypatch, ablate):
        calls = spy(monkeypatch, experiment_module, "distance_profile", profile_shapes)
        report = run_experiment(small_sets(), fast_cfg(), n_splits=3, ablate=ablate)
        rows = report.ablation.values() if ablate else [report]
        want = [(len(r.config.descriptors), s.n_test) for r in rows for s in r.splits]
        assert sorted(calls) == sorted(want)


class TestErrorsKeepTheirClass:
    def test_short_test_set_raises_too_few_samples(self):
        sets = generate_synthetic(**small_source())
        sets[5] = ImageSet(features=sets[5].features[:, :3], label=sets[5].label, set_id="short")
        cfg = fast_cfg()
        with pytest.raises(TooFewSamples):
            reference_splits(sets, cfg, 4)
        with pytest.raises(TooFewSamples):
            run_experiment(sets, cfg, n_splits=4)

    def test_mixed_dimensions_raise_dimension_mismatch(self):
        sets = generate_synthetic(**small_source())
        sets[7] = ImageSet(features=sets[7].features[:5], label=sets[7].label, set_id="narrow")
        cfg = fast_cfg()
        with pytest.raises(DimensionMismatch):
            reference_splits(sets, cfg, 4)
        with pytest.raises(DimensionMismatch):
            run_experiment(sets, cfg, n_splits=4)


class TestMixedDimensionsRejectedFirst:
    """A set narrower than ``subspace_dim`` raises ``DimensionMismatch``
    naming it, wherever it sits, before any set is encoded."""

    @staticmethod
    def narrow_sets(position):
        sets = generate_synthetic(**small_source())  # 6-dimensional
        s = sets[position]
        sets[position] = ImageSet(features=s.features[:3], label=s.label, set_id="narrow")
        return sets

    # with the narrow set first, set 1 is the first that differs from set 0
    @pytest.mark.parametrize("position, named", [(0, "set 1 "), (7, "set 7 ")])
    def test_train_on_sets(self, monkeypatch, position, named):
        encoded = spy(monkeypatch, experiment_module, "encode_sets")
        with pytest.raises(DimensionMismatch, match=named):
            train_on_sets(self.narrow_sets(position), fast_cfg(subspace_dim=4))
        assert encoded == []

    @pytest.mark.parametrize("position, named", [(0, "set 1 "), (7, "set 7 ")])
    def test_run_experiment(self, monkeypatch, position, named):
        encoded = spy(monkeypatch, experiment_module, "encode_sets")
        with pytest.raises(DimensionMismatch, match=named):
            run_experiment(self.narrow_sets(position), fast_cfg(subspace_dim=4), n_splits=2)
        assert encoded == []

    @pytest.mark.parametrize("position, named", [(0, "set 1 "), (7, "set 7 ")])
    def test_split_sets(self, position, named):
        with pytest.raises(DimensionMismatch, match=named):
            split_sets(self.narrow_sets(position), 1, np.random.default_rng(0))


def test_short_test_set_rejected_before_encoding(monkeypatch):
    # README "Experiment cost": the checks come first
    encoded = spy(monkeypatch, experiment_module, "encode_sets")
    sets = generate_synthetic(**small_source())
    sets[5] = ImageSet(features=sets[5].features[:, :3], label=sets[5].label, set_id="short")
    with pytest.raises(TooFewSamples, match="'short'"):
        run_experiment(sets, fast_cfg(), n_splits=4)
    assert encoded == []


def spoiled(faults, ragged=False):
    """The small source's sets, with set i made to fail encoding with
    ``faults[i]``: scaled until its covariance overflows (``NonFinite``) or
    squeezed to rank 1 (``RankDeficient`` at subspace_dim 4). With
    ``ragged``, set i keeps 12 - i % 3 samples, three interleaved groups."""
    out = []
    for i, s in enumerate(generate_synthetic(**small_source())):
        x = s.features[:, : 12 - i % 3] if ragged else s.features
        if faults.get(i) is NonFinite:
            x = x * 1e200
        elif faults.get(i) is RankDeficient:
            x = np.outer(x[:, 0], np.arange(1.0, x.shape[1] + 1))
        out.append(ImageSet(features=x, label=s.label, set_id=f"s{i}"))
    return out


FAULTS = {
    "non-finite": {3: NonFinite, 7: NonFinite},
    "rank": {3: RankDeficient, 7: RankDeficient},
    # set 3 fails a check that runs after set 7's; set 3 is still the first at fault
    "rank-then-non-finite": {3: RankDeficient, 7: NonFinite},
    "non-finite-then-rank": {3: NonFinite, 7: RankDeficient},
}


class TestEncodingErrorsNameTheFirstSet:
    """An encoding error is typed and names the first set at fault,
    ``set i ('<set_id>')``, in one sample-count group or across several,
    and raises no numpy warning on the way."""

    @pytest.mark.parametrize("ragged", [False, True], ids=["one-group", "ragged"])
    @pytest.mark.parametrize("faults", FAULTS.values(), ids=FAULTS.keys())
    @pytest.mark.parametrize(
        "run",
        [
            lambda sets: train_on_sets(sets, fast_cfg()),
            lambda sets: run_experiment(sets, fast_cfg(), n_splits=2),
        ],
        ids=["train_on_sets", "run_experiment"],
    )
    def test_names_set_3(self, run, faults, ragged):
        sets = spoiled(faults, ragged)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(faults[3], match=r"^set 3 \('s3'\): "):
                run(sets)

    @pytest.mark.parametrize("fault", [NonFinite, RankDeficient])
    def test_predict_names_the_probe(self, fault):
        model = train_on_sets(spoiled({}), fast_cfg())
        probe = spoiled({3: fault})[3]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(fault, match=r"^set 0 \('s3'\): "):
                predict(probe, model)
