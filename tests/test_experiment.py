"""Experiment orchestration tests: splits, protocols, sweeps, ablation."""

import numpy as np
import pytest

from setfuse.config import TrainConfig
from setfuse.data import generate_synthetic
from setfuse.errors import InsufficientSetsPerClass
from setfuse.experiment import (
    ExperimentReport,
    effective_subspace_dim,
    encode_gallery,
    run_dimension_sweep,
    run_experiment,
    split_seed,
    split_sets,
    train_on_sets,
)

from helpers import random_image_set


def small_source():
    return dict(
        classes=3, sets_per_class=4, dim=6, samples=12, separation=5.0, seed=21
    )


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


class TestEncodeGallery:
    def test_subspace_dim_capped_by_samples(self):
        rng = np.random.default_rng(140)
        sets = [
            random_image_set(rng, d=8, n=5, label=f"c{i}", set_id=f"s{i}")
            for i in range(2)
        ]
        triples, cfg = encode_gallery(sets, fast_cfg(subspace_dim=10))
        assert cfg.subspace_dim == 5
        assert triples[0].subspace.basis.shape == (8, 5)

    def test_effective_dim_floor_is_one(self):
        rng = np.random.default_rng(141)
        sets = [random_image_set(rng, d=4, n=2)]
        assert effective_subspace_dim(sets, 10) == 2
        assert effective_subspace_dim(sets, 0) == 1


class TestTrainOnSets:
    def test_produces_working_model(self):
        sets = generate_synthetic(**small_source())
        model = train_on_sets(sets, fast_cfg())
        assert model.n_train == 12
        assert len(model.objective_trace) >= 1
        from setfuse.classify import predict

        hits = sum(1 for s in sets if predict(s, model).label == s.label)
        assert hits == len(sets)


class TestRunExperiment:
    def test_report_shape_and_accuracy(self):
        report = run_experiment(small_source(), fast_cfg(), n_splits=3)
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
        a = run_experiment(small_source(), fast_cfg(), n_splits=2)
        b = run_experiment(small_source(), fast_cfg(), n_splits=2)
        assert np.array_equal(a.accuracies, b.accuracies)
        assert a.splits[0].objective_trace == b.splits[0].objective_trace

    def test_sets_iterable_source(self):
        sets = generate_synthetic(**small_source())
        report = run_experiment(sets, fast_cfg(), n_splits=2)
        assert len(report.splits) == 2

    def test_manifest_source(self, tmp_path):
        from setfuse.data import save_dataset

        sets = generate_synthetic(**small_source())
        manifest = save_dataset(sets, tmp_path / "ds")
        report = run_experiment(manifest, fast_cfg(), n_splits=2)
        direct = run_experiment(sets, fast_cfg(), n_splits=2)
        assert np.array_equal(report.accuracies, direct.accuracies)

    def test_bad_protocol_arguments(self):
        with pytest.raises(ValueError):
            run_experiment(small_source(), fast_cfg(), n_splits=0)
        with pytest.raises(ValueError):
            run_experiment(small_source(), fast_cfg(), train_per_class=0)

    def test_ablation_rows(self):
        report = run_experiment(small_source(), fast_cfg(), n_splits=2, ablate=True)
        assert report.ablation is not None
        assert sorted(report.ablation) == ["combined", "cov", "gauss", "subspace"]
        assert report.ablation["combined"].mean_accuracy == report.mean_accuracy
        for name in ("cov", "subspace", "gauss"):
            row = report.ablation[name]
            assert row.config.descriptors == (name,)
            assert len(row.splits) == 2

    def test_no_ablation_by_default(self):
        report = run_experiment(small_source(), fast_cfg(), n_splits=1)
        assert report.ablation is None


class TestDimensionSweep:
    def test_one_report_per_dimension(self):
        sweep = run_dimension_sweep(
            small_source(), fast_cfg(), target_dims=[2, 4], n_splits=2
        )
        assert sorted(sweep) == [2, 4]
        for dim, report in sweep.items():
            assert report.config.target_dim == dim
            assert len(report.splits) == 2
