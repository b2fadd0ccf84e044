"""Classifier tests: distance profiles and nearest-neighbor prediction."""

import logging
from dataclasses import replace

import numpy as np
import pytest

from setfuse.classify import Prediction, distance_profile, predict
from setfuse.config import TrainConfig
from setfuse.data import generate_synthetic
from setfuse.descriptors import ImageSet, encode_sets
from setfuse.errors import BadSpec
from setfuse.experiment import train_on_sets
from setfuse.gating import softmax_columns
from setfuse.kernels import lift_features
from setfuse.persistence import load_model, save_model

from helpers import (
    build_kernel_bank,
    model_bank,
    probe_rows,
    random_gallery_sets,
    rows,
    scalar_kernel_column,
    train_one,
)


def trained_model(seed, n_classes=3, sets_per_class=3, target_dim=3, iters=4, normalize=False):
    rng = np.random.default_rng(seed)
    sets = random_gallery_sets(
        rng, n_classes=n_classes, sets_per_class=sets_per_class, d=6, n=14
    )
    cfg = TrainConfig(
        subspace_dim=3, target_dim=target_dim, iters=iters, seed=seed, normalize_kernels=normalize
    )
    gallery = encode_sets(sets, cfg)
    labels = np.array([s.label for s in sets])
    bank = build_kernel_bank(gallery, cfg.descriptors)
    model = train_one(bank.features, labels, [s.set_id for s in sets], cfg)
    return model, sets, gallery


def naive_distance(test, model, gallery, i):
    """Term-by-term reference: per-channel projected squared distances, with
    the probe's kernel column built from the scalar kernels."""
    total = 0.0
    crosses = [
        scale * scalar_kernel_column(channel, test, gallery)
        for channel, scale in zip(model.config.descriptors, model.scales)
    ]
    bank = model_bank(model)
    scores = np.array(
        [
            float(model.gating.coeffs[q] @ crosses[q] + model.gating.biases[q])
            for q in range(bank.n_kernels)
        ]
    )
    test_w = softmax_columns(scores[:, None])[:, 0]
    for q in range(bank.n_kernels):
        diff = crosses[q] - bank.grams[q][:, i]
        proj = model.transform.T @ diff
        total += test_w[q] * float(proj @ proj) * model.train_weights[q, i]
    return total


def profile_of(probe, model):
    """The distance profile of a probe (a stack of one set's descriptors):
    row 0 of ``distance_profile`` of its stack of one per channel."""
    return distance_profile(probe_rows(probe, model.config.descriptors), model)[0]


class TestDistanceProfile:
    def test_gallery_member_is_closest_to_itself(self):
        model, _, gallery = trained_model(110)
        for i in (0, 4, 8):
            profile = profile_of(rows(gallery, i), model)
            assert int(np.argmin(profile)) == i
            assert profile[i] <= 1e-9

    def test_matches_naive_per_pair_computation(self):
        # trace-N normalization puts each channel's scale into the probe maps
        for normalize in (False, True):
            model, _, gallery = trained_model(111, normalize=normalize)
            assert all((s != 1.0) == normalize for s in model.scales)
            probe = rows(gallery, 2)
            profile = profile_of(probe, model)
            scale = max(1.0, float(np.max(np.abs(profile))))
            for i in range(model.n_train):
                assert abs(profile[i] - naive_distance(probe, model, gallery, i)) <= 1e-10 * scale

    def test_nonnegative(self):
        model, sets, _ = trained_model(112)
        rng = np.random.default_rng(1120)
        probe = ImageSet(
            features=rng.standard_normal((6, 14)), label="?", set_id="probe"
        )
        profile = profile_of(encode_sets([probe], model.config), model)
        assert np.all(profile >= -1e-12)

    def test_zero_transform_gives_zero_profile(self):
        model, _, gallery = trained_model(113)
        zeroed = replace(model, transform=np.zeros_like(model.transform))
        profile = profile_of(rows(gallery, 0), zeroed)
        assert np.array_equal(profile, np.zeros(model.n_train))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_a_rotated_transform_measures_the_same_distances(self, seed):
        # every distance reads the transform E through its span: ||E.T x||
        # is the same for E and E R, R orthogonal, so training need not fix
        # an orientation of E
        sets = generate_synthetic(
            classes=3, sets_per_class=6, dim=6, samples=14, separation=2.0, seed=seed
        )
        gallery, probes = sets[0::2], sets[1::2]
        model = train_on_sets(gallery, TrainConfig(subspace_dim=3, target_dim=4, iters=4))
        p = model.transform.shape[1]
        r = np.linalg.qr(np.random.default_rng(seed).standard_normal((p, p)))[0]
        rotated = replace(model, transform=model.transform @ r)
        for probe in probes:
            a, b = predict(probe, model), predict(probe, rotated)
            assert b.label == a.label
            assert np.max(np.abs(b.distances - a.distances)) <= 1e-12 * np.max(a.distances)

    def test_probe_weights_sum_to_one_effect(self):
        # shifting every gating bias by a constant leaves distances unchanged
        model, _, gallery = trained_model(114)
        shifted_gating = type(model.gating)(
            coeffs=model.gating.coeffs, biases=model.gating.biases + 3.0
        )
        shifted = replace(model, gating=shifted_gating)
        a = profile_of(rows(gallery, 1), model)
        b = profile_of(rows(gallery, 1), shifted)
        assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, float(np.max(np.abs(a))))



class TestPredict:
    def test_training_sets_recovered(self):
        model, sets, _ = trained_model(118)
        for s in sets:
            pred = predict(s, model)
            assert pred.label == s.label

    def test_perturbed_copy_keeps_label(self):
        model, sets, _ = trained_model(119)
        rng = np.random.default_rng(1190)
        base = sets[0]
        noisy = ImageSet(
            features=base.features + 0.01 * rng.standard_normal(base.features.shape),
            label="?",
            set_id="noisy",
        )
        assert predict(noisy, model).label == base.label

    def test_tie_breaks_to_lowest_index(self):
        model, _, gallery = trained_model(120)
        flat = replace(model, transform=np.zeros_like(model.transform))
        # zero transform makes every distance zero, an N-way tie
        pred_profile = profile_of(rows(gallery, 5), flat)
        assert np.array_equal(pred_profile, np.zeros(model.n_train))
        idx = int(np.argmin(pred_profile))
        assert idx == 0
        assert flat.labels[idx] == flat.labels[0]

    def test_prediction_fields(self):
        model, sets, _ = trained_model(121)
        pred = predict(sets[4], model)
        assert isinstance(pred, Prediction)
        assert pred.distances.shape == (model.n_train,)
        assert pred.nearest_index == int(np.argmin(pred.distances))
        assert pred.label == model.labels[pred.nearest_index]
        assert not pred.distances.flags.writeable

    def test_constant_sets_train_and_predict_with_a_warning(self, caplog):
        # a constant set's covariance takes the trace floor, which is logged
        sets = generate_synthetic(
            classes=2, sets_per_class=4, dim=5, samples=10, separation=3.0, seed=123
        )
        flat = ImageSet(features=np.ones((5, 10)), label=sets[0].label, set_id="flat")
        with caplog.at_level(logging.WARNING, logger="setfuse"):
            model = train_on_sets(sets + [flat], TrainConfig(subspace_dim=1, target_dim=2, iters=2))
            predict(ImageSet(features=np.full((5, 8), 2.0), label="?", set_id="probe"), model)
        assert [r.getMessage().rsplit("; ", 1)[1] for r in caplog.records] == [
            "the first is set 8 ('flat')",
            "the first is set 0 ('probe')",
        ]

    @pytest.mark.parametrize(
        "probe",
        [np.ones((6, 12)), None, "probe.csv"],
        ids=["array", "none", "str"],
    )
    def test_probe_must_be_an_image_set(self, probe):
        model, _, _ = trained_model(122)
        with pytest.raises(BadSpec, match="ImageSet"):
            predict(probe, model)


class TestStackedProbes:
    """A stack of T probes, scored with one ``distance_profile`` call, agrees
    with the same probes scored one at a time, and a stack of one is what
    ``predict`` gives; on a trained model and on its saved-and-loaded copy."""

    @pytest.fixture(params=["in-memory", "loaded"])
    def stacked(self, request, tmp_path):
        sets = generate_synthetic(
            classes=4, sets_per_class=10, dim=12, samples=20, separation=3.0, seed=130
        )
        gallery, probes = sets[::2], sets[1::2]
        cfg = TrainConfig(subspace_dim=3, target_dim=4, iters=3, seed=130)
        model = train_on_sets(gallery, cfg)
        if request.param == "loaded":
            save_model(model, tmp_path / "m")
            model = load_model(tmp_path / "m")
        stack = encode_sets(probes, model.config)
        rows = [lift_features(stack, name) for name in model.config.descriptors]
        return model, probes, rows

    def test_a_stack_agrees_with_one_probe_at_a_time(self, stacked):
        model, probes, rows = stacked
        profile = distance_profile(rows, model)
        assert profile.shape == (len(probes), model.n_train)
        for t, s in enumerate(probes):
            one = distance_profile([r[t : t + 1] for r in rows], model)[0]
            assert int(np.argmin(profile[t])) == int(np.argmin(one))
            assert np.max(np.abs(profile[t] - one)) <= 1e-13 * np.max(one)
            # a stack of one is what predict scores, bit for bit
            assert np.array_equal(one, predict(s, model).distances)

    def test_every_gallery_member_probes_to_itself_in_one_call(self, stacked):
        # the bound of perfbench's self-probe check, for every member at once
        model, _, _ = stacked
        profile = distance_profile(model.features, model)
        for i, d in enumerate(profile):
            assert int(np.argmin(d)) == i
            assert d[i] <= 1e-12 * max(float(np.median(d)), 1.0)
