"""Classifier tests: distance profiles and nearest-neighbor prediction."""

from dataclasses import replace

import numpy as np
import pytest

from setfuse.classify import Prediction, distance_profile, predict
from setfuse.config import TrainConfig
from setfuse.descriptors import ImageSet, encode_sets
from setfuse.errors import BadSpec
from setfuse.gating import softmax_columns

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


class TestDistanceProfile:
    def test_gallery_member_is_closest_to_itself(self):
        model, _, gallery = trained_model(110)
        for i in (0, 4, 8):
            profile = distance_profile(probe_rows(rows(gallery, i), model.config.descriptors), model)
            assert int(np.argmin(profile)) == i
            assert profile[i] <= 1e-9

    def test_matches_naive_per_pair_computation(self):
        # trace-N normalization puts each channel's scale into the probe maps
        for normalize in (False, True):
            model, _, gallery = trained_model(111, normalize=normalize)
            assert all((s != 1.0) == normalize for s in model.scales)
            probe = rows(gallery, 2)
            profile = distance_profile(probe_rows(probe, model.config.descriptors), model)
            scale = max(1.0, float(np.max(np.abs(profile))))
            for i in range(model.n_train):
                assert abs(profile[i] - naive_distance(probe, model, gallery, i)) <= 1e-10 * scale

    def test_nonnegative(self):
        model, sets, _ = trained_model(112)
        rng = np.random.default_rng(1120)
        probe = ImageSet(
            features=rng.standard_normal((6, 14)), label="?", set_id="probe"
        )
        lifted = probe_rows(encode_sets([probe], model.config), model.config.descriptors)
        profile = distance_profile(lifted, model)
        assert np.all(profile >= -1e-12)

    def test_zero_transform_gives_zero_profile(self):
        model, _, gallery = trained_model(113)
        zeroed = replace(model, transform=np.zeros_like(model.transform))
        profile = distance_profile(probe_rows(rows(gallery, 0), zeroed.config.descriptors), zeroed)
        assert np.array_equal(profile, np.zeros(model.n_train))

    def test_probe_weights_sum_to_one_effect(self):
        # shifting every gating bias by a constant leaves distances unchanged
        model, _, gallery = trained_model(114)
        shifted_gating = type(model.gating)(
            coeffs=model.gating.coeffs, biases=model.gating.biases + 3.0
        )
        shifted = replace(model, gating=shifted_gating)
        a = distance_profile(probe_rows(rows(gallery, 1), model.config.descriptors), model)
        b = distance_profile(probe_rows(rows(gallery, 1), shifted.config.descriptors), shifted)
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
        pred_profile = distance_profile(probe_rows(rows(gallery, 5), flat.config.descriptors), flat)
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

    @pytest.mark.parametrize(
        "probe",
        [np.ones((6, 12)), None, "probe.csv"],
        ids=["array", "none", "str"],
    )
    def test_probe_must_be_an_image_set(self, probe):
        model, _, _ = trained_model(122)
        with pytest.raises(BadSpec, match="ImageSet"):
            predict(probe, model)
