"""Gating tests: softmax weights, analytic gradients, ascent step."""

import numpy as np
import pytest

from setfuse.errors import NonFiniteGradient
from setfuse.gating import (
    GatingParams,
    class_layout,
    class_means,
    gating_weights,
    gradient_ascent_step,
    stack_layouts,
)

from helpers import (
    brute_force_gating_gradients,
    gating_gradients,
    kernel_bank,
    random_bank,
    random_labels,
    random_orthonormal,
    scatter_matrices,
    trace_ratio_objective,
)


def zero_params(n_kernels, n):
    return GatingParams(coeffs=np.zeros((n_kernels, n)), biases=np.zeros(n_kernels))


def small_params(rng, n_kernels, n):
    """Small random gating parameters: coeffs within 0.01 / n, biases within 0.01."""
    return GatingParams(
        coeffs=rng.uniform(-0.01 / n, 0.01 / n, (n_kernels, n)),
        biases=rng.uniform(-0.01, 0.01, n_kernels),
    )


def objective_at(bank, labels, params, transform):
    weights = gating_weights(bank.grams, params)
    scatter = scatter_matrices(bank, labels, weights)
    return trace_ratio_objective(transform, scatter)


class TestGatingWeights:
    def test_zero_params_give_uniform(self):
        rng = np.random.default_rng(60)
        bank = random_bank(rng, 5, 3)
        w = gating_weights(bank.grams, zero_params(3, 5))
        assert np.allclose(w, 1.0 / 3.0, atol=1e-15)

    def test_single_kernel_weight_is_one(self):
        rng = np.random.default_rng(61)
        bank = random_bank(rng, 4, 1)
        w = gating_weights(bank.grams, zero_params(1, 4))
        assert np.array_equal(w, np.ones((1, 4)))

    def test_large_bias_saturates(self):
        rng = np.random.default_rng(62)
        bank = random_bank(rng, 4, 3)
        params = GatingParams(coeffs=np.zeros((3, 4)), biases=np.array([50.0, 0.0, 0.0]))
        w = gating_weights(bank.grams, params)
        assert np.all(w[0] >= 1.0 - 1e-20)

    def test_bias_shift_invariance(self):
        rng = np.random.default_rng(63)
        bank = random_bank(rng, 6, 3)
        params = small_params(rng, 3, 6)
        shifted = GatingParams(coeffs=params.coeffs, biases=params.biases + 7.0)
        a = gating_weights(bank.grams, params)
        b = gating_weights(bank.grams, shifted)
        assert np.max(np.abs(a - b)) <= 1e-12

    def test_columns_sum_to_one(self):
        rng = np.random.default_rng(64)
        bank = random_bank(rng, 8, 3)
        params = GatingParams(
            coeffs=rng.uniform(-1, 1, (3, 8)), biases=rng.uniform(-1, 1, 3)
        )
        w = gating_weights(bank.grams, params)
        assert np.max(np.abs(w.sum(axis=0) - 1.0)) <= 1e-12
        assert np.all(w > 0)

    def test_extreme_scores_do_not_overflow(self):
        rng = np.random.default_rng(65)
        bank = random_bank(rng, 3, 2)
        params = GatingParams(
            coeffs=np.zeros((2, 3)), biases=np.array([700.0, -700.0])
        )
        w = gating_weights(bank.grams, params)
        assert np.isfinite(w).all()


class TestGatingGradients:
    def test_single_kernel_gradient_exactly_zero(self):
        rng = np.random.default_rng(68)
        bank = random_bank(rng, 6, 1)
        labels = random_labels(rng, 6)
        e = random_orthonormal(rng, 6, 2)
        gc, gb = gating_gradients(bank, zero_params(1, 6), e, labels)
        assert np.array_equal(gc, np.zeros((1, 6)))
        assert np.array_equal(gb, np.zeros(1))

    def test_matches_central_finite_differences(self):
        # master correctness property for the whole gradient path
        rng = np.random.default_rng(69)
        h = 1e-5
        worst = 0.0
        for _ in range(12):
            n = int(rng.integers(5, 13))
            n_kernels = int(rng.integers(2, 4))
            dw = int(rng.integers(1, 4))
            labels = random_labels(rng, n)
            bank = random_bank(rng, n, n_kernels)
            params = GatingParams(
                coeffs=rng.uniform(-0.5, 0.5, (n_kernels, n)),
                biases=rng.uniform(-0.5, 0.5, n_kernels),
            )
            e = random_orthonormal(rng, n, dw)
            gc, gb = gating_gradients(bank, params, e, labels)
            for q in range(n_kernels):
                for m in range(n):
                    cp = params.coeffs.copy()
                    cp[q, m] += h
                    cm = params.coeffs.copy()
                    cm[q, m] -= h
                    fd = (
                        objective_at(bank, labels, GatingParams(cp, params.biases), e)
                        - objective_at(bank, labels, GatingParams(cm, params.biases), e)
                    ) / (2 * h)
                    rel = abs(gc[q, m] - fd) / max(abs(fd), abs(gc[q, m]), 1e-6)
                    worst = max(worst, rel)
                bp = params.biases.copy()
                bp[q] += h
                bm = params.biases.copy()
                bm[q] -= h
                fd = (
                    objective_at(bank, labels, GatingParams(params.coeffs, bp), e)
                    - objective_at(bank, labels, GatingParams(params.coeffs, bm), e)
                ) / (2 * h)
                rel = abs(gb[q] - fd) / max(abs(fd), abs(gb[q]), 1e-6)
                worst = max(worst, rel)
        assert worst <= 1e-4

    def test_matches_brute_force_pairwise(self):
        rng = np.random.default_rng(77)
        worst = 0.0
        for _ in range(10):
            n = int(rng.integers(4, 16))
            n_kernels = int(rng.integers(1, 4))
            labels = random_labels(rng, n, n_classes=int(rng.integers(2, 5)))
            bank = random_bank(rng, n, n_kernels)
            params = GatingParams(
                coeffs=rng.uniform(-0.5, 0.5, (n_kernels, n)),
                biases=rng.uniform(-0.5, 0.5, n_kernels),
            )
            e = random_orthonormal(rng, n, int(rng.integers(1, 4)))
            got = gating_gradients(bank, params, e, labels)
            ref = brute_force_gating_gradients(bank, params, e, labels)
            for g, r in zip(got, ref):
                scale = max(float(np.max(np.abs(r))), 1e-300)
                worst = max(worst, float(np.max(np.abs(g - r))) / scale)
        assert worst <= 1e-10

    def test_identical_grams_give_identical_gradients(self):
        rng = np.random.default_rng(70)
        base = random_bank(rng, 6, 1)
        from setfuse.kernels import DESCRIPTOR_NAMES

        bank = kernel_bank(DESCRIPTOR_NAMES, (base.features[0],) * 3)
        labels = random_labels(rng, 6)
        e = random_orthonormal(rng, 6, 2)
        gc, gb = gating_gradients(bank, zero_params(3, 6), e, labels)
        for q in (1, 2):
            assert np.max(np.abs(gc[q] - gc[0])) <= 1e-10
            assert abs(gb[q] - gb[0]) <= 1e-10


class TestGradientAscentStep:
    def test_zero_gradient_is_identity(self):
        rng = np.random.default_rng(71)
        params = small_params(rng, 3, 5)
        out = gradient_ascent_step(params, (np.zeros((3, 5)), np.zeros(3)), 1e-4)
        assert np.array_equal(out.coeffs, params.coeffs)
        assert np.array_equal(out.biases, params.biases)

    def test_zero_learning_rate_is_identity(self):
        rng = np.random.default_rng(72)
        params = small_params(rng, 3, 5)
        grads = (rng.standard_normal((3, 5)), rng.standard_normal(3))
        out = gradient_ascent_step(params, grads, 0.0)
        assert np.array_equal(out.coeffs, params.coeffs)
        assert np.array_equal(out.biases, params.biases)

    def test_step_does_not_decrease_objective(self):
        rng = np.random.default_rng(73)
        n, n_kernels = 8, 3
        bank = random_bank(rng, n, n_kernels)
        labels = random_labels(rng, n)
        params = GatingParams(
            coeffs=rng.uniform(-0.3, 0.3, (n_kernels, n)),
            biases=rng.uniform(-0.3, 0.3, n_kernels),
        )
        e = random_orthonormal(rng, n, 2)
        grads = gating_gradients(bank, params, e, labels)
        before = objective_at(bank, labels, params, e)
        rate = 1e-4
        for _ in range(6):
            after = objective_at(
                bank, labels, gradient_ascent_step(params, grads, rate), e
            )
            if after >= before:
                break
            rate /= 10.0
        assert after >= before

    def test_rejects_non_finite_gradient(self):
        rng = np.random.default_rng(74)
        params = small_params(rng, 2, 4)
        bad = (np.full((2, 4), np.nan), np.zeros(2))
        with pytest.raises(NonFiniteGradient):
            gradient_ascent_step(params, bad, 1e-4)

    def test_inputs_untouched(self):
        rng = np.random.default_rng(75)
        params = small_params(rng, 2, 4)
        before = params.coeffs.copy()
        grads = (np.ones((2, 4)), np.ones(2))
        gradient_ascent_step(params, grads, 0.5)
        assert np.array_equal(params.coeffs, before)


class TestPairCounts:
    def test_counts_include_self_pairs(self):
        labels = np.array(["a", "a", "b"])
        classes = class_layout(labels)
        n_within, n_between = classes.n_within, classes.n_between
        assert n_within == 5  # (0,0),(0,1),(1,0),(1,1),(2,2)
        assert n_between == 4  # (0,2),(2,0),(1,2),(2,1)


class TestClassMeans:
    def test_one_channel_all_channels_and_a_stack_agree(self):
        # one channel's call (1 x m x N), the call over Q channels and a stack
        # of galleries give the same bits, and the weighted class means
        rng = np.random.default_rng(76)
        labels = random_labels(rng, 9)
        classes = class_layout(labels)
        columns = rng.standard_normal((3, 4, 9))
        w = rng.uniform(0.1, 1.0, (3, 9))
        channels = class_means(columns, w, classes)
        other = rng.permutation(labels)  # the second gallery orders its classes its own way
        stacked = class_means(
            np.stack([rng.standard_normal((3, 4, 9)), columns]),
            np.stack([w[::-1], w]),
            stack_layouts([class_layout(other), classes]),
        )
        for q in range(3):
            one = [x[0] for x in class_means(columns[q : q + 1], w[q : q + 1], classes)]
            for got in (channels, (stacked[0][1], stacked[1][1])):
                assert got[0][q].tobytes() == one[0].tobytes()
                assert got[1][q].tobytes() == one[1].tobytes()
            for c, name in enumerate(np.unique(labels)):
                mask = labels == name
                weight = w[q, mask].sum()
                assert np.isclose(one[0][c], weight)
                mean = (columns[q][:, mask] * w[q, mask]).sum(axis=1) / weight
                assert np.allclose(one[1][:, c], mean, rtol=1e-12, atol=1e-14)
