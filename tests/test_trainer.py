"""Trainer tests: scatters, trace-ratio solver, alternating loop."""

import logging
import warnings
from dataclasses import replace

import numpy as np
import pytest

from setfuse.config import TrainConfig
from setfuse.data import generate_synthetic
from setfuse.descriptors import ImageSet, encode_sets
from setfuse.errors import (
    BadSpec,
    DegenerateDenominator,
    NonFinite,
    SingleClassGallery,
    ZeroTotalScatter,
)
from setfuse.gating import (
    GatingParams,
    gating_weights,
    class_layout,
)
from setfuse import trainer
from setfuse.experiment import split_sets, train_on_sets
from setfuse.kernels import DESCRIPTOR_NAMES
from setfuse.trainer import (
    ScatterPair,
    gram_spans,
    solve_trace_ratio,
    train,
)

from helpers import (
    brute_force_scatters,
    build_kernel_bank,
    gating_gradients,
    ids_of,
    kernel_bank,
    model_bank,
    probe_rows,
    random_bank,
    random_gallery_sets,
    random_labels,
    random_simplex_weights,
    remove_null_space,
    rows,
    scatter_matrices,
    solve_one,
    span_of,
    spy,
    trace_ratio_objective,
    train_one,
)
from helpers import random_orthonormal as helper_orthonormal


def solve_arguments(*args, **kwargs):
    """A ``solve_trace_ratio`` call's arguments, from which the pure solve
    gives its result again."""
    return args, kwargs


def assert_train_weights_read_the_grams(model):
    # the model reads its gallery's weights from its rows, training read the
    # same weights from its Grams: they agree to rounding
    grams = model_bank(model).grams
    assert np.allclose(model.train_weights, gating_weights(grams, model.gating), rtol=0, atol=1e-14)


# A one-iteration config naming the channels of ``random_bank(rng, n, 2, dim)``.
TWO_CHANNELS = TrainConfig(iters=1, descriptors=DESCRIPTOR_NAMES[:2])


class TestScatterMatrices:
    def test_single_class_raises(self):
        rng = np.random.default_rng(80)
        bank = random_bank(rng, 4, 2)
        with pytest.raises(SingleClassGallery):
            scatter_matrices(bank, ["a"] * 4, random_simplex_weights(rng, 2, 4))

    def test_all_singleton_classes_zero_within(self):
        rng = np.random.default_rng(81)
        bank = random_bank(rng, 3, 2)
        labels = ["a", "b", "c"]
        weights = random_simplex_weights(rng, 2, 3)
        scatter = scatter_matrices(bank, labels, weights)
        # only i == j pairs are within-class and those difference vectors vanish
        assert np.array_equal(scatter.within, np.zeros((3, 3)))
        classes = class_layout(labels)
        assert (classes.n_within, classes.n_between) == (3, 6)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(82)
        for _ in range(8):
            n = int(rng.integers(4, 11))
            n_kernels = int(rng.integers(1, 4))
            bank = random_bank(rng, n, n_kernels)
            labels = random_labels(rng, n)
            weights = random_simplex_weights(rng, n_kernels, n)
            scatter = scatter_matrices(bank, labels, weights)
            ref_w, ref_b = brute_force_scatters(bank, labels, weights)
            assert np.max(np.abs(scatter.within - ref_w)) <= 1e-12
            assert np.max(np.abs(scatter.between - ref_b)) <= 1e-12

    def test_outputs_symmetric_psd(self):
        rng = np.random.default_rng(83)
        bank = random_bank(rng, 8, 3)
        labels = random_labels(rng, 8)
        scatter = scatter_matrices(bank, labels, random_simplex_weights(rng, 3, 8))
        for m in (scatter.within, scatter.between, scatter.total):
            assert np.array_equal(m, m.T)
            assert np.linalg.eigvalsh(m).min() >= -1e-10


def feature_bank(rng, n_classes=4, sets_per_class=10):
    """A real d=3 bank: N=40 sets, and Gram rank at most 9 + 9 + 16 = 34 < N."""
    sets = random_gallery_sets(rng, n_classes=n_classes, sets_per_class=sets_per_class, d=3, n=12)
    cfg = TrainConfig(subspace_dim=2)
    bank = build_kernel_bank(encode_sets(sets, cfg), cfg.descriptors)
    return bank, np.array([s.label for s in sets])


def assert_reduced_matches_full(bank, labels, weights):
    basis, columns = span_of(bank.grams)
    full = scatter_matrices(bank, labels, weights)
    reduced = trainer.scatter_matrices(columns, class_layout(labels), weights)
    for got, whole in ((reduced.within, full.within), (reduced.between, full.between)):
        ref = basis.T @ whole @ basis
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    return basis


def duplicated_rows_bank(rng, n, n_kernels):
    """``random_bank`` with row 1 of every channel a copy of row 0: rows 0
    and 1 of each Gram agree, so every vector of its span has two equal
    entries and its span rank is at most n - 1, where ``random_bank``'s
    channels together span all n dimensions."""
    features = [f.copy() for f in random_bank(rng, n, n_kernels).features]
    for f in features:
        f[1] = f[0]
    return kernel_bank(DESCRIPTOR_NAMES[:n_kernels], features)


class TestGramSpan:
    def test_reduced_scatters_match_full_on_random_banks(self):
        rng = np.random.default_rng(102)
        for _ in range(8):
            n = int(rng.integers(4, 13))
            n_kernels = int(rng.integers(1, 4))
            bank = random_bank(rng, n, n_kernels)
            labels = random_labels(rng, n)
            assert_reduced_matches_full(bank, labels, random_simplex_weights(rng, n_kernels, n))

    def test_reduced_scatters_match_full_on_feature_bank(self):
        rng = np.random.default_rng(103)
        bank, labels = feature_bank(rng)
        basis = assert_reduced_matches_full(
            bank, labels, random_simplex_weights(rng, bank.n_kernels, bank.n_train)
        )
        rank = basis.shape[1]
        assert rank <= sum(f.shape[1] for f in bank.features) < bank.n_train

    def test_span_holds_every_column_difference(self):
        rng = np.random.default_rng(104)
        bank, _ = feature_bank(rng)
        basis, columns = span_of(bank.grams)
        r = basis.shape[1]
        assert np.max(np.abs(basis.T @ basis - np.eye(r))) <= 1e-12
        for gram, cols in zip(bank.grams, columns):
            assert cols.shape == (r, bank.n_train)
            # every difference is a difference of these, taken from column 0
            diffs = gram - gram[:, :1]
            back = basis @ (cols - cols[:, :1])
            assert np.max(np.abs(back - diffs)) <= 1e-10 * np.max(np.abs(gram))

    def test_centring_drops_the_common_column(self):
        # one full-rank channel: its N columns span R^N, their differences N - 1
        bank = random_bank(np.random.default_rng(112), 7, 1)
        assert np.linalg.matrix_rank(bank.grams[0]) == 7
        assert span_of(bank.grams)[0].shape == (7, 6)

    def test_zero_grams_raise(self):
        bank = random_bank(np.random.default_rng(105), 4, 2)
        zero = kernel_bank(bank.descriptors, (np.zeros((4, 6)),) * 2)
        with pytest.raises(ZeroTotalScatter):
            span_of(zero.grams)

    def test_a_stack_gives_each_gallery_its_span_alone(self):
        # galleries of two span ranks, and Grams of scales 1e6 apart, mixed:
        # each gets the rank and the leading eigenvectors it gets as a stack
        # of one, bit for bit
        rng = np.random.default_rng(117)
        small = [1e-3 * f for f in random_bank(rng, 9, 3).features]
        banks = [random_bank(rng, 9, 3), duplicated_rows_bank(rng, 9, 3),
                 kernel_bank(DESCRIPTOR_NAMES, small), duplicated_rows_bank(rng, 9, 3)]
        grams = np.array([bank.grams for bank in banks])
        vectors, ranks = gram_spans(grams)
        assert ranks.tolist() == [9, 8, 9, 8]
        for k, g in enumerate(grams):
            alone_vectors, alone_ranks = gram_spans(g[None])
            r = int(alone_ranks[0])
            assert ranks[k] == r
            assert vectors[k, :, :r].tobytes() == alone_vectors[0, :, :r].tobytes()

    def test_a_stack_with_constant_grams_raises(self):
        # the second gallery's rows are all equal, so its Grams are constant
        rng = np.random.default_rng(118)
        bank = random_bank(rng, 6, 2)
        constant = kernel_bank(bank.descriptors, (np.ones((6, 8)),) * 2)
        grams = np.array([bank.grams, constant.grams, bank.grams])
        with pytest.raises(ZeroTotalScatter) as raised:
            gram_spans(grams)
        assert raised.value.index == 1


class TestTraceRatioObjective:
    def test_zero_within_gives_one(self):
        rng = np.random.default_rng(85)
        b = np.eye(4)
        scatter = ScatterPair(within=np.zeros((4, 4)), between=b)
        e = helper_orthonormal(rng, 4, 2)
        assert trace_ratio_objective(e, scatter) == 1.0

    def test_matches_direct_arithmetic(self):
        rng = np.random.default_rng(86)
        bank = random_bank(rng, 7, 2)
        labels = random_labels(rng, 7)
        scatter = scatter_matrices(bank, labels, random_simplex_weights(rng, 2, 7))
        e = helper_orthonormal(rng, 7, 3)
        expected = np.trace(e.T @ scatter.between @ e) / np.trace(
            e.T @ scatter.total @ e
        )
        assert abs(trace_ratio_objective(e, scatter) - expected) <= 1e-12

    def test_value_in_unit_interval(self):
        rng = np.random.default_rng(87)
        for _ in range(10):
            bank = random_bank(rng, 6, 3)
            labels = random_labels(rng, 6)
            scatter = scatter_matrices(bank, labels, random_simplex_weights(rng, 3, 6))
            e = helper_orthonormal(rng, 6, 2)
            assert 0.0 <= trace_ratio_objective(e, scatter) <= 1.0

    def test_degenerate_denominator(self):
        scatter = ScatterPair(within=np.diag([1.0, 0.0]), between=np.zeros((2, 2)))
        e = np.array([[0.0], [1.0]])
        with pytest.raises(DegenerateDenominator):
            trace_ratio_objective(e, scatter)


class TestRemoveNullSpace:
    def test_full_rank_keeps_dimension(self):
        rng = np.random.default_rng(88)
        bank = random_bank(rng, 6, 2)
        labels = random_labels(rng, 6)
        scatter = scatter_matrices(bank, labels, random_simplex_weights(rng, 2, 6))
        basis, red_b, red_t = remove_null_space(scatter.within, scatter.between)
        assert basis.shape[1] == 6
        assert np.max(np.abs(basis.T @ basis - np.eye(6))) <= 1e-12
        assert np.max(np.abs(red_t - basis.T @ scatter.total @ basis)) <= 1e-12

    def test_rank_one_total(self):
        within = np.diag([1.0, 0.0])
        between = np.zeros((2, 2))
        basis, red_b, red_t = remove_null_space(within, between)
        assert basis.shape[1] == 1
        assert abs(abs(basis[0, 0]) - 1.0) <= 1e-12
        assert abs(basis[1, 0]) <= 1e-12
        assert red_t.shape == (1, 1)
        assert abs(red_t[0, 0] - 1.0) <= 1e-12

    def test_constructed_rank_detected(self):
        rng = np.random.default_rng(89)
        for r in (1, 3, 5):
            a = rng.standard_normal((8, r))
            within = a @ a.T
            basis, _, red_t = remove_null_space(within, np.zeros((8, 8)))
            assert basis.shape[1] == r
            assert red_t.shape == (r, r)

    def test_ratio_preserved_through_basis(self):
        rng = np.random.default_rng(90)
        a = rng.standard_normal((7, 4))
        b = rng.standard_normal((7, 3))
        within = a @ a.T
        between = b @ b.T
        # force shared null space so the reduction actually removes directions
        null = helper_orthonormal(rng, 7, 2)
        proj = np.eye(7) - null @ null.T
        within = proj @ within @ proj
        between = proj @ between @ proj
        basis, red_b, red_t = remove_null_space(within, between)
        assert basis.shape[1] == 5
        v = helper_orthonormal(rng, 5, 2)
        lifted = basis @ v
        top = np.trace(v.T @ red_b @ v) / np.trace(v.T @ red_t @ v)
        ref = np.trace(lifted.T @ between @ lifted) / np.trace(
            lifted.T @ (within + between) @ lifted
        )
        assert abs(top - ref) <= 1e-10

    def test_zero_total_raises(self):
        with pytest.raises(ZeroTotalScatter):
            remove_null_space(np.zeros((3, 3)), np.zeros((3, 3)))


class TestSolveTraceRatio:
    def test_two_by_two_closed_form(self):
        result = solve_one(np.diag([3.0, 1.0]), np.eye(2), 1)
        assert abs(result.ratio_history[-1] - 3.0) <= 1e-12
        v = result.projection[:, 0]
        assert abs(abs(v[0]) - 1.0) <= 1e-10
        assert abs(v[1]) <= 1e-10

    def test_history_monotone(self):
        rng = np.random.default_rng(91)
        for _ in range(20):
            dim = int(rng.integers(3, 9))
            target = int(rng.integers(1, dim))
            a = rng.standard_normal((dim, dim + 1))
            c = rng.standard_normal((dim, dim + 1))
            between = a @ a.T / dim
            total = between + c @ c.T / dim
            result = solve_one(between, total, target, rng=rng)
            hist = np.asarray(result.ratio_history)
            assert np.all(np.diff(hist) >= -1e-10)

    def test_beats_random_search(self):
        rng = np.random.default_rng(92)
        dim, target = 5, 2
        a = rng.standard_normal((dim, dim))
        c = rng.standard_normal((dim, dim))
        between = a @ a.T / dim
        total = between + c @ c.T / dim
        result = solve_one(between, total, target, rng=rng)
        best = -np.inf
        for _ in range(2000):
            v = helper_orthonormal(rng, dim, target)
            best = max(
                best,
                np.trace(v.T @ between @ v) / np.trace(v.T @ total @ v),
            )
        assert result.ratio_history[-1] >= best - 1e-6

    def test_full_dimension_ratio(self):
        rng = np.random.default_rng(93)
        a = rng.standard_normal((4, 4))
        c = rng.standard_normal((4, 4))
        between = a @ a.T
        total = between + c @ c.T
        result = solve_one(between, total, 4, rng=rng)
        # with V square orthonormal the ratio is trace(B) / trace(T)
        expected = np.trace(between) / np.trace(total)
        assert abs(result.ratio_history[-1] - expected) <= 1e-10

    def test_warm_start_at_optimum_takes_one_step(self):
        rng = np.random.default_rng(106)
        a = rng.standard_normal((8, 8))
        c = rng.standard_normal((8, 8))
        between = a @ a.T
        total = between + c @ c.T
        cold = solve_one(between, total, 3, max_iters=200, eps=0.0, rng=rng)
        # another orthonormal basis of the optimal subspace
        start = cold.projection @ helper_orthonormal(rng, 3, 3)
        warm = solve_one(between, total, 3, start=start)
        assert len(warm.ratio_history) == 2
        assert abs(warm.ratio_history[-1] - cold.ratio_history[-1]) <= 1e-12
        assert np.max(np.abs(warm.projection.T @ warm.projection - np.eye(3))) <= 1e-12

    def test_deterministic_given_seed(self):
        a = np.diag([5.0, 2.0, 1.0])
        t = np.eye(3)
        r1 = solve_one(a, t, 2, rng=np.random.default_rng(7))
        r2 = solve_one(a, t, 2, rng=np.random.default_rng(7))
        assert np.array_equal(r1.projection, r2.projection)
        assert r1.ratio_history == r2.ratio_history


def separable_bank(rng, n_classes=2, sets_per_class=6, d=6, n=14, shift=4.0):
    sets = random_gallery_sets(
        rng, n_classes=n_classes, sets_per_class=sets_per_class, d=d, n=n, shift=shift
    )
    cfg = TrainConfig(subspace_dim=3, target_dim=3, iters=8, seed=5)
    gallery = encode_sets(sets, cfg)
    labels = np.array([s.label for s in sets])
    return build_kernel_bank(gallery, cfg.descriptors), labels, cfg, gallery


def assert_trace_ratio_optimum(bank, labels, cfg):
    """Train, then check that a cold 200-iteration solve on the last
    iteration's scatters, over whole Gram columns, gains <= 1e-6. The last
    iteration's weights are those of the gating it starts from, which the
    same gallery trained one iteration fewer ends with."""
    model = train_one(bank.features, labels, ids_of(bank), cfg)
    iters = len(model.objective_trace)
    assert iters >= 2
    start = train_one(bank.features, labels, ids_of(bank), replace(cfg, iters=iters - 1))
    scatter = scatter_matrices(bank, labels, gating_weights(bank.grams, start.gating))
    basis, red_b, red_t = remove_null_space(scatter.within, scatter.between)
    cold = solve_one(
        red_b, red_t, model.transform.shape[1], max_iters=200, eps=0.0,
        rng=np.random.default_rng(1),
    )
    gain = cold.ratio_history[-1] - trace_ratio_objective(model.transform, scatter)
    assert gain <= 1e-6
    return model


class TestTrain:
    def test_separable_gallery_trains_well(self):
        rng = np.random.default_rng(95)
        bank, labels, cfg, gallery = separable_bank(rng)
        model = train_one(bank.features, labels, ids_of(bank), cfg)
        assert model.objective_trace[-1] >= 0.95
        assert model.transform.shape == (12, 3)
        # every training set is nearest to itself in the learned metric
        from setfuse.classify import distance_profile

        for i in range(12):
            profile = distance_profile(probe_rows(rows(gallery, i), bank.descriptors), model)[0]
            assert int(np.argmin(profile)) == i

    def test_objective_does_not_collapse(self):
        rng = np.random.default_rng(96)
        bank, labels, cfg, _ = separable_bank(rng)
        model = train_one(bank.features, labels, ids_of(bank), cfg)
        trace = np.asarray(model.objective_trace)
        assert np.all((trace >= 0.0) & (trace <= 1.0))
        assert trace[-1] >= trace[0] - 1e-9

    def test_zero_rate_single_iteration_matches_manual(self):
        rng = np.random.default_rng(97)
        bank, labels, cfg, _ = separable_bank(rng)
        cfg = TrainConfig(
            subspace_dim=3, target_dim=3, iters=1, learning_rate=0.0, seed=11
        )
        model = train_one(bank.features, labels, ids_of(bank), cfg)

        # zero gating, so uniform weights, and the span's leading directions
        params = GatingParams(np.zeros((bank.n_kernels, bank.n_train)), np.zeros(bank.n_kernels))
        weights = gating_weights(bank.grams, params)
        basis, columns = span_of(bank.grams)
        classes = class_layout(labels)
        scatter = trainer.scatter_matrices(columns, classes, weights)
        width = min(cfg.target_dim, basis.shape[1])
        itr = solve_one(
            scatter.between,
            scatter.total,
            width,
            start=np.eye(basis.shape[1], width),
            max_iters=cfg.itr_iters,
            eps=cfg.eps,
        )
        expected = basis @ itr.projection
        assert np.array_equal(model.transform, expected)
        assert np.array_equal(model.gating.coeffs, params.coeffs)
        assert np.array_equal(model.gating.biases, params.biases)

    def test_warm_started_solves_take_few_steps(self, monkeypatch):
        # README "Training cost": a solve warm-started from the previous
        # projection takes one or two steps (a step is an eigendecomposition)
        rng = np.random.default_rng(107)
        bank, labels, cfg, _ = separable_bank(rng)
        solves = spy(monkeypatch, trainer, "solve_trace_ratio", solve_arguments)
        model = train_one(bank.features, labels, ids_of(bank), cfg)
        assert len(solves) == len(model.objective_trace) >= 3
        # the first solve starts from the span's leading directions
        first = solves[0][1]["start"][0]
        assert np.array_equal(first, np.eye(*first.shape))
        results = [solve_trace_ratio(*args, **kwargs) for args, kwargs in solves]
        for (_, kwargs), result, previous in zip(solves[1:], results[1:], results):
            assert np.array_equal(kwargs["start"], previous.projection)
            assert len(result.ratio_history[0]) - 1 <= 3

    def test_final_projection_is_trace_ratio_optimum(self):
        rng = np.random.default_rng(108)
        bank, labels, cfg, _ = separable_bank(rng)
        assert_trace_ratio_optimum(bank, labels, cfg)

    def test_extreme_weights_keep_the_fixed_basis(self, caplog):
        # at lr=1 some gating weight falls to ~6e-6; the span basis still serves
        bank, labels, cfg, _ = separable_bank(np.random.default_rng(95))
        cfg = replace(cfg, learning_rate=1.0)
        with caplog.at_level(logging.INFO, logger="setfuse.trainer"):
            model = assert_trace_ratio_optimum(bank, labels, cfg)
        assert float(model.train_weights.min()) < 1e-4
        width = min(cfg.target_dim, span_of(bank.grams)[0].shape[1])
        assert model.transform.shape == (bank.n_train, width)
        assert not [r for r in caplog.records if "null-space" in r.message]

    def test_underflowed_weight_trains_to_a_finite_objective(self):
        # at lr=100 some gating weights underflow to exactly 0.0
        bank, labels, cfg, _ = separable_bank(np.random.default_rng(95))
        model = train_one(bank.features, labels, ids_of(bank), replace(cfg, learning_rate=100.0))
        assert float(model.train_weights.min()) == 0.0
        trace = np.asarray(model.objective_trace)
        assert np.all(np.isfinite(trace) & (trace >= 0.0) & (trace <= 1.0))

    def test_overflowing_gating_step_raises_non_finite(self):
        # at rate 1e308 the first try's scores overflow, so its weights are
        # NaN: training refuses the try, naming it, before numpy warns
        sets = random_gallery_sets(np.random.default_rng(95), 2, 6, d=6, n=14, shift=4.0)
        cfg = TrainConfig(subspace_dim=3, target_dim=3, iters=8, learning_rate=1e308)
        with warnings.catch_warnings(), pytest.raises(
            NonFinite, match=r"^iteration 1: gating step 1\.000e\+308 gives non-finite"
        ):
            warnings.simplefilter("error")
            train_on_sets(sets, cfg)
        # a rate of 1e200 still trains
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = train_on_sets(sets, replace(cfg, learning_rate=1e200))
        assert np.isfinite(model.train_weights).all()
        # with features scaled by 1e3 the same rate overflows the gating
        # parameters themselves, before any weight is formed: the same error
        # names the iteration and the step
        rng = np.random.default_rng(95)
        big = [
            ImageSet((rng.standard_normal((6, 14)) + 4.0 * c) * 1e3, f"c{c}", f"c{c}_s{k}")
            for c in range(2)
            for k in range(6)
        ]
        with warnings.catch_warnings(), pytest.raises(
            NonFinite,
            match=r"^iteration 1: gating step 1\.000e\+308 gives non-finite gating parameters$",
        ):
            warnings.simplefilter("error")
            train_on_sets(big, cfg)

    def test_train_gradient_matches_public_gradient(self, monkeypatch):
        # no public view holds an iteration's gradient (ROADMAP item 3's run
        # trace would), so the trainer's steps are read through the spy
        bank, labels, cfg, _ = separable_bank(np.random.default_rng(115))
        tries = spy(
            monkeypatch, trainer, "gradient_ascent_step", lambda params, grads, step: (params, grads)
        )
        solves = spy(monkeypatch, trainer, "solve_trace_ratio", solve_arguments)
        train_one(bank.features, labels, ids_of(bank), cfg)
        # each outer iteration's (params, grads), halvings dropped; the
        # arguments hold a stack of one
        steps = [
            (GatingParams(params.coeffs[0], params.biases[0]), (grads[0][0], grads[1][0]))
            for k, (params, grads) in enumerate(tries)
            if k == 0 or grads is not tries[k - 1][1]
        ]
        projections = [solve_trace_ratio(*a, **kw).projection[0] for a, kw in solves]
        basis, _ = span_of(bank.grams)
        assert len(steps) == len(projections) >= 3
        for (params, (gc, gb)), coords in zip(steps, projections):
            rc, rb = gating_gradients(bank, params, basis @ coords, labels)
            scale = max(np.max(np.abs(rc)), np.max(np.abs(rb)))
            assert np.max(np.abs(gc - rc)) <= 1e-12 * scale
            assert np.max(np.abs(gb - rb)) <= 1e-12 * scale

    def test_each_gating_point_evaluated_once(self, monkeypatch):
        # README "Training cost": each gating point is evaluated once
        # the perfbench gallery_train data (N=250, d=10), first variant at seed 3
        sets = generate_synthetic(
            classes=5, sets_per_class=60, dim=10, samples=20, separation=5.0, seed=0
        )
        seed = int(np.random.SeedSequence([3, 0]).generate_state(1)[0])
        gallery, _ = split_sets(sets, 50, np.random.default_rng(seed))
        weights = spy(monkeypatch, trainer, "gating_weights")
        sums = spy(monkeypatch, trainer, "projected_pair_sums")
        tries = spy(monkeypatch, trainer, "gradient_ascent_step")
        model = train_on_sets(gallery, TrainConfig(subspace_dim=5, target_dim=8, seed=seed))
        assert len(model.objective_trace) == 20
        # one weight evaluation to start and one per line-search try; one pass of
        # pair sums per iteration start point and one per try
        assert (len(weights), len(sums), len(tries)) == (21, 40, 20)
        assert_train_weights_read_the_grams(model)

    @pytest.mark.parametrize("rate", [0.0, 300.0])
    def test_line_search_tries_are_evaluated_once(self, monkeypatch, rate):
        # README "Training cost": one more pass of class sums scores each try
        rng = np.random.default_rng(109)
        bank = random_bank(rng, 12, 3, dim=4)
        labels = random_labels(rng, 12)
        weights = spy(monkeypatch, trainer, "gating_weights")
        sums = spy(monkeypatch, trainer, "projected_pair_sums")
        steps = spy(monkeypatch, trainer, "gradient_ascent_step")
        cfg = TrainConfig(target_dim=3, iters=8, seed=2, learning_rate=rate)
        model = train_one(bank.features, labels, ids_of(bank), cfg)
        iters, tries = len(model.objective_trace), len(steps)
        assert (tries > iters) == (rate > 0.0)  # at rate 300 a step is halved
        assert len(weights) == 1 + tries
        assert len(sums) == iters + tries
        assert_train_weights_read_the_grams(model)

    def test_random_bank_trains(self):
        # a bank of random lifted features, not lifted descriptors
        rng = np.random.default_rng(109)
        bank = random_bank(rng, 12, 3, dim=4)
        labels = random_labels(rng, 12)
        cfg = TrainConfig(target_dim=3, iters=4, seed=2)
        m1 = train_one(bank.features, labels, ids_of(bank), cfg)
        m2 = train_one(bank.features, labels, ids_of(bank), cfg)
        assert m1.transform.shape == (12, 3)
        assert np.isfinite(m1.transform).all()
        assert np.array_equal(m1.transform, m2.transform)
        assert all(0.0 <= v <= 1.0 for v in m1.objective_trace)

    def test_training_is_deterministic(self):
        rng = np.random.default_rng(98)
        bank, labels, cfg, _ = separable_bank(rng)
        m1 = train_one(bank.features, labels, ids_of(bank), cfg)
        m2 = train_one(bank.features, labels, ids_of(bank), cfg)
        assert np.array_equal(m1.transform, m2.transform)
        assert np.array_equal(m1.gating.coeffs, m2.gating.coeffs)
        assert np.array_equal(m1.gating.biases, m2.gating.biases)
        assert m1.objective_trace == m2.objective_trace

    def test_target_dim_clamped_to_rank(self, caplog):
        rng = np.random.default_rng(99)
        bank, labels, _, _ = separable_bank(rng, sets_per_class=3)
        cfg = TrainConfig(subspace_dim=3, target_dim=25, iters=2, seed=3)
        import logging

        with caplog.at_level(logging.WARNING, logger="setfuse.trainer"):
            model = train_one(bank.features, labels, ids_of(bank), cfg)
        assert model.transform.shape[1] <= bank.n_train
        assert any("clamped" in rec.message for rec in caplog.records)

    def test_single_class_raises(self):
        rng = np.random.default_rng(100)
        bank = random_bank(rng, 4, 2)
        with pytest.raises(SingleClassGallery):
            train_one(bank.features, ["a"] * 4, ids_of(bank), TWO_CHANNELS)

    @pytest.mark.parametrize("normalize", [False, True])
    def test_bank_is_built_from_the_config(self, normalize):
        # the model's scales follow the config, as the Grams training built,
        # and it keeps the read-only rows it was given, sharing their memory
        rng = np.random.default_rng(109)
        bank = random_bank(rng, 12, 2, dim=4)
        cfg = replace(TWO_CHANNELS, target_dim=3, normalize_kernels=normalize)
        model = train_one(bank.features, random_labels(rng, 12), ids_of(bank), cfg)
        assert model.scales == kernel_bank(cfg.descriptors, bank.features, normalize).scales
        assert all((s != 1.0) == normalize for s in model.scales)
        for kept, given in zip(model.features, bank.features, strict=True):
            assert np.shares_memory(kept, given) and np.array_equal(kept, given)
        assert model.set_ids == tuple(ids_of(bank))

    def test_numpy_str_labels_train_as_str(self):
        rng = np.random.default_rng(109)
        bank = random_bank(rng, 12, 3, dim=4)
        labels = random_labels(rng, 12)
        assert isinstance(labels[0], np.str_)
        cfg = TrainConfig(target_dim=3, iters=2, seed=2)
        model = train_one(bank.features, labels, ids_of(bank), cfg)
        assert model.labels == tuple(labels.tolist())
        assert all(type(label) is str for label in model.labels)


def stacked_galleries():
    """Four galleries of 12 random lifted rows each, stacked per channel
    (4, 12, D_q), with random labels, so that the classes interleave and their
    codes differ per gallery; returns the rows, labels and set ids."""
    rng = np.random.default_rng(109)
    banks, labels = [], []
    for _ in range(4):
        banks.append(random_bank(rng, 12, 3, dim=4))
        labels.append(random_labels(rng, 12))
    rows = [np.stack(features) for features in zip(*(b.features for b in banks))]
    return rows, labels, [ids_of(b) for b in banks]


def converged_lines(records):
    return [r.message for r in records if r.message.startswith("converged after")]


class TestStackedTraining:
    """``train`` trains a stack of galleries in lockstep; each must get the
    bits it gets alone, however its control flow departs from the others'."""

    def test_each_gallery_trains_as_it_does_alone(self, monkeypatch, caplog):
        rows, labels, ids = stacked_galleries()
        cfg = TrainConfig(target_dim=3, iters=8, learning_rate=100.0)
        # the third gallery climbs along its negated gradient, so each of its
        # steps lowers the objective and rolls back, and it stops at iteration 3;
        # from iteration 4 of the stack on, which it reaches only there, its
        # gradient is NaN, which a stopped gallery does not read
        descending = (rows[0][2] @ rows[0][2].T)[0, 0]
        real_gradients = trainer.projected_gradients
        iterations = []  # one gradient per outer iteration

        def gradients(grams, *args):
            iterations.append(len(grams))
            coeffs, biases = real_gradients(grams, *args)
            third = np.nan if len(grams) == 4 and len(iterations) > 3 else -1.0
            sign = np.where(grams[:, 0, 0, 0] == descending, third, 1.0)
            return coeffs * sign[:, None, None], biases * sign[:, None]

        monkeypatch.setattr(trainer, "projected_gradients", gradients)
        with caplog.at_level(logging.INFO, logger="setfuse.trainer"):
            alone = [
                train([r[k : k + 1] for r in rows], [labels[k]], [ids[k]], cfg)[0]
                for k in range(4)
            ]
            rolled_alone = sum("rolled back" in r.message for r in caplog.records)
            converged_alone = sorted(converged_lines(caplog.records))
            caplog.clear()
            iterations.clear()
            # how the stack's control flow departs (README "Training cost":
            # a try steps the whole stack, a solve drops the problems that
            # stop moving): each try's outer iteration and steps, and each
            # solve's arguments
            steps = spy(
                monkeypatch, trainer, "gradient_ascent_step",
                lambda params, grads, step: (len(iterations), np.array(step)),
            )
            solves = spy(monkeypatch, trainer, "solve_trace_ratio", solve_arguments)
            stacked = train(rows, labels, ids, cfg)
            rolled = sum("rolled back" in r.message for r in caplog.records)
            converged = sorted(converged_lines(caplog.records))
        inner = [
            [len(h) for h in solve_trace_ratio(*a, **kw).ratio_history] for a, kw in solves
        ]

        for a, m in zip(alone, stacked, strict=True):
            assert m.transform.tobytes() == a.transform.tobytes()
            assert m.gating.coeffs.tobytes() == a.gating.coeffs.tobytes()
            assert m.gating.biases.tobytes() == a.gating.biases.tobytes()
            assert m.objective_trace == a.objective_trace
            assert m.labels == a.labels and m.config == a.config
        # one stack, as the galleries share one span rank, in which their
        # control flow differed
        grams = [kernel_bank(cfg.descriptors, [r[k] for r in rows]).grams for k in range(4)]
        assert len(set(gram_spans(np.array(grams))[1].tolist())) == 1
        assert len({len(m.objective_trace) for m in stacked}) > 1  # early stops
        assert any(len(set(counts)) > 1 for counts in inner)  # inner trace-ratio steps
        # every try steps the whole stack, a gallery that stopped with a zero
        # step: the third stops at iteration 3 and steps from then on by 0.0
        assert iterations == [4] * max(len(m.objective_trace) for m in stacked)
        assert all(len(s) == 4 for _, s in steps)
        assert all((s[2] == 0.0) == (it > 3) for it, s in steps)
        assert any(it > 3 for it, _ in steps)
        # halvings: whole-stack tries in which halved and full steps sit side
        # by side (a stopped gallery's 0.0 is no halving)
        assert any(((s > 0.0) & (s < 100.0)).any() and (s == 100.0).any() for _, s in steps)
        assert 0 < rolled == rolled_alone < 8  # rollbacks of the descending gallery only
        assert len(stacked[2].objective_trace) == 3
        assert converged == converged_alone and converged


class TestTrainConfig:
    @pytest.mark.parametrize("field", ["alpha", "learning_rate", "eps"])
    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), -1.0, pytest.param(10**400, id="huge-int")]
    )
    def test_non_finite_or_negative_rejected(self, field, value):
        with pytest.raises(BadSpec, match=field):
            TrainConfig(**{field: value})

    def test_negative_seed_rejected(self):
        with pytest.raises(BadSpec, match="seed"):
            TrainConfig(seed=-1)

    @pytest.mark.parametrize("field", ["subspace_dim", "target_dim", "iters", "itr_iters", "seed"])
    @pytest.mark.parametrize("value", [2.0, 2.5, True], ids=["float", "fraction", "bool"])
    def test_integer_fields_reject_non_integers(self, field, value):
        with pytest.raises(BadSpec, match=field):
            TrainConfig(**{field: value})

    def test_numpy_integers_accepted(self):
        cfg = TrainConfig(subspace_dim=np.int64(3), seed=np.uint32(7))
        assert (cfg.subspace_dim, cfg.seed) == (3, 7)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"normalize_kernels": "no"},
            {"normalize_kernels": 1},
            {"alpha": True},
            {"alpha": np.bool_(True)},
            {"alpha": 0},
            {"alpha": 0.0},
            {"alpha": float("-inf")},
            {"eps": True},
            {"learning_rate": False},
            {"alpha": "1"},
            {"learning_rate": "x"},
            {"eps": None},
            {"descriptors": 5},
            {"descriptors": "cov"},
            {"descriptors": ["cov", 1]},
        ],
        ids=[
            "normalize-str", "normalize-int", "alpha-bool", "alpha-numpy-bool", "alpha-zero", "alpha-zero-float",
            "alpha-minus-inf", "eps-bool", "lr-bool",
            "alpha-str", "lr-str", "eps-none", "descriptors-int", "descriptors-str",
            "descriptors-int-item",
        ],
    )
    def test_wrong_field_types_rejected(self, kwargs):
        with pytest.raises(BadSpec, match=next(iter(kwargs))):
            TrainConfig(**kwargs)

    def test_integer_reals_and_name_lists_accepted(self):
        cfg = TrainConfig(
            alpha=10, learning_rate=0, eps=np.float32(0.5), descriptors=["gauss", "cov"]
        )
        assert (cfg.alpha, cfg.learning_rate, cfg.eps) == (10, 0, 0.5)
        assert cfg.descriptors == ("cov", "gauss")
