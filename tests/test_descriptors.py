"""Descriptor tests: covariance, subspace, Gaussian embedding, full encoding."""

import logging
import warnings

import numpy as np
import pytest

from setfuse.config import TrainConfig
from setfuse.data import generate_synthetic
from setfuse.descriptors import (
    ImageSet,
    _moments,
    embed_gaussian,
    encode_sets,
)
from setfuse.errors import (
    BadDimension,
    BadSpec,
    DimensionMismatch,
    NonFinite,
    NotPositiveDefinite,
    RankDeficient,
    TooFewSamples,
)
from setfuse.kernels import DESCRIPTOR_NAMES, lift_features
from helpers import (
    encode_one,
    gaussian_embedding,
    is_spd,
    log_det,
    random_gallery_sets,
    random_image_set,
    random_spd,
    regularized_covariance,
    set_moments,
    sign_canonical_log,
    sign_canonical_rows,
)


def make_set(features, label="c0", set_id="s"):
    return ImageSet(features=np.asarray(features, dtype=float), label=label, set_id=set_id)


def covariance_of(s, alpha):
    """The set's regularized covariance, the matrix ``encode_sets`` takes the log of."""
    return regularized_covariance(s, alpha)


def raw_covariance(s):
    """The unregularized sample covariance the encoder starts from."""
    return set_moments(s)[1]


def basis_of(s, q):
    """The set's q-dimensional subspace basis, encoded alone."""
    return encode_one(s, TrainConfig(subspace_dim=q))[1]


class TestImageSet:
    def test_basic_properties(self):
        s = make_set([[0.0, 1.0, 2.0], [1.0, 1.0, 1.0]])
        assert s.dim == 2 and s.n_samples == 3

    def test_rejects_single_sample(self):
        with pytest.raises(TooFewSamples):
            make_set([[1.0], [2.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(NonFinite):
            make_set([[1.0, np.inf], [0.0, 1.0]])

    def test_features_read_only(self):
        s = make_set([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            s.features[0, 0] = 5.0

    @pytest.mark.parametrize(
        "label, set_id, match",
        [(1, "s7", "set 's7': label"), ("c0", 7, "set 7: set id"), (None, "s7", "set 's7'")],
        ids=["int-label", "int-set-id", "no-label"],
    )
    def test_label_and_set_id_must_be_str(self, label, set_id, match):
        with pytest.raises(BadSpec, match=match):
            make_set([[0.0, 1.0], [1.0, 0.0]], label=label, set_id=set_id)

    def test_mixed_int_and_str_relabelling_names_the_set(self):
        sets = generate_synthetic(2, 4, 4, 8, 3.0, seed=1)
        with pytest.raises(BadSpec, match="class0_set0"):
            [
                ImageSet(s.features, label=1 if s.label == "class0" else "a", set_id=s.set_id)
                for s in sets
            ]

    def test_lists_of_python_and_numpy_numbers_accepted(self):
        s = make_set([[1.0, np.float32(2.5)], [np.float64(3.0), 4]])
        assert s.features.dtype == np.float64
        assert np.array_equal(s.features, [[1.0, 2.5], [3.0, 4.0]])
        rows = make_set([np.array([0.5, 1.0]), np.array([2.0, 3.0])])
        assert np.array_equal(rows.features, [[0.5, 1.0], [2.0, 3.0]])

    def test_numpy_str_accepted(self):
        s = make_set([[0.0, 1.0], [1.0, 0.0]], label=np.str_("c0"), set_id=np.str_("s"))
        assert s.label == "c0" and s.set_id == "s"


class TestCovarianceDescriptor:
    def test_constant_set_gets_floor(self):
        s = make_set([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
        out = covariance_of(s, 1000.0)
        assert np.array_equal(out, 1e-8 * np.eye(2))

    def test_two_point_example(self):
        s = make_set([[0.0, 2.0], [0.0, 0.0]])
        out = covariance_of(s, 1000.0)
        assert np.allclose(out, [[2.002, 0.0], [0.0, 0.002]], atol=1e-15)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((10, 50))
        s = make_set(x)
        # independent oracle: explicit two-pass loop over samples
        m = np.zeros(10)
        for j in range(50):
            m += x[:, j]
        m /= 50
        c = np.zeros((10, 10))
        for j in range(50):
            dev = x[:, j] - m
            c += np.outer(dev, dev)
        c /= 49
        out = raw_covariance(s)
        assert np.max(np.abs(out - c)) <= 1e-10

    def test_column_permutation_invariance(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((5, 20))
        perm = rng.permutation(20)
        a = covariance_of(make_set(x), 1000.0)
        b = covariance_of(make_set(x[:, perm]), 1000.0)
        assert np.max(np.abs(a - b)) <= 1e-12

    def test_scaling_property_without_regularization(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((4, 15))
        base = raw_covariance(make_set(x))
        scaled = raw_covariance(make_set(3.0 * x))
        assert np.max(np.abs(scaled - 9.0 * base)) <= 1e-10 * np.max(np.abs(base))

    def test_output_is_spd(self):
        rng = np.random.default_rng(13)
        for n in (2, 3, 30):
            s = make_set(rng.standard_normal((6, n)))
            assert is_spd(covariance_of(s, 1000.0))


class TestSubspaceDescriptor:
    def test_axis_aligned_span(self):
        # columns live entirely in span(e1, e2)
        x = np.zeros((4, 5))
        x[0] = [1.0, 2.0, 3.0, 4.0, 5.0]
        x[1] = [5.0, 4.0, 3.0, 2.0, 1.0]
        y = basis_of(make_set(x), 2)
        proj = y @ y.T
        expected = np.diag([1.0, 1.0, 0.0, 0.0])
        assert np.max(np.abs(proj - expected)) <= 1e-10

    def test_eigen_equation_residual(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((8, 20))
        s = make_set(x)
        q = 3
        y = basis_of(s, q)
        g = x @ x.T
        # oracle: columns satisfy the eigen equation of X X^T
        rayleigh = np.diag(y.T @ g @ y)
        resid = g @ y - y * rayleigh
        assert np.max(np.abs(resid)) <= 1e-9 * np.max(np.abs(g))

    def test_projector_invariant_to_column_permutation(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((6, 10))
        perm = rng.permutation(10)
        a = basis_of(make_set(x), 3)
        b = basis_of(make_set(x[:, perm]), 3)
        pa = a @ a.T
        pb = b @ b.T
        assert np.max(np.abs(pa - pb)) <= 1e-9

    def test_projector_invariant_to_orthogonal_mixing(self):
        # right-multiplying the samples by an orthogonal matrix fixes X X^T
        rng = np.random.default_rng(16)
        x = rng.standard_normal((6, 10))
        r, _ = np.linalg.qr(rng.standard_normal((10, 10)))
        a = basis_of(make_set(x), 4)
        b = basis_of(make_set(x @ r), 4)
        assert np.max(np.abs(a @ a.T - b @ b.T)) <= 1e-9

    def test_rank_deficient_raises(self):
        x = np.outer([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])  # rank one
        with pytest.raises(RankDeficient):
            basis_of(make_set(x), 2)

    def test_q_out_of_range(self):
        # q = 0 cannot reach the encoder: the config rejects it first
        rng = np.random.default_rng(17)
        s = make_set(rng.standard_normal((3, 8)))
        with pytest.raises(BadSpec, match="subspace_dim"):
            basis_of(s, 0)
        with pytest.raises(BadDimension):
            basis_of(s, 4)

    def test_basis_orthonormal(self):
        rng = np.random.default_rng(18)
        y = basis_of(make_set(rng.standard_normal((7, 12))), 5)
        assert np.max(np.abs(y.T @ y - np.eye(5))) <= 1e-12


def embed_random(rng, d):
    """The embedding of a random mean and SPD covariance, with its covariance."""
    cov = random_spd(rng, d)
    return embed_gaussian(rng.standard_normal(d), cov, log_det(cov)), cov


class TestEmbedGaussian:
    def test_scalar_example(self):
        p = embed_gaussian([1.0], [[1.0]], 0.0)
        assert np.allclose(p, [[2.0, 1.0], [1.0, 1.0]], atol=1e-15)

    def test_standard_normal_maps_to_identity(self):
        d = 3
        p = embed_gaussian(np.zeros(d), np.eye(d), 0.0)
        assert np.array_equal(p, np.eye(d + 1))

    def test_unit_determinant(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            p, _ = embed_random(rng, int(rng.integers(2, 7)))
            # oracle: LU-based determinant of the assembled matrix
            assert abs(np.linalg.det(p) - 1.0) <= 1e-6

    def test_scale_is_the_cholesky_determinants(self):
        # the eigenvalues' log-determinant gives the scale |A|^(-2/(d+1)) of
        # the lower Cholesky factor A to the last places
        rng = np.random.default_rng(31)
        for d in (2, 10, 32, 64):
            p, cov = embed_random(rng, d)
            log_det_a = np.log(np.diag(np.linalg.cholesky(cov))).sum()
            scale = np.exp(-2.0 / (d + 1) * log_det_a)
            assert abs(p[d, d] / scale - 1.0) <= 1e-12

    def test_embedding_is_spd(self):
        rng = np.random.default_rng(20)
        assert is_spd(embed_random(rng, 4)[0])


class TestGaussianDescriptor:
    def test_two_point_example(self):
        s = make_set([[0.0, 2.0]])
        log_cov, _, embedding = encode_one(s, TrainConfig(subspace_dim=1, alpha=1000.0))
        assert np.allclose(_moments(s.features[None])[0], [[1.0]])
        assert np.allclose(log_cov, [[np.log(2.002)]], atol=1e-15)
        scale = 2.002 ** -0.5
        expected = scale * np.array([[3.002, 1.0], [1.0, 1.0]])
        assert np.max(np.abs(embedding - expected)) <= 1e-14

    def test_shares_covariance_estimator_exactly(self):
        rng = np.random.default_rng(21)
        s = random_image_set(rng, d=5, n=30)
        log_cov, _, embedding = encode_one(s, TrainConfig(subspace_dim=1, alpha=1000.0))
        cov = covariance_of(s, 1000.0)
        assert np.array_equal(log_cov, sign_canonical_log(cov))
        assert np.array_equal(embedding, gaussian_embedding(s, 1000.0))

    def test_law_of_large_numbers(self):
        # standardized n=10^4 sample (mean zero, sample cov = identity):
        # the embedding approaches identity(4), off only by regularization
        rng = np.random.default_rng(22)
        x = rng.standard_normal((3, 10000))
        x = x - x.mean(axis=1, keepdims=True)
        chol = np.linalg.cholesky(np.cov(x))
        x = np.linalg.solve(chol, x)
        embedding = encode_one(make_set(x), TrainConfig(subspace_dim=1, alpha=1000.0))[2]
        assert np.linalg.norm(embedding - np.eye(4)) <= 0.05


class TestEncodeSet:
    def test_produces_valid_triple(self):
        rng = np.random.default_rng(23)
        s = random_image_set(rng, d=6, n=15, label="cat", set_id="x1")
        e = encode_sets([s], TrainConfig(subspace_dim=4))
        assert e.set_ids == ("x1",)
        assert e.log_cov.shape == (1, 6, 6)
        assert np.array_equal(e.log_cov[0], e.log_cov[0].T)
        assert e.basis.shape == (1, 6, 4)
        assert e.embedding.shape == (1, 7, 7)

    def test_too_few_samples_rejected(self):
        with pytest.raises(TooFewSamples):
            ImageSet(features=np.array([[1.0], [2.0]]), label="c", set_id="bad")

    def test_deterministic_bits(self):
        rng = np.random.default_rng(24)
        x = rng.standard_normal((5, 12))
        cfg = TrainConfig(subspace_dim=3)
        a = encode_one(make_set(x), cfg)
        b = encode_one(make_set(x.copy()), cfg)
        for u, v in zip(a, b):
            assert np.array_equal(u, v)

    def test_covariance_computed_once_and_shared(self):
        # the embedding and the log the stack holds come from one covariance
        rng = np.random.default_rng(25)
        s = random_image_set(rng, d=5, n=12)
        log_cov, _, embedding = encode_one(s, TrainConfig(subspace_dim=3))
        cov = covariance_of(s, TrainConfig().alpha)
        assert np.array_equal(log_cov, sign_canonical_log(cov))
        assert np.array_equal(embedding, gaussian_embedding(s, TrainConfig().alpha))

    def test_mean_helper(self):
        s = make_set([[0.0, 2.0], [1.0, 3.0]])
        assert np.array_equal(_moments(s.features[None])[0], [[1.0, 2.0]])


class TestEncodeSets:
    def test_rows_are_the_one_set_encodings(self):
        # three interleaved sample counts: rows come back in input order
        rng = np.random.default_rng(26)
        sets = [random_image_set(rng, d=6, n=9 + i % 3, set_id=f"s{i}") for i in range(10)]
        cfg = TrainConfig(subspace_dim=3)
        stack = encode_sets(sets, cfg)
        assert stack.set_ids == tuple(s.set_id for s in sets)
        for a in (stack.log_cov, stack.basis, stack.embedding):
            assert not a.flags.writeable
        for i, s in enumerate(sets):
            log_cov, basis, embedding = encode_one(s, cfg)
            assert np.array_equal(stack.log_cov[i], log_cov)
            assert np.array_equal(stack.basis[i], basis)
            assert np.array_equal(stack.embedding[i], embedding)
            assert np.array_equal(embedding, gaussian_embedding(s, cfg.alpha))

    def test_floored_covariances_are_logged_once_per_call(self, caplog):
        # two constant sets take the trace floor: one warning counts them and
        # names the first, and every set keeps the bits it gets alone
        rng = np.random.default_rng(29)
        sets = [random_image_set(rng, d=4, n=6, set_id=f"s{i}") for i in range(5)]
        sets[1] = make_set(np.ones((4, 6)), set_id="flat1")
        sets[3] = make_set(np.full((4, 6), 2.0), set_id="flat3")
        cfg = TrainConfig(subspace_dim=1)
        with caplog.at_level(logging.DEBUG, logger="setfuse"):
            stack = encode_sets(sets, cfg)
        assert [(r.levelno, r.getMessage()) for r in caplog.records] == [(
            logging.WARNING,
            "2 of 5 sets have a zero-trace covariance, shifted by the trace floor; "
            "the first is set 1 ('flat1')",
        )]
        for i, s in enumerate(sets):
            assert np.array_equal(stack.log_cov[i], encode_one(s, cfg)[0])
        assert np.array_equal(covariance_of(sets[1], cfg.alpha), 1e-8 * np.eye(4))
        assert np.array_equal(stack.log_cov[1], sign_canonical_log(1e-8 * np.eye(4)))
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="setfuse"):
            encode_sets([sets[0], sets[2], sets[4]], cfg)
        assert caplog.records == []

    def test_embed_gaussian_takes_a_stack(self):
        rng = np.random.default_rng(27)
        means = rng.standard_normal((4, 3))
        covs = np.stack([random_spd(rng, 3) for _ in range(4)])
        log_dets = np.array([log_det(c) for c in covs])
        out = embed_gaussian(means, covs, log_dets)
        for i in range(4):
            assert np.array_equal(out[i], embed_gaussian(means[i], covs[i], log_dets[i]))

    def test_no_sets_or_mixed_dimensions(self):
        rng = np.random.default_rng(28)
        cfg = TrainConfig(subspace_dim=2)
        with pytest.raises(BadSpec):
            encode_sets([], cfg)
        sets = [random_image_set(rng, d=4), random_image_set(rng, d=5, set_id="wide")]
        with pytest.raises(DimensionMismatch, match=r"set 1 \('wide'\)"):
            encode_sets(sets, cfg)

    def test_error_of_no_one_set_names_no_set(self):
        # q exceeds the dimension of every set: no set is at fault
        rng = np.random.default_rng(30)
        sets = [random_image_set(rng, d=4, set_id=f"class0_set{i}") for i in range(3)]
        with pytest.raises(BadDimension) as info:
            encode_sets(sets, TrainConfig(subspace_dim=5))
        assert str(info.value) == "subspace dimension q=5 must be in [1, 4]"


class TestStackedDecomposition:
    """``encode_sets`` decomposes the covariances and the second moments in
    one stacked ``eigh`` and fixes no eigenvector sign for a log or a
    projector; every lifted row keeps the bits of the sign-canonical route."""

    @pytest.mark.parametrize("d", [3, 10, 32])
    def test_lifted_rows_match_the_sign_canonical_route(self, d):
        # ragged sample counts, some below d, each set alone and in a stack
        rng = np.random.default_rng(60 + d)
        cfg = TrainConfig(subspace_dim=3)
        counts = (d + 6, d // 2 + 2, cfg.subspace_dim + 1)
        sets = [
            ImageSet(s.features[:, : counts[i % 3]], s.label, s.set_id)
            for i, s in enumerate(random_gallery_sets(rng, 3, 4, d=d, n=d + 6))
        ]
        expected = [sign_canonical_rows(s, cfg) for s in sets]
        stacked = {name: lift_features(encode_sets(sets, cfg), name) for name in DESCRIPTOR_NAMES}
        for i, s in enumerate(sets):
            alone = encode_sets([s], cfg)
            for name in DESCRIPTOR_NAMES:
                assert np.array_equal(stacked[name][i], expected[i][name]), (name, i)
                assert np.array_equal(lift_features(alone, name)[0], expected[i][name]), (name, i)

    @staticmethod
    def _sets(rng, n=5, d=4):
        return [random_image_set(rng, d=d, n=8, set_id=f"s{i}") for i in range(n)]

    @staticmethod
    def _far(rng):
        """Features near 1e160: their covariance is finite, their X @ X.T is not."""
        return 1e160 * (1.0 + 1e-10 * rng.standard_normal((4, 8)))

    def test_refused_covariance_log_names_its_set(self):
        # a rank-one covariance shifted by trace / 1e13 has too small a spectrum to log
        rng = np.random.default_rng(61)
        sets = self._sets(rng)
        sets[2] = make_set(np.outer([1.0, 2.0, 0.5, 1.0], np.arange(8.0)), set_id="flat")
        with pytest.raises(NotPositiveDefinite, match=r"^set 2 \('flat'\): matrix log needs"):
            encode_sets(sets, TrainConfig(subspace_dim=1, alpha=1e13))

    def test_rank_deficient_second_moment_names_its_set(self):
        rng = np.random.default_rng(62)
        sets = self._sets(rng)
        sets[3] = make_set(np.outer([1.0, 2.0, 0.5, 1.0], np.arange(8.0)), set_id="line")
        with pytest.raises(RankDeficient, match=r"^set 3 \('line'\): numerical rank below q=2"):
            encode_sets(sets, TrainConfig(subspace_dim=2))

    def test_non_finite_second_moment_names_its_set(self):
        # a far-off mean overflows X @ X.T but not the covariance: the
        # stacked decomposition finds it in its second half
        rng = np.random.default_rng(63)
        sets = self._sets(rng)
        sets[3] = make_set(self._far(rng), set_id="far")
        non_finite = r"^set 3 \('far'\): matrix contains NaN or Inf"
        with warnings.catch_warnings(), pytest.raises(NonFinite, match=non_finite):
            warnings.simplefilter("error")  # refused before any overflow warns
            encode_sets(sets, TrainConfig(subspace_dim=2))

    def test_overflowing_shift_names_the_first_set(self):
        # trace / alpha overflows at alpha=1e-310: every shifted covariance
        # is refused, set 0 first, before numpy warns of the overflow
        sets = self._sets(np.random.default_rng(65))
        non_finite = r"^set 0 \('s0'\): matrix contains NaN or Inf"
        with warnings.catch_warnings(), pytest.raises(NonFinite, match=non_finite):
            warnings.simplefilter("error")
            encode_sets(sets, TrainConfig(subspace_dim=2, alpha=1e-310))

    def test_first_set_at_fault_across_the_halves(self):
        # set 1's covariance log is refused, set 3's X @ X.T overflows: the
        # second half's error is found first, and set 1 is named
        rng = np.random.default_rng(64)
        sets = self._sets(rng)
        sets[1] = make_set(np.outer([1.0, 2.0, 0.5, 1.0], np.arange(8.0)), set_id="flat")
        sets[3] = make_set(self._far(rng), set_id="far")
        refused = r"^set 1 \('flat'\): matrix log needs"
        with warnings.catch_warnings(), pytest.raises(NotPositiveDefinite, match=refused):
            warnings.simplefilter("error")
            encode_sets(sets, TrainConfig(subspace_dim=1, alpha=1e13))
