"""Descriptor tests: covariance, subspace, Gaussian embedding, full encoding."""

import numpy as np
import pytest

from setfuse.config import TrainConfig
from setfuse.descriptors import (
    DescriptorTriple,
    GrassmannPoint,
    ImageSet,
    covariance_descriptor,
    embed_gaussian,
    encode_set,
    gaussian_descriptor,
    sample_mean,
    subspace_descriptor,
)
from setfuse.errors import (
    NonFinite,
    NotPositiveDefinite,
    RankDeficient,
    TooFewSamples,
)
from setfuse.spd import is_spd

from helpers import random_image_set, random_spd


def make_set(features, label="c0", set_id="s"):
    return ImageSet(features=np.asarray(features, dtype=float), label=label, set_id=set_id)


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


class TestCovarianceDescriptor:
    def test_constant_set_gets_floor(self):
        s = make_set([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
        out = covariance_descriptor(s, 1000.0)
        assert np.array_equal(out, 1e-8 * np.eye(2))

    def test_two_point_example(self):
        s = make_set([[0.0, 2.0], [0.0, 0.0]])
        out = covariance_descriptor(s, 1000.0)
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
        out = covariance_descriptor(s, np.inf)
        assert np.max(np.abs(out - c)) <= 1e-10

    def test_column_permutation_invariance(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((5, 20))
        perm = rng.permutation(20)
        a = covariance_descriptor(make_set(x), 1000.0)
        b = covariance_descriptor(make_set(x[:, perm]), 1000.0)
        assert np.max(np.abs(a - b)) <= 1e-12

    def test_scaling_property_without_regularization(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((4, 15))
        base = covariance_descriptor(make_set(x), np.inf)
        scaled = covariance_descriptor(make_set(3.0 * x), np.inf)
        assert np.max(np.abs(scaled - 9.0 * base)) <= 1e-10 * np.max(np.abs(base))

    def test_output_is_spd(self):
        rng = np.random.default_rng(13)
        for n in (2, 3, 30):
            s = make_set(rng.standard_normal((6, n)))
            assert is_spd(covariance_descriptor(s, 1000.0))


class TestSubspaceDescriptor:
    def test_axis_aligned_span(self):
        # columns live entirely in span(e1, e2)
        x = np.zeros((4, 5))
        x[0] = [1.0, 2.0, 3.0, 4.0, 5.0]
        x[1] = [5.0, 4.0, 3.0, 2.0, 1.0]
        y = subspace_descriptor(make_set(x), 2)
        proj = y.basis @ y.basis.T
        expected = np.diag([1.0, 1.0, 0.0, 0.0])
        assert np.max(np.abs(proj - expected)) <= 1e-10

    def test_rank_one_sign_convention(self):
        x = np.outer([1.0, 0.0, 0.0], [1.0, -2.0, 3.0])
        y = subspace_descriptor(make_set(x), 1)
        assert np.allclose(y.basis.ravel(), [1.0, 0.0, 0.0])

    def test_eigen_equation_residual(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((8, 20))
        s = make_set(x)
        q = 3
        y = subspace_descriptor(s, q)
        g = x @ x.T
        # oracle: columns satisfy the eigen equation of X X^T
        rayleigh = np.diag(y.basis.T @ g @ y.basis)
        resid = g @ y.basis - y.basis * rayleigh
        assert np.max(np.abs(resid)) <= 1e-9 * np.max(np.abs(g))

    def test_projector_invariant_to_column_permutation(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((6, 10))
        perm = rng.permutation(10)
        a = subspace_descriptor(make_set(x), 3)
        b = subspace_descriptor(make_set(x[:, perm]), 3)
        pa = a.basis @ a.basis.T
        pb = b.basis @ b.basis.T
        assert np.max(np.abs(pa - pb)) <= 1e-9

    def test_projector_invariant_to_orthogonal_mixing(self):
        # right-multiplying the samples by an orthogonal matrix fixes X X^T
        rng = np.random.default_rng(16)
        x = rng.standard_normal((6, 10))
        r, _ = np.linalg.qr(rng.standard_normal((10, 10)))
        a = subspace_descriptor(make_set(x), 4)
        b = subspace_descriptor(make_set(x @ r), 4)
        assert np.max(np.abs(a.basis @ a.basis.T - b.basis @ b.basis.T)) <= 1e-9

    def test_rank_deficient_raises(self):
        x = np.outer([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])  # rank one
        with pytest.raises(RankDeficient):
            subspace_descriptor(make_set(x), 2)

    def test_q_out_of_range(self):
        rng = np.random.default_rng(17)
        s = make_set(rng.standard_normal((3, 8)))
        with pytest.raises(ValueError):
            subspace_descriptor(s, 0)
        with pytest.raises(ValueError):
            subspace_descriptor(s, 4)

    def test_basis_orthonormal(self):
        rng = np.random.default_rng(18)
        y = subspace_descriptor(make_set(rng.standard_normal((7, 12))), 5)
        assert np.max(np.abs(y.basis.T @ y.basis - np.eye(5))) <= 1e-12


class TestEmbedGaussian:
    def test_scalar_example(self):
        p = embed_gaussian([1.0], [[1.0]])
        assert np.allclose(p, [[2.0, 1.0], [1.0, 1.0]], atol=1e-15)

    def test_standard_normal_maps_to_identity(self):
        d = 3
        p = embed_gaussian(np.zeros(d), np.eye(d))
        assert np.array_equal(p, np.eye(d + 1))

    def test_unit_determinant(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            d = int(rng.integers(2, 7))
            p = embed_gaussian(rng.standard_normal(d), random_spd(rng, d))
            # oracle: LU-based determinant of the assembled matrix
            assert abs(np.linalg.det(p) - 1.0) <= 1e-6

    def test_embedding_is_spd(self):
        rng = np.random.default_rng(20)
        p = embed_gaussian(rng.standard_normal(4), random_spd(rng, 4))
        assert is_spd(p)

    def test_rejects_indefinite_covariance(self):
        with pytest.raises(NotPositiveDefinite):
            embed_gaussian([0.0, 0.0], np.diag([1.0, -1.0]))


class TestGaussianDescriptor:
    def test_two_point_example(self):
        s = make_set([[0.0, 2.0]])
        g = gaussian_descriptor(s, 1000.0)
        assert np.allclose(g.mean, [1.0])
        assert np.allclose(g.covariance, [[2.002]])
        scale = 2.002 ** -0.5
        expected = scale * np.array([[3.002, 1.0], [1.0, 1.0]])
        assert np.max(np.abs(g.embedding - expected)) <= 1e-14

    def test_shares_covariance_estimator_exactly(self):
        rng = np.random.default_rng(21)
        s = random_image_set(rng, d=5, n=30)
        g = gaussian_descriptor(s, 1000.0)
        assert np.array_equal(g.covariance, covariance_descriptor(s, 1000.0))

    def test_law_of_large_numbers(self):
        # standardized n=10^4 sample (mean zero, sample cov = identity):
        # the embedding approaches identity(4), off only by regularization
        rng = np.random.default_rng(22)
        x = rng.standard_normal((3, 10000))
        x = x - x.mean(axis=1, keepdims=True)
        chol = np.linalg.cholesky(np.cov(x))
        x = np.linalg.solve(chol, x)
        g = gaussian_descriptor(make_set(x), 1000.0)
        assert np.linalg.norm(g.embedding - np.eye(4)) <= 0.05


class TestEncodeSet:
    def test_produces_valid_triple(self):
        rng = np.random.default_rng(23)
        s = random_image_set(rng, d=6, n=15, label="cat", set_id="x1")
        t = encode_set(s, TrainConfig(subspace_dim=4))
        assert isinstance(t, DescriptorTriple)
        assert t.label == "cat" and t.set_id == "x1"
        assert is_spd(t.cov)
        assert isinstance(t.subspace, GrassmannPoint)
        assert t.subspace.subspace_dim == 4
        assert t.gauss.embedding.shape == (7, 7)

    def test_too_few_samples_rejected(self):
        with pytest.raises(TooFewSamples):
            ImageSet(features=np.array([[1.0], [2.0]]), label="c", set_id="bad")

    def test_deterministic_bits(self):
        rng = np.random.default_rng(24)
        x = rng.standard_normal((5, 12))
        cfg = TrainConfig(subspace_dim=3)
        a = encode_set(make_set(x), cfg)
        b = encode_set(make_set(x.copy()), cfg)
        assert np.array_equal(a.cov, b.cov)
        assert np.array_equal(a.subspace.basis, b.subspace.basis)
        assert np.array_equal(a.gauss.embedding, b.gauss.embedding)

    def test_covariance_computed_once_and_shared(self):
        rng = np.random.default_rng(25)
        s = random_image_set(rng, d=5, n=12)
        t = encode_set(s, TrainConfig(subspace_dim=3))
        assert t.cov is t.gauss.covariance
        assert np.array_equal(t.cov, covariance_descriptor(s, TrainConfig().alpha))

    def test_mean_helper(self):
        s = make_set([[0.0, 2.0], [1.0, 3.0]])
        assert np.array_equal(sample_mean(s), [1.0, 2.0])
