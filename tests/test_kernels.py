"""Kernel tests: scalar kernels, Gram assembly, cross-kernel consistency."""

import numpy as np
import pytest
import scipy.linalg

from setfuse.config import TrainConfig
from setfuse.descriptors import (
    DescriptorTriple,
    GaussianDescriptor,
    GrassmannPoint,
    embed_gaussian,
    encode_set,
)
from setfuse.errors import DimensionMismatch, NormalizationDegenerate
from setfuse.kernels import (
    ALL_KERNELS,
    KernelBank,
    KernelId,
    _lift,
    build_kernel_bank,
    cross_kernel_vector,
    gaussian_embedding_kernel,
    gram_matrix,
    lift_features,
    log_euclidean_kernel,
    projection_kernel,
)

from helpers import random_gallery_sets, random_orthonormal, random_spd


def encode_sets(sets, q=4):
    cfg = TrainConfig(subspace_dim=q)
    return [encode_set(s, cfg) for s in sets]


def make_gauss(rng, d):
    mean = rng.standard_normal(d)
    cov = random_spd(rng, d)
    return GaussianDescriptor(mean=mean, covariance=cov, embedding=embed_gaussian(mean, cov))


class TestLogEuclideanKernel:
    def test_identity_pair_is_zero(self):
        assert log_euclidean_kernel(np.eye(3), np.eye(3)) == 0.0

    def test_diagonal_example(self):
        a = np.diag([np.e, np.e])
        b = np.diag([np.e**2, np.e**2])
        assert abs(log_euclidean_kernel(a, b) - 4.0) <= 1e-12

    def test_polarization_identity(self):
        # oracle: Schur-based matrix log, independent of the eigen route
        rng = np.random.default_rng(30)
        for _ in range(20):
            d = int(rng.integers(2, 9))
            c1 = random_spd(rng, d)
            c2 = random_spd(rng, d)
            dist2 = np.linalg.norm(scipy.linalg.logm(c1) - scipy.linalg.logm(c2), "fro") ** 2
            polar = (
                log_euclidean_kernel(c1, c1)
                + log_euclidean_kernel(c2, c2)
                - 2.0 * log_euclidean_kernel(c1, c2)
            )
            assert abs(dist2 - polar) <= 1e-8

    def test_symmetry(self):
        rng = np.random.default_rng(31)
        c1, c2 = random_spd(rng, 6), random_spd(rng, 6)
        a = log_euclidean_kernel(c1, c2)
        b = log_euclidean_kernel(c2, c1)
        assert abs(a - b) <= 1e-10 * max(1.0, abs(a))

    def test_cauchy_schwarz(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            c1 = random_spd(rng, 5, eig_low=0.2, eig_high=4.0)
            c2 = random_spd(rng, 5, eig_low=0.2, eig_high=4.0)
            k11 = log_euclidean_kernel(c1, c1)
            k22 = log_euclidean_kernel(c2, c2)
            k12 = log_euclidean_kernel(c1, c2)
            assert k12**2 <= k11 * k22 + 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            log_euclidean_kernel(np.eye(2), np.eye(3))


class TestProjectionKernel:
    def test_self_kernel_equals_dim(self):
        y = GrassmannPoint(basis=np.eye(5)[:, :3])
        assert projection_kernel(y, y) == 3.0

    def test_self_kernel_random_basis(self):
        rng = np.random.default_rng(33)
        y = GrassmannPoint(basis=random_orthonormal(rng, 8, 4))
        assert abs(projection_kernel(y, y) - 4.0) <= 1e-10

    def test_orthogonal_subspaces_give_zero(self):
        y1 = GrassmannPoint(basis=np.eye(4)[:, :2])
        y2 = GrassmannPoint(basis=np.eye(4)[:, 2:])
        assert projection_kernel(y1, y2) == 0.0

    def test_distance_identity(self):
        # squared projection distance = q - kernel, via the projector norm
        rng = np.random.default_rng(34)
        for _ in range(20):
            d = int(rng.integers(3, 9))
            q = int(rng.integers(1, d))
            y1 = GrassmannPoint(basis=random_orthonormal(rng, d, q))
            y2 = GrassmannPoint(basis=random_orthonormal(rng, d, q))
            p1 = y1.basis @ y1.basis.T
            p2 = y2.basis @ y2.basis.T
            dist2 = 0.5 * np.linalg.norm(p1 - p2, "fro") ** 2
            assert abs(dist2 - (q - projection_kernel(y1, y2))) <= 1e-10

    def test_dimension_mismatch(self):
        y1 = GrassmannPoint(basis=np.eye(4)[:, :2])
        y2 = GrassmannPoint(basis=np.eye(5)[:, :2])
        with pytest.raises(DimensionMismatch):
            projection_kernel(y1, y2)


class TestGaussianKernel:
    def test_standard_normal_gives_zero(self):
        g = GaussianDescriptor(
            mean=np.zeros(3), covariance=np.eye(3), embedding=embed_gaussian(np.zeros(3), np.eye(3))
        )
        assert gaussian_embedding_kernel(g, g) == 0.0

    def test_delegates_to_log_kernel_exactly(self):
        rng = np.random.default_rng(35)
        g1, g2 = make_gauss(rng, 4), make_gauss(rng, 4)
        assert gaussian_embedding_kernel(g1, g2) == log_euclidean_kernel(
            g1.embedding, g2.embedding
        )

    def test_scalar_case_against_schur_oracle(self):
        rng = np.random.default_rng(36)
        g1, g2 = make_gauss(rng, 1), make_gauss(rng, 1)
        oracle = float(
            np.trace(scipy.linalg.logm(g1.embedding) @ scipy.linalg.logm(g2.embedding))
        )
        assert abs(gaussian_embedding_kernel(g1, g2) - oracle) <= 1e-10


class TestGramMatrix:
    def test_single_descriptor(self):
        rng = np.random.default_rng(37)
        triples = encode_sets(random_gallery_sets(rng, 1, 1, d=5, n=10), q=3)
        for kid in ALL_KERNELS:
            k = gram_matrix(triples, kid)
            assert k.shape == (1, 1)

    def test_bitwise_symmetric(self):
        rng = np.random.default_rng(38)
        triples = encode_sets(random_gallery_sets(rng, 2, 4, d=6, n=12), q=3)
        for kid in ALL_KERNELS:
            k = gram_matrix(triples, kid)
            assert np.array_equal(k, k.T)

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(39)
        triples = encode_sets(random_gallery_sets(rng, 4, 5, d=6, n=12), q=3)
        for kid in ALL_KERNELS:
            k = gram_matrix(triples, kid)
            vals = np.linalg.eigvalsh(k)
            bound = -1e-8 * max(abs(vals[0]), abs(vals[-1]))
            assert vals[0] >= bound

    def test_repeated_descriptor_rank_one(self):
        rng = np.random.default_rng(40)
        triple = encode_sets(random_gallery_sets(rng, 1, 1, d=5, n=10), q=3)[0]
        k = gram_matrix([triple] * 4, KernelId.LOG_EUCLIDEAN)
        vals = np.linalg.eigvalsh(k)
        assert np.all(np.abs(vals[:-1]) <= 1e-10 * max(1.0, abs(vals[-1])))

    def test_projection_diagonal_equals_subspace_dim(self):
        rng = np.random.default_rng(41)
        triples = encode_sets(random_gallery_sets(rng, 2, 3, d=7, n=12), q=4)
        k = gram_matrix(triples, KernelId.PROJECTION)
        assert np.max(np.abs(np.diag(k) - 4.0)) <= 1e-10

    def test_normalization_trace(self):
        rng = np.random.default_rng(42)
        triples = encode_sets(random_gallery_sets(rng, 2, 4, d=6, n=12), q=3)
        k = gram_matrix(triples, KernelId.LOG_EUCLIDEAN, normalize=True)
        assert abs(np.trace(k) - len(triples)) <= 1e-9

    def test_normalization_degenerate(self):
        # identity covariances produce an all-zero log-kernel Gram
        triples = []
        for i in range(3):
            g = GaussianDescriptor(
                mean=np.zeros(2), covariance=np.eye(2), embedding=embed_gaussian(np.zeros(2), np.eye(2))
            )
            triples.append(
                DescriptorTriple(
                    cov=np.eye(2),
                    subspace=GrassmannPoint(basis=np.eye(2)[:, :1]),
                    gauss=g,
                    label="c",
                    set_id=f"s{i}",
                )
            )
        with pytest.raises(NormalizationDegenerate):
            gram_matrix(triples, KernelId.LOG_EUCLIDEAN, normalize=True)


class TestCrossKernelVector:
    def test_gallery_of_one(self):
        rng = np.random.default_rng(43)
        triples = encode_sets(random_gallery_sets(rng, 1, 2, d=5, n=10), q=3)
        v = cross_kernel_vector(triples[0], triples[1:], KernelId.LOG_EUCLIDEAN)
        assert v.shape == (1,)

    def test_probe_in_gallery_reproduces_gram_column(self):
        rng = np.random.default_rng(44)
        triples = encode_sets(random_gallery_sets(rng, 3, 3, d=6, n=12), q=3)
        j = 4
        for kid in ALL_KERNELS:
            k = gram_matrix(triples, kid)
            v = cross_kernel_vector(triples[j], triples, kid)
            assert np.array_equal(v, k[:, j])

    def test_matches_scalar_kernels(self):
        rng = np.random.default_rng(45)
        triples = encode_sets(random_gallery_sets(rng, 3, 5, d=6, n=12), q=3)
        probe = encode_sets(random_gallery_sets(rng, 1, 1, d=6, n=12), q=3)[0]
        scalar = {
            KernelId.LOG_EUCLIDEAN: lambda a, b: log_euclidean_kernel(a.cov, b.cov),
            KernelId.PROJECTION: lambda a, b: projection_kernel(a.subspace, b.subspace),
            KernelId.GAUSSIAN_EMBEDDED: lambda a, b: gaussian_embedding_kernel(a.gauss, b.gauss),
        }
        for kid in ALL_KERNELS:
            v = cross_kernel_vector(probe, triples, kid)
            direct = np.array([scalar[kid](probe, t) for t in triples])
            assert np.max(np.abs(v - direct)) <= 1e-12

    def test_normalize_ref_scales_entries(self):
        rng = np.random.default_rng(46)
        triples = encode_sets(random_gallery_sets(rng, 2, 2, d=5, n=10), q=3)
        raw = cross_kernel_vector(triples[0], triples, KernelId.PROJECTION)
        scaled = cross_kernel_vector(triples[0], triples, KernelId.PROJECTION, normalize_ref=2.5)
        assert np.allclose(scaled, 2.5 * raw)

    def test_dimension_mismatch_identifies_pair(self):
        rng = np.random.default_rng(47)
        gallery = encode_sets(random_gallery_sets(rng, 2, 2, d=5, n=10), q=3)
        probe = encode_sets(random_gallery_sets(rng, 1, 1, d=6, n=10), q=3)[0]
        with pytest.raises(DimensionMismatch):
            cross_kernel_vector(probe, gallery, KernelId.LOG_EUCLIDEAN)


class TestKernelBank:
    def test_bank_shapes_and_scales(self):
        rng = np.random.default_rng(48)
        triples = encode_sets(random_gallery_sets(rng, 2, 3, d=6, n=12), q=3)
        bank = build_kernel_bank(triples)
        assert bank.n_kernels == 3
        assert bank.n_train == 6
        assert bank.scales == (1.0, 1.0, 1.0)
        for g in bank.grams:
            assert g.shape == (6, 6)

    def test_normalized_bank_records_factors(self):
        rng = np.random.default_rng(49)
        triples = encode_sets(random_gallery_sets(rng, 2, 3, d=6, n=12), q=3)
        bank = build_kernel_bank(triples, normalize=True)
        assert all(bank.normalized)
        for g, s in zip(bank.grams, bank.scales):
            assert s != 1.0
            assert abs(np.trace(g) - 6.0) <= 1e-9

    def test_subset_of_kernels(self):
        rng = np.random.default_rng(50)
        triples = encode_sets(random_gallery_sets(rng, 2, 2, d=5, n=10), q=3)
        bank = build_kernel_bank(triples, kernel_ids=(KernelId.PROJECTION,))
        assert bank.kernel_ids == (KernelId.PROJECTION,)
        assert bank.n_kernels == 1


class TestLiftedFeatures:
    @pytest.mark.parametrize("d", [10, 32])
    def test_bank_grams_match_per_pair_oracle(self, d):
        # per-pair Frobenius sums over per-descriptor lifted matrices
        rng = np.random.default_rng(51 + d)
        triples = encode_sets(random_gallery_sets(rng, 4, 5, d=d, n=d + 8), q=5)
        bank = build_kernel_bank(triples)
        n = len(triples)
        for kid, gram in zip(bank.kernel_ids, bank.grams):
            lifted = [_lift(t, kid) for t in triples]
            oracle = np.empty((n, n))
            for i in range(n):
                for j in range(n):
                    oracle[i, j] = float(np.sum(lifted[i] * lifted[j]))
            assert np.array_equal(gram, oracle)

    def test_rows_are_flattened_lifts(self):
        rng = np.random.default_rng(52)
        triples = encode_sets(random_gallery_sets(rng, 2, 2, d=5, n=10), q=3)
        for kid, width in zip(ALL_KERNELS, (25, 25, 36)):
            f = lift_features(triples, kid)
            assert f.shape == (4, width)
            assert not f.flags.writeable
            for i, t in enumerate(triples):
                assert np.array_equal(f[i], _lift(t, kid).ravel())

    def test_mixed_dimensions_name_the_descriptor(self):
        rng = np.random.default_rng(53)
        triples = encode_sets(random_gallery_sets(rng, 1, 2, d=5, n=10), q=3)
        triples += encode_sets(random_gallery_sets(rng, 1, 1, d=6, n=10), q=3)
        with pytest.raises(DimensionMismatch, match="descriptor 2"):
            lift_features(triples, KernelId.LOG_EUCLIDEAN)

    def test_bank_features_feed_probe_columns(self):
        rng = np.random.default_rng(54)
        triples = encode_sets(random_gallery_sets(rng, 2, 3, d=6, n=12), q=3)
        bank = build_kernel_bank(triples, normalize=True)
        for q, col in enumerate(bank.probe_columns(triples[2])):
            assert np.array_equal(col, bank.grams[q][:, 2])

    def test_bank_without_features_cannot_score_probes(self):
        rng = np.random.default_rng(55)
        triples = encode_sets(random_gallery_sets(rng, 2, 2, d=5, n=10), q=3)
        full = build_kernel_bank(triples)
        bare = KernelBank(
            kernel_ids=full.kernel_ids,
            grams=full.grams,
            n_train=full.n_train,
            normalized=full.normalized,
            scales=full.scales,
        )
        with pytest.raises(ValueError):
            bare.probe_columns(triples[0])
