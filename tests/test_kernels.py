"""Kernel tests: scalar kernels, Gram assembly, cross-kernel consistency."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg

from setfuse.config import TrainConfig
from setfuse.descriptors import DescriptorStack, ImageSet, embed_gaussian
from setfuse.descriptors import encode_sets as encode_stack
from setfuse.errors import (
    DimensionMismatch,
    NonSymmetric,
    NormalizationDegenerate,
)
from setfuse.gating import GatingParams
from setfuse.descriptors import read_only
from setfuse.kernels import DESCRIPTOR_NAMES, gram, gram_scale, lift_features, lifted_dim
from setfuse.spd import spd_log
from setfuse.trainer import ModelState

from helpers import (
    build_kernel_bank,
    columns_from_rows,
    fortran_read_only,
    kernel_bank,
    log_det,
    log_euclidean_kernel,
    model_bank,
    probe_rows,
    projection_kernel,
    random_gallery_sets,
    random_orthonormal,
    random_spd,
    rows,
    scalar_kernel_column,
)


def encode_sets(sets, q=4):
    return encode_stack(sets, TrainConfig(subspace_dim=q))


def make_embedding(rng, d):
    """The Gaussian embedding of a random mean and SPD covariance."""
    cov = random_spd(rng, d)
    return embed_gaussian(rng.standard_normal(d), cov, log_det(cov))


def stack_of(cov, basis, embedding):
    """A descriptor stack of the given rows, one list per descriptor; the
    covariances are held as their logs (``spd_log``), as ``encode_sets`` holds them."""
    covs, *rest = (np.array(a, dtype=np.float64) for a in (cov, basis, embedding))
    return DescriptorStack(spd_log(covs), *rest, tuple(f"s{i}" for i in range(len(cov))))


def hand_model(features, descriptors, normalize=False):
    """A model of a gallery's lifted rows, one class per member, with a
    one-column transform and zero gating."""
    n, q = features[0].shape[0], len(descriptors)
    return ModelState(
        transform=np.ones((n, 1)),
        gating=GatingParams(np.zeros((q, n)), np.zeros(q)),
        features=tuple(features),
        labels=tuple(f"c{i}" for i in range(n)),
        set_ids=tuple(f"s{i}" for i in range(n)),
        config=TrainConfig(descriptors=tuple(descriptors), normalize_kernels=normalize),
        objective_trace=(),
    )


def gram_matrix(stack, name, normalize=False):
    """One channel's Gram matrix, through a one-channel bank."""
    return build_kernel_bank(stack, (name,), normalize).grams[0]


def assert_gram_alone_and_stacked(rows, scale, want):
    """``want`` is the ``gram`` of C-contiguous ``rows`` (N, D_q) at ``scale``,
    exactly symmetric, and has the same bits inside a stack of two galleries
    gathered by a fancy index, after the same rows reversed at scale 1."""
    assert np.array_equal(gram(rows, scale), want)
    assert np.array_equal(want, want.T)
    n = rows.shape[0]
    pool = np.concatenate([rows[::-1], rows])
    stack = pool[np.array([np.arange(n), np.arange(n, 2 * n)])]
    assert stack.flags.c_contiguous
    assert np.array_equal(gram(stack, [1.0, scale])[1], want)


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
        y = np.eye(5)[:, :3]
        assert projection_kernel(y, y) == 3.0

    def test_self_kernel_random_basis(self):
        rng = np.random.default_rng(33)
        y = random_orthonormal(rng, 8, 4)
        assert abs(projection_kernel(y, y) - 4.0) <= 1e-10

    def test_orthogonal_subspaces_give_zero(self):
        y1 = np.eye(4)[:, :2]
        y2 = np.eye(4)[:, 2:]
        assert projection_kernel(y1, y2) == 0.0

    def test_distance_identity(self):
        # squared projection distance = q - kernel, via the projector norm
        rng = np.random.default_rng(34)
        for _ in range(20):
            d = int(rng.integers(3, 9))
            q = int(rng.integers(1, d))
            y1 = random_orthonormal(rng, d, q)
            y2 = random_orthonormal(rng, d, q)
            p1 = y1 @ y1.T
            p2 = y2 @ y2.T
            dist2 = 0.5 * np.linalg.norm(p1 - p2, "fro") ** 2
            assert abs(dist2 - (q - projection_kernel(y1, y2))) <= 1e-10

    def test_dimension_mismatch(self):
        y1 = np.eye(4)[:, :2]
        y2 = np.eye(5)[:, :2]
        with pytest.raises(DimensionMismatch):
            projection_kernel(y1, y2)
        with pytest.raises(DimensionMismatch):
            projection_kernel(y1, np.eye(4)[:, :3])

    def test_non_orthonormal_basis_rejected(self):
        y = np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="not orthonormal"):
            projection_kernel(y, np.eye(3)[:, :2])
        with pytest.raises(ValueError, match="not orthonormal"):
            projection_kernel(np.eye(3)[:, :2], y)


class TestGaussianKernel:
    """The gauss channel is the log-Euclidean kernel on the embeddings."""

    def test_standard_normal_gives_zero(self):
        g = embed_gaussian(np.zeros(3), np.eye(3), 0.0)
        assert log_euclidean_kernel(g, g) == 0.0

    def test_delegates_to_log_kernel_exactly(self):
        rng = np.random.default_rng(35)
        g1, g2 = make_embedding(rng, 4), make_embedding(rng, 4)
        stack = stack_of([np.eye(4)] * 2, [np.eye(4)[:, :1]] * 2, [g1, g2])
        k = gram_matrix(stack, "gauss")
        assert k[1, 0] == k[0, 1] == log_euclidean_kernel(g1, g2)

    def test_scalar_case_against_schur_oracle(self):
        rng = np.random.default_rng(36)
        g1, g2 = make_embedding(rng, 1), make_embedding(rng, 1)
        oracle = float(np.trace(scipy.linalg.logm(g1) @ scipy.linalg.logm(g2)))
        assert abs(log_euclidean_kernel(g1, g2) - oracle) <= 1e-10


class TestGramMatrix:
    def test_single_descriptor(self):
        rng = np.random.default_rng(37)
        gallery = encode_sets(random_gallery_sets(rng, 1, 1, d=5, n=10), q=3)
        for channel in DESCRIPTOR_NAMES:
            k = gram_matrix(gallery, channel)
            assert k.shape == (1, 1)

    def test_bitwise_symmetric(self):
        rng = np.random.default_rng(38)
        gallery = encode_sets(random_gallery_sets(rng, 2, 4, d=6, n=12), q=3)
        for channel in DESCRIPTOR_NAMES:
            k = gram_matrix(gallery, channel)
            assert np.array_equal(k, k.T)

    def test_gram_is_the_same_alone_and_stacked(self):
        rng = np.random.default_rng(44)
        gallery = encode_sets(random_gallery_sets(rng, 3, 3, d=6, n=12), q=3)
        for channel in DESCRIPTOR_NAMES:
            rows = lift_features(gallery, channel)
            assert_gram_alone_and_stacked(rows, 1.0, gram_matrix(gallery, channel))

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(39)
        gallery = encode_sets(random_gallery_sets(rng, 4, 5, d=6, n=12), q=3)
        for channel in DESCRIPTOR_NAMES:
            k = gram_matrix(gallery, channel)
            vals = np.linalg.eigvalsh(k)
            bound = -1e-8 * max(abs(vals[0]), abs(vals[-1]))
            assert vals[0] >= bound

    def test_repeated_descriptor_rank_one(self):
        rng = np.random.default_rng(40)
        gallery = encode_sets(random_gallery_sets(rng, 1, 1, d=5, n=10), q=3)
        k = gram_matrix(rows(gallery, [0] * 4), "cov")
        vals = np.linalg.eigvalsh(k)
        assert np.all(np.abs(vals[:-1]) <= 1e-10 * max(1.0, abs(vals[-1])))

    def test_projection_diagonal_equals_subspace_dim(self):
        rng = np.random.default_rng(41)
        gallery = encode_sets(random_gallery_sets(rng, 2, 3, d=7, n=12), q=4)
        k = gram_matrix(gallery, "subspace")
        assert np.max(np.abs(np.diag(k) - 4.0)) <= 1e-10

    def test_normalization_trace(self):
        rng = np.random.default_rng(42)
        gallery = encode_sets(random_gallery_sets(rng, 2, 4, d=6, n=12), q=3)
        k = gram_matrix(gallery, "cov", normalize=True)
        assert abs(np.trace(k) - len(gallery.set_ids)) <= 1e-9

    def test_normalization_degenerate(self):
        # identity covariances produce an all-zero log-kernel Gram
        g = embed_gaussian(np.zeros(2), np.eye(2), 0.0)
        gallery = stack_of([np.eye(2)] * 3, [np.eye(2)[:, :1]] * 3, [g] * 3)
        with pytest.raises(NormalizationDegenerate):
            gram_matrix(gallery, "cov", normalize=True)


def cross_kernel_vector(probe, gallery, channel, normalize=False):
    """One probe's kernel column against a gallery, through a one-channel bank."""
    bank = build_kernel_bank(gallery, (channel,), normalize)
    (column,) = columns_from_rows(bank, probe_rows(probe, bank.descriptors))
    return column


class TestCrossKernelVector:
    """A probe's kernel columns, ``columns_from_rows`` of its lifted rows."""

    def test_gallery_of_one(self):
        rng = np.random.default_rng(43)
        gallery = encode_sets(random_gallery_sets(rng, 1, 2, d=5, n=10), q=3)
        v = cross_kernel_vector(rows(gallery, 0), rows(gallery, slice(1, None)), "cov")
        assert v.shape == (1,)

    def test_matches_scalar_kernels(self):
        rng = np.random.default_rng(45)
        gallery = encode_sets(random_gallery_sets(rng, 3, 5, d=6, n=12), q=3)
        probe = encode_sets(random_gallery_sets(rng, 1, 1, d=6, n=12), q=3)
        for channel in DESCRIPTOR_NAMES:
            v = cross_kernel_vector(probe, gallery, channel)
            direct = scalar_kernel_column(channel, probe, gallery)
            assert np.max(np.abs(v - direct)) <= 1e-12

    def test_normalize_ref_scales_entries(self):
        # a normalised bank replays its trace-N scale on probe columns
        rng = np.random.default_rng(46)
        gallery = encode_sets(random_gallery_sets(rng, 2, 2, d=5, n=10), q=3)
        raw = cross_kernel_vector(rows(gallery, 0), gallery, "subspace")
        scaled = cross_kernel_vector(rows(gallery, 0), gallery, "subspace", normalize=True)
        scale = build_kernel_bank(gallery, ("subspace",), normalize=True).scales[0]
        assert scale != 1.0
        assert np.array_equal(scaled, raw * scale)


class TestKernelBank:
    def test_bank_shapes_and_scales(self):
        rng = np.random.default_rng(48)
        gallery = encode_sets(random_gallery_sets(rng, 2, 3, d=6, n=12), q=3)
        bank = build_kernel_bank(gallery)
        assert bank.n_kernels == 3
        assert bank.n_train == 6
        assert bank.scales == (1.0, 1.0, 1.0)
        for g in bank.grams:
            assert g.shape == (6, 6)

    def test_normalized_bank_records_factors(self):
        rng = np.random.default_rng(49)
        gallery = encode_sets(random_gallery_sets(rng, 2, 3, d=6, n=12), q=3)
        bank = build_kernel_bank(gallery, normalize=True)
        raw = build_kernel_bank(gallery)
        for f, g, s, r in zip(bank.features, bank.grams, bank.scales, raw.grams):
            assert s != 1.0
            assert s == 6.0 / float(np.sum(np.vecdot(f, f)))  # N over the squared norms
            assert np.array_equal(g, r * s)
            assert abs(np.trace(g) - 6.0) <= 1e-9

    def test_bank_dim_read_from_features(self):
        rng = np.random.default_rng(56)
        gallery = encode_sets(random_gallery_sets(rng, 2, 2, d=5, n=10), q=3)
        for channel in DESCRIPTOR_NAMES:
            (f,) = build_kernel_bank(gallery, descriptors=(channel,)).features
            assert lifted_dim(channel, f.shape[1]) == 5
            assert hand_model([f], (channel,)).dim == 5

    def test_subset_of_kernels(self):
        rng = np.random.default_rng(50)
        gallery = encode_sets(random_gallery_sets(rng, 2, 2, d=5, n=10), q=3)
        bank = build_kernel_bank(gallery, descriptors=("subspace",))
        assert bank.descriptors == ("subspace",)
        assert bank.n_kernels == 1


class TestLiftedFeatures:
    @pytest.mark.parametrize("d", [10, 32])
    def test_bank_grams_match_per_pair_oracle(self, d):
        # a ragged gallery (three interleaved sample counts) encoded and lifted
        # as stacks: every row has the bits of its set encoded and lifted
        # alone, every Gram entry is the naive product sum of those rows to
        # 1e-12 of the rows' norm product (the scale of a dot's rounding), and
        # the Gram is exactly symmetric, with the same bits inside a stack
        rng = np.random.default_rng(51 + d)
        sets = [
            ImageSet(features=s.features[:, : d + 8 - 3 * (i % 3)], label=s.label, set_id=s.set_id)
            for i, s in enumerate(random_gallery_sets(rng, 4, 6, d=d, n=d + 8))
        ]
        cfg = TrainConfig(subspace_dim=5)
        bank = build_kernel_bank(encode_stack(sets, cfg))
        alone = [encode_stack([s], cfg) for s in sets]
        n = len(sets)
        for channel, features, k in zip(bank.descriptors, bank.features, bank.grams):
            lifted = [lift_features(t, channel)[0] for t in alone]
            assert all(np.array_equal(f, row) for f, row in zip(features, lifted))
            naive = np.empty((n, n))
            for i in range(n):
                for j in range(n):
                    naive[i, j] = float(np.sum(lifted[i] * lifted[j]))
            norms = np.linalg.norm(np.array(lifted), axis=1)
            assert np.all(np.abs(k - naive) <= 1e-12 * np.outer(norms, norms))
            assert_gram_alone_and_stacked(features, 1.0, k)

    def test_rows_are_flattened_lifts(self):
        rng = np.random.default_rng(52)
        gallery = encode_sets(random_gallery_sets(rng, 2, 2, d=5, n=10), q=3)
        for channel, width in zip(DESCRIPTOR_NAMES, (25, 25, 36)):
            f = lift_features(gallery, channel)
            assert f.shape == (4, width)
            assert not f.flags.writeable
            for i in range(4):
                assert np.array_equal(f[i], lift_features(rows(gallery, i), channel)[0])

    def test_lift_error_names_the_descriptor_at_fault_only(self):
        rng = np.random.default_rng(53)
        gallery = encode_sets(random_gallery_sets(rng, 2, 2, d=5, n=10), q=3)
        # the gauss lift takes the embeddings' log, so it checks them
        embedding = gallery.embedding.copy()
        embedding[2, 0, 1] += 1.0
        bad_row = dataclasses.replace(gallery, embedding=embedding)
        with pytest.raises(NonSymmetric, match=r"^descriptor 2 \('c1_s0'\): matrix asymmetry"):
            lift_features(bad_row, "gauss")
        # a stack of non-square matrices is no one descriptor's fault
        not_square = dataclasses.replace(gallery, embedding=gallery.embedding[:, :, :4])
        with pytest.raises(NonSymmetric, match="^expected a square matrix"):
            lift_features(not_square, "gauss")

    def test_normalized_bank_grams_are_the_same_stacked(self):
        rng = np.random.default_rng(54)
        gallery = encode_sets(random_gallery_sets(rng, 2, 3, d=6, n=12), q=3)
        bank = build_kernel_bank(gallery, normalize=True)
        for f, s, k in zip(bank.features, bank.scales, bank.grams):
            assert s != 1.0
            assert_gram_alone_and_stacked(f, s, k)

    def test_bank_without_features_cannot_be_built(self):
        # a model's gallery is its lifted rows; its scales are derived from them
        rng = np.random.default_rng(55)
        gallery = encode_sets(random_gallery_sets(rng, 2, 2, d=5, n=10), q=3)
        model = hand_model(build_kernel_bank(gallery).features, DESCRIPTOR_NAMES)
        given = {f.name: getattr(model, f.name) for f in dataclasses.fields(model) if f.init}
        del given["features"]
        with pytest.raises(TypeError):
            ModelState(**given)
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(model, scales=tuple(s * 2.0 for s in model.scales))


class TestChannelNames:
    def test_default_channels_follow_the_lift_table(self):
        rng = np.random.default_rng(62)
        gallery = encode_sets(random_gallery_sets(rng, 1, 2, d=5, n=10), q=3)
        assert DESCRIPTOR_NAMES == ("cov", "subspace", "gauss")
        assert TrainConfig().descriptors == DESCRIPTOR_NAMES
        assert build_kernel_bank(gallery).descriptors == DESCRIPTOR_NAMES


class TestBankIsItsFeatures:
    def test_a_model_holds_features_not_grams(self):
        names = [f.name for f in dataclasses.fields(ModelState) if f.init]
        assert names == [
            "transform", "gating", "features", "labels", "set_ids", "config", "objective_trace"
        ]

    @pytest.mark.parametrize("normalize", [False, True])
    def test_replaced_features_rederive_grams(self, normalize):
        # a model with other rows has their scales, and training's Grams of them
        rng = np.random.default_rng(57)
        gallery = encode_sets(random_gallery_sets(rng, 2, 3, d=5, n=10), q=3)
        model = hand_model(build_kernel_bank(gallery).features, DESCRIPTOR_NAMES, normalize)
        other = build_kernel_bank(rows(gallery, slice(None, None, -1)), normalize=normalize)
        swapped = dataclasses.replace(model, features=other.features)
        assert swapped.scales == other.scales
        assert swapped.scales != model.scales if normalize else swapped.scales == (1.0,) * 3
        for got, want in zip(model_bank(swapped).grams, other.grams):
            assert np.array_equal(got, want)

    def test_writable_features_are_copied_read_only(self):
        rng = np.random.default_rng(58)
        f = rng.standard_normal((4, 9))
        model = hand_model([f], ("subspace",))
        f[0, 0] = 100.0
        assert model.features[0][0, 0] != 100.0
        assert not model.features[0].flags.writeable
        assert all(not a.flags.writeable for a in model.probe_maps[0])
        assert model.n_train == 4

    def test_fortran_order_features_are_stored_in_c_order(self):
        # the bits of a product depend on its rows' layout, so a model and a
        # training Gram keep C order: a read-only Fortran-order array, alone or
        # as the stack of one ``train`` reads, gives the Grams of the same
        # values in C order
        rng = np.random.default_rng(64)
        f = rng.standard_normal((97, 121))
        fortran = fortran_read_only(f)
        assert hand_model([fortran], ("gauss",)).features[0].flags.c_contiguous
        c_bank = kernel_bank(("gauss",), (f,))
        f_bank = kernel_bank(("gauss",), (fortran,))
        assert f_bank.features[0].flags.c_contiguous
        assert np.array_equal(f_bank.grams[0], c_bank.grams[0])
        stack = read_only(fortran[None])
        assert stack.flags.c_contiguous
        assert np.array_equal(gram(stack, 1.0)[0], c_bank.grams[0])


class TestOneDot:
    """Every Gram entry is the dot of two C-contiguous rows, and a Gram is one
    product over its rows: exactly symmetric, with the same bits alone,
    inside a stack and from the same rows in another buffer."""

    @pytest.mark.parametrize("width", [1, 55, 66, 100, 121, 1024, 1089])
    @pytest.mark.parametrize("n", [1, 2, 97, 251])
    def test_self_probes_reproduce_symmetric_gram(self, n, width):
        # the members' rows copied to a fresh array, or read as an
        # 8-byte-offset read-only view into a bytes buffer (the way load_model
        # reads arrays), rebuild the gallery's Gram bit for bit
        rng = np.random.default_rng(1000 * n + width)
        bank = kernel_bank(("cov",), (rng.standard_normal((n, width)),))
        (f,), (k,) = bank.features, bank.grams
        assert_gram_alone_and_stacked(f, 1.0, k)
        view = np.frombuffer(b"\0" * 8 + f.tobytes(), dtype="<f8", offset=8).reshape(n, width)
        assert not view.flags.writeable
        for rows in (f.copy(), view):
            assert np.array_equal(gram(rows, 1.0), k)
        # the trace-N scale is N over the rows' summed squared norms, and the
        # Gram it scales has trace N to 1e-15 relative
        scale = gram_scale(f, True)
        assert scale == n / float(np.sum(np.vecdot(f, f)))
        assert abs(float(np.trace(gram(f, scale))) - n) <= 1e-15 * n
