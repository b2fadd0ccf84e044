"""SPD primitive tests: eigendecomposition convention, log/exp, regularization."""

import numpy as np
import pytest
import scipy.linalg

from setfuse.errors import BadSpec, NonFinite, NonSymmetric, NotPositiveDefinite
from setfuse.spd import (
    EigenPair,
    is_spd,
    regularize_spd,
    spd_log,
    sym_eig,
)

from helpers import random_spd


class TestSymEig:
    def test_diagonal_matrix_sorted_descending(self):
        pair = sym_eig(np.diag([1.0, 3.0, 2.0]))
        assert np.array_equal(pair.values, [3.0, 2.0, 1.0])
        # eigenvectors are signed unit vectors matching the sort order
        expected = np.eye(3)[:, [1, 2, 0]]
        assert np.allclose(np.abs(pair.vectors), expected)

    def test_identity(self):
        pair = sym_eig(np.eye(4))
        assert np.array_equal(pair.values, np.ones(4))

    def test_sign_convention_largest_entry_positive(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            pair = sym_eig(random_spd(rng, 5))
            for j in range(5):
                col = pair.vectors[:, j]
                assert col[np.argmax(np.abs(col))] > 0

    def test_reconstruction_small_and_large(self):
        rng = np.random.default_rng(1)
        for d in (2, 7, 40, 200):
            m = random_spd(rng, d)
            pair = sym_eig(m)
            rec = (pair.vectors * pair.values) @ pair.vectors.T
            scale = np.max(np.abs(m))
            assert np.max(np.abs(rec - m)) <= 1e-9 * scale

    def test_orthonormal_vectors(self):
        rng = np.random.default_rng(2)
        pair = sym_eig(random_spd(rng, 8))
        assert np.max(np.abs(pair.vectors.T @ pair.vectors - np.eye(8))) < 1e-12

    def test_deterministic_bits(self):
        rng = np.random.default_rng(3)
        m = random_spd(rng, 6)
        a = sym_eig(m)
        b = sym_eig(m.copy())
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.vectors, b.vectors)

    def test_rejects_asymmetric(self):
        m = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(NonSymmetric):
            sym_eig(m)

    def test_rejects_nan(self):
        m = np.array([[1.0, np.nan], [np.nan, 1.0]])
        with pytest.raises(NonFinite):
            sym_eig(m)

    def test_rejects_non_square(self):
        with pytest.raises(NonSymmetric):
            sym_eig(np.ones((2, 3)))

    def test_tolerates_roundoff_asymmetry(self):
        m = np.array([[2.0, 1.0], [1.0 + 1e-14, 2.0]])
        pair = sym_eig(m)
        assert isinstance(pair, EigenPair)


class TestSpdLog:
    def test_identity_maps_to_zero(self):
        assert np.array_equal(spd_log(np.eye(3)), np.zeros((3, 3)))

    def test_diagonal_example(self):
        c = np.diag([np.e, np.e**2])
        assert np.allclose(spd_log(c), np.diag([1.0, 2.0]), atol=1e-14)

    def test_scalar_multiples_of_identity(self):
        for c in (0.1, 1.0, 10.0):
            out = spd_log(c * np.eye(3))
            assert np.max(np.abs(out - np.log(c) * np.eye(3))) <= 1e-12

    def test_round_trip_exp_log(self):
        # oracle: scipy's matrix exponential inverts the log back to the input
        rng = np.random.default_rng(4)
        for _ in range(10):
            c = random_spd(rng, 6, eig_low=0.2, eig_high=5.0)
            back = scipy.linalg.expm(spd_log(c))
            assert np.max(np.abs(back - c)) <= 1e-8 * np.max(np.abs(c))

    def test_log_of_inverse_is_negated(self):
        rng = np.random.default_rng(5)
        c = random_spd(rng, 5)
        lhs = spd_log(np.linalg.inv(c))
        assert np.max(np.abs(lhs + spd_log(c))) <= 1e-8

    def test_output_exactly_symmetric(self):
        rng = np.random.default_rng(6)
        out = spd_log(random_spd(rng, 7))
        assert np.array_equal(out, out.T)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            spd_log(np.diag([1.0, -1.0]))

    def test_rejects_singular(self):
        with pytest.raises(NotPositiveDefinite):
            spd_log(np.diag([1.0, 0.0]))

    def test_rejects_nearly_singular(self):
        # eigenvalue at 1e-13 of the largest sits below the relative floor
        with pytest.raises(NotPositiveDefinite):
            spd_log(np.diag([1.0, 1e-13]))


class TestRegularize:
    def test_identity_example(self):
        out = regularize_spd(np.eye(2), 1000.0)
        assert np.allclose(out, 1.002 * np.eye(2), atol=1e-15)

    def test_zero_matrix_gets_floor(self):
        out = regularize_spd(np.zeros((3, 3)), 1000.0)
        assert np.array_equal(out, 1e-8 * np.eye(3))

    def test_rank_one_example(self):
        out = regularize_spd(np.array([[1.0, 1.0], [1.0, 1.0]]), 1000.0)
        vals = np.linalg.eigvalsh(out)
        assert abs(vals[0] - 0.002) < 1e-12
        assert abs(vals[1] - 2.002) < 1e-12

    def test_output_passes_spd_check(self):
        rng = np.random.default_rng(7)
        candidates = [np.zeros((4, 4)), np.diag([1.0, 0.0, 0.0, 0.0])]
        for _ in range(10):
            g = rng.standard_normal((4, 2))
            candidates.append(g @ g.T)  # rank-deficient PSD
        for c in candidates:
            assert is_spd(regularize_spd(0.5 * (c + c.T), 1000.0))

    def test_infinite_alpha_is_identity_map(self):
        rng = np.random.default_rng(8)
        c = random_spd(rng, 4)
        assert np.array_equal(regularize_spd(c, np.inf), c)

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(BadSpec):
            regularize_spd(np.eye(2), 0.0)

    def test_rejects_asymmetric(self):
        with pytest.raises(NonSymmetric):
            regularize_spd(np.array([[1.0, 1.0], [0.0, 1.0]]), 1000.0)


class TestIsSpd:
    def test_accepts_spd(self):
        rng = np.random.default_rng(9)
        assert is_spd(random_spd(rng, 5))

    def test_rejects_indefinite_and_asymmetric(self):
        assert not is_spd(np.diag([1.0, -1.0]))
        assert not is_spd(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_ill_conditioned(self):
        assert not is_spd(np.diag([1.0, 1e-12]))
