"""SPD primitive tests: eigendecomposition, log/exp, regularization."""

import numpy as np
import pytest
import scipy.linalg

from setfuse.errors import NonFinite, NonSymmetric, NotPositiveDefinite
from setfuse.spd import (
    EigenPair,
    check_symmetric,
    eig_log,
    eigh,
    regularize_spd,
    spd_log,
)

from helpers import is_spd, random_spd


class TestEigh:
    def test_diagonal_matrix_sorted_ascending(self):
        pair = eigh(np.diag([1.0, 3.0, 2.0]))
        assert np.array_equal(pair.values, [1.0, 2.0, 3.0])
        # eigenvectors are signed unit vectors matching the sort order
        expected = np.eye(3)[:, [0, 2, 1]]
        assert np.allclose(np.abs(pair.vectors), expected)

    def test_identity(self):
        pair = eigh(np.eye(4))
        assert np.array_equal(pair.values, np.ones(4))

    def test_reconstruction_small_and_large(self):
        rng = np.random.default_rng(1)
        for d in (2, 7, 40, 200):
            m = random_spd(rng, d)
            pair = eigh(m)
            rec = (pair.vectors * pair.values) @ pair.vectors.T
            scale = np.max(np.abs(m))
            assert np.max(np.abs(rec - m)) <= 1e-9 * scale

    def test_orthonormal_vectors(self):
        rng = np.random.default_rng(2)
        pair = eigh(random_spd(rng, 8))
        assert np.max(np.abs(pair.vectors.T @ pair.vectors - np.eye(8))) < 1e-12

    def test_deterministic_bits(self):
        rng = np.random.default_rng(3)
        m = random_spd(rng, 6)
        a = eigh(m)
        b = eigh(m.copy())
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.vectors, b.vectors)

    def test_rejects_asymmetric(self):
        m = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(NonSymmetric):
            eigh(m)

    def test_rejects_nan(self):
        m = np.array([[1.0, np.nan], [np.nan, 1.0]])
        with pytest.raises(NonFinite):
            eigh(m)

    def test_rejects_non_square(self):
        with pytest.raises(NonSymmetric):
            eigh(np.ones((2, 3)))

    def test_tolerates_roundoff_asymmetry(self):
        m = np.array([[2.0, 1.0], [1.0 + 1e-14, 2.0]])
        pair = eigh(m)
        assert isinstance(pair, EigenPair)

    def test_check_returns_the_symmetric_part(self):
        # an exactly symmetric stack comes back as it is, one symmetric only
        # to roundoff as its symmetric part, which is what eigh decomposes
        rng = np.random.default_rng(4)
        s = np.stack([random_spd(rng, 4) for _ in range(3)])
        assert check_symmetric(s) is s
        m = s.copy()
        m[1, 0, 1] += 1e-14
        part = 0.5 * (m + m.swapaxes(-1, -2))
        assert np.array_equal(check_symmetric(m), part)
        for got, want in zip(eigh(m), np.linalg.eigh(part)):
            assert np.array_equal(got, want)

    def test_log_reads_no_eigenvector_sign(self):
        # flipping any columns of the decomposition leaves the log bit for bit
        rng = np.random.default_rng(5)
        pair = eigh(np.stack([random_spd(rng, 6) for _ in range(4)]))
        flips = rng.choice([-1.0, 1.0], size=pair.values.shape)
        flipped = EigenPair(pair.values, pair.vectors * flips[:, None, :])
        assert np.array_equal(eig_log(flipped), eig_log(pair))


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

    def test_rejects_asymmetric(self):
        with pytest.raises(NonSymmetric):
            regularize_spd(np.array([[1.0, 1.0], [0.0, 1.0]]), 1000.0)

    def test_one_ulp_off_symmetric_reads_as_its_symmetric_part(self):
        # the encoder hands its covariances over unsymmetrized: one an ulp off
        # symmetric regularizes to the bits of its symmetric part, alone and
        # in a stack with exactly symmetric ones
        rng = np.random.default_rng(9)
        c = random_spd(rng, 5)
        off = c.copy()
        off[0, 1] = np.nextafter(off[0, 1], np.inf)
        sym = 0.5 * (off + off.T)
        assert not np.array_equal(off, off.T) and np.array_equal(sym, sym.T)
        expected = regularize_spd(sym, 1000.0)
        assert np.array_equal(regularize_spd(off, 1000.0), expected)
        shifted = regularize_spd(np.stack([c, off, sym]), 1000.0)
        assert np.array_equal(shifted[0], regularize_spd(c, 1000.0))
        assert np.array_equal(shifted[1], expected)
        assert np.array_equal(shifted[2], expected)

    def test_any_memory_layout_gets_the_same_bits(self):
        # a transposed matrix or a swapaxes view of a stack is shifted as its
        # C-ordered copy is, in place of a copy the shift never reaches
        rng = np.random.default_rng(10)
        c = random_spd(rng, 5)
        c = 0.5 * (c + c.T)
        stack = np.stack([c, random_spd(rng, 5), np.zeros((5, 5))])
        stack = 0.5 * (stack + stack.swapaxes(-1, -2))
        assert np.array_equal(regularize_spd(c.T, 1000.0), regularize_spd(c.copy(), 1000.0))
        assert np.array_equal(
            regularize_spd(stack.swapaxes(-1, -2), 1000.0), regularize_spd(stack, 1000.0)
        )
        assert not np.array_equal(regularize_spd(c.T, 1000.0), c)

    def test_integer_alpha_matches_float(self):
        rng = np.random.default_rng(6)
        c = random_spd(rng, 4)
        assert np.array_equal(regularize_spd(c, 1000), regularize_spd(c, 1000.0))


def random_stack(rng, k, d):
    """k random SPD matrices of size d, with spectra over several decades."""
    return np.stack([random_spd(rng, d) * 10.0 ** rng.uniform(-3, 3) for _ in range(k)])


class TestStacks:
    """Every primitive maps a stack (..., d, d) matrix by matrix, each with
    the bits it gets alone, and names the first matrix at fault."""

    @pytest.mark.parametrize("d", [1, 2, 10, 11, 32])
    def test_each_matrix_has_its_lone_bits(self, d):
        rng = np.random.default_rng(70 + d)
        stack = random_stack(rng, 9, d)
        values, vectors = eigh(stack)
        logs = spd_log(stack)
        shifted = regularize_spd(stack, 1000.0)
        for i, c in enumerate(stack):
            alone = eigh(c)
            assert np.array_equal(values[i], alone.values)
            assert np.array_equal(vectors[i], alone.vectors)
            assert np.array_equal(logs[i], spd_log(c))
            assert np.array_equal(shifted[i], regularize_spd(c, 1000.0))

    def test_leading_shape_is_kept(self):
        rng = np.random.default_rng(77)
        stack = random_stack(rng, 6, 4).reshape(2, 3, 4, 4)
        logs = spd_log(stack)
        assert logs.shape == (2, 3, 4, 4)
        assert np.array_equal(logs[1, 2], spd_log(stack[1, 2]))
        assert check_symmetric(stack) is not None

    @pytest.mark.parametrize(
        "spoil, error, func",
        [
            (lambda c: c * np.nan, NonFinite, check_symmetric),
            (lambda c: c + np.triu(np.ones_like(c), 1), NonSymmetric, eigh),
            (lambda c: -c, NotPositiveDefinite, spd_log),
            (lambda c: c * np.inf, NonFinite, lambda s: regularize_spd(s, 1000.0)),
        ],
        ids=["non-finite", "asymmetric", "not-positive", "regularize-non-finite"],
    )
    def test_first_matrix_at_fault_is_named(self, spoil, error, func):
        rng = np.random.default_rng(78)
        stack = random_stack(rng, 9, 5)
        for i in (3, 7):
            stack[i] = spoil(stack[i])
        with pytest.raises(error) as info:
            func(stack)
        assert info.value.index == 3

    def test_not_square_is_rejected(self):
        for bad in (np.ones(3), np.ones((2, 3)), np.ones((4, 2, 3)), np.ones((2, 0, 0))):
            with pytest.raises(NonSymmetric, match="square"):
                check_symmetric(bad)

    def test_is_spd_takes_one_matrix(self):
        rng = np.random.default_rng(79)
        assert not is_spd(random_stack(rng, 2, 3))


class TestIsSpd:
    def test_accepts_spd(self):
        rng = np.random.default_rng(9)
        assert is_spd(random_spd(rng, 5))

    def test_rejects_indefinite_and_asymmetric(self):
        assert not is_spd(np.diag([1.0, -1.0]))
        assert not is_spd(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_ill_conditioned(self):
        assert not is_spd(np.diag([1.0, 1e-12]))
