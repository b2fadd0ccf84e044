"""Symmetric / SPD matrix primitives.

Everything here operates on plain float64 numpy arrays: a matrix, or a stack
``(..., d, d)`` of them, which takes one numpy call per step and gives each
matrix the bits it gets alone. A check that fails on a stack names the first
matrix at fault (``raise_first``). ``eigh`` checks and decomposes a stack
as LAPACK does: eigenvalues ascending, each eigenvector's sign as LAPACK
leaves it; a caller that wants them descending reads the pairs in reverse.
No caller reads a sign. A matrix log (``eig_log``, ``spd_log``) and a
projector ``Y Y.T`` are unchanged bit for bit by a column sign flip, and the
trainer reads its span basis and trace-ratio solutions only through the
subspaces they span: a model measures the same distances with a transform E
as with E R, for any orthogonal R.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import NonFinite, NonSymmetric, NotPositiveDefinite

# Relative tolerance for the symmetry check.
SYMMETRY_RTOL = 1e-12
# Matrix log refuses eigenvalues at or below this fraction of the largest.
LOG_EIG_FLOOR_RTOL = 1e-12
# Additive floor used when a covariance has (numerically) zero trace.
TRACE_EPS_FLOOR = 1e-8


class EigenPair(NamedTuple):
    """Eigendecomposition result: ``values`` ascending, as ``eigh`` returns
    them, and the matching eigenvectors as ``vectors`` columns."""

    values: np.ndarray
    vectors: np.ndarray


def raise_first(bad: np.ndarray, error, describe) -> None:
    """Raise ``error(describe(i))`` for the first matrix ``i`` of a stack that
    the mask ``bad`` flags, with ``i`` (its flat stack position) as ``index``."""
    if bad.any():
        i = int(np.argmax(np.ravel(bad)))
        exc = error(describe(i))
        exc.index = i
        raise exc


def check_symmetric(m) -> np.ndarray:
    """Validate that ``m`` is a finite symmetric square matrix, or a stack
    ``(..., d, d)`` of them.

    Returns the validated float64 array: one that is not exactly symmetric
    as its symmetric part ``0.5 * (m + m.T)``, so callers pass raw products
    such as ``v.T @ t @ v``, and an exactly symmetric one (its own symmetric
    part, bit for bit) as it is. Raises ``NonFinite`` on NaN/Inf and
    ``NonSymmetric`` when the relative asymmetry exceeds ``SYMMETRY_RTOL``,
    for the first matrix at fault.
    """
    a = np.asarray(m, dtype=np.float64)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
        raise NonSymmetric(f"expected a square matrix or a stack of them, got shape {a.shape}")
    if not np.isfinite(a).all():
        bad = ~np.isfinite(a).all(axis=(-2, -1))
        raise_first(bad, NonFinite, lambda i: "matrix contains NaN or Inf")
    if not (a == a.swapaxes(-1, -2)).all():  # an exactly symmetric input needs no tolerance
        scale = np.abs(a).max(axis=(-2, -1))
        asym = np.abs(a - a.swapaxes(-1, -2)).max(axis=(-2, -1))
        raise_first(asym > SYMMETRY_RTOL * scale, NonSymmetric, lambda i: (
            f"matrix asymmetry {asym.flat[i]:.3e} exceeds "
            f"{SYMMETRY_RTOL:.1e} * {scale.flat[i]:.3e}"))
        a = 0.5 * (a + a.swapaxes(-1, -2))
    return a


def eigh(m) -> EigenPair:
    """``np.linalg.eigh`` of the ``check_symmetric`` result of a symmetric
    matrix, or of each of a stack: eigenvalues ascending, each eigenvector's
    sign as LAPACK leaves it. A matrix gets the same bits alone as inside a
    stack."""
    return EigenPair(*np.linalg.eigh(check_symmetric(m)))


def eig_log(pair: EigenPair) -> np.ndarray:
    """Matrix logarithm ``V diag(log λ) V.T`` of SPD matrices from their
    ``eigh`` (ascending), summed over the eigenvalues in descending order.
    No eigenvector sign is fixed first: flipping a column flips both of its
    factors in every term, which leaves each term, so the log, bit for bit.

    Raises ``NotPositiveDefinite`` for the first matrix with an eigenvalue
    at or below ``LOG_EIG_FLOOR_RTOL`` times its largest (so for any whose
    largest is at or below 0).
    """
    # contiguous copies: numpy's log rounds some strided arrays apart from contiguous
    # ones, and a product of strided operands takes another summation path
    values, vectors = pair.values[..., ::-1].copy(), pair.vectors[..., ::-1].copy()
    lam_max, lam_min = values[..., 0], values[..., -1]
    raise_first(lam_min <= LOG_EIG_FLOOR_RTOL * lam_max, NotPositiveDefinite, lambda i: (
        "matrix log needs a strictly positive spectrum, eigenvalues in "
        f"[{lam_min.flat[i]:.3e}, {lam_max.flat[i]:.3e}]"))
    out = (vectors * np.log(values)[..., None, :]) @ vectors.swapaxes(-1, -2)
    out += out.swapaxes(-1, -2)  # numpy buffers the overlap: 0.5 * (out + out.T)
    out *= 0.5
    return out


def spd_log(c) -> np.ndarray:
    """Matrix logarithm of an SPD matrix, or of each matrix of a stack:
    ``eig_log`` of its ``eigh``; a matrix gets the same bits alone as inside
    a stack, and ``NotPositiveDefinite`` names the first matrix refused."""
    return eig_log(eigh(c))


def trace_floored(tr: np.ndarray, d: int) -> np.ndarray:
    """Mask of the traces of d x d matrices that take ``regularize_spd``'s floor."""
    return tr <= TRACE_EPS_FLOOR * d


def regularize_spd(c, alpha: float) -> np.ndarray:
    """Shift a symmetric PSD matrix, or each of a stack, onto the SPD cone.

    Adds ``trace(c) / alpha`` times the identity. When the trace is at or
    below ``TRACE_EPS_FLOOR * d`` (e.g. the zero matrix from a constant image
    set) the shift falls back to the absolute floor ``TRACE_EPS_FLOOR`` so the
    output is still usable downstream (``encode_sets`` logs the sets it
    floors). ``alpha`` is positive, as ``TrainConfig`` checks it; ``inf`` is a
    no-op sentinel for direct callers (tests) that need the raw estimate.
    A shift that overflows (a tiny ``alpha``) leaves an Inf or NaN, which
    fails the caller's finiteness check (``encode_sets`` holds back numpy's
    warnings).
    """
    a = check_symmetric(c)
    tr = np.trace(a, axis1=-2, axis2=-1)
    shift = np.where(trace_floored(tr, a.shape[-1]), TRACE_EPS_FLOOR, tr / float(alpha))
    return a + shift[..., None, None] * np.eye(a.shape[-1])
