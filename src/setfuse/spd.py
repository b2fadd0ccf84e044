"""Symmetric / SPD matrix primitives.

Everything here operates on plain float64 numpy arrays. Eigendecompositions
follow one deterministic convention used across the package: eigenvalues in
descending order, and each eigenvector scaled so its largest-magnitude entry
is positive. That convention is what makes training runs bit-reproducible.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import BadSpec, NonFinite, NonSymmetric, NotPositiveDefinite

# Relative tolerance for the symmetry check.
SYMMETRY_RTOL = 1e-12
# An SPD check passes when the smallest eigenvalue exceeds this fraction of
# the largest one.
SPD_EIG_RTOL = 1e-10
# Matrix log refuses eigenvalues at or below this fraction of the largest.
LOG_EIG_FLOOR_RTOL = 1e-12
# Additive floor used when a covariance has (numerically) zero trace.
TRACE_EPS_FLOOR = 1e-8


class EigenPair(NamedTuple):
    """Eigendecomposition result: ``values`` descending, ``vectors`` columns."""

    values: np.ndarray
    vectors: np.ndarray


def _as_square(m) -> np.ndarray:
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise NonSymmetric(f"expected a square matrix, got shape {a.shape}")
    return a


def check_symmetric(m) -> np.ndarray:
    """Validate that ``m`` is a finite symmetric square matrix.

    Returns the validated float64 array. Raises ``NonFinite`` on NaN/Inf and
    ``NonSymmetric`` when the relative asymmetry exceeds ``SYMMETRY_RTOL``.
    """
    a = _as_square(m)
    if not np.isfinite(a).all():
        raise NonFinite("matrix contains NaN or Inf")
    scale = float(np.max(np.abs(a)))
    if scale > 0.0:
        asym = float(np.max(np.abs(a - a.T)))
        if asym > SYMMETRY_RTOL * scale:
            raise NonSymmetric(
                f"matrix asymmetry {asym:.3e} exceeds {SYMMETRY_RTOL:.1e} * {scale:.3e}"
            )
    return a


def sym_eig(m) -> EigenPair:
    """Eigendecomposition of a symmetric matrix with a fixed convention.

    Eigenvalues are returned in descending order. Each eigenvector has its
    largest-magnitude entry made positive, which pins the sign that ``eigh``
    would otherwise leave arbitrary. Reconstruction
    ``vectors @ diag(values) @ vectors.T`` recovers the input to roundoff.

    The input need only be symmetric to ``SYMMETRY_RTOL``. Its symmetric
    part ``0.5 * (m + m.T)`` is what gets decomposed, so callers pass raw
    products such as ``v.T @ t @ v`` and get the bits symmetrizing gives.
    """
    a = check_symmetric(m)
    values, vectors = np.linalg.eigh(0.5 * (a + a.T))
    values = values[::-1].copy()
    vectors = vectors[:, ::-1].copy()
    idx = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[idx, np.arange(vectors.shape[1])])
    signs[signs == 0.0] = 1.0
    vectors *= signs
    return EigenPair(values, vectors)


def is_spd(m) -> bool:
    """True when ``m`` is symmetric with spectrum bounded away from zero.

    The test requires ``lambda_min > SPD_EIG_RTOL * lambda_max``, so
    barely-positive spectra with huge condition numbers are rejected along
    with indefinite ones.
    """
    try:
        pair = sym_eig(m)
    except (NonSymmetric, NonFinite):
        return False
    lam_max = float(pair.values[0])
    if lam_max <= 0.0:
        return False
    return float(pair.values[-1]) > SPD_EIG_RTOL * lam_max


def spd_log(c) -> np.ndarray:
    """Matrix logarithm of an SPD matrix via eigendecomposition.

    Raises ``NotPositiveDefinite`` when any eigenvalue falls at or below
    ``LOG_EIG_FLOOR_RTOL`` times the largest eigenvalue.
    """
    pair = sym_eig(c)
    lam_max = float(pair.values[0])
    if lam_max <= 0.0 or float(pair.values[-1]) <= LOG_EIG_FLOOR_RTOL * lam_max:
        raise NotPositiveDefinite(
            f"matrix log needs a strictly positive spectrum, eigenvalues in "
            f"[{pair.values[-1]:.3e}, {lam_max:.3e}]"
        )
    out = (pair.vectors * np.log(pair.values)) @ pair.vectors.T
    return 0.5 * (out + out.T)


def regularize_spd(c, alpha: float) -> np.ndarray:
    """Shift a symmetric PSD matrix onto the SPD cone.

    Adds ``trace(c) / alpha`` times the identity. When the trace is at or
    below ``TRACE_EPS_FLOOR * d`` (e.g. the zero matrix from a constant image
    set) the shift falls back to the absolute floor ``TRACE_EPS_FLOOR`` so the
    output is still usable downstream. ``alpha = inf`` is a no-op sentinel
    for direct callers (tests) that need the raw estimate; ``TrainConfig``
    requires a finite ``alpha``, so training never passes it.
    """
    if not alpha > 0.0:
        raise BadSpec(f"alpha must be positive, got {alpha}")
    a = check_symmetric(c)
    d = a.shape[0]
    tr = float(np.trace(a))
    if tr <= TRACE_EPS_FLOOR * d:
        shift = TRACE_EPS_FLOOR
    else:
        shift = tr / alpha
    return a + shift * np.eye(d)
