"""Set-level descriptors: covariance, linear subspace, embedded Gaussian.

An image set is a d x n matrix whose columns are feature vectors extracted
from the individual images. Three complementary descriptors summarize it:

* a regularized sample covariance (a point on the SPD manifold),
* an orthonormal basis of the dominant span (a point on the Grassmannian),
* a single Gaussian, embedded as a determinant-one SPD matrix of size
  (d+1) x (d+1) so that mean and covariance live in one object.

All three are deterministic functions of the input bits, computed for a
whole collection by ``encode_sets`` as stacks (``DescriptorStack``), the one
form a descriptor takes; a set's descriptors are the same bits alone or in
any stack, and a single set is a stack of one. Each of a set's matrices is
factored once. One stacked eigendecomposition of the covariance and of
``X X^T`` gives the covariance's matrix log (the form its log-Euclidean
kernel reads), the subspace basis, and the log-determinant that scales the
Gaussian embedding; the embedding's own log is taken when it is lifted.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    BadDimension,
    BadSpec,
    DimensionMismatch,
    NonFinite,
    RankDeficient,
    SetfuseError,
    TooFewSamples,
)
from .spd import EigenPair, eig_log, eigh, raise_first, regularize_spd, trace_floored

logger = logging.getLogger(__name__)

# Eigenvalues below this fraction of the largest are treated as rank loss
# when extracting a subspace basis.
RANK_EIG_RTOL = 1e-12


def read_only(values) -> np.ndarray:
    """A read-only C-contiguous float64 array of ``values``; one that already
    is one is not copied."""
    if (
        isinstance(values, np.ndarray)
        and values.dtype == np.float64
        and not values.flags.writeable
        and values.flags.c_contiguous
    ):
        return values
    a = np.array(values, dtype=np.float64, order="C")
    a.setflags(write=False)
    return a


def _non_real(a: np.ndarray) -> bool:
    """Whether ``a`` holds complex numbers, booleans or strings, as its dtype
    or as the entries of an object array; numpy would read them as floats."""
    kinds = (bool, np.bool_, str, bytes, complex, np.complexfloating)
    return a.dtype.kind in "bcSU" or a.dtype == object and any(isinstance(x, kinds) for x in a.flat)


@dataclass(frozen=True, eq=False)
class ImageSet:
    """One labeled image set: columns of ``features`` are per-image vectors.
    ``label`` and ``set_id`` are each a str (numpy's ``str_`` is one), and
    ``features`` real numbers that numpy reads as float64 (no complex value,
    boolean, string or ragged nesting), else ``BadSpec`` names the set before
    any shape check.
    Equality and hashing are by identity, as for every public type that
    holds arrays."""

    features: np.ndarray
    label: str
    set_id: str

    def __post_init__(self):
        for what, value in (("label", self.label), ("set id", self.set_id)):
            if not isinstance(value, str):
                raise BadSpec(f"set {self.set_id!r}: {what} must be a str, got {value!r:.80}")
        try:
            # a list's leaves as they are: numpy reads a bool among floats as 1.0
            leaves = None if isinstance(self.features, np.ndarray) else object
            raw = np.asarray(self.features, leaves)
            a = None if _non_real(raw) else np.asarray(raw, np.float64)
        except (TypeError, ValueError):
            a = None
        if a is None:
            raise BadSpec(f"set {self.set_id!r}: features must be real numbers")
        if a.ndim != 2 or a.shape[0] < 1:
            raise DimensionMismatch(
                f"set {self.set_id!r}: features must be a d x n matrix, got shape {a.shape}"
            )
        if a.shape[1] < 2:
            raise TooFewSamples(
                f"set {self.set_id!r}: needs at least 2 samples, got {a.shape[1]}"
            )
        if not np.isfinite(a).all():
            raise NonFinite(f"set {self.set_id!r}: features contain NaN or Inf")
        object.__setattr__(self, "features", read_only(a))

    @property
    def dim(self) -> int:
        return self.features.shape[0]

    @property
    def n_samples(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True, eq=False)
class DescriptorStack:
    """The descriptors of N sets as read-only stacks, row i from set i:
    ``log_cov`` (N, d, d), the matrix log of each regularized covariance;
    ``basis`` (N, d, q), orthonormal columns, each with the sign LAPACK's
    ``eigh`` leaves it (its projector reads no sign); and ``embedding``
    (N, d+1, d+1)."""

    log_cov: np.ndarray
    basis: np.ndarray
    embedding: np.ndarray
    set_ids: tuple[str, ...]


def common_dim(sets: Sequence[ImageSet]) -> int:
    """The feature dimension every set shares: ``BadSpec`` unless ``sets`` is
    a non-empty list or tuple of ``ImageSet`` (naming the first item that is
    not one), ``DimensionMismatch`` naming the first set that differs from set 0."""
    if not isinstance(sets, (list, tuple)):
        raise BadSpec(f"expected a list or tuple of ImageSet, got {type(sets).__name__}")
    if not sets:
        raise BadSpec("no image sets given")
    for i, s in enumerate(sets):
        if not isinstance(s, ImageSet):
            raise BadSpec(f"item {i} is a {type(s).__name__}, not an ImageSet")
        if s.dim != sets[0].dim:
            raise DimensionMismatch(
                f"set {i} ({s.set_id!r}) has dimension {s.dim}, set 0 has {sets[0].dim}"
            )
    return sets[0].dim


def _moments(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Means, sample covariances (divisor n - 1) and ``X @ X.T`` of a (k, d,
    n) stack of sets. Each covariance is the stacked product of a centred set
    with its own transpose, so exactly symmetric; ``check_symmetric`` would
    hand any other its symmetric part."""
    mean = x.sum(axis=-1) / x.shape[-1]  # np.mean's arithmetic, without its wrapper
    centered = x - mean[..., None]
    covariance = centered @ centered.swapaxes(-1, -2) / (x.shape[-1] - 1)
    return mean, covariance, x @ x.swapaxes(-1, -2)


def _bases(pair: EigenPair, q: int) -> np.ndarray:
    """Top-q eigenvectors (k, d, q) of each ``X @ X.T`` of a stack, from their
    ``eigh``, leading first, each column's sign as LAPACK leaves it: the
    projector, the one thing that reads a basis, reads no column sign."""
    values, vectors = pair
    top, qth = values[:, -1], values[:, -q]
    raise_first((top <= 0.0) | (qth < RANK_EIG_RTOL * top), RankDeficient, lambda i: (
        f"numerical rank below q={q} (eigenvalue {qth[i]:.3e} vs max {top[i]:.3e})"))
    return vectors[..., ::-1][..., :q].copy()


def embed_gaussian(mean, covariance, log_det) -> np.ndarray:
    """Embed a Gaussian (mean m, covariance C) as a determinant-one SPD
    matrix, or each of a stack of means (..., d), covariances (..., d, d) and
    log-determinants (...):

        det(C)^(-1/(d+1)) * [[C + m m^T, m],
                             [m^T,       1]]

    which has determinant exactly one and is congruence-covariant under
    affine maps of the underlying space. ``log_det`` is log det(C), the sum
    of the logs of C's eigenvalues, so nothing here factors C.
    """
    m = np.asarray(mean, dtype=np.float64)
    c = np.asarray(covariance, dtype=np.float64)
    d = c.shape[-1]
    p = np.empty(c.shape[:-2] + (d + 1, d + 1), dtype=np.float64)
    scale = np.exp(-np.asarray(log_det, dtype=np.float64) / (d + 1))
    # in place, as the encoder builds this while its moment stack lives
    p[..., :d, :d] = m[..., :, None] * m[..., None, :]
    p[..., :d, :d] += c
    p[..., :d, d] = p[..., d, :d] = m
    p[..., d, d] = 1.0
    p *= scale[..., None, None]
    return p


def encode_sets(sets: Sequence[ImageSet], cfg) -> DescriptorStack:
    """All three descriptors of every set under a ``TrainConfig`` (only
    ``alpha`` and ``subspace_dim`` are read). Sets are stacked by sample count
    for their moments, and every later step is one stacked call: one ``eigh``
    of the regularized covariances and the second moments ``X @ X.T`` stacked
    (2, N, d, d) gives each covariance's log and log-determinant (the
    embedding's scale) and each basis. A set's
    descriptors are bit-identical alone and inside any stack. An error names
    the first set at fault, ``set i ('<set_id>')``, as a set-by-set encoding
    would, whichever half of the stack it is found in. One warning counts the
    sets ``regularize_spd`` floors and names the first. An overflow anywhere
    in the encoding does not warn: the Inf or NaN it leaves fails a
    finiteness check (``check_symmetric``, in ``regularize_spd`` or ``eigh``)
    or the positive-spectrum check of ``eig_log``, which names the set."""
    d, n, q = common_dim(sets), len(sets), cfg.subspace_dim
    if not 1 <= q <= d:
        raise BadDimension(f"subspace dimension q={q} must be in [1, {d}]")
    groups: dict[int, list[int]] = {}
    for i, s in enumerate(sets):
        groups.setdefault(s.n_samples, []).append(i)
    mean, moments = np.empty((n, d)), np.empty((2, n, d, d))  # covariances, then X @ X.T
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for members in groups.values():
                x = np.array([sets[i].features for i in members])
                mean[members], moments[0, members], moments[1, members] = _moments(x)
            floored = np.flatnonzero(trace_floored(np.trace(moments[0], axis1=1, axis2=2), d))
            moments[0] = regularize_spd(moments[0], cfg.alpha)
            values, vectors = eigh(moments)
            log_det = np.log(values[0]).sum(axis=-1)  # eig_log refuses a spectrum this fails on
            embedding = embed_gaussian(mean, moments[0], log_det)
            del moments  # encoding peaks in memory at the log's temporaries, so free it first
            basis = _bases(EigenPair(values[1], vectors[1]), q)
            log_cov = eig_log(EigenPair(values[0], vectors[0]))
    except SetfuseError as exc:
        if not hasattr(exc, "index"):
            raise
        i = exc.index % n  # the stacked eigh counts X @ X.T from n on
        if i:  # an earlier set may fail a later check; this raises naming it
            encode_sets(sets[:i], cfg)
        raise type(exc)(f"set {i} ({sets[i].set_id!r}): {exc}") from exc
    if floored.size:
        logger.warning(
            "%d of %d sets have a zero-trace covariance, shifted by the trace floor; "
            "the first is set %d (%r)", floored.size, n, floored[0], sets[floored[0]].set_id
        )
    for a in (log_cov, basis, embedding):
        a.setflags(write=False)
    return DescriptorStack(log_cov, basis, embedding, tuple(s.set_id for s in sets))
