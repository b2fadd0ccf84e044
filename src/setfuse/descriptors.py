"""Set-level descriptors: covariance, linear subspace, embedded Gaussian.

An image set is a d x n matrix whose columns are feature vectors extracted
from the individual images. Three complementary descriptors summarize it:

* a regularized sample covariance (a point on the SPD manifold),
* an orthonormal basis of the dominant span (a point on the Grassmannian),
* a single Gaussian, embedded as a determinant-one SPD matrix of size
  (d+1) x (d+1) so that mean and covariance live in one object.

All three are deterministic functions of the input bits, computed for a
whole collection by ``encode_sets`` as stacks (``DescriptorStack``); a set's
descriptors are the same bits alone or in any stack. ``encode_set`` and the
per-descriptor functions are the one-set view of the same code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    BadDimension,
    BadSpec,
    DimensionMismatch,
    NonFinite,
    NotOrthonormal,
    NotPositiveDefinite,
    RankDeficient,
    SetfuseError,
    TooFewSamples,
)
from .spd import check_symmetric, raise_first, regularize_spd, sym_eig

# Eigenvalues below this fraction of the largest are treated as rank loss
# when extracting a subspace basis.
RANK_EIG_RTOL = 1e-12


def read_only(values, dtype=np.float64) -> np.ndarray:
    """A read-only array of ``values``; one that already is one is not copied."""
    if isinstance(values, np.ndarray) and values.dtype == dtype and not values.flags.writeable:
        return values
    a = np.array(values, dtype=dtype)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ImageSet:
    """One labeled image set: columns of ``features`` are per-image vectors."""

    features: np.ndarray
    label: str
    set_id: str

    def __post_init__(self):
        a = np.asarray(self.features, dtype=np.float64)
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


@dataclass(frozen=True)
class GrassmannPoint:
    """Orthonormal basis of a q-dimensional subspace of R^d, as d x q columns."""

    basis: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.basis, dtype=np.float64)
        if a.ndim != 2 or not 1 <= a.shape[1] <= a.shape[0]:
            raise DimensionMismatch(f"basis must be d x q with 1 <= q <= d, got {a.shape}")
        gram = a.T @ a
        if np.max(np.abs(gram - np.eye(a.shape[1]))) > 1e-10:
            raise NotOrthonormal("basis columns are not orthonormal")
        object.__setattr__(self, "basis", read_only(a))

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def subspace_dim(self) -> int:
        return self.basis.shape[1]


@dataclass(frozen=True)
class GaussianDescriptor:
    """Gaussian model of a set plus its SPD embedding.

    ``embedding`` is the (d+1) x (d+1) determinant-one SPD matrix built from
    the mean and covariance; it is the object the Gaussian kernel consumes.
    """

    mean: np.ndarray
    covariance: np.ndarray
    embedding: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mean, dtype=np.float64).reshape(-1)
        c = np.asarray(self.covariance, dtype=np.float64)
        p = np.asarray(self.embedding, dtype=np.float64)
        d = m.shape[0]
        if c.shape != (d, d) or p.shape != (d + 1, d + 1):
            raise DimensionMismatch(
                f"inconsistent Gaussian shapes: mean {m.shape}, cov {c.shape}, embedding {p.shape}"
            )
        object.__setattr__(self, "mean", read_only(m))
        object.__setattr__(self, "covariance", read_only(c))
        object.__setattr__(self, "embedding", read_only(p))

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


@dataclass(frozen=True)
class DescriptorTriple:
    """All three descriptors of one set, with its label carried along."""

    cov: np.ndarray
    subspace: GrassmannPoint
    gauss: GaussianDescriptor
    label: str
    set_id: str

    def __post_init__(self):
        object.__setattr__(self, "cov", read_only(self.cov))

    @property
    def dim(self) -> int:
        return self.cov.shape[0]


@dataclass(frozen=True)
class DescriptorStack:
    """The descriptors of N sets as read-only stacks, row i from set i: ``cov``
    (N, d, d), ``basis`` (N, d, q) and ``embedding`` (N, d+1, d+1)."""

    cov: np.ndarray
    basis: np.ndarray
    embedding: np.ndarray
    set_ids: tuple[str, ...]


def as_stack(descriptors) -> DescriptorStack:
    """``descriptors`` as a ``DescriptorStack``: a stack as is, a triple as a
    stack of one, a sequence of triples stacked (``BadSpec`` for none,
    ``DimensionMismatch`` naming the first whose shapes differ from the first's)."""
    if isinstance(descriptors, DescriptorStack):
        return descriptors
    triples = [descriptors] if isinstance(descriptors, DescriptorTriple) else list(descriptors)
    if not triples:
        raise BadSpec("a descriptor stack needs at least one descriptor")
    rows = [(t.cov, t.subspace.basis, t.gauss.embedding) for t in triples]
    for i, row in enumerate(rows):
        if [a.shape for a in row] != [a.shape for a in rows[0]]:
            raise DimensionMismatch(f"descriptor {i} ({triples[i].set_id!r}): shapes differ")
    stacks = (read_only(np.stack(column)) for column in zip(*rows))
    return DescriptorStack(*stacks, tuple(t.set_id for t in triples))


def common_dim(sets: Sequence[ImageSet]) -> int:
    """The feature dimension every set shares: ``BadSpec`` for no sets,
    ``DimensionMismatch`` naming the first that differs from set 0."""
    if not sets:
        raise BadSpec("no image sets given")
    for i, s in enumerate(sets):
        if s.dim != sets[0].dim:
            raise DimensionMismatch(
                f"set {i} ({s.set_id!r}) has dimension {s.dim}, set 0 has {sets[0].dim}"
            )
    return sets[0].dim


def _moments(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Means, symmetrized sample covariances (divisor n - 1) and ``X @ X.T``
    of a (k, d, n) stack of sets. An overflow does not warn: the Inf it
    leaves fails the finiteness check of ``regularize_spd`` or ``sym_eig``."""
    with np.errstate(over="ignore"):
        mean = x.mean(axis=-1)
        centered = x - mean[..., None]
        c = (centered @ centered.swapaxes(-1, -2)) / (x.shape[-1] - 1)
        return mean, 0.5 * (c + c.swapaxes(-1, -2)), x @ x.swapaxes(-1, -2)


def _bases(gram: np.ndarray, q: int) -> np.ndarray:
    """Top-q eigenvectors of each ``X @ X.T`` of a (k, d, d) stack, (k, d, q)."""
    if not 1 <= q <= gram.shape[-1]:
        raise BadDimension(f"subspace dimension q={q} must be in [1, {gram.shape[-1]}]")
    values, vectors = sym_eig(gram)
    top, qth = values[:, 0], values[:, q - 1]
    raise_first((top <= 0.0) | (qth < RANK_EIG_RTOL * top), RankDeficient, lambda i: (
        f"numerical rank below q={q} (eigenvalue {qth[i]:.3e} vs max {top[i]:.3e})"))
    basis = vectors[..., :q].copy()
    off = np.abs(basis.swapaxes(-1, -2) @ basis - np.eye(q)).max(axis=(1, 2))
    raise_first(off > 1e-10, NotOrthonormal, lambda i: "basis columns are not orthonormal")
    return basis


def embed_gaussian(mean, covariance) -> np.ndarray:
    """Embed a Gaussian (mean, covariance) as a determinant-one SPD matrix,
    or each of a stack of means (..., d) and covariances (..., d, d).

    With A the lower Cholesky factor of the covariance, the embedding is

        |A|^(-2/(d+1)) * [[A A^T + m m^T, m],
                          [m^T,           1]]

    which has determinant exactly one and is congruence-covariant under
    affine maps of the underlying space.
    """
    m = np.asarray(mean, dtype=np.float64)
    c = check_symmetric(covariance)
    d = c.shape[-1]
    if m.size != c.size // d:
        raise DimensionMismatch(f"mean has shape {m.shape} but covariance {c.shape}")
    m = m.reshape(c.shape[:-1])
    try:
        chol = np.linalg.cholesky(c)
    except np.linalg.LinAlgError:
        # a stacked Cholesky names no matrix, so find the first that fails alone
        for i, ci in enumerate(c.reshape(-1, d, d)):
            try:
                np.linalg.cholesky(ci)
            except np.linalg.LinAlgError:
                exc = NotPositiveDefinite("covariance is not positive definite")
                exc.index = i
                raise exc from None
        raise
    # log-space determinant of the Cholesky factor, robust for larger d
    log_det_a = np.log(np.diagonal(chol, axis1=-2, axis2=-1)).sum(axis=-1)
    p = np.empty(c.shape[:-2] + (d + 1, d + 1), dtype=np.float64)
    p[..., :d, :d] = c + m[..., :, None] * m[..., None, :]
    p[..., :d, d] = p[..., d, :d] = m
    p[..., d, d] = 1.0
    return np.exp(-2.0 / (d + 1) * log_det_a)[..., None, None] * p


def encode_sets(sets: Sequence[ImageSet], cfg) -> DescriptorStack:
    """All three descriptors of every set under a ``TrainConfig`` (only
    ``alpha`` and ``subspace_dim`` are read). Sets are stacked by sample count
    for their moments, and every later step is one stacked call; a set's
    descriptors are bit-identical alone and inside any stack. An error names
    the first set at fault, ``set i ('<set_id>')``, as a set-by-set encoding would."""
    d, n = common_dim(sets), len(sets)
    groups: dict[int, list[int]] = {}
    for i, s in enumerate(sets):
        groups.setdefault(s.n_samples, []).append(i)
    mean, scatter, gram = np.empty((n, d)), np.empty((n, d, d)), np.empty((n, d, d))
    try:
        for members in groups.values():
            x = np.array([sets[i].features for i in members])
            mean[members], scatter[members], gram[members] = _moments(x)
        cov = regularize_spd(scatter, cfg.alpha)
        embedding = embed_gaussian(mean, cov)
        basis = _bases(gram, cfg.subspace_dim)
    except SetfuseError as exc:
        i = getattr(exc, "index", 0)
        if i:  # an earlier set may fail a later check; this raises naming it
            encode_sets(sets[:i], cfg)
        raise type(exc)(f"set {i} ({sets[i].set_id!r}): {exc}") from exc
    for a in (cov, basis, embedding):
        a.setflags(write=False)
    return DescriptorStack(cov, basis, embedding, tuple(s.set_id for s in sets))


def sample_mean(s: ImageSet) -> np.ndarray:
    """Column mean of the set."""
    return s.features.mean(axis=1)


def covariance_descriptor(s: ImageSet, alpha: float) -> np.ndarray:
    """Regularized sample covariance of the set's columns: the unbiased
    estimate (divisor n - 1) with its spectrum shifted by ``trace / alpha``
    via ``regularize_spd``, so the result is always SPD."""
    return regularize_spd(_moments(s.features[None])[1], alpha)[0]


def subspace_descriptor(s: ImageSet, q: int) -> GrassmannPoint:
    """Dominant q-dimensional span of the set's (uncentered) columns: the
    top-q eigenvectors of ``X @ X.T``. ``RankDeficient`` when the q-th
    eigenvalue is negligible next to the largest (q exceeds the rank)."""
    return GrassmannPoint(basis=_bases(_moments(s.features[None])[2], q)[0])


def gaussian_descriptor(s: ImageSet, alpha: float) -> GaussianDescriptor:
    """Single-Gaussian model of the set with its SPD embedding; its
    covariance is exactly the matrix ``covariance_descriptor`` returns."""
    cov, mean = covariance_descriptor(s, alpha), sample_mean(s)
    return GaussianDescriptor(mean=mean, covariance=cov, embedding=embed_gaussian(mean, cov))


def encode_set(s: ImageSet, cfg) -> DescriptorTriple:
    """All three descriptors of one set, row 0 of ``encode_sets([s], cfg)``:
    bit-identical for identical inputs, with ``cov`` and ``gauss.covariance``
    the same array."""
    e = encode_sets([s], cfg)
    gauss = GaussianDescriptor(mean=sample_mean(s), covariance=e.cov[0], embedding=e.embedding[0])
    return DescriptorTriple(gauss.covariance, GrassmannPoint(e.basis[0]), gauss, s.label, s.set_id)
