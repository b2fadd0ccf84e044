"""Set-level descriptors: covariance, linear subspace, embedded Gaussian.

An image set is a d x n matrix whose columns are feature vectors extracted
from the individual images. Three complementary descriptors summarize it:

* a regularized sample covariance (a point on the SPD manifold),
* an orthonormal basis of the dominant span (a point on the Grassmannian),
* a single Gaussian, embedded as a determinant-one SPD matrix of size
  (d+1) x (d+1) so that mean and covariance live in one object.

All three are deterministic functions of the input bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadDimension,
    DimensionMismatch,
    NonFinite,
    NotOrthonormal,
    NotPositiveDefinite,
    RankDeficient,
    TooFewSamples,
)
from .spd import check_symmetric, regularize_spd, sym_eig

# Eigenvalues below this fraction of the largest are treated as rank loss
# when extracting a subspace basis.
RANK_EIG_RTOL = 1e-12


def _frozen_array(values, dtype=np.float64) -> np.ndarray:
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
        object.__setattr__(self, "features", _frozen_array(a))

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
        object.__setattr__(self, "basis", _frozen_array(a))

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
        object.__setattr__(self, "mean", _frozen_array(m))
        object.__setattr__(self, "covariance", _frozen_array(c))
        object.__setattr__(self, "embedding", _frozen_array(p))

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
        object.__setattr__(self, "cov", _frozen_array(self.cov))

    @property
    def dim(self) -> int:
        return self.cov.shape[0]


def sample_mean(s: ImageSet) -> np.ndarray:
    """Column mean of the set."""
    return s.features.mean(axis=1)


def covariance_descriptor(s: ImageSet, alpha: float) -> np.ndarray:
    """Regularized sample covariance of the set's columns.

    Uses the unbiased estimator (divisor n - 1), then shifts the spectrum by
    ``trace / alpha`` via ``regularize_spd`` so the result is always SPD.
    """
    x = s.features
    n = x.shape[1]
    if n < 2:
        raise TooFewSamples(f"set {s.set_id!r}: covariance needs n >= 2, got {n}")
    centered = x - x.mean(axis=1)[:, None]
    c = (centered @ centered.T) / (n - 1)
    c = 0.5 * (c + c.T)
    return regularize_spd(c, alpha)


def subspace_descriptor(s: ImageSet, q: int) -> GrassmannPoint:
    """Dominant q-dimensional span of the set's (uncentered) columns.

    The basis consists of the top-q eigenvectors of ``X @ X.T``. Raises
    ``RankDeficient`` when the q-th eigenvalue is negligible relative to the
    largest, i.e. the requested dimension exceeds the numerical rank.
    """
    x = s.features
    d = x.shape[0]
    if not 1 <= q <= d:
        raise BadDimension(f"subspace dimension q={q} must be in [1, {d}]")
    pair = sym_eig(x @ x.T)
    lam_max = float(pair.values[0])
    if lam_max <= 0.0 or float(pair.values[q - 1]) < RANK_EIG_RTOL * lam_max:
        raise RankDeficient(
            f"set {s.set_id!r}: numerical rank below q={q} "
            f"(eigenvalue {float(pair.values[q - 1]):.3e} vs max {lam_max:.3e})"
        )
    return GrassmannPoint(basis=pair.vectors[:, :q].copy())


def embed_gaussian(mean, covariance) -> np.ndarray:
    """Embed a Gaussian (mean, covariance) as a determinant-one SPD matrix.

    With A the lower Cholesky factor of the covariance, the embedding is

        |A|^(-2/(d+1)) * [[A A^T + m m^T, m],
                          [m^T,           1]]

    which has determinant exactly one and is congruence-covariant under
    affine maps of the underlying space.
    """
    m = np.asarray(mean, dtype=np.float64).reshape(-1)
    c = check_symmetric(covariance)
    d = m.shape[0]
    if c.shape != (d, d):
        raise DimensionMismatch(f"mean has dim {d} but covariance shape is {c.shape}")
    try:
        chol = np.linalg.cholesky(c)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"covariance is not positive definite: {exc}") from exc
    # log-space determinant of the Cholesky factor, robust for larger d
    log_det_a = float(np.sum(np.log(np.diag(chol))))
    scale = np.exp(-2.0 / (d + 1) * log_det_a)
    p = np.empty((d + 1, d + 1), dtype=np.float64)
    p[:d, :d] = c + np.outer(m, m)
    p[:d, d] = m
    p[d, :d] = m
    p[d, d] = 1.0
    return scale * p


def gaussian_descriptor(s: ImageSet, alpha: float) -> GaussianDescriptor:
    """Single-Gaussian model of the set with its SPD embedding.

    The covariance here is exactly the matrix ``covariance_descriptor``
    returns, so the two descriptors never drift apart numerically.
    """
    cov = covariance_descriptor(s, alpha)
    mean = sample_mean(s)
    return GaussianDescriptor(mean=mean, covariance=cov, embedding=embed_gaussian(mean, cov))


def encode_set(s: ImageSet, cfg) -> DescriptorTriple:
    """Compute all three descriptors of a set under a model configuration.

    ``cfg`` is a ``TrainConfig``; only ``alpha`` and ``subspace_dim`` are
    read. Encoding is deterministic: identical inputs give bit-identical
    descriptors. The regularized covariance is computed once: ``cov`` and
    ``gauss.covariance`` are the same array.
    """
    gauss = gaussian_descriptor(s, cfg.alpha)
    return DescriptorTriple(
        cov=gauss.covariance,
        subspace=subspace_descriptor(s, cfg.subspace_dim),
        gauss=gauss,
        label=s.label,
        set_id=s.set_id,
    )
