"""Riemannian kernels over the three set descriptors, as lifted features.

Each kernel is a Frobenius inner product of lifted matrices, so every
descriptor is lifted once into a flat feature row of length D_q:

* log-Euclidean kernel on SPD matrices:  <vec log C1, vec log C2>
  = trace(log(C1) @ log(C2)), D_q = d^2 (Arsigny et al. 2006)
* projection kernel on subspaces:        <vec Y1 Y1^T, vec Y2 Y2^T>
  = ||Y1.T @ Y2||_F^2, D_q = d^2 (Hamm & Lee 2008)
* Gaussian-embedding kernel:             log-Euclidean kernel on the
                                         determinant-one embeddings,
                                         D_q = (d+1)^2

``lift_features`` lifts a list of descriptors into one read-only (N, D_q)
array: a training gallery, or the whole set collection of a split protocol
call, whose splits then slice their training rows from it. A ``KernelBank``
is such arrays, one per channel, and derives its Gram matrices from them. Every kernel value (a Gram entry, a probe's cross-kernel
entry, a scalar kernel) is the same row-wise sum ``(rows * row).sum(axis=-1)``.
It adds the products in one order whichever argument comes first, so Gram
matrices are exactly symmetric and a probe identical to a gallery member
reproduces that member's Gram column bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Sequence

import numpy as np

from .descriptors import DescriptorTriple, GaussianDescriptor, GrassmannPoint
from .errors import (
    BadSpec,
    DimensionMismatch,
    NormalizationDegenerate,
    SetfuseError,
    ShapeMismatch,
)
from .spd import spd_log

# Gram traces at or below this value cannot be normalized against.
NORMALIZATION_TRACE_FLOOR = 1e-12


class KernelId(IntEnum):
    """Which descriptor a kernel channel reads."""

    LOG_EUCLIDEAN = 1
    PROJECTION = 2
    GAUSSIAN_EMBEDDED = 3


ALL_KERNELS = (KernelId.LOG_EUCLIDEAN, KernelId.PROJECTION, KernelId.GAUSSIAN_EMBEDDED)


def _frobenius(rows: np.ndarray, row: np.ndarray) -> np.ndarray:
    """Dot product of ``row`` with each lifted row (a scalar for 1-D ``rows``)."""
    return (rows * row).sum(axis=-1)


def _projector(y: GrassmannPoint) -> np.ndarray:
    return y.basis @ y.basis.T


def log_euclidean_kernel(c1, c2) -> float:
    """trace(log(C1) @ log(C2)) for SPD matrices of equal size."""
    a1 = np.asarray(c1, dtype=np.float64)
    a2 = np.asarray(c2, dtype=np.float64)
    if a1.shape != a2.shape:
        raise DimensionMismatch(f"SPD shapes differ: {a1.shape} vs {a2.shape}")
    return float(_frobenius(spd_log(a1).ravel(), spd_log(a2).ravel()))


def projection_kernel(y1: GrassmannPoint, y2: GrassmannPoint) -> float:
    """||Y1.T @ Y2||_F^2 for subspace bases of equal ambient and subspace dim."""
    if y1.dim != y2.dim or y1.subspace_dim != y2.subspace_dim:
        raise DimensionMismatch(
            f"subspace shapes differ: {y1.basis.shape} vs {y2.basis.shape}"
        )
    return float(_frobenius(_projector(y1).ravel(), _projector(y2).ravel()))


def gaussian_embedding_kernel(g1: GaussianDescriptor, g2: GaussianDescriptor) -> float:
    """Log-Euclidean kernel applied to the two Gaussian embeddings."""
    if g1.dim != g2.dim:
        raise DimensionMismatch(f"Gaussian dims differ: {g1.dim} vs {g2.dim}")
    return log_euclidean_kernel(g1.embedding, g2.embedding)


def _lift(triple: DescriptorTriple, kid: KernelId) -> np.ndarray:
    """Per-descriptor matrix in which the kernel is a Frobenius inner product."""
    if kid == KernelId.LOG_EUCLIDEAN:
        return spd_log(triple.cov)
    if kid == KernelId.PROJECTION:
        return _projector(triple.subspace)
    if kid == KernelId.GAUSSIAN_EMBEDDED:
        return spd_log(triple.gauss.embedding)
    raise BadSpec(f"unknown kernel id {kid!r}")


def lift_row(triple: DescriptorTriple, kid: KernelId) -> np.ndarray:
    """One descriptor's flattened lifted matrix for kernel ``kid``, a 1-D row."""
    return _lift(triple, kid).ravel()


def lift_features(triples: Sequence[DescriptorTriple], kid: KernelId) -> np.ndarray:
    """Lift each descriptor once into one row of a read-only (N, D_q) array.

    Row i is ``lift_row(triples[i], kid)``. Raises ``DimensionMismatch``
    naming the first descriptor whose width differs from the first one's,
    before the descriptors after it are lifted.
    """
    if not triples:
        raise BadSpec("lifted features need at least one descriptor")
    out = None
    for i, t in enumerate(triples):
        try:
            row = lift_row(t, kid)
        except SetfuseError as exc:
            raise type(exc)(f"descriptor {i} ({t.set_id!r}): {exc}") from exc
        if out is None:
            out = np.empty((len(triples), row.size), dtype=np.float64)
        elif row.size != out.shape[1]:
            raise DimensionMismatch(
                f"descriptor {i} ({t.set_id!r}): lifts to {row.size} features, "
                f"descriptor 0 to {out.shape[1]}"
            )
        out[i] = row
    out.setflags(write=False)
    return out


def _read_only(features) -> np.ndarray:
    a = np.asarray(features, dtype=np.float64)
    if a.flags.writeable:
        a = a.copy()
        a.setflags(write=False)
    return a


def _gram(features: np.ndarray) -> np.ndarray:
    """Exactly symmetric Gram matrix of lifted rows, lower triangle mirrored up."""
    n = features.shape[0]
    k = np.empty((n, n), dtype=np.float64)
    for j in range(n):
        col = _frobenius(features[j:], features[j])
        k[j:, j] = col
        k[j, j:] = col
    return k


def gram_matrix(
    triples: Sequence[DescriptorTriple], kid: KernelId, normalize: bool = False
) -> np.ndarray:
    """Kernel Gram matrix over a gallery of descriptor triples, read-only.

    The result is exactly symmetric. With ``normalize`` the matrix is
    rescaled to trace N (raises ``NormalizationDegenerate`` when the raw
    trace is numerically zero).
    """
    return build_kernel_bank(triples, (kid,), normalize).grams[0]


def gram_normalizer(k: np.ndarray) -> float:
    """Factor that rescales a Gram matrix to trace N."""
    tr = float(np.trace(k))
    if tr <= NORMALIZATION_TRACE_FLOOR:
        raise NormalizationDegenerate(f"gram trace {tr:.3e} too small to normalize")
    return k.shape[0] / tr


@dataclass(frozen=True)
class KernelBank:
    """Kernel state of a gallery: its lifted features, one channel per kernel.

    ``features[q]`` holds the gallery's unscaled lifted rows, (N, D_q),
    read-only (a writable array is copied), and is what a saved model
    stores. Everything else is derived from them on construction:
    ``grams[q]`` is the N x N Gram matrix, multiplied by ``scales[q]`` (its
    trace-N factor with ``normalize``, else 1.0), and ``n_train`` is N.
    ``columns_from_rows`` scores a probe's lifted rows (``probe_rows``)
    against the same features, so Grams and probe columns cannot disagree.
    """

    kernel_ids: tuple[KernelId, ...]
    features: tuple[np.ndarray, ...]
    normalize: bool = False
    grams: tuple[np.ndarray, ...] = field(init=False, repr=False)
    scales: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        if not self.kernel_ids:
            raise BadSpec("kernel bank needs at least one kernel")
        if len(self.features) != len(self.kernel_ids):
            raise ShapeMismatch("kernel bank has features for a different number of kernels")
        features = tuple(_read_only(f) for f in self.features)
        for f in features:
            if f.ndim != 2 or f.shape[0] != features[0].shape[0]:
                raise DimensionMismatch(
                    f"feature shape {f.shape} does not match the first channel's "
                    f"{features[0].shape}"
                )
        if features[0].shape[0] < 1:
            raise BadSpec("kernel bank needs at least one gallery member")
        grams = []
        scales = []
        for f in features:
            gram = _gram(f)
            s = gram_normalizer(gram) if self.normalize else 1.0
            if self.normalize:
                gram = gram * s
            gram.setflags(write=False)
            grams.append(gram)
            scales.append(float(s))
        object.__setattr__(self, "kernel_ids", tuple(KernelId(k) for k in self.kernel_ids))
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "grams", tuple(grams))
        object.__setattr__(self, "scales", tuple(scales))

    @property
    def n_train(self) -> int:
        return self.features[0].shape[0]

    @property
    def n_kernels(self) -> int:
        return len(self.kernel_ids)

    @property
    def dim(self) -> int:
        """Feature dimension d of the sets the gallery was encoded from."""
        side = math.isqrt(self.features[0].shape[1])
        return side - 1 if self.kernel_ids[0] == KernelId.GAUSSIAN_EMBEDDED else side

    def probe_rows(self, test: DescriptorTriple) -> tuple[np.ndarray, ...]:
        """One probe's lifted row per channel; the gallery is not read."""
        return tuple(lift_row(test, kid) for kid in self.kernel_ids)

    def columns_from_rows(self, rows: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Scaled kernel columns of a probe's lifted rows against the gallery
        features, one per channel."""
        if len(rows) != self.n_kernels:
            raise ShapeMismatch(f"got {len(rows)} probe rows for {self.n_kernels} kernels")
        out = []
        for row, f, s in zip(rows, self.features, self.scales):
            if row.size != f.shape[1]:
                raise DimensionMismatch(
                    f"probe lifts to {row.size} features, gallery to {f.shape[1]}"
                )
            out.append(_frobenius(f, row) * s)
        return out


def build_kernel_bank(
    triples: Sequence[DescriptorTriple],
    kernel_ids: Sequence[KernelId] = ALL_KERNELS,
    normalize: bool = False,
) -> KernelBank:
    """Lift a gallery once per kernel and derive each Gram from the features."""
    features = [lift_features(triples, kid) for kid in kernel_ids]
    return KernelBank(tuple(kernel_ids), tuple(features), normalize)
