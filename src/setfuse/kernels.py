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

``lift_features`` stacks a gallery's rows into an (N, D_q) array, and
``KernelBank`` carries those arrays next to the Gram matrices derived from
them. Every kernel value (a Gram entry, a probe's cross-kernel entry, a
scalar kernel) is the same row-wise sum ``(rows * row).sum(axis=-1)``. It adds
the products in one order whichever argument comes first, so Gram matrices
are exactly symmetric and a probe identical to a gallery member reproduces
that member's Gram column bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Sequence

import numpy as np

from .descriptors import DescriptorTriple, GaussianDescriptor, GrassmannPoint
from .errors import DimensionMismatch, NormalizationDegenerate, SetfuseError
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
    raise ValueError(f"unknown kernel id {kid!r}")


def lift_features(triples: Sequence[DescriptorTriple], kid: KernelId) -> np.ndarray:
    """Lift each descriptor once into one row of a read-only (N, D_q) array.

    Row i is the flattened lifted matrix of ``triples[i]`` for kernel
    ``kid``. Raises ``DimensionMismatch`` naming the first descriptor whose
    dimension differs from the first one's.
    """
    if len(triples) < 1:
        raise ValueError("lift_features needs at least one descriptor")
    out = None
    for i, t in enumerate(triples):
        try:
            lifted = _lift(t, kid)
        except SetfuseError as exc:
            raise type(exc)(f"descriptor {i} ({t.set_id!r}): {exc}") from exc
        if out is None:
            out = np.empty((len(triples), lifted.size), dtype=np.float64)
        elif lifted.size != out.shape[1]:
            raise DimensionMismatch(
                f"descriptor {i} ({t.set_id!r}): lifts to {lifted.size} features, "
                f"descriptor 0 to {out.shape[1]}"
            )
        out[i] = lifted.ravel()
    out.setflags(write=False)
    return out


def _gram(features: np.ndarray) -> np.ndarray:
    """Exactly symmetric Gram matrix of lifted rows, lower triangle mirrored up."""
    n = features.shape[0]
    k = np.empty((n, n), dtype=np.float64)
    for j in range(n):
        col = _frobenius(features[j:], features[j])
        k[j:, j] = col
        k[j, j:] = col
    return k


def _probe_column(
    test: DescriptorTriple, features: np.ndarray, kid: KernelId, scale: float
) -> np.ndarray:
    row = _lift(test, kid).ravel()
    if row.size != features.shape[1]:
        raise DimensionMismatch(
            f"probe lifts to {row.size} features, gallery to {features.shape[1]}"
        )
    return _frobenius(features, row) * scale


def gram_matrix(
    triples: Sequence[DescriptorTriple], kid: KernelId, normalize: bool = False
) -> np.ndarray:
    """Kernel Gram matrix over a gallery of descriptor triples.

    The result is exactly symmetric. With ``normalize`` the matrix is
    rescaled to trace N (raises ``NormalizationDegenerate`` when the raw
    trace is numerically zero).
    """
    k = _gram(lift_features(triples, kid))
    if normalize:
        k = k * gram_normalizer(k)
    return k


def gram_normalizer(k: np.ndarray) -> float:
    """Factor that rescales a Gram matrix to trace N."""
    tr = float(np.trace(k))
    if tr <= NORMALIZATION_TRACE_FLOOR:
        raise NormalizationDegenerate(f"gram trace {tr:.3e} too small to normalize")
    return k.shape[0] / tr


def cross_kernel_vector(
    test: DescriptorTriple,
    gallery: Sequence[DescriptorTriple],
    kid: KernelId,
    normalize_ref: float = 1.0,
) -> np.ndarray:
    """Kernel values between one probe and every gallery member.

    ``normalize_ref`` replays the training-time Gram scaling (1.0 when
    normalization was off) so probe columns stay commensurate with the
    stored Gram matrix.
    """
    return _probe_column(test, lift_features(gallery, kid), kid, normalize_ref)


@dataclass(frozen=True)
class KernelBank:
    """Training-side kernel state, one entry per enabled kernel channel.

    ``grams[q]`` is the N x N Gram matrix, already multiplied by
    ``scales[q]`` (1.0 when normalization is off). ``features[q]`` holds the
    gallery's unscaled lifted rows, (N, D_q), that the Gram was derived
    from; ``probe_columns`` scores a probe against them. A bank assembled
    from bare Gram matrices has ``features`` None: it can train but not
    score probes.
    """

    kernel_ids: tuple[KernelId, ...]
    grams: tuple[np.ndarray, ...]
    n_train: int
    normalized: tuple[bool, ...]
    scales: tuple[float, ...]
    features: tuple[np.ndarray, ...] | None = None

    def __post_init__(self):
        if not self.kernel_ids:
            raise ValueError("kernel bank needs at least one kernel")
        if not (
            len(self.grams) == len(self.kernel_ids) == len(self.normalized) == len(self.scales)
        ):
            raise ValueError("kernel bank fields disagree on the number of kernels")
        for g in self.grams:
            if g.shape != (self.n_train, self.n_train):
                raise DimensionMismatch(
                    f"gram shape {g.shape} does not match n_train={self.n_train}"
                )
        if self.features is not None:
            if len(self.features) != len(self.kernel_ids):
                raise ValueError("kernel bank has features for a different number of kernels")
            for f in self.features:
                if f.ndim != 2 or f.shape[0] != self.n_train:
                    raise DimensionMismatch(
                        f"feature shape {f.shape} does not match n_train={self.n_train}"
                    )

    @property
    def n_kernels(self) -> int:
        return len(self.kernel_ids)

    def probe_columns(self, test: DescriptorTriple) -> list[np.ndarray]:
        """One probe's scaled kernel column per channel, lifting only the probe."""
        if self.features is None:
            raise ValueError("kernel bank carries no lifted gallery features; cannot score probes")
        return [
            _probe_column(test, f, kid, s)
            for kid, f, s in zip(self.kernel_ids, self.features, self.scales)
        ]


def build_kernel_bank(
    triples: Sequence[DescriptorTriple],
    kernel_ids: Sequence[KernelId] = ALL_KERNELS,
    normalize: bool = False,
) -> KernelBank:
    """Lift a gallery once per kernel and derive each Gram from the features."""
    if len(triples) < 1:
        raise ValueError("cannot build a kernel bank from an empty gallery")
    features = tuple(lift_features(triples, kid) for kid in kernel_ids)
    grams = []
    scales = []
    for f in features:
        raw = _gram(f)
        s = gram_normalizer(raw) if normalize else 1.0
        grams.append(raw * s if normalize else raw)
        scales.append(s)
    return KernelBank(
        kernel_ids=tuple(KernelId(k) for k in kernel_ids),
        grams=tuple(grams),
        n_train=len(triples),
        normalized=tuple(bool(normalize) for _ in kernel_ids),
        scales=tuple(float(s) for s in scales),
        features=features,
    )
