"""Riemannian kernels over the three set descriptors, as lifted features.

A kernel channel is named by the descriptor it reads. Its kernel is a
Frobenius inner product of lifted matrices, so every descriptor is lifted
once into a flat feature row of length D_q:

* ``cov``: log-Euclidean kernel on SPD matrices, <vec log C1, vec log C2>
  = trace(log(C1) @ log(C2)), D_q = d^2 (Arsigny et al. 2006)
* ``subspace``: projection kernel, <vec Y1 Y1^T, vec Y2 Y2^T>
  = ||Y1.T @ Y2||_F^2, D_q = d^2 (Hamm & Lee 2008)
* ``gauss``: log-Euclidean kernel on the determinant-one Gaussian
  embeddings, D_q = (d+1)^2

``_LIFTS`` holds each channel's lift, and its key order ``DESCRIPTOR_NAMES``
is the channel order; ``TrainConfig`` refuses any other name. ``lift_features``
lifts a ``DescriptorStack`` (from ``descriptors.encode_sets``) with one
stacked call (one ``spd_log`` for ``cov`` and ``gauss``) into one read-only
(N, D_q) array: a training gallery, a probe (a stack of one), or the set
collection of a split protocol call, whose splits then slice their training
rows from it. A ``KernelBank`` is such arrays, one per channel, and derives
its Gram matrices from them. Every Gram entry is the one dot
``np.vecdot(rows, row)`` in ``_frobenius``. It computes each row's dot the
same way wherever the row sits, so a Gram, built column by column with its
lower triangle mirrored up, is exactly symmetric, and the same dot of a
gallery member's row, sent as a probe, against the gallery reproduces that
member's Gram column bit for bit. The bits of a dot depend on the layout of
its rows (a strided row takes another summation path), so every lifted row
is C-contiguous: ``lift_features`` returns C order, and a ``KernelBank``
stores its features in C order (a loaded model's included). A probe is never
scored by kernel columns: prediction reads its lifted rows through linear
maps of the gallery features (``trainer.ProbeMap``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .descriptors import DescriptorStack, read_only
from .errors import NormalizationDegenerate, SetfuseError
from .spd import spd_log

# Gram traces at or below this value cannot be normalized against.
NORMALIZATION_TRACE_FLOOR = 1e-12


def _frobenius(rows: np.ndarray, row: np.ndarray) -> np.ndarray:
    """Dot product of ``row`` with each lifted row.

    ``np.vecdot`` is the one dot of every kernel value. Its bits depend on
    the layout of the rows, not on where a row sits, so callers pass
    C-contiguous rows: then a row gives the same dot alone or inside ``rows``.
    """
    return np.vecdot(rows, row)


def _projector(basis: np.ndarray) -> np.ndarray:
    """``Y @ Y.T`` of a basis, or of each basis of a stack."""
    return basis @ basis.swapaxes(-1, -2)


# Per channel, the matrices whose Frobenius inner products are its kernel,
# one per descriptor of a stack, from one call.
_LIFTS = {
    "cov": lambda e: spd_log(e.cov),
    "subspace": lambda e: _projector(e.basis),
    "gauss": lambda e: spd_log(e.embedding),
}
DESCRIPTOR_NAMES = tuple(_LIFTS)


def lift_width(name: str, dim: int) -> int:
    """D_q, the width of channel ``name``'s lifted rows for sets of dimension ``dim``."""
    return (dim + 1) ** 2 if name == "gauss" else dim**2


def lifted_dim(name: str, width: int) -> int:
    """The set dimension d of channel ``name``'s lifted rows ``width`` wide,
    for a width that is ``lift_width(name, d)``."""
    return math.isqrt(width) - (name == "gauss")


def lift_features(stack: DescriptorStack, name: str) -> np.ndarray:
    """Lift a stack of descriptors with one call into one read-only (N, D_q)
    array, row i from descriptor i.

    An error of the lift that belongs to one descriptor names the first at fault.
    """
    try:
        lifted = _LIFTS[name](stack)
    except SetfuseError as exc:
        if not hasattr(exc, "index"):
            raise
        i = exc.index
        raise type(exc)(f"descriptor {i} ({stack.set_ids[i]!r}): {exc}") from exc
    out = np.ascontiguousarray(lifted.reshape(lifted.shape[0], math.prod(lifted.shape[1:])))
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


def gram_normalizer(k: np.ndarray) -> float:
    """Factor that rescales a Gram matrix to trace N."""
    tr = float(np.trace(k))
    if tr <= NORMALIZATION_TRACE_FLOOR:
        raise NormalizationDegenerate(f"gram trace {tr:.3e} too small to normalize")
    return k.shape[0] / tr


@dataclass(frozen=True)
class KernelBank:
    """Kernel state of a gallery: its lifted features, one channel per name
    in ``descriptors``, made only by ``train`` and ``load_model`` from a
    ``TrainConfig`` and one (N, D_q) array per channel, N >= 1.

    ``features[q]`` holds the gallery's unscaled lifted rows, (N, D_q),
    read-only and C-contiguous (any other array is copied), and is what a
    saved model stores. Everything else is derived from them on construction:
    ``grams[q]`` is the N x N Gram matrix, multiplied by ``scales[q]`` (its
    trace-N factor with ``normalize``, else 1.0), and ``n_train`` is N.
    A probe's kernel column against channel q would be ``scales[q]`` times
    the dot of its lifted row with ``features[q]``; prediction folds that
    product into the learned maps (``ModelState.probe_maps``).
    """

    descriptors: tuple[str, ...]
    features: tuple[np.ndarray, ...]
    normalize: bool = False
    grams: tuple[np.ndarray, ...] = field(init=False, repr=False)
    scales: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        features = tuple(read_only(f) for f in self.features)
        grams = tuple(_gram(f) for f in features)
        scales = tuple(gram_normalizer(g) if self.normalize else 1.0 for g in grams)
        for g, s in zip(grams, scales):
            g *= s
            g.setflags(write=False)
        object.__setattr__(self, "descriptors", tuple(self.descriptors))
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "grams", grams)
        object.__setattr__(self, "scales", scales)

    @property
    def n_train(self) -> int:
        return self.features[0].shape[0]

    @property
    def n_kernels(self) -> int:
        return len(self.descriptors)

    @property
    def dim(self) -> int:
        """Feature dimension d of the sets the gallery was encoded from."""
        return lifted_dim(self.descriptors[0], self.features[0].shape[1])
