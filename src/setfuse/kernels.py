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
stacked call into one read-only (N, D_q) array: ``cov`` reads the covariance
logs ``encode_sets`` took from its stacked eigendecomposition, ``subspace``
forms the projectors, and ``gauss`` takes one ``spd_log`` of the embeddings.
Neither a log nor a projector reads an eigenvector's sign, so neither fixes
one. A lifted array is a training gallery, a probe (a stack of one), or the set
collection of a split protocol call, whose splits then gather their
training rows from it. These arrays are a channel's one representation: a
model (``trainer.ModelState``) holds them and derives everything else from
them, and only ``trainer.train`` builds Gram matrices, with ``gram`` and
``gram_scale``. A stack of S galleries' rows is one (S, N, D_q) array, and
``gram`` is one product ``rows @ rows.T`` over it, which BLAS forms as a
symmetric rank-k update per gallery: each Gram is exactly symmetric and has
the same bits alone or inside a stack. The bits of a product depend on the
layout of its rows (strided rows take another summation path), so every
lifted row is C-contiguous: ``lift_features`` returns C order, and ``train``
and ``ModelState`` keep features in C order (a loaded model's included). A
probe is never scored by kernel columns: prediction reads its lifted rows
through linear maps of the gallery features (``trainer.ProbeMap``).
"""

from __future__ import annotations

import math

import numpy as np

from .descriptors import DescriptorStack
from .errors import NonFinite, NormalizationDegenerate, SetfuseError
from .spd import spd_log

# Gram traces at or below this value cannot be normalized against.
NORMALIZATION_TRACE_FLOOR = 1e-12


def _projector(basis: np.ndarray) -> np.ndarray:
    """``Y @ Y.T`` of a basis, or of each basis of a stack."""
    return basis @ basis.swapaxes(-1, -2)


# Per channel, the matrices whose Frobenius inner products are its kernel,
# one per descriptor of a stack, from one call.
_LIFTS = {
    "cov": lambda e: e.log_cov,
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


def gram_scale(features: np.ndarray, normalize: bool) -> float:
    """A channel's kernel scale s_q: with ``normalize``, N over the trace of
    its Gram matrix, read from its lifted rows as the sum of their squared
    norms (the Gram diagonal's dots), so a scaled Gram has trace N; else 1.0.
    ``NonFinite``, without numpy's overflow warning, when that trace overflows."""
    if not normalize:
        return 1.0
    with np.errstate(over="ignore"):
        tr = float(np.sum(np.vecdot(features, features)))
    if not math.isfinite(tr):
        raise NonFinite("gram trace overflows")
    if tr <= NORMALIZATION_TRACE_FLOOR:
        raise NormalizationDegenerate(f"gram trace {tr:.3e} too small to normalize")
    return features.shape[0] / tr


def gram(rows: np.ndarray, scales) -> np.ndarray:
    """The Grams of a stack of lifted rows (..., N, D_q), C-contiguous, each
    times its gallery's scale (``scales`` (...), or one for all): one product
    ``rows @ rows.T``, exactly symmetric."""
    k = rows @ rows.swapaxes(-1, -2)
    k *= np.asarray(scales)[..., None, None]
    return k
