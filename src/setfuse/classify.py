"""Nearest-neighbor classification in the learned kernel subspace.

A probe set is encoded into the three descriptors and lifted to one row f_q
per channel. Every kernel is a Frobenius inner product of lifted rows, so
the probe's kernel column is k_q = s_q F_q f_q (F_q the gallery's rows, s_q
the channel's scale), and the learned metric reads it only through linear
maps of f_q that the model derives once from its rows
(``ModelState.probe_maps`` and ``ModelState.gallery_projections``). The
distance to gallery member i sums, over channels,

    w_q(probe) * || E.T (k_q(probe) - K_q[:, i]) ||^2 * w_q(i)

with the probe's gating weights and the gallery's the one read-out of lifted
rows (``ModelState.gate``), and the distance the one training uses
(``gating.squared_distances``); no Gram matrix or kernel column is formed.
The prediction is the label of the closest gallery member (ties break to
the lowest index). ``distance_profile`` scores a stack of probes' lifted
rows, every channel in one distance call, so ``predict`` (a stack of one,
whose row 0 it takes the ``argmin`` of) and each split's test sets (one
``argmin`` per row of their profile) take one path. It checks the profile
once, where it is made, and returns it read-only. A probe costs two
eigendecompositions and no Cholesky factor: ``encode_sets``'s one stacked
``eigh`` of its covariance and second moment, which gives its covariance
log, its basis and its embedding's scale, and the ``spd_log`` of its
Gaussian embedding at lift time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import check_type
from .descriptors import ImageSet, encode_sets
from .errors import DimensionMismatch, NonFinite, TooFewSamples
from .gating import squared_distances
from .kernels import lift_features
from .trainer import ModelState

@dataclass(frozen=True, eq=False)
class Prediction:
    """Predicted label plus the full gallery distance profile, as ``predict``
    gives them: the profile is ``distance_profile``'s read-only, finite row,
    non-negative since each distance sums ``w * ||.||^2 * w`` with softmax
    weights. Equality and hashing are by identity."""

    label: str
    distances: np.ndarray
    nearest_index: int


def distance_profile(rows, model: ModelState) -> np.ndarray:
    """Gated projected distances (T x N) from T probes, given as their lifted
    rows (one (T, D_q) array per channel of ``model.config.descriptors``, from
    ``lift_features``), to every gallery member.

    Each channel's rows enter only through its ``ProbeMap``: their gating
    scores ``rows @ score`` plus the bias (``model.gate``), and their
    projections ``projection @ rows.T``, stacked over the channels and
    measured against ``model.gallery_projections`` in one call. This costs
    O(T * target_dim * (D_q + n_train)) per channel and forms no kernel column.
    The profile is returned read-only. An overflow does not warn: a profile
    that holds the NaN or Inf it leaves raises ``NonFinite``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        test_weights = model.gate(rows)
        projections = np.array([m.projection @ r.T for m, r in zip(model.probe_maps, rows)])
        sq = squared_distances(model.gallery_projections, projections)
        # numpy sums a leading axis in order, one channel after another
        profile = (test_weights[..., None] * sq * model.train_weights[:, None, :]).sum(axis=0)
    if not np.isfinite(profile).all():
        raise NonFinite("distance profile contains NaN or Inf")
    profile.setflags(write=False)
    return profile


def check_probe(test: ImageSet, model: ModelState) -> None:
    """Reject a probe that is not an ``ImageSet`` or a model that is not a
    ``ModelState`` (``BadSpec``), or a probe whose dimension or sample
    count the model cannot encode."""
    check_type("probe", test, ImageSet)
    check_type("model", model, ModelState)
    dim, q = model.dim, model.config.subspace_dim
    if test.dim != dim:
        raise DimensionMismatch(f"probe dimension {test.dim} != gallery dimension {dim}")
    if test.n_samples < q:
        raise TooFewSamples(f"probe has {test.n_samples} samples, fewer than subspace_dim={q}")


def predict(test: ImageSet, model: ModelState) -> Prediction:
    """Check a probe set's dimension and sample count, encode it, lift it
    (one lift per channel) and classify it against the model's gallery."""
    check_probe(test, model)
    stack = encode_sets([test], model.config)
    rows = [lift_features(stack, name) for name in model.config.descriptors]
    distances = distance_profile(rows, model)[0]
    idx = int(np.argmin(distances))
    return Prediction(label=model.labels[idx], distances=distances, nearest_index=idx)
