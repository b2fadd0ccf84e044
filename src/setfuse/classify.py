"""Nearest-neighbor classification in the learned kernel subspace.

A probe set is encoded into the three descriptors, its kernel values
against the stored gallery form one column per channel, and the distance to
gallery member i sums, over channels,

    w_q(probe) * || E.T (k_q(probe) - K_q[:, i]) ||^2 * w_q(i)

with the probe's gating weight computed from the frozen gating parameters
and the gallery weights frozen from training. The prediction is the label
of the closest gallery member (ties break to the lowest index).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .descriptors import DescriptorTriple, ImageSet, encode_set
from .errors import IndexOutOfRange, NonFinite
from .gating import softmax_columns
from .trainer import ModelState

# Distances may round slightly below zero; anything lower signals a bug.
DISTANCE_FLOOR = -1e-9


@dataclass(frozen=True)
class Prediction:
    """Predicted label plus the full gallery distance profile."""

    label: str
    distances: np.ndarray
    nearest_index: int

    def __post_init__(self):
        d = np.asarray(self.distances, dtype=np.float64)
        if not np.isfinite(d).all():
            raise NonFinite("distance profile contains NaN or Inf")
        if float(d.min()) < DISTANCE_FLOOR:
            raise ValueError(f"negative distance {float(d.min()):.3e} below floor")
        d = d.copy()
        d.setflags(write=False)
        object.__setattr__(self, "distances", d)


def _require_gallery(model: ModelState) -> None:
    if model.gallery is None:
        raise ValueError("model carries no gallery descriptors; cannot score probes")


def distance_profile(test: DescriptorTriple, model: ModelState) -> np.ndarray:
    """Gated projected distances from one probe to every gallery member.

    Only the probe is lifted: its kernel column per channel is read against
    the bank's lifted gallery features, and the gallery side of every
    distance, ``E.T @ K_q``, comes cached from the model. So a probe costs one
    lift per channel plus O(n_train * (D_q + target_dim)) per channel.
    """
    _require_gallery(model)
    crosses = model.bank.probe_columns(test)
    scores = np.array(
        [
            float(model.gating.coeffs[q] @ crosses[q]) + float(model.gating.biases[q])
            for q in range(model.bank.n_kernels)
        ]
    )
    test_weights = softmax_columns(scores[:, None])[:, 0]

    out = np.zeros(model.n_train, dtype=np.float64)
    for q, projected_gallery in enumerate(model.projected_grams):
        projected_test = model.transform.T @ crosses[q]
        sq = ((projected_test[:, None] - projected_gallery) ** 2).sum(axis=0)
        out += test_weights[q] * sq * model.train_weights[q]
    return out


def set_distance(test: DescriptorTriple, model: ModelState, i: int) -> float:
    """Distance from a probe descriptor triple to gallery member ``i``."""
    if not 0 <= i < model.n_train:
        raise IndexOutOfRange(f"gallery index {i} outside [0, {model.n_train})")
    return float(distance_profile(test, model)[i])


def predict(test: ImageSet, model: ModelState) -> Prediction:
    """Encode a probe set and classify it against the model's gallery."""
    triple = encode_set(test, model.config)
    distances = distance_profile(triple, model)
    idx = int(np.argmin(distances))
    return Prediction(label=model.labels[idx], distances=distances, nearest_index=idx)
