"""Nearest-neighbor classification in the learned kernel subspace.

A probe set is encoded into the three descriptors and lifted to one row per
channel; its kernel values against the stored gallery form one column per
channel, and the distance to gallery member i sums, over channels,

    w_q(probe) * || E.T (k_q(probe) - K_q[:, i]) ||^2 * w_q(i)

with the probe's gating weight the same read-out of its kernel columns as
the gallery's (``gating.gate``), the gallery weights frozen from training,
and the distance the one training uses (``gating.squared_distances``). The
prediction is the label of the closest gallery member (ties break to the
lowest index). ``distance_profile`` scores lifted rows, so ``predict`` and
every test set of a split protocol take the same path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .descriptors import ImageSet, encode_sets
from .errors import BadSpec, DimensionMismatch, NonFinite, TooFewSamples
from .gating import gate, squared_distances
from .kernels import lift_features
from .trainer import ModelState

@dataclass(frozen=True)
class Prediction:
    """Predicted label plus the full gallery distance profile, which is
    non-negative: each distance sums ``w * ||.||^2 * w`` with softmax weights."""

    label: str
    distances: np.ndarray
    nearest_index: int

    def __post_init__(self):
        d = np.asarray(self.distances, dtype=np.float64)
        if not np.isfinite(d).all():
            raise NonFinite("distance profile contains NaN or Inf")
        d = d.copy()
        d.setflags(write=False)
        object.__setattr__(self, "distances", d)


def distance_profile(rows, model: ModelState) -> np.ndarray:
    """Gated projected distances from a probe, given as its lifted rows (one
    per channel of ``model.bank.descriptors``, from ``lift_features``), to
    every gallery member.

    The rows are scored against the bank's lifted gallery features, and the
    gallery side of every distance, ``E.T @ K_q``, comes cached from the
    model; so this costs O(n_train * (D_q + target_dim)) per channel.
    """
    crosses = model.bank.columns_from_rows(rows)
    test_weights = gate(model.gating, crosses)
    out = np.zeros(model.n_train, dtype=np.float64)
    for q, projected_gallery in enumerate(model.projected_grams):
        projected_test = model.transform.T @ crosses[q]
        sq = squared_distances(projected_gallery, projected_test[:, None])[0]
        out += test_weights[q] * sq * model.train_weights[q]
    return out


def check_probe(test: ImageSet, model: ModelState) -> None:
    """Reject a probe that is not an ``ImageSet`` (``BadSpec``), or whose
    dimension or sample count the model cannot encode."""
    if not isinstance(test, ImageSet):
        raise BadSpec(f"probe must be an ImageSet, got {type(test).__name__}")
    dim, q = model.bank.dim, model.config.subspace_dim
    if test.dim != dim:
        raise DimensionMismatch(f"probe dimension {test.dim} != gallery dimension {dim}")
    if test.n_samples < q:
        raise TooFewSamples(f"probe has {test.n_samples} samples, fewer than subspace_dim={q}")


def nearest(distances: np.ndarray, model: ModelState) -> Prediction:
    """The prediction of a distance profile: its closest gallery member's label."""
    idx = int(np.argmin(distances))
    return Prediction(label=model.labels[idx], distances=distances, nearest_index=idx)


def predict(test: ImageSet, model: ModelState) -> Prediction:
    """Check a probe set's dimension and sample count, encode it, lift it
    (one lift per channel) and classify it against the model's gallery."""
    check_probe(test, model)
    stack = encode_sets([test], model.config)
    rows = [lift_features(stack, name)[0] for name in model.bank.descriptors]
    return nearest(distance_profile(rows, model), model)
