"""Softmax gating over kernel channels.

Each training sample i gets a weight per kernel channel q,

    w[q, i] = softmax_q( coeffs[q] . K_q[:, i] + biases[q] ),

a linear read-out of the sample's Gram column plus a bias, pushed through a
softmax across channels. ``train`` reads it from its Grams; a model reads
the same weights, for its gallery and for a probe alike, from lifted rows
through ``ModelState.gate``, since each Gram column is a scaled dot of the
gallery rows with a row. The gating parameters are learned
by gradient ascent on the same trace-ratio objective the projection is
solved for; the exact gradient expressions live in ``projected_gradients``.

Every scatter, pair sum and gradient sums over same-class and different-class
pairs, and reads the gallery's classes from one frozen ``ClassLayout`` (class
codes, one-hot indicator, pair counts) that ``class_layout`` builds once per
``train`` call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NonFinite, NonFiniteGradient, SingleClassGallery


@dataclass(frozen=True)
class GatingParams:
    """Per-kernel read-out vectors (``coeffs``, Q x N) and biases (Q,);
    ``train`` makes them in those shapes and ``ModelState`` checks a model's."""

    coeffs: np.ndarray
    biases: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.float64)
        b = np.asarray(self.biases, dtype=np.float64)
        if not (np.isfinite(c).all() and np.isfinite(b).all()):
            raise NonFinite("gating parameters contain NaN or Inf")
        c = c.copy()
        b = b.copy()
        c.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "biases", b)


def init_gating_params(n_kernels: int, n_train: int, rng: np.random.Generator) -> GatingParams:
    """Small random initialization, scaled down with the gallery size."""
    half = 0.01
    coeffs = rng.uniform(-half / n_train, half / n_train, size=(n_kernels, n_train))
    biases = rng.uniform(-half, half, size=n_kernels)
    return GatingParams(coeffs=coeffs, biases=biases)


def softmax_columns(scores: np.ndarray) -> np.ndarray:
    """Columnwise softmax with max subtraction; safe for scores up to ~1e308."""
    shifted = scores - scores.max(axis=0, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=0, keepdims=True)


def gating_weights(grams: Sequence[np.ndarray], params: GatingParams) -> np.ndarray:
    """Per-sample kernel weights, Q x N, columns summing to one:
    ``softmax_q(coeffs[q] @ K_q + biases[q])`` of the scaled Grams K_q."""
    scores = [c @ k + b for c, k, b in zip(params.coeffs, grams, params.biases)]
    return softmax_columns(np.array(scores))


def squared_distances(points: np.ndarray, centres: np.ndarray) -> np.ndarray:
    """``out[c, i] = ||points[:, i] - centres[:, c]||^2`` for points m x N and
    centres m x C; the one distance of training and classification alike."""
    return ((points[:, None, :] - centres[:, :, None]) ** 2).sum(axis=0)


@dataclass(frozen=True)
class ClassLayout:
    """A gallery's classes: ``codes`` (N, class indices in sorted label order),
    their N x C bool indicator ``onehot`` and the ordered-pair counts
    ``n_within`` (i == j included) and ``n_between``, both positive."""

    codes: np.ndarray
    onehot: np.ndarray
    n_within: int
    n_between: int


def class_layout(labels: Sequence[str]) -> ClassLayout:
    """The ``ClassLayout`` of a gallery's str labels (``ImageSet`` checks
    them); ``SingleClassGallery`` for fewer than two classes."""
    names, codes = np.unique(np.asarray(labels, dtype=object), return_inverse=True)
    if names.size < 2:
        raise SingleClassGallery("training needs at least two classes")
    onehot = codes[:, None] == np.arange(names.size)[None, :]
    codes.setflags(write=False)
    onehot.setflags(write=False)
    n_within = int(np.sum(np.bincount(codes) ** 2))
    return ClassLayout(codes, onehot, n_within, codes.size**2 - n_within)


def class_means(
    columns: np.ndarray, w: np.ndarray, classes: ClassLayout
) -> tuple[np.ndarray, np.ndarray]:
    """Each class's total weight W_c and weighted mean m_c of ``columns`` (m x N).

    A class of zero weight gets a zero mean; a sample alone in its class is
    that class's mean exactly, since its share w_i / W_c is exactly one.
    """
    codes, onehot = classes.codes, classes.onehot
    class_w = np.bincount(codes, weights=w, minlength=onehot.shape[1])
    share = np.divide(w, class_w[codes], out=np.zeros_like(w), where=class_w[codes] > 0.0)
    return class_w, columns @ (onehot * share[:, None])


def projected_pair_sums(
    projected: Sequence[np.ndarray], weights: np.ndarray, classes: ClassLayout
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample sums of gated projected pair distances, within and between class.

    For channel q with projected Gram columns ``P = projected[q]`` (p x N)
    and gating weights ``w = weights[q]``, returns ``(g_w, g_b)``, each Q x N:

        g_w[q, i] = sum over j in i's class    of w_j ||P_i - P_j||^2
        g_b[q, i] = sum over j in other classes of w_j ||P_i - P_j||^2

    so that ``sum(weights * g_w)`` is the within-class sum of
    ``w_i w_j ||P_i - P_j||^2`` over ordered pairs (likewise between). Each
    class c enters only through its weight W_c, its weighted mean m_c and its
    spread rho_c = sum_{j in c} w_j ||P_j - m_c||^2, because
    ``sum_{j in c} w_j ||P_i - P_j||^2 = W_c ||P_i - m_c||^2 + rho_c``; this
    costs O(p N n_classes) per channel where the pairs cost O(p N^2). A
    sample alone in its class has zero within distance exactly.
    """
    w = np.asarray(weights, dtype=np.float64)
    codes, onehot = classes.codes, classes.onehot
    g_w = np.empty_like(w)
    g_b = np.empty_like(w)
    for q, p in enumerate(projected):
        class_w, means = class_means(p, w[q], classes)
        dist = squared_distances(p, means)
        spread = (dist * (onehot.T * w[q])).sum(axis=1)
        per_class = class_w[:, None] * dist + spread[:, None]
        g_w[q] = per_class[codes, np.arange(codes.size)]
        g_b[q] = np.where(onehot.T, 0.0, per_class).sum(axis=0)
    return g_w, g_b


def pair_traces(
    weights: np.ndarray, sums: tuple[np.ndarray, np.ndarray], classes: ClassLayout
) -> tuple[float, float]:
    """The projected within/between scatter traces ``(h_w, h_b)`` from the
    ``projected_pair_sums`` of ``weights``, each divided by its pair count."""
    g_w, g_b = sums
    h_w = float(np.sum(weights * g_w)) / classes.n_within
    return h_w, float(np.sum(weights * g_b)) / classes.n_between


def projected_gradients(
    grams: Sequence[np.ndarray],
    weights: np.ndarray,
    sums: tuple[np.ndarray, np.ndarray],
    classes: ClassLayout,
) -> tuple[np.ndarray, np.ndarray]:
    """The gating gradient from the weights and their projected pair sums.

    ``sums`` is ``projected_pair_sums`` of ``weights`` over the projected
    Gram columns ``E.T @ K_q``, the same pass that gives the objective. With
    h_w and h_b the projected within/between scatter traces
    (``pair_traces``), the objective is J = h_b / (h_w + h_b) and the
    gradient follows from the quotient rule plus the softmax derivative;
    the derivative of each trace with respect to a weight is read from the
    sums, d(sum w_i w_j d_ij)/d w_i = 2 g[i]. The chain through each
    channel's scores ``coeffs[q] @ K_q + biases[q]`` then costs one Gram
    matvec per channel, and no N x N matrix beyond the Grams is formed. Any
    per-channel offset common to all projected columns cancels from the sums.
    """
    g_w, g_b = sums
    h_w, h_b = pair_traces(weights, sums, classes)

    coeff_grads = np.zeros_like(weights)
    bias_grads = np.zeros(weights.shape[0])
    # positive: train reads its objective from these sums first, and that
    # raises DegenerateDenominator when h_w + h_b vanishes
    denom = (h_w + h_b) ** 2
    # softmax derivative: d w[k,i] / d score[q,i] = w[k,i] * (1{q==k} - w[q,i]),
    # so d h / d score[q,i] = 2 w[q,i] (g[q,i] - sum_k w[k,i] g[k,i]) / count
    dh_w = 2.0 * weights * (g_w - (weights * g_w).sum(axis=0)) / classes.n_within
    dh_b = 2.0 * weights * (g_b - (weights * g_b).sum(axis=0)) / classes.n_between
    dj = (dh_b * h_w - dh_w * h_b) / denom
    for q, gram in enumerate(grams):
        coeff_grads[q] = gram @ dj[q]
        bias_grads[q] = float(dj[q].sum())
    return coeff_grads, bias_grads


def gradient_ascent_step(
    params: GatingParams,
    grads: tuple[np.ndarray, np.ndarray],
    learning_rate: float,
) -> GatingParams:
    """One gradient-ascent step; pure (returns new params, inputs untouched).
    ``grads`` has the shapes of ``params`` and the rate is ``TrainConfig``'s."""
    coeff_grads, bias_grads = grads
    if not (np.isfinite(coeff_grads).all() and np.isfinite(bias_grads).all()):
        raise NonFiniteGradient("gradient contains NaN or Inf")
    return GatingParams(
        coeffs=params.coeffs + learning_rate * coeff_grads,
        biases=params.biases + learning_rate * bias_grads,
    )
