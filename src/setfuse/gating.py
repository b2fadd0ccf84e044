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
pairs, and reads the gallery's classes from one frozen ``ClassLayout`` (the
0/1 class membership matrix ``members`` and the pair counts) that
``class_layout`` builds once per gallery per ``train`` call.

``train`` trains a stack of galleries at once, so the functions here that
it calls take a leading problem axis, as the ``spd`` primitives do: weights
``(..., Q, N)``, Grams ``(..., Q, N, N)``, projected columns
``(..., Q, p, N)`` and a ``ClassLayout`` stacked by ``stack_layouts``; each
keeps the channel axis, even for one channel. Each problem's slice gets
the bits it gets in a stack of one: every product runs as the same BLAS
call per slice and every sum adds in the same order. Class sums
(``class_weights``, ``class_means``) and each sample's entry of a per-class
array (``per_sample``, ``projected_pair_sums``) are products with
``members``; the latter are exact, since each sample has one 1.0 among
zeros.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .descriptors import read_only
from .errors import NonFinite, NonFiniteGradient, SingleClassGallery
from .spd import raise_first


@dataclass(frozen=True, eq=False)
class GatingParams:
    """Per-kernel read-out vectors (``coeffs``, Q x N) and biases (Q,), or a
    stack of them (``(..., Q, N)`` and ``(..., Q)``) inside ``train``; a
    model's are checked by ``ModelState``. Equality and hashing are by
    identity, as for every public type that holds arrays. NaN or Inf raises
    ``NonFinite`` with the first problem of a stack whose coefficients, else
    whose biases, hold one as ``index``."""

    coeffs: np.ndarray
    biases: np.ndarray

    def __post_init__(self):
        c = read_only(self.coeffs)
        b = read_only(self.biases)
        # one flag per problem of a stack; a shape ModelState refuses reads as one problem
        finite = (np.isfinite(np.atleast_2d(c)).all(axis=(-2, -1)),
                  np.isfinite(np.atleast_1d(b)).all(axis=-1))
        for ok in finite:
            raise_first(~ok, NonFinite, lambda i: "gating parameters contain NaN or Inf")
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "biases", b)


def softmax_columns(scores: np.ndarray, axis: int = 0) -> np.ndarray:
    """Softmax along ``axis`` (the channels) with max subtraction; safe for
    scores up to ~1e308."""
    shifted = scores - scores.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def gating_weights(grams, params: GatingParams) -> np.ndarray:
    """Per-sample kernel weights, Q x N, columns summing to one:
    ``softmax_q(coeffs[q] @ K_q + biases[q])`` of the scaled Grams K_q
    (a sequence of Q, or an array ``(..., Q, N, N)`` with params to match)."""
    scores = (params.coeffs[..., None, :] @ np.asarray(grams))[..., 0, :]
    return softmax_columns(scores + params.biases[..., None], axis=-2)


def squared_distances(points: np.ndarray, centres: np.ndarray) -> np.ndarray:
    """``out[c, i] = ||points[:, i] - centres[:, c]||^2`` for points m x N and
    centres m x C (or stacks of them); the one distance of training and
    classification alike."""
    diff = points[..., :, None, :] - centres[..., :, :, None]
    return np.square(diff, out=diff).sum(axis=-3)


def per_problem(x) -> np.ndarray:
    """A per-problem scalar (a number, or one per problem of a stack) shaped
    to broadcast against each problem's matrices."""
    return np.asarray(x, dtype=np.float64)[..., None, None]


@dataclass(frozen=True, eq=False)
class ClassLayout:
    """A gallery's classes: ``members`` (1, C, N), 1.0 where sample i is in
    class c and 0.0 elsewhere, classes in sorted label order, and the
    ordered-pair counts ``n_within`` (i == j included) and ``n_between``,
    both positive; or a stack of layouts with as many classes each
    (``stack_layouts``), whose fields gain a leading problem axis.

    Its methods read per-sample arrays with a channel axis, ``(..., Q, N)``;
    each is a product with ``members``.
    """

    members: np.ndarray
    n_within: int | np.ndarray
    n_between: int | np.ndarray

    def __post_init__(self):
        self.members.setflags(write=False)

    def class_weights(self, w: np.ndarray) -> np.ndarray:
        """Each class's total weight W_c of per-sample weights ``w``
        (..., Q, N), per problem and channel: one batched product with
        ``members``."""
        return (w[..., None, :] @ self.members.swapaxes(-1, -2))[..., 0, :]

    def per_sample(self, values: np.ndarray) -> np.ndarray:
        """Each sample's entry of per-class ``values`` (..., Q, m, C), as the
        product with ``members``, which is exact since each sample has one
        1.0 among zeros."""
        return values @ self.members


def class_layout(labels: Sequence[str]) -> ClassLayout:
    """The ``ClassLayout`` of a gallery's str labels (``ImageSet`` checks
    them); ``SingleClassGallery`` for fewer than two classes."""
    names, codes = np.unique(np.asarray(labels, dtype=object), return_inverse=True)
    if names.size < 2:
        raise SingleClassGallery("training needs at least two classes")
    members = (np.arange(names.size)[:, None] == codes[None, :]).astype(np.float64)
    n_within = int(np.sum(np.bincount(codes) ** 2))
    return ClassLayout(members[None], n_within, codes.size**2 - n_within)


def stack_layouts(layouts: Sequence[ClassLayout]) -> ClassLayout:
    """One ``ClassLayout`` for a stack of galleries with as many sets and
    classes each, problem k's from ``layouts[k]``."""
    return ClassLayout(
        np.stack([c.members for c in layouts]),
        np.array([c.n_within for c in layouts]),
        np.array([c.n_between for c in layouts]),
    )


def class_means(
    columns: np.ndarray, w: np.ndarray, classes: ClassLayout
) -> tuple[np.ndarray, np.ndarray]:
    """Each class's total weight W_c (..., Q, C) and weighted mean m_c
    (..., Q, m, C) of each channel's ``columns`` (..., Q, m, N) under its
    weights ``w`` (..., Q, N).

    A class of zero weight gets a zero mean; a sample alone in its class is
    that class's mean exactly, since its share w_i / W_c is exactly one.
    """
    class_w = classes.class_weights(w)
    own = classes.per_sample(class_w[..., None, :])[..., 0, :]
    share = np.divide(w, own, out=np.zeros_like(w), where=own > 0.0)
    # (..., Q, N, C) in C order: the operand layout sets the BLAS call's bits
    shares = np.multiply(classes.members.swapaxes(-1, -2), share[..., None], order="C")
    return class_w, columns @ shares


def projected_pair_sums(
    projected, weights: np.ndarray, classes: ClassLayout
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
    sample alone in its class has zero within distance exactly. A stack
    (``projected`` ``(..., Q, p, N)``) gets ``(..., Q, N)`` sums.
    """
    w, p = np.asarray(weights, dtype=np.float64), np.asarray(projected)
    class_w, means = class_means(p, w, classes)
    dist = squared_distances(p, means)
    spread = (dist * (classes.members * w[..., None, :])).sum(axis=-1)
    per_class = class_w[..., None] * dist + spread[..., None]
    # one nonzero term per sample: an exact gather of its own class's entry
    g_w = (per_class * classes.members).sum(axis=-2)
    return g_w, (per_class * (1.0 - classes.members)).sum(axis=-2)


def pair_traces(
    weights: np.ndarray, sums: tuple[np.ndarray, np.ndarray], classes: ClassLayout
) -> tuple[np.ndarray, np.ndarray]:
    """The projected within/between scatter traces ``(h_w, h_b)`` from the
    ``projected_pair_sums`` of ``weights``, each divided by its pair count;
    one per problem of a stack."""
    g_w, g_b = sums
    h_w = np.sum(weights * g_w, axis=(-2, -1)) / classes.n_within
    return h_w, np.sum(weights * g_b, axis=(-2, -1)) / classes.n_between


def projected_gradients(
    grams,
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
    A stack gets one gradient per problem.
    """
    g_w, g_b = sums
    h_w, h_b = pair_traces(weights, sums, classes)
    # positive: train reads its objective from these sums first, and that
    # raises DegenerateDenominator when h_w + h_b vanishes. Python's float
    # power, per problem: numpy's can differ from it in the last bit.
    total = np.asarray(h_w + h_b)
    denom = np.array([float(t) ** 2 for t in total.flat]).reshape(total.shape)
    # softmax derivative: d w[k,i] / d score[q,i] = w[k,i] * (1{q==k} - w[q,i]),
    # so d h / d score[q,i] = 2 w[q,i] (g[q,i] - sum_k w[k,i] g[k,i]) / count
    dh_w = 2.0 * weights * (g_w - (weights * g_w).sum(axis=-2, keepdims=True))
    dh_b = 2.0 * weights * (g_b - (weights * g_b).sum(axis=-2, keepdims=True))
    dh_w /= per_problem(classes.n_within)
    dh_b /= per_problem(classes.n_between)
    dj = (dh_b * per_problem(h_w) - dh_w * per_problem(h_b)) / per_problem(denom)
    coeff_grads = (np.asarray(grams) @ dj[..., None])[..., 0]
    return coeff_grads, dj.sum(axis=-1)


def gradient_ascent_step(
    params: GatingParams,
    grads: tuple[np.ndarray, np.ndarray],
    learning_rate,
) -> GatingParams:
    """One gradient-ascent step; pure (returns new params, inputs untouched).
    ``grads`` has the shapes of ``params`` and the rate is ``TrainConfig``'s,
    or one rate per problem of a stack. A step that overflows the parameters
    raises ``GatingParams``' ``NonFinite``, which names the problem."""
    coeff_grads, bias_grads = grads
    if not (np.isfinite(coeff_grads).all() and np.isfinite(bias_grads).all()):
        raise NonFiniteGradient("gradient contains NaN or Inf")
    rate = per_problem(learning_rate)
    return GatingParams(
        coeffs=params.coeffs + rate * coeff_grads,
        biases=params.biases + rate[..., 0] * bias_grads,
    )
