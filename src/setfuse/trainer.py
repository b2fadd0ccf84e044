"""Discriminative subspace learning in the fused kernel space.

Training alternates two blocks until convergence:

1. with the gating parameters fixed, build gated within/between scatter
   matrices over Gram columns, drop the null space of the total scatter,
   and solve a trace-ratio problem for the projection by the iterative
   trace-difference method;
2. with the projection fixed, take a gradient-ascent step on the gating
   parameters (with rollback and step halving if the objective would
   decrease).

The learned projection maps Gram columns to a low-dimensional space where
between-class spread dominates within-class spread.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .config import TrainConfig
from .errors import (
    BadDimension,
    DegenerateDenominator,
    ShapeMismatch,
    SingleClassGallery,
    ZeroTotalScatter,
)
from .gating import (
    GatingParams,
    gating_gradients,
    gating_weights,
    gradient_ascent_step,
    init_gating_params,
    pair_counts,
)
from .kernels import KernelBank
from .spd import sym_eig

logger = logging.getLogger(__name__)

# Total-scatter eigenvalues above this fraction of the largest count as signal.
NULL_SPACE_RTOL = 1e-10
# Below this absolute spectral radius the total scatter is considered zero.
TOTAL_SCATTER_FLOOR = 1e-15
# Trace-ratio denominators at or below this value are degenerate.
DENOMINATOR_FLOOR = 1e-15
# Eigen-gap below which the trace-difference eigenvector choice is ambiguous.
EIGEN_GAP_TOL = 1e-12
# Bound on step halvings when a gating step would decrease the objective.
MAX_STEP_HALVINGS = 30


@dataclass(frozen=True)
class ScatterPair:
    """Gated within/between scatter matrices plus the ordered pair counts."""

    within: np.ndarray
    between: np.ndarray
    n_within_pairs: int
    n_between_pairs: int

    @property
    def total(self) -> np.ndarray:
        return self.within + self.between


@dataclass(frozen=True)
class TraceRatioResult:
    """Output of the trace-ratio solve.

    ``projection`` has orthonormal columns in the space the scatters were
    given in; ``ratio_history`` records the objective after the initial
    guess and after each update.
    """

    projection: np.ndarray
    ratio_history: tuple[float, ...]


@dataclass(frozen=True)
class ModelState:
    """Everything needed to classify new sets: the frozen training state.

    The gallery is ``bank.features``; a model scores probes exactly when they
    are not None. ``labels`` and the optional ``set_ids`` follow bank order.
    """

    transform: np.ndarray
    gating: GatingParams
    train_weights: np.ndarray
    bank: KernelBank
    labels: tuple
    config: TrainConfig
    objective_trace: tuple[float, ...]
    set_ids: tuple[str, ...] | None = None

    @property
    def n_train(self) -> int:
        return self.bank.n_train

    @property
    def target_dim(self) -> int:
        return self.transform.shape[1]

    @cached_property
    def projected_grams(self) -> tuple[np.ndarray, ...]:
        """``transform.T @ K_q`` per channel, the gallery side of every probe
        distance; computed on first use and kept for the model's lifetime."""
        out = []
        for gram in self.bank.grams:
            p = self.transform.T @ gram
            p.setflags(write=False)
            out.append(p)
        return tuple(out)


def scatter_matrices(bank: KernelBank, labels, weights: np.ndarray) -> ScatterPair:
    """Gated scatter matrices over Gram columns.

    For every ordered pair of training samples (including i == j) and every
    kernel channel, the difference of Gram columns contributes an outer
    product weighted by both samples' gating weights. Same-class pairs feed
    the within scatter, different-class pairs the between scatter; each is
    divided by its pair count. Implemented via the Laplacian identity
    ``K @ (diag(r) + diag(c) - W - W.T) @ K`` rather than explicit pair
    loops.
    """
    n = bank.n_train
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ShapeMismatch(f"expected {n} labels, got shape {labels.shape}")
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (bank.n_kernels, n):
        raise ShapeMismatch(
            f"weights must be {bank.n_kernels} x {n}, got {w.shape}"
        )
    same = (labels[:, None] == labels[None, :]).astype(np.float64)
    diff = 1.0 - same
    n_within = int(round(float(same.sum())))
    n_between = int(round(float(diff.sum())))
    if n_between == 0:
        raise SingleClassGallery("gallery has a single class; between scatter is empty")

    within = np.zeros((n, n), dtype=np.float64)
    between = np.zeros((n, n), dtype=np.float64)
    for k, gram in enumerate(bank.grams):
        pairw = w[k][:, None] * w[k][None, :]
        for mask, acc in ((same, within), (diff, between)):
            wm = pairw * mask
            r = wm.sum(axis=1)
            c = wm.sum(axis=0)
            lap = np.diag(r + c) - wm - wm.T
            acc += gram @ lap @ gram
    within /= n_within
    between /= n_between
    within = 0.5 * (within + within.T)
    between = 0.5 * (between + between.T)
    return ScatterPair(
        within=within,
        between=between,
        n_within_pairs=n_within,
        n_between_pairs=n_between,
    )


def trace_ratio_objective(transform: np.ndarray, scatter: ScatterPair) -> float:
    """J = trace(E.T B E) / trace(E.T (W + B) E), clipped into [0, 1].

    Both scatters are positive semidefinite, so the true value lies in
    [0, 1]; the clip only absorbs roundoff at the endpoints.
    """
    e = np.asarray(transform, dtype=np.float64)
    total = scatter.total
    denom = float(np.sum(e * (total @ e)))
    if denom <= DENOMINATOR_FLOOR:
        raise DegenerateDenominator(f"projected total scatter {denom:.3e} is degenerate")
    num = float(np.sum(e * (scatter.between @ e)))
    return min(max(num / denom, 0.0), 1.0)


def remove_null_space(
    within: np.ndarray, between: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Restrict the scatter pair to the span of the total scatter.

    Returns ``(basis, reduced_between, reduced_total, reduced_dim)`` where
    ``basis`` holds the eigenvectors of the total scatter with eigenvalues
    above ``NULL_SPACE_RTOL`` times the largest. Raises ``ZeroTotalScatter``
    when the total scatter is numerically zero.
    """
    total = np.asarray(within, dtype=np.float64) + np.asarray(between, dtype=np.float64)
    total = 0.5 * (total + total.T)
    pair = sym_eig(total)
    lam_max = float(pair.values[0])
    if lam_max <= TOTAL_SCATTER_FLOOR:
        raise ZeroTotalScatter(f"total scatter spectral radius {lam_max:.3e}")
    reduced_dim = int(np.count_nonzero(pair.values > NULL_SPACE_RTOL * lam_max))
    basis = pair.vectors[:, :reduced_dim].copy()
    reduced_total = basis.T @ total @ basis
    reduced_between = basis.T @ np.asarray(between, dtype=np.float64) @ basis
    reduced_total = 0.5 * (reduced_total + reduced_total.T)
    reduced_between = 0.5 * (reduced_between + reduced_between.T)
    return basis, reduced_between, reduced_total, reduced_dim


def _trace_ratio(v: np.ndarray, between: np.ndarray, total: np.ndarray) -> float:
    num = float(np.sum(v * (between @ v)))
    den = float(np.sum(v * (total @ v)))
    if den <= DENOMINATOR_FLOOR:
        raise DegenerateDenominator(f"projected total scatter {den:.3e} is degenerate")
    return num / den


def random_orthonormal(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Orthonormal columns from a QR of a Gaussian draw, with fixed signs."""
    g = rng.standard_normal((rows, cols))
    q, r = np.linalg.qr(g)
    signs = np.sign(np.diag(r))
    signs[signs == 0.0] = 1.0
    return q * signs


def solve_trace_ratio(
    between: np.ndarray,
    total: np.ndarray,
    target_dim: int,
    max_iters: int = 30,
    eps: float = 1e-5,
    rng: np.random.Generator | None = None,
) -> TraceRatioResult:
    """Maximize trace(V.T B V) / trace(V.T T V) over orthonormal V.

    Iterative trace-difference scheme: from the current ratio ``lam``, the
    next V stacks the top eigenvectors of ``B - lam * T``; V is then rotated
    onto eigenvectors of the subspace-restricted total scatter (which leaves
    the ratio unchanged but makes the output basis canonical). The recorded
    ratio history is non-decreasing; iteration stops when the ratio moves
    less than ``eps`` or after ``max_iters`` updates.
    """
    b = np.asarray(between, dtype=np.float64)
    t = np.asarray(total, dtype=np.float64)
    dim = t.shape[0]
    if b.shape != t.shape or b.ndim != 2 or t.shape[0] != t.shape[1]:
        raise ShapeMismatch(f"scatter shapes disagree: {b.shape} vs {t.shape}")
    if not 1 <= target_dim <= dim:
        raise BadDimension(f"target_dim={target_dim} must be in [1, {dim}]")
    if rng is None:
        rng = np.random.default_rng(0)

    v = random_orthonormal(rng, dim, target_dim)
    lam = _trace_ratio(v, b, t)
    history = [lam]
    for _ in range(max_iters):
        m = b - lam * t
        pair = sym_eig(0.5 * (m + m.T))
        if target_dim < dim:
            gap = float(pair.values[target_dim - 1] - pair.values[target_dim])
            if gap < EIGEN_GAP_TOL:
                logger.info(
                    "trace-difference eigen-gap %.3e at cut %d; ordering convention decides",
                    gap,
                    target_dim,
                )
        v = pair.vectors[:, :target_dim]
        # canonical rotation: eigenbasis of the total scatter restricted to span(V)
        small = v.T @ t @ v
        rot = sym_eig(0.5 * (small + small.T))
        v = v @ rot.vectors
        new_lam = _trace_ratio(v, b, t)
        history.append(new_lam)
        if abs(new_lam - lam) < eps:
            lam = new_lam
            break
        lam = new_lam
    return TraceRatioResult(projection=v, ratio_history=tuple(history))


def _objective_for_params(
    bank: KernelBank, labels, params: GatingParams, transform: np.ndarray
) -> float:
    weights = gating_weights(bank, params)
    scatter = scatter_matrices(bank, labels, weights)
    return trace_ratio_objective(transform, scatter)


def train(
    bank: KernelBank,
    labels,
    cfg: TrainConfig,
    set_ids: Sequence[str] | None = None,
) -> ModelState:
    """Alternating training loop over projection and gating parameters.

    Randomness (parameter init, trace-ratio starting points) comes from a
    single generator seeded with ``cfg.seed``: first the gating init, then
    one orthonormal draw per outer iteration, in that order. Stops early
    after iteration 2 when either the parameter update or the projection
    update falls below ``cfg.eps`` in max norm.
    """
    n = bank.n_train
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ShapeMismatch(f"expected {n} labels, got shape {labels.shape}")
    if np.unique(labels).size < 2:
        raise SingleClassGallery("training needs at least two classes")
    if set_ids is not None and len(set_ids) != n:
        raise ShapeMismatch(f"got {len(set_ids)} set ids for n_train={n}")

    rng = np.random.default_rng(cfg.seed)
    params = init_gating_params(bank.n_kernels, n, rng)
    counts = pair_counts(labels)

    trace: list[float] = []
    transform = None
    prev_transform = None
    clamp_warned = False
    for it in range(1, cfg.iters + 1):
        weights = gating_weights(bank, params)
        scatter = scatter_matrices(bank, labels, weights)
        basis, red_between, red_total, red_dim = remove_null_space(
            scatter.within, scatter.between
        )
        eff_dim = min(cfg.target_dim, red_dim)
        if eff_dim < cfg.target_dim and not clamp_warned:
            logger.warning(
                "target_dim clamped from %d to %d (usable scatter rank)",
                cfg.target_dim,
                eff_dim,
            )
            clamp_warned = True
        itr = solve_trace_ratio(
            red_between,
            red_total,
            eff_dim,
            max_iters=cfg.itr_iters,
            eps=cfg.eps,
            rng=rng,
        )
        transform = basis @ itr.projection
        objective = trace_ratio_objective(transform, scatter)
        trace.append(objective)

        grads = gating_gradients(bank, params, transform, labels, counts)
        step = cfg.learning_rate
        new_params = gradient_ascent_step(params, grads, step)
        if step > 0.0:
            new_objective = _objective_for_params(bank, labels, new_params, transform)
            halvings = 0
            while new_objective < objective and halvings < MAX_STEP_HALVINGS:
                step *= 0.5
                new_params = gradient_ascent_step(params, grads, step)
                new_objective = _objective_for_params(bank, labels, new_params, transform)
                halvings += 1
            if new_objective < objective:
                logger.info("iteration %d: gating step rolled back entirely", it)
                new_params = params

        converged = False
        if it > 2 and prev_transform is not None:
            param_delta = max(
                float(np.max(np.abs(new_params.coeffs - params.coeffs))),
                float(np.max(np.abs(new_params.biases - params.biases))),
            )
            if prev_transform.shape == transform.shape:
                transform_delta = float(np.max(np.abs(transform - prev_transform)))
            else:
                transform_delta = np.inf
            converged = param_delta < cfg.eps or transform_delta < cfg.eps
        params = new_params
        prev_transform = transform
        if converged:
            logger.info("converged after %d outer iterations", it)
            break

    final_weights = gating_weights(bank, params)
    return ModelState(
        transform=transform,
        gating=params,
        train_weights=final_weights,
        bank=bank,
        labels=tuple(labels.tolist()),
        config=cfg,
        objective_trace=tuple(trace),
        set_ids=None if set_ids is None else tuple(set_ids),
    )
