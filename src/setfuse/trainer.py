"""Discriminative subspace learning in the fused kernel space.

Training alternates two blocks until convergence:

1. with the gating parameters fixed, build gated within/between scatter
   matrices over Gram columns and solve a trace-ratio problem for the
   projection by the iterative trace-difference method;
2. with the projection fixed, take a gradient-ascent step on the gating
   parameters (with rollback and step halving if the objective would
   decrease).

The learned projection maps Gram columns to a low-dimensional space where
between-class spread dominates within-class spread.

Every scatter is a sum of outer products of Gram column differences, so it
lies in the span of those differences, whose rank r is at most the summed
lifted-feature widths. Softmax weights are positive, so no gating shrinks
that span: training fixes one orthonormal basis of it per call
(``gram_span``) and works there throughout, with r x r scatters factored
over classes rather than pairs, a trace-ratio solve warm-started from the
previous projection, and an objective and gradient read from projected Gram
columns. No iteration cuts a null space: extreme weights can make a
direction of the span numerically thin, but such a direction adds about 0
to both traces of the ratio, and a projection whose total scatter vanishes
raises ``DegenerateDenominator``.

Gram matrices exist only inside ``train``: it builds each channel's scaled
Gram from the gallery's lifted rows (``kernels.gram``) and drops them when
it returns. The model it returns, ``ModelState``, holds those rows and
derives what prediction reads from them, the transform and the gating.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .config import TrainConfig, is_real
from .descriptors import read_only
from .errors import BadSpec, DegenerateDenominator, ZeroTotalScatter
from .gating import (
    ClassLayout,
    GatingParams,
    class_layout,
    class_means,
    gating_weights,
    gradient_ascent_step,
    init_gating_params,
    pair_traces,
    projected_gradients,
    projected_pair_sums,
    softmax_columns,
)
from .kernels import gram, gram_scale, lift_width, lifted_dim
from .spd import sym_eig

logger = logging.getLogger(__name__)

# Eigenvalues of the centred Grams' sum above this fraction of the largest
# span the Gram column differences (``gram_span``).
NULL_SPACE_RTOL = 1e-10
# At or below this spectral radius every Gram has numerically equal columns.
TOTAL_SCATTER_FLOOR = 1e-15
# Trace-ratio denominators at or below this value are degenerate.
DENOMINATOR_FLOOR = 1e-15
# Eigen-gap below which the trace-difference eigenvector choice is ambiguous.
EIGEN_GAP_TOL = 1e-12
# Bound on step halvings when a gating step would decrease the objective.
MAX_STEP_HALVINGS = 30


@dataclass(frozen=True)
class ScatterPair:
    """Gated within/between scatter matrices."""

    within: np.ndarray
    between: np.ndarray

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


class ProbeMap(NamedTuple):
    """One channel's learned metric as linear maps on a lifted row f (D_q),
    derived from the gallery rows F_q, the channel's scale s_q, the transform
    E and the gating read-out ``coeffs_q``.

    ``projection`` (p x D_q, ``s_q E.T F_q``) gives a row's projection
    ``projection @ f``, which is ``E.T k_q`` for its kernel column k_q;
    ``score`` (D_q, ``s_q coeffs_q @ F_q``) gives its gating score less the
    bias, ``score @ f = coeffs_q @ k_q``; ``gallery`` (p x N,
    ``projection @ F_q.T``) holds the gallery's own projections, the
    projected Gram columns ``E.T K_q``.
    """

    projection: np.ndarray
    score: np.ndarray
    gallery: np.ndarray


@dataclass(frozen=True)
class ModelState:
    """Everything needed to classify new sets: the frozen training state.

    The gallery is ``features``, its unscaled lifted rows, one (N, D_q) array
    per channel of ``config.descriptors``; they are what a saved model stores.
    ``labels`` and ``set_ids`` follow their row order. A model holds no Gram
    matrix: it derives ``scales`` (``gram_scale`` under
    ``config.normalize_kernels``, as ``train`` scales its Grams), ``n_train``
    and ``dim`` from the features, and ``probe_maps`` and ``train_weights``
    from the features, the gating and the transform.

    This is the one place that checks a model's shapes, so every model saves
    as it loads. ``BadSpec`` unless the model fits one gallery of N >= 1 sets:
    one features array per channel, N rows each, as wide as the channel's
    lift of one set dimension d >= 1 (``lift_width``); an N x p transform,
    p >= 1; Q x N gating coefficients and Q biases; one label and one set id
    per set; and an objective trace of finite numbers in [0, 1], where
    ``train`` clips every objective. The features and the transform are kept
    read-only and C-contiguous (any other array is copied).
    """

    transform: np.ndarray
    gating: GatingParams
    features: tuple[np.ndarray, ...]
    labels: tuple[str, ...]
    set_ids: tuple[str, ...]
    config: TrainConfig
    objective_trace: tuple[float, ...]
    scales: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        # read-only, as ``probe_maps`` caches maps of them
        object.__setattr__(self, "features", tuple(read_only(f) for f in self.features))
        object.__setattr__(self, "transform", read_only(self.transform))
        names, features, e = self.config.descriptors, self.features, self.transform
        coeffs, biases = self.gating.coeffs.shape, self.gating.biases.shape
        n = features[0].shape[0] if features and features[0].ndim == 2 else 0
        if not (
            n >= 1
            and len(features) == len(names)
            and all(f.ndim == 2 and f.shape[0] == n for f in features)
            and e.ndim == 2 and e.shape[0] == n and e.shape[1] >= 1
            and (coeffs, biases) == ((len(names), n), (len(names),))
        ):
            raise BadSpec(
                f"features of shapes {[f.shape for f in features]}, transform {e.shape} and "
                f"gating {coeffs} and {biases} do not fit the channels {names} and "
                f"{n} gallery sets"
            )
        dim = self.dim
        for name, f in zip(names, features):
            if dim < 1 or f.shape[1] != lift_width(name, dim):
                raise BadSpec(
                    f"features_{name}: {f.shape[1]} features per set, where the {name} "
                    f"lift of sets of dimension {dim} has {lift_width(name, dim)}"
                )
        if len(self.labels) != n or len(self.set_ids) != n:
            raise BadSpec(
                f"{len(self.labels)} labels and {len(self.set_ids)} set ids "
                f"do not match {n} gallery sets"
            )
        trace = tuple(self.objective_trace)
        if not all(is_real(x) and 0.0 <= x <= 1.0 for x in trace):
            raise BadSpec(f"objective trace {trace!r:.80} holds a value that is not in [0, 1]")
        object.__setattr__(self, "objective_trace", tuple(map(float, trace)))
        scales = tuple(gram_scale(f, self.config.normalize_kernels) for f in features)
        object.__setattr__(self, "scales", scales)

    @property
    def n_train(self) -> int:
        return self.features[0].shape[0]

    @property
    def dim(self) -> int:
        """Dimension d of the sets the gallery was encoded from."""
        return lifted_dim(self.config.descriptors[0], self.features[0].shape[1])

    @cached_property
    def probe_maps(self) -> tuple[ProbeMap, ...]:
        """One read-only ``ProbeMap`` per channel, the whole of what a probe's
        distances read besides the biases and ``train_weights``; computed on
        first use and kept for the model's lifetime."""
        e = self.transform
        out = []
        for f, s, c in zip(self.features, self.scales, self.gating.coeffs):
            projection = s * (e.T @ f)
            arrays = ProbeMap(projection, s * (c @ f), projection @ f.T)
            for a in arrays:
                a.setflags(write=False)
            out.append(arrays)
        return tuple(out)

    def gate(self, rows) -> np.ndarray:
        """Gating weights of lifted rows, one array per channel:
        ``softmax_q(rows_q @ score_q + biases[q])`` with each channel's
        ``ProbeMap.score``. Q weights for one probe's rows (D_q each), Q x N
        for N rows per channel (N x D_q each)."""
        scores = [r @ m.score + b for m, r, b in zip(self.probe_maps, rows, self.gating.biases)]
        return softmax_columns(np.array(scores))

    @cached_property
    def train_weights(self) -> np.ndarray:
        """The gallery's gating weights, ``gate(features)`` (Q x N), the read-out
        a probe's rows get; computed on first use and kept for the model's
        lifetime."""
        w = self.gate(self.features)
        w.setflags(write=False)
        return w


@dataclass(frozen=True)
class GramSpan:
    """An orthonormal basis of the span of Gram column differences, and the
    Grams in it.

    ``basis`` is N x r; ``columns[q] = basis.T @ K_q`` (r x N). Every gated
    scatter lies in this span, since each is a sum of outer products of Gram
    column differences, so the trainer works on r x r scatters. The part of
    a Gram column outside the span is common to all columns of its channel,
    so it cancels from every difference and every projected distance. With
    lifted features ``K_q = L_q L_q.T``, r is at most the sum of the D_q.
    """

    basis: np.ndarray
    columns: tuple[np.ndarray, ...]


def gram_span(grams: Sequence[np.ndarray]) -> GramSpan:
    """Span of all Gram column differences: eigenvectors of
    ``sum_q K_q C K_q`` (C the centring matrix) whose eigenvalues exceed
    ``NULL_SPACE_RTOL`` times the largest.

    ``K_q C K_q`` is the Gram of the centred columns of K_q, so its range is
    the span of their differences; it holds the range of the total scatter
    for every choice of positive gating weights. Raises
    ``ZeroTotalScatter`` when every Gram has numerically equal columns.
    """
    centred = [k - k.mean(axis=1, keepdims=True) for k in grams]
    pair = sym_eig(sum(c @ c.T for c in centred))
    lam_max = float(pair.values[0])
    if lam_max <= TOTAL_SCATTER_FLOOR:
        raise ZeroTotalScatter(f"centred Grams: spectral radius {lam_max:.3e}")
    rank = int(np.count_nonzero(pair.values > NULL_SPACE_RTOL * lam_max))
    basis = pair.vectors[:, :rank].copy()
    return GramSpan(basis=basis, columns=tuple(basis.T @ k for k in grams))


def scatter_matrices(
    columns: Sequence[np.ndarray], classes: ClassLayout, weights: np.ndarray
) -> ScatterPair:
    """Gated scatter matrices over Gram columns of the N samples ``classes`` lays out.

    ``columns[q]`` holds channel q's N Gram columns, m x N; the trainer
    passes ``GramSpan.columns``, so the scatters come back m x m in the span
    basis. For every ordered pair of training samples (including i == j) and
    every kernel channel, the difference of columns contributes an outer
    product weighted by both samples' gating weights. Same-class pairs feed
    the within scatter, different-class pairs the between scatter; each is
    divided by its pair count.

    No pair is formed. Per channel, with columns a_i, weights w_i, class
    weight W_c, weighted class mean m_c and d_i = a_i - m_c, the pair sums
    factor over the classes:

        within  = 2 sum_i w_i W_c(i) d_i d_i.T
        between = 2 sum_i w_i (W - W_c(i)) d_i d_i.T
                  + 2 W sum_c W_c (m_c - m)(m_c - m).T

    with m the weighted mean of all columns. Each sum is formed as X @ X.T
    with X the differences scaled by the square roots of their weights, a
    symmetric rank-k product whose result is exactly symmetric; so a
    channel costs two such (m x N) products.
    """
    codes, dim = classes.codes, columns[0].shape[0]
    within = np.zeros((dim, dim), dtype=np.float64)
    between = np.zeros((dim, dim), dtype=np.float64)
    for a, wq in zip(columns, weights):
        class_w, means = class_means(a, wq, classes)
        total_w = float(class_w.sum())
        d = a - means[:, codes]
        # total_w >= class_w[c] in floating point too: it sums non-negative terms
        x = d * np.sqrt(wq * class_w[codes])
        within += x @ x.T
        x = d * np.sqrt(wq * (total_w - class_w[codes]))
        between += x @ x.T
        if total_w > 0.0:
            spread = means - (means @ class_w)[:, None] / total_w
            x = spread * np.sqrt(total_w * class_w)
            between += x @ x.T
    within *= 2.0 / classes.n_within
    between *= 2.0 / classes.n_between
    return ScatterPair(within=within, between=between)


def _quotient(num: float, denom: float) -> float:
    """``num / denom``; ``DegenerateDenominator`` when the projected total
    scatter ``denom`` is at or below ``DENOMINATOR_FLOOR``."""
    if denom <= DENOMINATOR_FLOOR:
        raise DegenerateDenominator(f"projected total scatter {denom:.3e} is degenerate")
    return num / denom


def _trace_ratio(v: np.ndarray, between: np.ndarray, total: np.ndarray) -> float:
    """trace(V.T B V) / trace(V.T T V), unclipped."""
    return _quotient(float(np.sum(v * (between @ v))), float(np.sum(v * (total @ v))))


def _orthonormal_columns(m: np.ndarray) -> np.ndarray:
    """Q of a thin QR of ``m``, with column signs fixed by diag(R) >= 0."""
    q, r = np.linalg.qr(m)
    signs = np.sign(np.diag(r))
    signs[signs == 0.0] = 1.0
    return q * signs


def random_orthonormal(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Orthonormal columns from a QR of a Gaussian draw, with fixed signs."""
    return _orthonormal_columns(rng.standard_normal((rows, cols)))


def solve_trace_ratio(
    between: np.ndarray,
    total: np.ndarray,
    target_dim: int,
    max_iters: int = 30,
    eps: float = 1e-5,
    rng: np.random.Generator | None = None,
    start: np.ndarray | None = None,
) -> TraceRatioResult:
    """Maximize trace(V.T B V) / trace(V.T T V) over orthonormal V.

    Iterative trace-difference scheme: from the current ratio ``lam``, the
    next V stacks the top eigenvectors of ``B - lam * T``; V is then rotated
    onto eigenvectors of the subspace-restricted total scatter (which leaves
    the ratio unchanged but makes the output basis canonical). The recorded
    ratio history is non-decreasing; iteration stops when the ratio moves
    less than ``eps`` or after ``max_iters`` updates. ``target_dim`` lies in
    [1, dim], as ``train`` clamps it.

    The scheme is Newton's method on ``lam`` (Wang et al. 2007; Ngo,
    Bellalij & Saad 2012), so a start near the optimum needs one
    or two updates. ``start`` (dim x target_dim, e.g. the previous solution)
    is the warm start, re-orthonormalised here by a sign-fixed QR; without
    it V starts from one orthonormal draw from ``rng``.
    """
    b = np.asarray(between, dtype=np.float64)
    t = np.asarray(total, dtype=np.float64)
    dim = t.shape[0]
    if start is not None:
        v = _orthonormal_columns(start)
    else:
        if rng is None:
            rng = np.random.default_rng(0)
        v = random_orthonormal(rng, dim, target_dim)

    lam = _trace_ratio(v, b, t)
    history = [lam]
    for _ in range(max_iters):
        pair = sym_eig(b - lam * t)
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
        v = v @ sym_eig(v.T @ t @ v).vectors
        new_lam = _trace_ratio(v, b, t)
        history.append(new_lam)
        if abs(new_lam - lam) < eps:
            lam = new_lam
            break
        lam = new_lam
    return TraceRatioResult(projection=v, ratio_history=tuple(history))


def _evaluate(
    projected: Sequence[np.ndarray], weights: np.ndarray, classes: ClassLayout
) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """The trace-ratio objective at ``weights``, clipped into [0, 1], from
    projected Gram columns, and the ``projected_pair_sums`` it was read from;
    O(p N n_classes) per channel."""
    sums = projected_pair_sums(projected, weights, classes)
    h_w, h_b = pair_traces(weights, sums, classes)
    return min(max(_quotient(h_b, h_w + h_b), 0.0), 1.0), sums


def train(
    features: Sequence[np.ndarray], labels, set_ids: Sequence[str], cfg: TrainConfig
) -> ModelState:
    """Alternating training loop over projection and gating parameters.

    ``features`` holds the gallery's lifted rows (``lift_features``), one
    (N, D_q) array per channel of ``cfg.descriptors``; the Grams, each scaled
    by ``gram_scale`` under ``cfg.normalize_kernels``, are built from them
    here and nowhere else, and the model keeps the rows. ``labels`` gives each
    set's class and ``set_ids`` its id, one str each, as the gallery's
    ``ImageSet`` carry them; ``class_layout`` derives from the labels, once
    per call, the class structure every scatter, objective and gradient reads.
    Once per call, ``gram_span`` finds an orthonormal basis of the
    r-dimensional span of all Gram column differences, which holds the range
    of every gated total scatter, and the projection width is clamped to r.
    Each outer iteration builds the r x r gated scatters in that basis and
    solves the trace ratio there, from the second iteration warm-started
    from the previous projection. The objective, the gating gradient and the
    step line search read the projected Gram columns ``E.T @ K_q`` the
    iteration forms once, through ``projected_pair_sums``, O(p N n_classes)
    per channel; each gating point is evaluated once, with one pass of
    those sums giving its objective and, at the iteration's start point, its
    gradient. The weights of the accepted step carry into the next
    iteration; ``ModelState.train_weights`` derives the last ones from the
    rows and the final gating. An outer iteration so costs O(N r^2 + r^3) for the
    scatters and the solve, plus O(p N r) per channel for ``E.T @ K_q`` and
    one Gram matvec per channel for each line-search try and for the
    gradient.
    ``gram_span`` costs O(N^3) once. Every iteration solves in the full
    span basis, however small a gating weight gets: a numerically thin
    direction adds about 0 to both traces of the ratio, so it needs no cut,
    and a projection whose total scatter vanishes raises
    ``DegenerateDenominator``.

    Randomness comes from a single generator seeded with ``cfg.seed``: first
    the gating init, then one orthonormal draw for the trace-ratio start at
    the first outer iteration. From iteration 3 on, it stops early when
    either the parameter update or the projection update falls below
    ``cfg.eps`` in max norm.
    """
    features = tuple(read_only(f) for f in features)
    grams = [gram(f, gram_scale(f, cfg.normalize_kernels)) for f in features]
    classes = class_layout(labels)
    rng = np.random.default_rng(cfg.seed)
    params = init_gating_params(len(grams), features[0].shape[0], rng)
    span = gram_span(grams)
    width = min(cfg.target_dim, span.basis.shape[1])
    if width < cfg.target_dim:
        logger.warning(
            "target_dim clamped from %d to %d (usable scatter rank)", cfg.target_dim, width
        )

    trace: list[float] = []
    transform = None
    coords = None  # the projection in span coordinates, r x p
    weights = gating_weights(grams, params)
    for it in range(1, cfg.iters + 1):
        scatter = scatter_matrices(span.columns, classes, weights)
        itr = solve_trace_ratio(
            scatter.between,
            scatter.total,
            width,
            max_iters=cfg.itr_iters,
            eps=cfg.eps,
            rng=rng,
            start=coords,
        )
        prev_transform = transform
        coords = itr.projection
        transform = span.basis @ coords
        projected = [coords.T @ a for a in span.columns]
        objective, sums = _evaluate(projected, weights, classes)
        trace.append(objective)

        grads = projected_gradients(grams, weights, sums, classes)
        step = cfg.learning_rate
        for _ in range(MAX_STEP_HALVINGS + 1):
            new_params = gradient_ascent_step(params, grads, step)
            new_weights = gating_weights(grams, new_params)
            if not _evaluate(projected, new_weights, classes)[0] < objective:
                break
            step *= 0.5
        else:
            logger.info("iteration %d: gating step rolled back entirely", it)
            new_params, new_weights = params, weights

        converged = False
        if it > 2:
            param_delta = max(
                float(np.max(np.abs(new_params.coeffs - params.coeffs))),
                float(np.max(np.abs(new_params.biases - params.biases))),
            )
            transform_delta = float(np.max(np.abs(transform - prev_transform)))
            converged = param_delta < cfg.eps or transform_delta < cfg.eps
        params, weights = new_params, new_weights
        if converged:
            logger.info("converged after %d outer iterations", it)
            break

    return ModelState(
        transform=transform,
        gating=params,
        features=features,
        labels=tuple(map(str, labels)),
        set_ids=tuple(set_ids),
        config=cfg,
        objective_trace=tuple(trace),
    )
