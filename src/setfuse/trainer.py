"""Discriminative subspace learning in the fused kernel space.

Training alternates two blocks until convergence:

1. with the gating parameters fixed, build gated within/between scatter
   matrices over Gram columns and solve a trace-ratio problem for the
   projection by the iterative trace-difference method;
2. with the projection fixed, take a gradient-ascent step on the gating
   parameters (with rollback and step halving if the objective would
   decrease).

The learned projection maps Gram columns to a low-dimensional space where
between-class spread dominates within-class spread. What is learned is that
space: a model reads its transform E only through the subspace E spans
(E and E R, R orthogonal, measure the same distances), so training fixes
no orientation of it. The span basis and each trace-ratio solution keep the
eigenvectors ``eigh`` gives, signs included, and the outer loop stops on the
gating step alone.

Every scatter is a sum of outer products of Gram column differences, so it
lies in the span of those differences, whose rank r is at most the summed
lifted-feature widths. Softmax weights are positive, so no gating shrinks
that span: training fixes one orthonormal basis of it per gallery
(``gram_spans``, one stacked eigendecomposition for every gallery of a
call) and works there throughout, with r x r scatters factored
over classes rather than pairs, a trace-ratio solve warm-started from the
previous projection, and an objective and gradient read from projected Gram
columns. No iteration cuts a null space: extreme weights can make a
direction of the span numerically thin, but such a direction adds about 0
to both traces of the ratio, and a projection whose total scatter vanishes
raises ``DegenerateDenominator``.

``train`` trains a stack of galleries in lockstep, as the ``spd``
primitives take a stack of matrices: a stack of a split protocol's splits,
or one gallery, a stack of one. It is the one form of every function an
iteration calls (``scatter_matrices``, ``solve_trace_ratio`` and the
``gating`` ones): each takes a leading problem axis, so each numpy call of
an iteration serves every problem of the stack, and each problem gets the
bits it gets alone. Only ``solve_trace_ratio`` drops the problems that stop
moving, as their solution is final. Every outer iteration steps every
gallery of the stack, as every line-search try does: a gallery that stopped
early steps by 0.0 and keeps its projection, and a problem whose try was
accepted keeps its step, so each repeats its final state bit for bit while
the others move. ``train`` groups the galleries it is given by span rank; the
split protocol gives it as many at a time as ``STACK_BYTES`` allows
(``stack_size``, which counts each gallery's lifted rows, Grams, span
columns and basis): stacking pays for small galleries, whose
iterations are many small numpy calls, so a ten-split row of N=50, d=10
galleries trains as one stack; it is left out for large galleries
(N=250), whose calls are long already, and for wide ones (d >= 64 at
N=50), whose rows would multiply the memory.

Gram matrices exist only inside ``train``: it builds each channel's scaled
Grams from the stack's lifted rows with one product (``kernels.gram``) and
drops them when it returns. The models it returns, ``ModelState``, hold
views of those rows and derive what prediction reads from them, the
transform and the gating.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .config import TrainConfig, is_real
from .descriptors import read_only
from .errors import BadSpec, DegenerateDenominator, NonFinite, ZeroTotalScatter
from .gating import (
    ClassLayout,
    GatingParams,
    class_layout,
    class_means,
    gating_weights,
    gradient_ascent_step,
    pair_traces,
    per_problem,
    projected_gradients,
    projected_pair_sums,
    softmax_columns,
    stack_layouts,
)
from .kernels import gram, gram_scale, lift_width, lifted_dim
from .spd import eigh, raise_first

logger = logging.getLogger(__name__)

# Eigenvalues of the centred Grams' sum above this fraction of the largest
# span the Gram column differences (``gram_spans``).
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
    """Output of the trace-ratio solve of a stack of problems.

    ``projection[k]`` has orthonormal columns in the space problem k's
    scatters were given in; ``ratio_history[k]`` records its objective after
    the initial guess and after each of its updates.
    """

    projection: np.ndarray
    ratio_history: tuple[tuple[float, ...], ...]


class ProbeMap(NamedTuple):
    """One channel's learned metric as linear maps on a lifted row f (D_q),
    derived from the gallery rows F_q, the channel's scale s_q, the transform
    E and the gating read-out ``coeffs_q``.

    ``projection`` (p x D_q, ``s_q E.T F_q``) gives a row's projection
    ``projection @ f``, which is ``E.T k_q`` for its kernel column k_q;
    ``score`` (D_q, ``s_q coeffs_q @ F_q``) gives its gating score less the
    bias, ``score @ f = coeffs_q @ k_q``. The gallery's own projections
    ``projection @ F_q.T`` are stacked over the channels in
    ``ModelState.gallery_projections``.
    """

    projection: np.ndarray
    score: np.ndarray


@dataclass(frozen=True, eq=False)
class ModelState:
    """Everything needed to classify new sets: the frozen training state.

    The gallery is ``features``, its unscaled lifted rows, one (N, D_q) array
    per channel of ``config.descriptors``; they are what a saved model stores.
    ``labels`` and ``set_ids`` follow their row order. A model holds no Gram
    matrix: it derives ``scales`` (``gram_scale`` under
    ``config.normalize_kernels``, as ``train`` scales its Grams), ``n_train``
    and ``dim`` from the features, and ``probe_maps``,
    ``gallery_projections`` and ``train_weights`` from the features, the
    gating and the transform.

    This is the one place that checks a model's shapes, so every model saves
    as it loads. ``BadSpec`` unless the model fits one gallery of N >= 1 sets:
    one features array per channel, N rows each, as wide as the channel's
    lift of one set dimension d >= 1 (``lift_width``); an N x p transform,
    p >= 1; Q x N gating coefficients and Q biases; one label and one set id
    per set; and an objective trace of finite numbers in [0, 1], where
    ``train`` clips every objective. ``NonFinite`` for a transform or a
    features array that holds NaN or Inf, as ``GatingParams`` refuses such
    gating. The features and the transform are kept
    read-only and C-contiguous: such an array, or a view into one (a row of
    ``train``'s stacked rows), is kept as it is, and any other is copied.
    Equality and hashing are by identity.
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
        for what, a in zip(["transform"] + [f"features_{name}" for name in names], (e,) + features):
            if not np.isfinite(a).all():
                raise NonFinite(f"{what} contains NaN or Inf")
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
        distances read besides the biases, ``gallery_projections`` and
        ``train_weights``; computed on first use and kept for the model's
        lifetime."""
        e = self.transform
        out = []
        for f, s, c in zip(self.features, self.scales, self.gating.coeffs):
            arrays = ProbeMap(s * (e.T @ f), s * (c @ f))
            for a in arrays:
                a.setflags(write=False)
            out.append(arrays)
        return tuple(out)

    @cached_property
    def gallery_projections(self) -> np.ndarray:
        """The gallery's own projections (Q x p x N), ``projection @ F_q.T``
        for each channel's ``ProbeMap``: its projected Gram columns
        ``E.T K_q``, which a probe's projections are measured against;
        computed on first use and kept for the model's lifetime."""
        g = np.array([m.projection @ f.T for m, f in zip(self.probe_maps, self.features)])
        g.setflags(write=False)
        return g

    def gate(self, rows) -> np.ndarray:
        """Gating weights (Q x T) of T stacked lifted rows, one (T, D_q) array
        per channel: ``softmax_q(rows_q @ score_q + biases[q])`` with each
        channel's ``ProbeMap.score``."""
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


def gram_spans(grams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Spans of all Gram column differences of a stack of S galleries, from
    their Grams (S, Q, N, N): the eigenvectors (S, N, N) of ``sum_q K_q C
    K_q`` (C the centring matrix), one stacked ``eigh`` read in reverse, so
    by descending eigenvalue, and each gallery's rank r, its count of
    eigenvalues above ``NULL_SPACE_RTOL`` times the largest. Gallery k's span
    basis is ``vectors[k, :, :r_k]``.

    ``K_q C K_q`` is the Gram of the centred columns of K_q, so its range is
    the span of their differences; it holds the range of the total scatter
    for every choice of positive gating weights, so every gated scatter lies
    in the span and the trainer works on r x r scatters. The part of a Gram
    column outside the span is common to all columns of its channel, so it
    cancels from every difference and every projected distance. With lifted
    features ``K_q = L_q L_q.T``, r is at most the sum of the D_q. Raises
    ``ZeroTotalScatter`` for the first gallery whose Grams all have
    numerically equal columns.
    """
    total = np.zeros(grams.shape[:1] + grams.shape[2:])
    for k in grams.swapaxes(0, 1):  # one channel at a time, in channel order
        c = k - k.mean(axis=-1, keepdims=True)
        total += c @ c.swapaxes(-1, -2)
    values, vectors = eigh(total)
    lam_max = values[:, -1]
    raise_first(lam_max <= TOTAL_SCATTER_FLOOR, ZeroTotalScatter, lambda i: (
        f"centred Grams: spectral radius {lam_max[i]:.3e}"))
    ranks = np.count_nonzero(values > NULL_SPACE_RTOL * lam_max[:, None], axis=-1)
    return vectors[..., ::-1], ranks


def scatter_matrices(columns, classes: ClassLayout, weights: np.ndarray) -> ScatterPair:
    """Gated scatter matrices over Gram columns of the N samples ``classes`` lays out.

    ``columns[q]`` holds channel q's N Gram columns, m x N; the trainer
    passes the span columns ``basis.T @ K_q`` (``gram_spans``), so the
    scatters come back m x m in the span basis. For every ordered pair of
    training samples (including i == j) and every kernel channel, the
    difference of columns contributes an outer product weighted by both
    samples' gating weights. Same-class pairs feed the within scatter,
    different-class pairs the between scatter; each is divided by its pair
    count. A stack of problems (columns ``(..., Q, m, N)``, weights
    ``(..., Q, N)``) gets ``(..., m, m)`` scatters.

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
    a = np.asarray(columns)
    class_w, means = class_means(a, weights, classes)
    own = classes.per_sample(class_w[..., None, :])
    total_w = class_w.sum(axis=-1)
    # total_w >= class_w[c] in floating point too: it sums non-negative terms
    root_within = np.sqrt(weights[..., None, :] * own)
    root_between = np.sqrt(weights[..., None, :] * (total_w[..., None, None] - own))
    spread = _class_spread(means, class_w, total_w)
    within = np.zeros(weights.shape[:-2] + (a.shape[-2],) * 2)
    between = np.zeros_like(within)
    for q in range(a.shape[-3]):
        channel = slice(q, q + 1)  # keeps the channel axis, which ``per_sample`` reads
        d = classes.per_sample(means[..., channel, :, :])
        np.subtract(a[..., channel, :, :], d, out=d)
        x = d * root_within[..., channel, :, :]
        within += _gram_of_rows(x)
        np.multiply(d, root_between[..., channel, :, :], out=x)
        between += _gram_of_rows(x)
        between += _gram_of_rows(spread[..., channel, :, :])
    within *= per_problem(2.0 / np.asarray(classes.n_within))
    between *= per_problem(2.0 / np.asarray(classes.n_between))
    return ScatterPair(within=within, between=between)


def _gram_of_rows(x: np.ndarray) -> np.ndarray:
    """``X @ X.T`` of one channel's (..., 1, m, k) rows, as (..., m, m): a
    symmetric rank-k product, exactly symmetric."""
    return (x @ x.swapaxes(-1, -2))[..., 0, :, :]


def _class_spread(means: np.ndarray, class_w: np.ndarray, total_w: np.ndarray) -> np.ndarray:
    """The class-mean part of the between scatter as rows X, with
    ``X @ X.T = W sum_c W_c (m_c - m)(m_c - m).T`` per channel, from class
    means (..., Q, m, C), class weights (..., Q, C) and their totals W
    (..., Q). A channel of total weight zero gets zero rows, whose zero
    product leaves the between scatter's bits as they were."""
    total = total_w[..., None, None]
    centre = np.divide(
        means @ class_w[..., None], total, out=np.zeros(means.shape[:-1] + (1,)), where=total > 0.0
    )
    return (means - centre) * np.sqrt(total_w[..., None] * class_w)[..., None, :]


def _quotient(num, denom):
    """``num / denom``, per problem of a stack; ``DegenerateDenominator`` for
    the first problem whose projected total scatter ``denom`` is at or below
    ``DENOMINATOR_FLOOR``."""
    denom = np.asarray(denom)
    bad = denom <= DENOMINATOR_FLOOR
    if bad.any():
        raise_first(bad, DegenerateDenominator, lambda i: (
            f"projected total scatter {denom.flat[i]:.3e} is degenerate"))
    return num / denom


def _trace_ratio(v: np.ndarray, between: np.ndarray, total: np.ndarray) -> np.ndarray:
    """trace(V.T B V) / trace(V.T T V), unclipped, per problem of a stack."""
    return _quotient(
        np.sum(v * (between @ v), axis=(-2, -1)), np.sum(v * (total @ v), axis=(-2, -1))
    )


def solve_trace_ratio(
    between: np.ndarray,
    total: np.ndarray,
    target_dim: int,
    start: np.ndarray,
    max_iters: int,
    eps: float,
) -> TraceRatioResult:
    """Maximize trace(V.T B V) / trace(V.T T V) over orthonormal V, for each
    of a stack of S problems: B and T ``(S, dim, dim)``, ``start``
    ``(S, dim, target_dim)``.

    Iterative trace-difference scheme: from the current ratio ``lam``, the
    next V stacks the top eigenvectors of ``B - lam * T``, by descending
    eigenvalue, as ``eigh`` leaves them. The scheme determines the subspace
    of V, which is all that the ratio and a model's distances read, so V's
    basis of it is kept as ``eigh`` gives it, signs included. The recorded
    ratio history is non-decreasing; a problem stops when its ratio moves
    less than ``eps``, and all stop after ``max_iters`` updates.
    ``target_dim`` lies in [1, dim], as ``train`` clamps it.

    The scheme is Newton's method on ``lam`` (Wang et al. 2007; Ngo,
    Bellalij & Saad 2012): it reaches the optimum from any start, and a
    start near it needs one or two updates. ``start`` must have orthonormal
    columns (``train`` passes the span's leading directions, then the
    previous solution) and is used as given: it sets only the first ratio,
    since ``max_iters`` >= 1 and the first update replaces every problem's
    projection.

    The problems are solved in lockstep, each stopping on its own: the
    updates run on the problems still moving, and each gets the bits it
    gets alone. The result holds ``(S, dim, target_dim)`` projections and
    one history per problem.
    """
    b = np.asarray(between, dtype=np.float64)
    t = np.asarray(total, dtype=np.float64)
    dim = t.shape[-1]
    out = np.array(start, dtype=np.float64)
    lam = _trace_ratio(out, b, t)
    histories = [[x] for x in lam.tolist()]
    active = np.arange(len(histories))  # the problems b, t and lam hold
    for _ in range(max_iters):
        values, vectors = eigh(b - lam[:, None, None] * t)
        if target_dim < dim:
            gaps = values[:, dim - target_dim] - values[:, dim - target_dim - 1]
            for gap in gaps[gaps < EIGEN_GAP_TOL].tolist():
                logger.info(
                    "trace-difference eigen-gap %.3e at cut %d; the subspace kept is not unique",
                    gap,
                    target_dim,
                )
        v = vectors[..., dim - target_dim :][..., ::-1]  # the top p, descending
        new_lam = _trace_ratio(v, b, t)
        for k, x in zip(active.tolist(), new_lam.tolist()):
            histories[k].append(x)
        out[active] = v
        stops = np.abs(new_lam - lam) < eps
        lam = new_lam
        if not stops.any():
            continue
        moving = ~stops
        active, b, t, lam = (x[moving] for x in (active, b, t, lam))
        if not active.size:
            break
    return TraceRatioResult(projection=out, ratio_history=tuple(map(tuple, histories)))


def _evaluate(projected, weights: np.ndarray, classes: ClassLayout):
    """The trace-ratio objective at ``weights``, clipped into [0, 1], from
    projected Gram columns, one per problem, and the ``projected_pair_sums``
    it was read from; O(p N n_classes) per channel."""
    sums = projected_pair_sums(projected, weights, classes)
    h_w, h_b = pair_traces(weights, sums, classes)
    return np.minimum(np.maximum(_quotient(h_b, h_w + h_b), 0.0), 1.0), sums


# Bytes of per-problem state (lifted rows, Grams, span columns and span
# basis, as ``stack_size`` counts them; ``train`` drops the N x N
# eigenvectors it cuts the bases from) that one training stack may hold. A
# stack shares each numpy call of an iteration among its problems, which
# pays while those calls are small: an outer iteration has a fixed numpy-call
# cost of about 0.8 ms however few problems share it. At N=50, d=10 a
# problem holds about 270 KB, so a split protocol row of ten splits trains
# as one stack, about 15 % faster than stacks of 4 for about 7.5 % more peak
# memory. At N=250 (about 4.1 MB) or d >= 64 (about 5 MB of rows at N=50)
# stacking saves little and costs memory in proportion, so those galleries
# train one at a time.
STACK_BYTES = 3 * 1024 * 1024


def stack_size(n: int, widths: Sequence[int]) -> int:
    """Galleries of N sets, lifted to ``widths`` (the D_q), per training
    stack: as many as fit ``STACK_BYTES``, and at least one. A problem
    holds its lifted rows (N x sum D_q), Q float64 Grams (N x N), Q span
    columns (r x N) and a span basis (N x r), with r = min(N, sum D_q)
    bounding its span rank."""
    r = min(n, sum(widths))
    problem_bytes = 8 * (n * sum(widths) + len(widths) * n * (n + r) + n * r)
    return max(1, STACK_BYTES // problem_bytes)


def train(
    rows: Sequence[np.ndarray],
    labels: Sequence[Sequence[str]],
    set_ids: Sequence[Sequence[str]],
    cfg: TrainConfig,
) -> list[ModelState]:
    """Alternating training loop over projection and gating parameters, for
    a stack of S galleries; returns one model per gallery, in order, each
    holding ``cfg``.

    ``rows`` holds the stack's lifted rows (``lift_features``), one
    (S, N, D_q) array per channel of ``cfg.descriptors``, made read-only and
    C-contiguous (``read_only`` copies no array that already is one); gallery
    k's model keeps the views ``rows[q][k]``. ``labels[k]`` gives each of
    gallery k's sets its class and ``set_ids[k]`` its id, one str each, as
    the gallery's ``ImageSet`` carry them. The galleries share N, the channels
    and the class count (every split of a split protocol trains on every
    class); a single gallery is a stack of one. Each model has the bits it
    gets when its gallery trains alone: the stack shares each numpy call of an
    iteration among all its galleries, and each stops on its own.
    Every gallery given trains in this call, galleries whose span ranks differ
    in separate stacks; a caller with many galleries passes ``stack_size`` at
    a time.

    The Grams, each scaled by ``gram_scale`` under ``cfg.normalize_kernels``,
    are built here and nowhere else, one ``gram`` product per channel over
    the stack. ``class_layout`` derives from the labels, once per gallery,
    the class structure every scatter, objective and gradient reads. One
    stacked ``gram_spans`` call finds each gallery's orthonormal basis of the
    r-dimensional span of all its Gram column differences, which holds the
    range of every gated total scatter; the galleries of one rank r train as
    one stack, the projection width clamped to r. Each outer iteration builds
    the r x r gated scatters in that basis and solves the trace ratio there,
    from the second iteration warm-started from the previous projection. The
    objective, the gating gradient and the step line search read the
    projected Gram columns ``E.T @ K_q`` the iteration forms once, through
    ``projected_pair_sums``, O(p N n_classes) per channel; each gating point
    is evaluated once, with one pass of those sums giving its objective and,
    at the iteration's start point, its gradient. The weights of the accepted
    step carry into the next iteration; ``ModelState.train_weights`` derives
    the last ones from the rows and the final gating. An outer iteration so
    costs O(N r^2 + r^3) for the scatters and the solve, plus O(p N r) per
    channel for ``E.T @ K_q`` and one Gram matvec per channel for each
    line-search try and for the gradient. ``gram_spans`` costs O(N^3) per
    gallery, once. Every iteration solves in the full span basis, however
    small a gating weight gets: a numerically thin direction adds about 0 to
    both traces of the ratio, so it needs no cut, and a projection whose
    total scatter vanishes raises ``DegenerateDenominator``.

    Training draws nothing at random: a model is a function of its gallery
    and ``cfg``, whose ``seed`` it does not read. Every gallery starts from
    zero gating parameters, so every weight is 1/Q, and its first
    trace-ratio solve starts from the span's first p directions, the leading
    kernel-PCA directions (``gram_spans`` orders them by eigenvalue). From
    iteration 3 on, a gallery stops early when its gating step (coefficients
    and biases) falls below ``cfg.eps`` in max norm; it then steps by 0.0 and
    keeps its projection until the last gallery of its stack stops. Its
    transform is formed once, after the loop, from its span basis and its
    last solution; no two transforms are compared, since their difference
    reads the bases the solve returns, not the subspaces a model reads. When
    several galleries fail, the error raised is that of the first to fail at
    the earliest step. A gallery that stopped is still scattered, solved and
    evaluated at its final gating while its stack trains, work it does not do
    alone: its gradient there is not read, so it raises nothing, but that
    solve can log an eigen-gap line, or raise ``DegenerateDenominator``, that
    the gallery alone would not.
    """
    rows = [read_only(r) for r in rows]
    layouts = [class_layout(x) for x in labels]
    s, n = rows[0].shape[:2]
    grams = np.empty((s, len(rows), n, n))
    for q, r in enumerate(rows):
        grams[:, q] = gram(r, [gram_scale(f, cfg.normalize_kernels) for f in r])
    vectors, ranks = gram_spans(grams)
    bases = {r: vectors[ranks == r, :, :r] for r in dict.fromkeys(ranks.tolist())}
    del vectors  # each stack keeps its own basis only
    models: list[ModelState] = [None] * s
    for rank, basis in bases.items():
        members = np.flatnonzero(ranks == rank).tolist()
        results = _train_stack(
            grams if len(members) == s else grams[members],
            basis,
            stack_layouts([layouts[k] for k in members]),
            cfg,
        )
        for k, (gating, transform, trace) in zip(members, results):
            models[k] = ModelState(
                transform=transform,
                gating=gating,
                features=tuple(r[k] for r in rows),
                labels=tuple(map(str, labels[k])),
                set_ids=tuple(set_ids[k]),
                config=cfg,
                objective_trace=tuple(trace),
            )
    return models


def _train_stack(
    grams: np.ndarray,
    basis: np.ndarray,
    classes: ClassLayout,
    cfg: TrainConfig,
) -> list[tuple[GatingParams, np.ndarray, list[float]]]:
    """``train`` for one stack of S problems of one span rank r: Grams
    (S, Q, N, N) and span bases (S, N, r), from which it forms the span
    columns ``basis.T @ K_q`` (S, Q, r, N) that the scatters read. Returns
    each problem's gating, transform (N, p) and objective trace, formed
    after the loop.

    Every array of the loop's state holds all S problems from the first
    iteration to the last; ``training`` marks those that have not stopped.
    A stopped problem gets a zero gradient, a rate of 0.0 and its own
    projection, so each later iteration repeats its final state bit for bit,
    and its trace takes no further objective; the scatter, solve and
    objective it still gets can log or raise as ``train`` says. The loop ends
    when no problem trains, or at ``cfg.iters``.
    """
    s, q, n = grams.shape[:3]
    params = GatingParams(np.zeros((s, q, n)), np.zeros((s, q)))
    columns = basis.swapaxes(-1, -2)[:, None] @ grams
    rank = basis.shape[-1]
    width = min(cfg.target_dim, rank)
    if width < cfg.target_dim:
        logger.warning(
            "target_dim clamped from %d to %d (usable scatter rank)", cfg.target_dim, width
        )
    # the projections in span coordinates, (S, r, p): first the leading directions
    coords = np.broadcast_to(np.eye(rank, width), (s, rank, width))

    traces: list[list[float]] = [[] for _ in range(s)]
    training = np.ones(s, dtype=bool)
    weights = gating_weights(grams, params)
    for it in range(1, cfg.iters + 1):
        scatter = scatter_matrices(columns, classes, weights)
        itr = solve_trace_ratio(
            scatter.between, scatter.total, width, start=coords, max_iters=cfg.itr_iters,
            eps=cfg.eps,
        )
        coords = np.where(training[:, None, None], itr.projection, coords)
        projected = coords.swapaxes(-1, -2)[:, None] @ columns
        objective, sums = _evaluate(projected, weights, classes)
        for k in np.flatnonzero(training).tolist():
            traces[k].append(float(objective[k]))

        live = training[:, None, None]  # a stopped problem's gradient is not read
        coeffs, biases = projected_gradients(grams, weights, sums, classes)
        grads = np.where(live, coeffs, 0.0), np.where(live[..., 0], biases, 0.0)
        rates = np.where(training, float(cfg.learning_rate), 0.0)
        new_params, new_weights = _line_search(
            params, weights, grads, objective, projected, grams, classes, rates, it
        )
        if it > 2:
            param_delta = np.maximum(
                np.max(np.abs(new_params.coeffs - params.coeffs), axis=(-2, -1)),
                np.max(np.abs(new_params.biases - params.biases), axis=-1),
            )
            converged = training & (param_delta < cfg.eps)
            for _ in range(np.count_nonzero(converged)):
                logger.info("converged after %d outer iterations", it)
            training &= ~converged
        params, weights = new_params, new_weights
        if not training.any():
            break
    return [
        (GatingParams(params.coeffs[k], params.biases[k]), basis[k] @ coords[k], traces[k])
        for k in range(s)
    ]


def _line_search(params, weights, grads, objective, projected, grams, classes, rates, it):
    """Each problem's accepted gating step and its weights: the step from its
    rate in ``rates``, halved while the objective there falls below
    ``objective``, up to ``MAX_STEP_HALVINGS`` times, and rolled back entirely
    when it still falls. Every try steps the whole stack: a problem whose objective
    did not fall keeps its step, so it repeats its accepted try bit for bit
    while the others halve theirs. A try that overflows its gating
    parameters, or its scores so that its weights are not finite, raises
    ``NonFinite`` naming the iteration and the step, without numpy's
    warnings."""
    step = np.array(rates, dtype=np.float64)
    for _ in range(MAX_STEP_HALVINGS + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                trial = gradient_ascent_step(params, grads, step)
            except NonFinite as exc:  # the step overflows the gating parameters themselves
                raise NonFinite(f"iteration {it}: gating step {step[exc.index]:.3e} gives "
                                "non-finite gating parameters") from exc
            trial_weights = gating_weights(grams, trial)
        raise_first(~np.isfinite(trial_weights).all(axis=(-2, -1)), NonFinite, lambda i: (
            f"iteration {it}: gating step {step[i]:.3e} gives non-finite gating weights"))
        falls = _evaluate(projected, trial_weights, classes)[0] < objective
        if not falls.any():
            return trial, trial_weights
        step[falls] *= 0.5
    for _ in range(np.count_nonzero(falls)):
        logger.info("iteration %d: gating step rolled back entirely", it)
    return GatingParams(
        np.where(falls[:, None, None], params.coeffs, trial.coeffs),
        np.where(falls[:, None], params.biases, trial.biases),
    ), np.where(falls[:, None, None], weights, trial_weights)
