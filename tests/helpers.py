"""Shared random generators and reference implementations for the test suite.

The references (scalar kernels, ``is_spd``, the trace-ratio objective of
N x N scatters and their null-space reduction, the gating gradient of a
bank, the sign-canonical eigendecomposition ``sym_eig`` and a set's lifted
rows by that route) are oracles the pipeline is checked against; the
library computes the same quantities only in the forms training and
classification need.

A ``Bank`` is the Gram side of a gallery, which in the library lives only
inside ``train``: its lifted rows with the scaled Grams that ``kernel_bank``
builds from them by the library's own calls (``read_only``, ``gram_scale``,
``gram``). ``build_kernel_bank`` lifts a descriptor stack into one, and
``model_bank`` gives a model's.
"""

import sys
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from setfuse.descriptors import (
    DescriptorStack,
    ImageSet,
    embed_gaussian,
    encode_sets,
    read_only,
)
from setfuse.errors import (
    DegenerateDenominator,
    DimensionMismatch,
    NonFinite,
    NonSymmetric,
    NotPositiveDefinite,
    ZeroTotalScatter,
)
from setfuse.gating import class_layout, gating_weights, projected_gradients, projected_pair_sums
from setfuse.kernels import DESCRIPTOR_NAMES, gram, gram_scale, lift_features, lift_width
from setfuse.spd import LOG_EIG_FLOOR_RTOL, TRACE_EPS_FLOOR, EigenPair, eigh, spd_log
from setfuse.trainer import DENOMINATOR_FLOOR, NULL_SPACE_RTOL, TOTAL_SCATTER_FLOOR
from setfuse.trainer import TraceRatioResult, gram_spans, solve_trace_ratio, train
from setfuse.trainer import scatter_matrices as library_scatter_matrices

# An SPD check passes when the smallest eigenvalue exceeds this fraction of
# the largest one.
SPD_EIG_RTOL = 1e-10
# Largest entry of |B^T B - I| a basis the reference projection kernel reads
# may show.
ORTHONORMAL_ATOL = 1e-10


def sym_eig(m) -> EigenPair:
    """The sign-canonical eigendecomposition the references use: ``eigh``,
    with the eigenvalues descending and each eigenvector scaled so its
    largest-magnitude entry is positive. A matrix gets the same bits alone as
    inside a stack. The library fixes no sign; the logs and projectors it
    forms are checked bit for bit against references built on this one."""
    values, vectors = eigh(m)
    vectors = vectors[..., ::-1].copy()
    flat = vectors.reshape((-1,) + vectors.shape[-2:])
    rows = np.argmax(np.abs(flat), axis=1)
    largest = flat[np.arange(len(flat))[:, None], rows, np.arange(flat.shape[2])]
    flat *= np.where(largest < 0.0, -1.0, 1.0)[:, None, :]
    return EigenPair(values[..., ::-1].copy(), vectors)


def is_spd(m) -> bool:
    """True when ``m`` is one symmetric matrix with spectrum bounded away
    from zero: ``lambda_min > SPD_EIG_RTOL * lambda_max``, so barely-positive
    spectra with huge condition numbers are rejected along with indefinite
    ones."""
    if np.ndim(m) != 2:
        return False
    try:
        pair = sym_eig(m)
    except (NonSymmetric, NonFinite):
        return False
    lam_max = float(pair.values[0])
    if lam_max <= 0.0:
        return False
    return float(pair.values[-1]) > SPD_EIG_RTOL * lam_max


def pair_kernel(m1, m2) -> float:
    """The Frobenius inner product of two lifted matrices as the library's
    Gram product forms it: the off-diagonal entry of the Gram of their two
    flattened rows."""
    pair = np.stack([np.ravel(m1), np.ravel(m2)])
    return float((pair @ pair.T)[1, 0])


def log_euclidean_kernel(c1, c2) -> float:
    """trace(log(C1) @ log(C2)) for SPD matrices of equal size, as a Gram
    entry (``pair_kernel``) of their logs."""
    a1 = np.asarray(c1, dtype=np.float64)
    a2 = np.asarray(c2, dtype=np.float64)
    if a1.shape != a2.shape:
        raise DimensionMismatch(f"SPD shapes differ: {a1.shape} vs {a2.shape}")
    return pair_kernel(spd_log(a1), spd_log(a2))


def orthonormal(y) -> np.ndarray:
    """``y`` as a float64 array, ``ValueError`` unless its columns are
    orthonormal to ``ORTHONORMAL_ATOL``."""
    b = np.asarray(y, dtype=np.float64)
    if np.abs(b.T @ b - np.eye(b.shape[1])).max() > ORTHONORMAL_ATOL:
        raise ValueError("basis columns are not orthonormal")
    return b


def projection_kernel(y1, y2) -> float:
    """||Y1.T @ Y2||_F^2 for orthonormal d x q subspace bases of equal shape,
    as a Gram entry (``pair_kernel``) of their projectors; ``ValueError`` for
    a basis whose columns are not orthonormal."""
    b1, b2 = orthonormal(y1), orthonormal(y2)
    if b1.shape != b2.shape:
        raise DimensionMismatch(f"subspace shapes differ: {b1.shape} vs {b2.shape}")
    return pair_kernel(b1 @ b1.T, b2 @ b2.T)


def scatter_matrices(bank, labels, weights):
    """The gated scatters over whole Gram columns, N x N: the library's
    ``scatter_matrices`` of ``bank.grams`` and the ``class_layout`` of
    ``labels``."""
    return library_scatter_matrices(bank.grams, class_layout(labels), weights)


def trace_ratio_objective(transform, scatter) -> float:
    """J = trace(E.T B E) / trace(E.T (W + B) E), clipped into [0, 1];
    ``DegenerateDenominator`` when the projected total scatter is at or
    below ``DENOMINATOR_FLOOR``."""
    e = np.asarray(transform, dtype=np.float64)
    num = float(np.sum(e * (scatter.between @ e)))
    denom = float(np.sum(e * (scatter.total @ e)))
    if denom <= DENOMINATOR_FLOOR:
        raise DegenerateDenominator(f"projected total scatter {denom:.3e} is degenerate")
    return min(max(num / denom, 0.0), 1.0)


def remove_null_space(within, between):
    """Restrict the scatter pair to the span of the total scatter.

    Returns ``(basis, reduced_between, reduced_total)`` where ``basis`` holds
    the eigenvectors of the total scatter with eigenvalues above
    ``NULL_SPACE_RTOL`` times the largest. Raises ``ZeroTotalScatter`` when
    the spectral radius of the total scatter is at or below
    ``TOTAL_SCATTER_FLOOR``.
    """
    between = np.asarray(between, dtype=np.float64)
    total = np.asarray(within, dtype=np.float64) + between
    total = 0.5 * (total + total.T)
    pair = sym_eig(total)
    lam_max = float(pair.values[0])
    if lam_max <= TOTAL_SCATTER_FLOOR:
        raise ZeroTotalScatter(f"total scatter: spectral radius {lam_max:.3e}")
    basis = pair.vectors[:, : int(np.count_nonzero(pair.values > NULL_SPACE_RTOL * lam_max))]
    reduced_total = basis.T @ total @ basis
    reduced_between = basis.T @ between @ basis
    return (
        basis,
        0.5 * (reduced_between + reduced_between.T),
        0.5 * (reduced_total + reduced_total.T),
    )


def gating_gradients(bank, params, transform, labels):
    """Gradient of ``trace_ratio_objective`` with respect to the gating
    params at a fixed transform E (N x p), from the pipeline's own steps:
    the ``class_layout`` of ``labels``, the weights, the
    ``projected_pair_sums`` of ``E.T @ K_q`` and ``projected_gradients``."""
    classes = class_layout(labels)
    weights = gating_weights(bank.grams, params)
    projected = [transform.T @ k for k in bank.grams]
    sums = projected_pair_sums(projected, weights, classes)
    return projected_gradients(bank.grams, weights, sums, classes)


def sign_canonical_log(c):
    """The matrix log of one SPD matrix by the sign-canonical route:
    ``sym_eig`` (descending, each eigenvector's sign fixed), the
    ``LOG_EIG_FLOOR_RTOL`` refusal, then ``V diag(log λ) V.T`` symmetrized.
    The library's logs fix no sign; they are checked against this bit for bit."""
    values, vectors = sym_eig(c)
    if values[-1] <= LOG_EIG_FLOOR_RTOL * values[0]:
        raise NotPositiveDefinite(f"eigenvalues in [{values[-1]:.3e}, {values[0]:.3e}]")
    out = (vectors * np.log(values)) @ vectors.T
    return 0.5 * (out + out.T)


def set_moments(s):
    """A set's mean (``np.mean``), its sample covariance (divisor n - 1) as
    the symmetric part of the centred product, and its ``X @ X.T``, formed
    here rather than by the encoder's ``_moments``, as the reference the
    encoder is checked against bit for bit."""
    x = s.features
    mean = np.mean(x, axis=1)
    centered = x - mean[:, None]
    c = (centered @ centered.T) / (s.n_samples - 1)
    return mean, 0.5 * (c + c.T), x @ x.T


def regularized_covariance(s, alpha):
    """A set's regularized covariance, the matrix ``encode_sets`` takes the
    log of: its sample covariance (``set_moments``) plus ``trace / alpha``,
    or the trace floor, times the identity, formed here rather than by
    ``regularize_spd``."""
    c = set_moments(s)[1]
    tr = np.trace(c)
    shift = TRACE_EPS_FLOOR if tr <= TRACE_EPS_FLOOR * s.dim else tr / float(alpha)
    return c + shift * np.eye(s.dim)


def log_det(c) -> float:
    """log det of an SPD matrix as the encoder takes it: the sum of the logs
    of its ``eigh`` eigenvalues, ascending."""
    return float(np.log(eigh(c).values).sum())


def gaussian_embedding(s, alpha):
    """A set's Gaussian embedding, the set alone: ``embed_gaussian`` of its
    mean, its regularized covariance and that covariance's ``log_det``."""
    cov = regularized_covariance(s, alpha)
    return embed_gaussian(set_moments(s)[0], cov, log_det(cov))


def sign_canonical_rows(s, cfg):
    """One set's lifted row per channel of ``DESCRIPTOR_NAMES``, by the
    sign-canonical route, the set alone: the ``sign_canonical_log`` of its
    regularized covariance and of its Gaussian embedding, and the projector
    of the top ``cfg.subspace_dim`` eigenvectors of its ``X X.T`` by ``sym_eig``."""
    basis = sym_eig(set_moments(s)[2]).vectors[:, : cfg.subspace_dim].copy()
    lifts = {
        "cov": sign_canonical_log(regularized_covariance(s, cfg.alpha)),
        "subspace": basis @ basis.T,
        "gauss": sign_canonical_log(gaussian_embedding(s, cfg.alpha)),
    }
    return {name: lifts[name].ravel() for name in DESCRIPTOR_NAMES}


# Per channel, the descriptor stack field it reads and its scalar kernel:
# a covariance is held as its log, so its kernel is the logs' inner product.
SCALAR_KERNELS = {
    "cov": ("log_cov", pair_kernel),
    "subspace": ("basis", projection_kernel),
    "gauss": ("embedding", log_euclidean_kernel),
}


def stack_length(m):
    """How many matrices a 2-D matrix or a stack ``(..., d, d)`` holds."""
    return int(np.prod(np.shape(m)[:-2]))


def encode_one(s, cfg):
    """Row 0 of ``encode_sets([s], cfg)``: the set's covariance log, subspace
    basis and Gaussian embedding, encoded alone."""
    e = encode_sets([s], cfg)
    return e.log_cov[0], e.basis[0], e.embedding[0]


def rows(stack, index):
    """The rows ``index`` (an int, a slice or a list of positions) of a
    descriptor stack, as a stack of their own."""
    keep = np.atleast_1d(np.arange(len(stack.set_ids))[index])
    arrays = (a[keep] for a in (stack.log_cov, stack.basis, stack.embedding))
    return DescriptorStack(*arrays, tuple(stack.set_ids[i] for i in keep))


def probe_rows(probe, descriptors):
    """A probe's lifted rows per channel in ``descriptors``, a (1, D_q) stack
    of one from a stack of one set, as ``predict`` lifts it: the rows
    ``distance_profile`` and ``columns_from_rows`` score."""
    return [lift_features(probe, name) for name in descriptors]


def columns_from_rows(bank, rows):
    """Scaled kernel columns of a probe's lifted rows (one D_q row, or a stack
    of one, per channel) against ``bank`` (a ``Bank`` or a model: its
    ``features`` and ``scales``), one per channel and each as wide as the
    gallery, one ``np.vecdot`` per channel: the reference a probe's kernel
    values are checked against, since prediction forms none."""
    return [
        np.vecdot(f, np.ascontiguousarray(row)) * s
        for row, f, s in zip(rows, bank.features, bank.scales)
    ]


def scalar_kernel_column(channel, probe, gallery):
    """A probe's (a stack of one) kernel values against each gallery row,
    one scalar kernel call per pair."""
    field, kernel = SCALAR_KERNELS[channel]
    return np.array([kernel(getattr(probe, field)[0], row) for row in getattr(gallery, field)])


def fortran_read_only(a):
    """A read-only Fortran-order copy of ``a``: the values of a C-order array
    in another memory layout, which ``descriptors.read_only`` would not copy
    unless it also asks for C order."""
    f = np.asfortranarray(a)
    f.setflags(write=False)
    return f


def random_spd(rng, d, eig_low=0.5, eig_high=2.0):
    """Random SPD matrix with eigenvalues drawn uniformly in a safe band."""
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    vals = rng.uniform(eig_low, eig_high, d)
    m = (q * vals) @ q.T
    return 0.5 * (m + m.T)


def random_orthonormal(rng, d, q):
    mat, _ = np.linalg.qr(rng.standard_normal((d, q)))
    return mat


def random_image_set(rng, d=6, n=12, label="c0", set_id="s0"):
    return ImageSet(features=rng.standard_normal((d, n)), label=label, set_id=set_id)


def random_gallery_sets(rng, n_classes=3, sets_per_class=3, d=6, n=12, shift=3.0):
    """Labeled sets with per-class mean offsets, mildly separable."""
    sets = []
    for c in range(n_classes):
        center = rng.standard_normal(d) * shift
        for s in range(sets_per_class):
            x = center[:, None] + rng.standard_normal((d, n))
            sets.append(ImageSet(features=x, label=f"c{c}", set_id=f"c{c}_s{s}"))
    return sets


@dataclass(frozen=True)
class Bank:
    """A gallery's lifted rows per channel (``features``, read-only and
    C-contiguous), each channel's scale and its scaled N x N Gram."""

    descriptors: tuple[str, ...]
    features: tuple[np.ndarray, ...]
    scales: tuple[float, ...]
    grams: tuple[np.ndarray, ...]

    @property
    def n_train(self) -> int:
        return self.features[0].shape[0]

    @property
    def n_kernels(self) -> int:
        return len(self.descriptors)


def kernel_bank(descriptors, features, normalize=False):
    """The ``Bank`` of lifted rows, one array per channel of ``descriptors``,
    with the Grams and scales ``train`` builds from them: each array made
    read-only and C-contiguous, then ``gram(f, gram_scale(f, normalize))``,
    the bits ``train`` gets for the gallery inside any stack."""
    features = tuple(read_only(f) for f in features)
    scales = tuple(gram_scale(f, normalize) for f in features)
    grams = tuple(gram(f, s) for f, s in zip(features, scales))
    return Bank(tuple(descriptors), features, scales, grams)


def build_kernel_bank(gallery, descriptors=DESCRIPTOR_NAMES, normalize=False):
    """The ``Bank`` of a descriptor stack, lifted with one ``lift_features``
    call per channel of ``descriptors``."""
    names = tuple(descriptors)
    return kernel_bank(names, [lift_features(gallery, name) for name in names], normalize)


@contextmanager
def gram_builds():
    """Record the Gram builds made inside the block: the list it yields gets
    one entry per call of ``kernels.gram``, under whatever name a module
    binds it, as the call runs its code."""
    code, calls = gram.__code__, []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            calls.append(frame.f_back.f_code.co_name)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        yield calls
    finally:
        sys.setprofile(previous)


def spy(monkeypatch, owner, name, measure=lambda *args, **kwargs: None):
    """Record the calls of ``owner.name`` for the test: each call appends
    ``measure(*args, **kwargs)`` to the list returned, then runs the real
    function. The measure is taken before the call, so a call that raises
    still counts; with the default measure the list's length is the call
    count. Every spy of the suite goes through here, most of them counting
    a documented cost that ROADMAP item 1's tracer is to take over."""
    real, calls = getattr(owner, name), []

    def wrapper(*args, **kwargs):
        calls.append(measure(*args, **kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def model_bank(model):
    """The ``Bank`` of a model's gallery: the Grams its training built."""
    cfg = model.config
    return kernel_bank(cfg.descriptors, model.features, cfg.normalize_kernels)


def train_one(features, labels, set_ids, cfg):
    """``trainer.train`` of one gallery, one (N, D_q) array per channel: its
    stack of one, each array's (1, N, D_q) view."""
    rows = [np.asarray(f)[None] for f in features]
    return train(rows, [labels], [set_ids], cfg)[0]


def span_of(grams):
    """One gallery's span basis (N, r), copied as ``train`` copies it, and
    its Grams in that basis, ``basis.T @ K_q`` (Q, r, N): ``gram_spans`` of
    a stack of one."""
    grams = np.asarray(grams)
    vectors, ranks = gram_spans(grams[None])
    basis = vectors[0, :, : ranks[0]].copy()
    return basis, basis.T @ grams


def solve_one(between, total, target_dim, rng=None, start=None, max_iters=30, eps=1e-5):
    """``trainer.solve_trace_ratio`` of one problem, a stack of one, from
    ``start`` (orthonormal columns) or else from the orthonormalised
    Gaussian draw of ``rng`` (seeded 0 when none); the result holds the
    problem's projection and history."""
    if start is None:
        rng = np.random.default_rng(0) if rng is None else rng
        start = random_orthonormal(rng, np.shape(total)[-1], target_dim)
    result = solve_trace_ratio(
        np.asarray(between)[None], np.asarray(total)[None], target_dim, np.asarray(start)[None],
        max_iters, eps,
    )
    return TraceRatioResult(result.projection[0], result.ratio_history[0])


def ids_of(bank):
    """Distinct set ids ``s0``, ``s1``, ... for the members of ``bank``."""
    return [f"s{i}" for i in range(bank.n_train)]


def random_bank(rng, n, n_kernels, dim=None):
    """Kernel bank of random lifted features, (n, n + 2) per channel, whose
    Gram matrices are random symmetric PSD with O(1) entries; its channels
    are ``DESCRIPTOR_NAMES[:n_kernels]``. With ``dim``, the same rows are
    padded with zeros to the width of each channel's lift of sets of
    dimension ``dim`` (at least n + 2), so ``train`` takes them with a config
    that names the channels."""
    names = DESCRIPTOR_NAMES[:n_kernels]
    features = [rng.standard_normal((n, n + 2)) / np.sqrt(n + 2) for _ in names]
    if dim is not None:
        features = [
            np.pad(f, ((0, 0), (0, lift_width(name, dim) - n - 2)))
            for name, f in zip(names, features)
        ]
    return kernel_bank(names, features)


def random_simplex_weights(rng, n_kernels, n):
    raw = rng.uniform(0.1, 1.0, (n_kernels, n))
    return raw / raw.sum(axis=0, keepdims=True)


def random_labels(rng, n, n_classes=3):
    labels = np.array([f"c{int(x)}" for x in rng.integers(0, n_classes, n)])
    # guarantee at least two classes
    labels[0] = "c0"
    labels[-1] = "c1"
    return labels


def brute_force_scatters(bank, labels, weights):
    """Quadruple-loop scatter reference: ordered pairs, i == j included."""
    n = bank.n_train
    within = np.zeros((n, n))
    between = np.zeros((n, n))
    n_within = 0
    n_between = 0
    for i in range(n):
        for j in range(n):
            same = labels[i] == labels[j]
            if same:
                n_within += 1
            else:
                n_between += 1
            for k, kq in enumerate(bank.grams):
                diff = kq[:, i] - kq[:, j]
                contrib = weights[k, i] * weights[k, j] * np.outer(diff, diff)
                if same:
                    within += contrib
                else:
                    between += contrib
    return within / n_within, between / n_between


def brute_force_gating_gradients(bank, params, transform, labels):
    """Pairwise reference for ``gating_gradients``: explicit N x N projected
    distance matrices and pair masks, the quotient rule on the traces
    h = sum_ij w_i w_j d_ij / count, and the softmax derivative."""
    labels = np.asarray(labels)
    same = (labels[:, None] == labels[None, :]).astype(np.float64)
    diff = 1.0 - same
    n_within, n_between = same.sum(), diff.sum()
    weights = gating_weights(bank.grams, params)
    h_w = h_b = 0.0
    dw_w = np.zeros_like(weights)  # d h / d w[k, i]
    dw_b = np.zeros_like(weights)
    for k, kq in enumerate(bank.grams):
        p = transform.T @ kq
        dist = ((p[:, :, None] - p[:, None, :]) ** 2).sum(axis=0)
        pair = weights[k][:, None] * weights[k][None, :] * dist
        h_w += (pair * same).sum() / n_within
        h_b += (pair * diff).sum() / n_between
        dw_w[k] = 2.0 * (dist * same) @ weights[k] / n_within
        dw_b[k] = 2.0 * (dist * diff) @ weights[k] / n_between
    coeff_grads = np.zeros_like(params.coeffs)
    bias_grads = np.zeros_like(params.biases)
    for q, kq in enumerate(bank.grams):
        ds_w = np.zeros(bank.n_train)
        ds_b = np.zeros(bank.n_train)
        for k in range(bank.n_kernels):
            # d w[k, i] / d score[q, i] = w[k, i] * (1{q == k} - w[q, i])
            f = weights[k] * ((1.0 if q == k else 0.0) - weights[q])
            ds_w += f * dw_w[k]
            ds_b += f * dw_b[k]
        ds = (ds_b * h_w - ds_w * h_b) / (h_w + h_b) ** 2
        coeff_grads[q] = kq @ ds
        bias_grads[q] = ds.sum()
    return coeff_grads, bias_grads
