"""Shared random generators for the test suite."""

import numpy as np

from setfuse.descriptors import DescriptorStack, ImageSet, encode_sets
from setfuse.kernels import (
    DESCRIPTOR_NAMES,
    KernelBank,
    lift_features,
    log_euclidean_kernel,
    projection_kernel,
)

# Per channel, the descriptor stack field it reads and its scalar kernel.
SCALAR_KERNELS = {
    "cov": ("cov", log_euclidean_kernel),
    "subspace": ("basis", projection_kernel),
    "gauss": ("embedding", log_euclidean_kernel),
}


def stack_length(m):
    """How many matrices a 2-D matrix or a stack ``(..., d, d)`` holds."""
    return int(np.prod(np.shape(m)[:-2]))


def encode_one(s, cfg):
    """Row 0 of ``encode_sets([s], cfg)``: the set's covariance, subspace
    basis and Gaussian embedding, encoded alone."""
    e = encode_sets([s], cfg)
    return e.cov[0], e.basis[0], e.embedding[0]


def rows(stack, index):
    """The rows ``index`` (an int, a slice or a list of positions) of a
    descriptor stack, as a stack of their own."""
    keep = np.atleast_1d(np.arange(len(stack.set_ids))[index])
    arrays = (a[keep] for a in (stack.cov, stack.basis, stack.embedding))
    return DescriptorStack(*arrays, tuple(stack.set_ids[i] for i in keep))


def probe_rows(probe, bank):
    """A probe's lifted row per channel of ``bank``, from a stack of one set,
    as ``predict`` lifts it: the rows ``distance_profile`` and
    ``KernelBank.columns_from_rows`` score."""
    return [lift_features(probe, name)[0] for name in bank.descriptors]


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


def random_bank(rng, n, n_kernels):
    """Kernel bank of random lifted features, (n, n + 2) per channel, whose
    Gram matrices are random symmetric PSD with O(1) entries."""
    features = [rng.standard_normal((n, n + 2)) / np.sqrt(n + 2) for _ in range(n_kernels)]
    return KernelBank(
        descriptors=DESCRIPTOR_NAMES[:n_kernels],
        features=tuple(features),
    )


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
            for k, gram in enumerate(bank.grams):
                diff = gram[:, i] - gram[:, j]
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
    from setfuse.gating import gating_weights

    labels = np.asarray(labels)
    same = (labels[:, None] == labels[None, :]).astype(np.float64)
    diff = 1.0 - same
    n_within, n_between = same.sum(), diff.sum()
    weights = gating_weights(bank, params)
    h_w = h_b = 0.0
    dw_w = np.zeros_like(weights)  # d h / d w[k, i]
    dw_b = np.zeros_like(weights)
    for k, gram in enumerate(bank.grams):
        p = transform.T @ gram
        dist = ((p[:, :, None] - p[:, None, :]) ** 2).sum(axis=0)
        pair = weights[k][:, None] * weights[k][None, :] * dist
        h_w += (pair * same).sum() / n_within
        h_b += (pair * diff).sum() / n_between
        dw_w[k] = 2.0 * (dist * same) @ weights[k] / n_within
        dw_b[k] = 2.0 * (dist * diff) @ weights[k] / n_between
    coeff_grads = np.zeros_like(params.coeffs)
    bias_grads = np.zeros_like(params.biases)
    for q, gram in enumerate(bank.grams):
        ds_w = np.zeros(bank.n_train)
        ds_b = np.zeros(bank.n_train)
        for k in range(bank.n_kernels):
            # d w[k, i] / d score[q, i] = w[k, i] * (1{q == k} - w[q, i])
            f = weights[k] * ((1.0 if q == k else 0.0) - weights[q])
            ds_w += f * dw_w[k]
            ds_b += f * dw_b[k]
        ds = (ds_b * h_w - ds_w * h_b) / (h_w + h_b) ** 2
        coeff_grads[q] = gram @ ds
        bias_grads[q] = ds.sum()
    return coeff_grads, bias_grads
