# Three views of one image set
#
# An image set is a d x n matrix: n feature vectors of dimension d observed
# under varying conditions. This walk-through encodes synthetic sets with
# encode_sets, which returns one DescriptorStack: (1) the matrix logs of
# regularized covariances, (2) orthonormal subspace bases and (3)
# determinant-one Gaussian embeddings, row i from set i. It checks the structural properties each
# row is guaranteed to have.

import numpy as np

from setfuse import ImageSet, TrainConfig
from setfuse.descriptors import embed_gaussian, encode_sets

rng = np.random.default_rng(0)
d, n = 8, 25
features = rng.standard_normal((d, 1)) * 2.0 + rng.standard_normal((d, n))
image_set = ImageSet(features=features, label="demo", set_id="demo_set")
print(f"one set: {n} samples in {d} dimensions")

# A single set is a stack of one; its descriptors are row 0 of each stack.
q = 3
cfg = TrainConfig(subspace_dim=q, alpha=1000.0)
stack = encode_sets([image_set], cfg)
print(f"encode_sets: log_cov {stack.log_cov.shape}, basis {stack.basis.shape}, "
      f"embedding {stack.embedding.shape}, set_ids {stack.set_ids}")

# --- covariance view ------------------------------------------------------
# The sample covariance can be rank deficient when n <= d, so a small
# spectrum shift (trace / alpha) keeps it safely positive definite. The
# stack holds its matrix log, the form the log-Euclidean kernel reads; the
# exponential of that symmetric log gives the covariance back.
log_cov = stack.log_cov[0]
w, v = np.linalg.eigh(log_cov)
cov = (v * np.exp(w)) @ v.T
print("\ncovariance descriptor, held as its log")
print(f"  shape {log_cov.shape}, log symmetric: {np.array_equal(log_cov, log_cov.T)}")
print(f"  covariance eigenvalue range [{np.exp(w.min()):.4f}, {np.exp(w.max()):.4f}]")

# --- subspace view --------------------------------------------------------
# The top-q eigenvectors of X X^T span the directions the set actually
# occupies. Only the span matters: the subspace kernel reads the basis through
# its projector B B^T, which no column sign changes, so each column keeps the
# sign the eigensolver leaves it.
basis = stack.basis[0]
gram = basis.T @ basis
print("\nsubspace descriptor")
print(f"  basis shape {basis.shape}")
print(f"  orthonormality residual {np.max(np.abs(gram - np.eye(q))):.2e}")

# --- Gaussian view --------------------------------------------------------
# Mean and covariance together map to one (d+1) x (d+1) SPD matrix with
# determinant exactly one, so Gaussians can be compared with SPD machinery.
# Its scale det(C)^(-1/(d+1)) comes from the covariance's eigenvalues, which
# the encoder already has from the decomposition that gives the log.
embedding = stack.embedding[0]
print("\nGaussian descriptor")
print(f"  embedding shape {embedding.shape}")
print(f"  det(embedding) = {np.linalg.det(embedding):.12f}")
print(f"  embedding SPD: {np.linalg.eigvalsh(embedding).min() > 0.0}")
scale = np.exp(-w.sum() / (d + 1))
print(f"  corner entry vs det(C)^(-1/(d+1)): {abs(embedding[d, d] / scale - 1.0):.2e}")
# Its top-left block over its corner entry is covariance + mean mean^T.
mean = features.mean(axis=1)
block = embedding[:d, :d] / embedding[d, d]
print(f"  block residual vs cov + m m^T: {np.max(np.abs(block - cov - np.outer(mean, mean))):.2e}")

# The embedding of a zero-mean identity-covariance Gaussian is the identity.
ident = embed_gaussian(np.zeros(3), np.eye(3), 0.0)
print(f"  embed(0, I) == I(4): {np.array_equal(ident, np.eye(4))}")

# --- many sets at once ----------------------------------------------------
# A collection is encoded in one call, sets of different sample counts
# included, and each row has the bits its set gets when encoded alone.
sets = [image_set] + [
    ImageSet(features=rng.standard_normal((d, 10 + 5 * i)), label="demo", set_id=f"extra{i}")
    for i in range(3)
]
many = encode_sets(sets, cfg)
same = all(
    np.array_equal(getattr(many, name)[i], getattr(encode_sets([s], cfg), name)[0])
    for i, s in enumerate(sets)
    for name in ("log_cov", "basis", "embedding")
)
print(f"\n{len(sets)} sets in one stack, rows identical to one-set encodings: {same}")
