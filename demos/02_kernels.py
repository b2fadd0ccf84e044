# Kernels on the three descriptor geometries
#
# Each descriptor lives on a curved space: covariance matrices on the SPD
# manifold, subspaces on the Grassmann manifold, Gaussian embeddings back on
# the SPD manifold one dimension up. A positive-definite kernel per geometry
# turns all three into inner products of lifted rows, and a Gram matrix per
# kernel is what training learns from.

import numpy as np

from setfuse import DESCRIPTOR_NAMES, ImageSet, TrainConfig
from setfuse.descriptors import encode_sets
from setfuse.kernels import gram, gram_scale, lift_features

rng = np.random.default_rng(1)
cfg = TrainConfig(subspace_dim=3)

# A small labeled gallery: 3 classes x 4 sets, class signal in the mean.
sets = []
for c in range(3):
    center = rng.standard_normal(6) * 3.0
    for s in range(4):
        x = center[:, None] + rng.standard_normal((6, 20))
        sets.append(ImageSet(features=x, label=f"c{c}", set_id=f"c{c}_s{s}"))
# One DescriptorStack holds every set's descriptors, row i from set i.
gallery = encode_sets(sets, cfg)

# --- Gram matrices --------------------------------------------------------
# lift_features lifts every set of the stack once per channel into one row,
# and gram takes the dot of every pair of those rows with one product.
features = [lift_features(gallery, name) for name in DESCRIPTOR_NAMES]
grams = [gram(f, 1.0) for f in features]

# A Gram's diagonal holds each set's kernel with itself. The projection
# kernel of a subspace with itself is its dimension, here q = 3.
print("kernel self values of set 0:")
for name, k in zip(DESCRIPTOR_NAMES, grams):
    print(f"  {name:<9} {k[0, 0]:.4f}")
print("\nGram matrix spectra (min eigenvalue ~ 0 up to roundoff):")
for name, k in zip(DESCRIPTOR_NAMES, grams):
    eigs = np.linalg.eigvalsh(k)
    print(f"  {name:<9} shape {k.shape}  min eig {eigs.min():+.2e}  "
          f"max eig {eigs.max():.2e}")

# Same-class pairs should look more alike than cross-class pairs. The
# projection kernel makes that visible directly in the Gram values.
k_proj = grams[DESCRIPTOR_NAMES.index("subspace")]
labels = np.array([s.label for s in sets])
same = labels[:, None] == labels[None, :]
off_diag = ~np.eye(len(sets), dtype=bool)
print("\nprojection kernel, mean value:")
print(f"  same-class pairs   {k_proj[same & off_diag].mean():.4f}")
print(f"  cross-class pairs  {k_proj[~same].mean():.4f}")

# --- normalized Grams -----------------------------------------------------
# Optional normalization rescales each Gram to trace N, so channels with
# different units become comparable. gram_scale reads the scale from the
# rows (N over the sum of their squared norms). Training builds its Grams
# the same way, from the lifted rows and the config's descriptors and
# normalize_kernels flag, and the model it returns keeps only the rows.
print("\nnormalized Grams:")
for name, f in zip(cfg.descriptors, features):
    scale = gram_scale(f, normalize=True)
    print(f"  {name:<9} trace {np.trace(gram(f, scale)):.1f}  (scale {scale:.3e})")
