# Training the gated multi-kernel metric
#
# Training alternates two moves: (1) with the per-sample kernel weights
# fixed, solve a trace-ratio problem for the projection that best separates
# classes in the lifted space; (2) with the projection fixed, push the
# softmax gating parameters uphill on the same objective. The objective is
# the ratio of between-class to total scatter, so it lives in [0, 1] and
# larger is better.

from dataclasses import replace

import numpy as np

from setfuse import TrainConfig, generate_synthetic, train_on_sets

sets = generate_synthetic(
    classes=3, sets_per_class=6, dim=10, samples=20, separation=5.0, seed=42
)
labels = [s.label for s in sets]
print(f"gallery: {len(sets)} sets, classes {sorted(set(labels))}")

cfg = TrainConfig(subspace_dim=5, target_dim=8, iters=12, seed=42)
model = train_on_sets(sets, cfg)

# --- the objective trace --------------------------------------------------
trace = np.asarray(model.objective_trace)
print(f"\nobjective per outer iteration ({len(trace)} recorded):")
for i, value in enumerate(trace, start=1):
    bar = "#" * int(round(60 * value))
    print(f"  {i:>2} {value:.4f} {bar}")
print(f"gain over the run: {trace[-1] - trace[0]:+.4f}")

# --- what was learned -----------------------------------------------------
# The transform has one row per training set (the projection lives in the
# span of the lifted training features) and target_dim columns.
print(f"\ntransform shape: {model.transform.shape}")

# Gating assigns each training set a softmax weight over the three kernel
# channels. Averages near 1/3 mean the channels stay balanced; training on
# this data usually shifts weight toward the most discriminative channel.
print("mean gating weight per kernel channel:")
for name, row in zip(model.config.descriptors, model.train_weights):
    print(f"  {name:<9} {row.mean():.4f}  (min {row.min():.4f}, max {row.max():.4f})")

# --- reproducibility ------------------------------------------------------
# Training draws nothing at random: the gating starts uniform and the first
# projection on the leading directions of the gallery's span, so a model is
# a function of its gallery and config. The seed only draws the train/test
# splits of an evaluation protocol.
again = train_on_sets(sets, replace(cfg, seed=7))
print("\nanother seed, same result:",
      np.array_equal(model.transform, again.transform))
