# End to end: splits, prediction, ablation, persistence
#
# The full protocol mirrors how image-set recognition is evaluated: draw a
# few training sets per class (the gallery), hold the rest out (the probes),
# train, classify each probe set by its nearest gallery set in the learned
# metric, repeat over random splits.

import tempfile
from pathlib import Path

import numpy as np

from setfuse import (
    TrainConfig,
    generate_synthetic,
    load_model,
    predict,
    run_dimension_sweep,
    run_experiment,
    save_model,
    train_on_sets,
)

source = dict(classes=3, sets_per_class=6, dim=10, samples=20,
              separation=5.0, seed=42)
cfg = TrainConfig(subspace_dim=5, target_dim=8, seed=42)

# --- one split by hand ----------------------------------------------------
sets = generate_synthetic(**source)
gallery = [s for i, s in enumerate(sets) if i % 6 < 3]
probes = [s for i, s in enumerate(sets) if i % 6 >= 3]
model = train_on_sets(gallery, cfg)
hits = 0
for probe in probes[:5]:
    result = predict(probe, model)
    mark = "ok" if result.label == probe.label else "MISS"
    hits += result.label == probe.label
    print(f"  {probe.set_id:<14} true {probe.label:<8} "
          f"predicted {result.label:<8} {mark}")
print(f"first five probes: {hits}/5 correct\n")

# --- the split protocol ---------------------------------------------------
report = run_experiment(sets, cfg, n_splits=10, train_per_class=3)
print("10-split protocol:")
print(f"  per-split accuracy: {np.round(report.accuracies, 3)}")
print(f"  mean {report.mean_accuracy:.4f}, std {report.std_accuracy:.4f}")

# With separation 0 every class center coincides and accuracy drops to
# roughly chance (1/3 here), confirming the pipeline cannot hallucinate
# structure.
control_sets = generate_synthetic(**dict(source, separation=0.0))
control = run_experiment(control_sets, cfg, n_splits=10)
print(f"  zero-separation control: mean {control.mean_accuracy:.4f}\n")

# --- ablation: is fusing the three descriptors worth it? ------------------
ablated = run_experiment(sets, cfg, n_splits=10, train_per_class=3,
                         ablate=True)
print("descriptor ablation (mean accuracy over the same splits):")
for name, row in ablated.ablation.items():
    print(f"  {name:<9} {row.mean_accuracy:.4f}")
print()

# --- choosing the projection width ----------------------------------------
sweep = run_dimension_sweep(sets, cfg, target_dims=[2, 4, 8], n_splits=4)
print("projection width sweep:")
for dim, rep in sweep.items():
    print(f"  target_dim {dim:>2}: mean accuracy {rep.mean_accuracy:.4f}")
print()

# --- persistence ----------------------------------------------------------
# A saved model round-trips bit for bit; predictions after reload are
# identical, and any corruption is caught by checksums at load time.
with tempfile.TemporaryDirectory() as tmp:
    save_model(model, Path(tmp) / "model")
    restored = load_model(Path(tmp) / "model")
    same = all(
        predict(p, model).label == predict(p, restored).label for p in probes
    )
    print(f"reloaded model predicts identically: {same}")

# The same pipeline is scriptable from the shell:
#   setfuse synth --classes 3 --sets-per-class 6 --dim 10 --samples 20 \
#       --separation 5 --seed 42 --out data/
#   setfuse train --manifest data/manifest.csv --q 5 --dw 8 --out model/
#   setfuse eval --manifest data/manifest.csv --splits 10 --report report.csv
#   setfuse predict --model model/ --set data/class0_set0.csv
#   setfuse ablate --manifest data/manifest.csv --splits 10
