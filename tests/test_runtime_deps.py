"""The library's runtime dependencies are numpy and click alone.

scipy is a test-only dependency (the acceptance oracles use it). Importing
``scipy.linalg`` roughly doubles the resident memory of a small process, so
a library import of it would show up in every workload's peak memory. A
fresh interpreter imports ``setfuse``, trains once and predicts once, and no
``scipy`` module may be loaded by then.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import sys
import numpy as np
import setfuse as sf

rng = np.random.default_rng(0)
sets = [
    sf.ImageSet(
        features=3.0 * c + rng.standard_normal((4, 10)), label=f"c{c}", set_id=f"c{c}_s{s}"
    )
    for c in range(2)
    for s in range(3)
]
model = sf.train_on_sets(sets, sf.TrainConfig(subspace_dim=2, target_dim=2, iters=2))
sf.predict(sets[0], model)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_train_and_predict_load_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip().splitlines()[-1] == "[]"
