"""The library's runtime dependencies are numpy and click alone.

scipy is a test-only dependency (the acceptance oracles use it). Importing
``scipy.linalg`` roughly doubles the resident memory of a small process, so
a library import of it would show up in every workload's peak memory. A
fresh interpreter imports ``setfuse``, trains once and predicts once, and no
``scipy`` module may be loaded by then.

The kernel scales sum the lifted rows' squared norms with ``np.vecdot``,
which numpy 2.0 added, so the declared numpy floor must be at least 2.0. ``pyproject.toml`` is read as
plain text, since ``tomllib`` is missing on Python 3.10.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _version(text: str) -> tuple[int, ...]:
    """The leading numeric release of a version string, as a tuple."""
    return tuple(int(part) for part in re.match(r"\d+(?:\.\d+)*", text).group().split("."))


def test_declared_numpy_floor_has_vecdot():
    floors = re.findall(r'"numpy>=([^",;]+)"', (ROOT / "pyproject.toml").read_text())
    assert len(floors) == 1, floors
    floor = _version(floors[0])
    assert floor >= (2, 0)
    assert _version(np.__version__) >= floor


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
