"""``tools/model_digest.py`` runs against the package in src/ and prints one
line per fixed case, each with its digests."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HEX = re.compile(r"[0-9a-f]{64}")

CASES = [
    ("gallery_train", ("model", "saved")),
    ("probe_stream", ("model", "saved")),
    ("probe_stream", ("predictions", "profiles")),
    ("normalize_kernels", ("model", "saved")),
    ("learning_rate_1", ("model", "saved")),
    ("learning_rate_0", ("model", "saved")),
    ("train_ragged", ("model", "saved")),
    ("experiment_ablate", ("model", "saved")),
    ("dimension_sweep", ("model", "saved")),
    ("experiment_capped", ("model", "saved")),
    ("experiment_learning_rate_1", ("model", "saved")),
    ("experiment_interleaved", ("model", "saved")),
    ("experiment_two_ranks", ("model", "saved")),
    ("experiment_d32", ("model", "saved")),
    ("stacked_halvings", ("model", "saved")),
]
# the split protocol cases and the stacked trainer case save no model
UNSAVED = {
    "experiment_ablate",
    "dimension_sweep",
    "experiment_capped",
    "experiment_learning_rate_1",
    "experiment_interleaved",
    "experiment_two_ranks",
    "experiment_d32",
    "stacked_halvings",
}


def test_tool_prints_a_digest_per_case(tmp_path):
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "model_digest.py")],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=""),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    lines = result.stdout.splitlines()
    assert len(lines) == len(CASES)
    for line, (case, keys) in zip(lines, CASES):
        name, *pairs = line.split()
        assert name == case
        assert pairs[0::2] == list(keys)
        for key, value in zip(pairs[0::2], pairs[1::2]):
            if case in UNSAVED and key == "saved":
                assert value == "-"
            else:
                assert HEX.fullmatch(value), line
