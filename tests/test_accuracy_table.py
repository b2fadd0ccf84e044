"""``tools/accuracy_table.py`` runs its fixed cases against the package in
src/, writes one record per case and report row, and gives the same JSON
each time it runs."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ROWS = ["combined", "cov", "gauss", "subspace"]


def run_tool(cwd, *args):
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "accuracy_table.py"), *args],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=""),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


def test_one_case_has_its_shape_and_is_deterministic(tmp_path):
    run_tool(tmp_path, "--regimes", "d10", "--seeds", "1", "--out", "a.json")
    paired = run_tool(
        tmp_path, "--regimes", "d10", "--seeds", "1", "--out", "b.json", "--against", "a.json"
    )
    first = (tmp_path / "a.json").read_text()
    assert (tmp_path / "b.json").read_text() == first
    records = json.loads(first)["records"]
    assert [(r["normalize"], r["row"]) for r in records] == [
        (normalize, row) for normalize in (False, True) for row in ROWS
    ]
    for r in records:
        assert (r["regime"], r["seed"]) == ("d10", 1)
        for field in ("accuracies", "first_objective", "last_objective", "iterations"):
            assert len(r[field]) == 4, field
        assert all(0.0 <= a <= 1.0 for a in r["accuracies"])
        assert all(1 <= n <= 20 for n in r["iterations"])
    assert paired.splitlines()[0] == "8 of 8 paired records have equal accuracies"
