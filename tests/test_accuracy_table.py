"""``tools/accuracy_table.py`` runs its fixed cases against the package in
src/, writes one record per case and report row, gives the same JSON each
time it runs, and pairs a run with another, reporting moved accuracies and
moved stops."""

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
    first = (tmp_path / "a.json").read_text()
    # a parent whose combined row stopped one iteration later on split 0,
    # with the same accuracies: pairing must report the moved stop
    parent = json.loads(first)
    parent["records"][0]["iterations"][0] += 1
    (tmp_path / "parent.json").write_text(json.dumps(parent))
    paired = run_tool(
        tmp_path, "--regimes", "d10", "--seeds", "1", "--out", "b.json", "--against", "parent.json"
    )
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
    lines = paired.splitlines()
    assert lines[0] == "8 of 8 paired records have equal accuracies"
    assert lines[1] == "1 of 8 paired records have different iteration counts"
    moved = [line for line in lines if line.startswith("stops differently:")]
    assert len(moved) == 1
    assert moved[0].startswith("stops differently: d10 seed 1 normalize False combined:")



def test_a_table_is_paired_with_what_it_held_before_it_is_overwritten(tmp_path):
    run_tool(tmp_path, "--regimes", "d10", "--seeds", "1", "--out", "a.json")
    table = json.loads((tmp_path / "a.json").read_text())
    table["records"][0]["iterations"][0] += 1
    (tmp_path / "a.json").write_text(json.dumps(table))
    paired = run_tool(
        tmp_path, "--regimes", "d10", "--seeds", "1", "--out", "a.json", "--against", "a.json"
    )
    assert paired.splitlines()[1] == "1 of 8 paired records have different iteration counts"
