"""``tools/accuracy_table.py`` runs its fixed cases against the package in
src/, writes one record per case and report row, gives the same JSON each
time it runs, and pairs a run with another, reporting moved accuracies,
moved stops, records without a pair and records whose splits stop apart."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ROWS = ["combined", "cov", "frozen", "gauss", "subspace"]


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
    assert lines[0] == "10 of 10 paired records have equal accuracies"
    assert lines[1] == "1 of 10 paired records have different iteration counts"
    moved = [line for line in lines if line.startswith("stops differently:")]
    assert len(moved) == 1
    assert moved[0].startswith("stops differently: d10 seed 1 normalize False combined:")
    # learning_rate=0.0 steps no gating: every frozen split stops at iteration 3
    frozen = [r for r in records if r["row"] == "frozen"]
    assert all(r["iterations"] == [3] * 4 for r in frozen)


def test_pairing_counts_records_without_a_pair_and_splits_that_stop_apart(capsys):
    path = ROOT / "tools" / "accuracy_table.py"
    spec = importlib.util.spec_from_file_location("accuracy_table", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)

    def record(row, iterations):
        return {
            "regime": "d10", "seed": 1, "normalize": False, "row": row,
            "accuracies": [0.5, 0.5], "first_objective": [0.9, 0.9],
            "last_objective": [0.95, 0.95], "iterations": iterations,
        }

    parent = [record("combined", [20, 20]), record("cov", [3, 3])]
    # the change adds the frozen row, and its combined splits stop apart
    change = [record("combined", [20, 3]), record("cov", [3, 3]), record("frozen", [3, 3])]
    tool.print_paired(change, parent)
    lines = capsys.readouterr().out.splitlines()
    assert lines[:4] == [
        "2 of 2 paired records have equal accuracies",
        "1 of 2 paired records have different iteration counts",
        "1 of 3 records of this run and 0 of 2 of the other have no pair",
        "1 of 3 records of this run have splits that stop apart",
    ]
    tool.print_paired(parent, change)
    assert capsys.readouterr().out.splitlines()[2:4] == [
        "0 of 2 records of this run and 1 of 3 of the other have no pair",
        "0 of 2 records of this run have splits that stop apart",
    ]


def test_a_table_is_paired_with_what_it_held_before_it_is_overwritten(tmp_path):
    run_tool(tmp_path, "--regimes", "d10", "--seeds", "1", "--out", "a.json")
    table = json.loads((tmp_path / "a.json").read_text())
    table["records"][0]["iterations"][0] += 1
    (tmp_path / "a.json").write_text(json.dumps(table))
    paired = run_tool(
        tmp_path, "--regimes", "d10", "--seeds", "1", "--out", "a.json", "--against", "a.json"
    )
    assert paired.splitlines()[1] == "1 of 10 paired records have different iteration counts"
