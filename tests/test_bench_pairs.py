"""``tools/bench_pairs.py`` decides whether paired benchmark runs support a
claimed gain: at least 9 of 10 pairs won, ties counting for neither side, and
a median gap larger than the parent's interquartile range. The verdict is
checked here on fixed numbers; no benchmark runs."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

PARENT = [0.70, 0.72, 0.69, 0.73, 0.71, 0.70, 0.74, 0.72, 0.71, 0.70]


def test_ten_wins_past_the_parents_spread_hold():
    change = [p - 0.05 for p in PARENT]
    v = bench_pairs.verdict(PARENT, change)
    assert (v["wins"], v["needed"]) == (10, 9)
    # inclusive quartiles of the parent: 0.70, 0.71, 0.72
    assert v["parent"] == pytest.approx((0.70, 0.71, 0.72))
    assert v["parent_iqr"] == pytest.approx(0.02)
    assert v["gap"] == pytest.approx(0.05)
    assert v["holds"]


def test_ties_count_for_neither_side():
    # eight wins and two ties: one win short, however large the gap
    change = [p - 0.05 for p in PARENT[:8]] + PARENT[8:]
    v = bench_pairs.verdict(PARENT, change)
    assert v["wins"] == 8
    assert v["gap"] > v["parent_iqr"]
    assert not v["holds"]


def test_nine_wins_within_the_parents_spread_do_not_hold():
    change = [p - 0.001 for p in PARENT[:9]] + [PARENT[9] + 0.001]
    v = bench_pairs.verdict(PARENT, change)
    assert v["wins"] == 9
    assert v["gap"] <= v["parent_iqr"]
    assert not v["holds"]


def test_wins_needed_round_up_to_whole_pairs():
    parent = PARENT[:5]
    v = bench_pairs.verdict(parent, [p - 0.05 for p in parent])
    assert v["needed"] == 5


def test_pairs_must_match():
    with pytest.raises(ValueError):
        bench_pairs.verdict(PARENT, PARENT[:9])


def test_metrics_are_read_from_the_benchmark_spec():
    assert bench_pairs.end_to_end() == [
        "op_p50_ms", "ops_per_s", "accuracy", "setup_s", "peak_rss_mb",
    ]
