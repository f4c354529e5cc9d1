"""The summary of bench/pairs.py on fixed numbers."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

_spec = importlib.util.spec_from_file_location(
    "pairs", Path(__file__).resolve().parent.parent / "bench" / "pairs.py"
)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

HIGHER = [{"name": "jobs_per_s", "better": "higher"}]
LOWER = [{"name": "solve_ms_p50", "better": "lower"}]


def _pairs(name, parent, change):
    return [({name: p}, {name: c}) for p, c in zip(parent, change)]


def test_quartiles_match_numpys_default_percentile():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0]
    assert pairs.quartiles(values) == pytest.approx(np.percentile(values, [25, 50, 75]))
    assert pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_claim_needs_nine_wins_and_a_gap_past_the_parents_iqr():
    parent = [100, 101, 102, 103, 104, 105, 106, 107, 108, 109]  # IQR 4.5
    # ten wins, median gap 10
    (row,) = pairs.summarize(_pairs("jobs_per_s", parent, [p + 10 for p in parent]), HIGHER)
    assert (row["wins"], row["pairs"], row["claim"]) == (10, 10, True)
    assert row["parent"] == (102.25, 104.5, 106.75)
    # nine wins: still a claim
    change = [p + 10 for p in parent[:9]] + [parent[9]]
    (row,) = pairs.summarize(_pairs("jobs_per_s", parent, change), HIGHER)
    assert (row["wins"], row["claim"]) == (9, True)
    # eight wins: no claim, however large the gap
    change = [p + 10 for p in parent[:8]] + parent[8:]
    (row,) = pairs.summarize(_pairs("jobs_per_s", parent, change), HIGHER)
    assert (row["wins"], row["claim"]) == (8, False)
    # ten wins by a median gap of 4 < IQR 4.5: no claim
    (row,) = pairs.summarize(_pairs("jobs_per_s", parent, [p + 4 for p in parent]), HIGHER)
    assert (row["wins"], row["claim"]) == (10, False)


def test_direction_and_ties():
    parent = [2.0, 2.1, 2.2, 2.3, 2.4, 2.5, 2.6, 2.7, 2.8, 2.9]
    # lower is better: a larger time is a loss, an equal one no win
    (row,) = pairs.summarize(_pairs("solve_ms_p50", parent, [p + 1 for p in parent]), LOWER)
    assert (row["wins"], row["claim"]) == (0, False)
    (row,) = pairs.summarize(_pairs("solve_ms_p50", parent, parent), LOWER)
    assert (row["wins"], row["claim"]) == (0, False)
    (row,) = pairs.summarize(_pairs("solve_ms_p50", parent, [p - 1 for p in parent]), LOWER)
    assert (row["wins"], row["claim"]) == (10, True)
    text = pairs.format_summary([row])
    assert text.startswith("solve_ms_p50: parent 2.45 [2.225, 2.675] -> change 1.45")
    assert text.endswith("better in 10 of 10, claim holds")


def test_copies_leave_out_caches_and_results():
    names = ["src", "__pycache__", ".hypothesis", "out", "run.py"]
    assert pairs._ignore("tree/perfbench", names) == ["__pycache__", ".hypothesis", "out"]
    assert pairs._ignore("tree/src", names) == ["__pycache__", ".hypothesis"]
