"""The counter gate of ``benchmarks/check_perf_regression.py`` fails closed."""

import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "benchmarks"))

from check_perf_regression import check_counters  # noqa: E402


def _payload(*rows):
    return {"rows": [dict(row) for row in rows]}


ROW = {"backend": "exact", "kernel": "revised", "n": 10, "m": 4,
       "pivots": 120, "refactorizations": 3}


def test_matching_rows_pass():
    assert check_counters(_payload(ROW), _payload(ROW), 1.1, 4) == 0


def test_disjoint_labels_fail():
    relabelled = dict(ROW, kernel="renamed")
    assert check_counters(_payload(ROW), _payload(relabelled), 1.1, 4) > 0


def test_counterless_baseline_skips():
    old = {k: v for k, v in ROW.items() if k not in ("pivots", "refactorizations")}
    assert check_counters(_payload(old), _payload(ROW), 1.1, 4) == 0
