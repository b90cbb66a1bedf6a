"""The gates of ``benchmarks/check_perf_regression.py`` fail closed."""

import json
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "benchmarks"))

from check_perf_regression import check_counters, main  # noqa: E402


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


def _timing_rows(shapes, hybrid_seconds=1.0):
    rows = []
    for n, m in shapes:
        for backend, seconds in (("exact", 2.0), ("hybrid", hybrid_seconds)):
            rows.append({"backend": backend, "kernel": "revised", "n": n,
                         "m": m, "seconds": seconds, "T_star": f"{n}/{m}",
                         "pivots": 10, "refactorizations": 1})
    return {"rows": rows}


def _gate(tmp_path, baseline, fresh):
    paths = []
    for name, payload in (("baseline.json", baseline), ("fresh.json", fresh)):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        paths.append(str(path))
    return main(paths)


def test_all_fresh_shapes_in_baseline_pass(tmp_path):
    shapes = [(16, 6), (24, 8), (32, 10)]
    baseline = _timing_rows(shapes + [(64, 16)])
    assert _gate(tmp_path, baseline, _timing_rows(shapes)) == 0


def test_fresh_shape_missing_from_baseline_fails(tmp_path):
    baseline = _timing_rows([(10, 4), (16, 6)])
    fresh = _timing_rows([(16, 6), (24, 8), (32, 10)])
    assert _gate(tmp_path, baseline, fresh) != 0


def _without(payload, backend, shape):
    rows = [
        r for r in payload["rows"]
        if not (r["backend"] == backend and (r["n"], r["m"]) == shape)
    ]
    return {"rows": rows}


def test_normalizing_row_missing_from_baseline_fails(tmp_path):
    shapes = [(16, 6), (24, 8), (32, 10)]
    baseline = _without(_timing_rows(shapes), "exact", (24, 8))
    assert _gate(tmp_path, baseline, _timing_rows(shapes)) != 0


def test_zero_normalizing_time_fails(tmp_path):
    shapes = [(16, 6), (24, 8), (32, 10)]
    fresh = _timing_rows(shapes)
    for row in fresh["rows"]:
        if row["backend"] == "exact" and (row["n"], row["m"]) == (32, 10):
            row["seconds"] = 0.0
    assert _gate(tmp_path, _timing_rows(shapes), fresh) != 0


def test_absolute_mode_needs_no_normalizing_rows(tmp_path):
    shapes = [(16, 6), (24, 8)]
    baseline = _without(_timing_rows(shapes), "exact", (24, 8))
    fresh = _without(_timing_rows(shapes), "exact", (16, 6))
    paths = []
    for name, payload in (("baseline.json", baseline), ("fresh.json", fresh)):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        paths.append(str(path))
    assert main(paths + ["--absolute"]) == 0
