"""Perf-regression gate: fresh ``BENCH_lp_backends.json`` vs the committed one.

CI regenerates the benchmark on a few shapes of the committed artifact
(``bench_lp_backends.py --shapes …``) and calls this script with the
committed artifact as baseline.  Every fresh (n, m) shape must be
measurable in both files — a positive hybrid time and, unless
``--absolute``, a positive ``--normalize-by`` time in each — so a missing
or zero row fails the gate instead of quietly shrinking the sample.  Over
those shapes it computes the hybrid backend's slowdown and fails when the
*median* slowdown exceeds the threshold (default 1.5×).

By default the slowdown is **normalized**: each file's hybrid seconds are
divided by the *same run's* ``exact``-backend seconds before comparing, so
raw machine speed cancels out — the committed artifact comes from a
developer workstation while CI runs on shared runners, and an absolute
wall-clock gate across machines would trip on hardware, not regressions.
What the normalized gate catches is the thing the hybrid backend exists
for: its advantage over the exact core eroding.  ``--absolute`` switches to
raw hybrid seconds for same-machine comparisons (e.g. artifact hand-off
between CI runs).

It also re-checks the certification invariant: where both files share a
shape, they must agree on the exact ``T*`` string — a perf artifact from a
solver that changed its answers is worse than useless.

Orthogonal to wall-clock, the gate compares **solver counters** per
(backend, kernel, n, m) row: pivot counts and basis refactorizations are
deterministic for a given code generation and instance, so — unlike
seconds — they compare exactly across machines.  A fresh row may exceed
its baseline by at most ``--max-counter-growth`` (ratio) plus
``--counter-slack`` (absolute, so a 0-refactorization baseline doesn't
forbid 1).  A baseline without any counter rows (it predates counter
recording) skips the counter gate; a baseline whose counter rows match no
fresh row fails it, so a relabelled kernel or shape cannot pass unseen.

Usage::

    python benchmarks/check_perf_regression.py BASELINE.json FRESH.json \
        [--max-slowdown 1.5] [--backend hybrid] [--absolute] \
        [--max-counter-growth 1.1] [--counter-slack 4]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import Dict, List, Optional, Tuple

Shape = Tuple[int, int]


def _canonical(row: Dict) -> bool:
    """Whether a row is the default-kernel measurement for its backend.

    Newer artifacts carry one row per (backend, kernel); the gate compares
    the default-kernel rows (``revised`` for exact/hybrid, ``float`` for
    scipy).  Rows without a ``kernel`` field — pre-kernel baselines — are
    canonical by definition.
    """
    return row.get("kernel") in (None, "revised", "float")


def _seconds_by_shape(payload: Dict, backend: str) -> Dict[Shape, float]:
    out: Dict[Shape, float] = {}
    for row in payload.get("rows", []):
        if row.get("backend") == backend and _canonical(row):
            out[(int(row["n"]), int(row["m"]))] = float(row["seconds"])
    return out


def _t_star_by_shape(payload: Dict, backend: str) -> Dict[Shape, str]:
    return {
        (int(r["n"]), int(r["m"])): str(r["T_star"])
        for r in payload.get("rows", [])
        if r.get("backend") == backend and _canonical(r)
    }


def _metric(
    payload: Dict, backend: str, normalize_by: Optional[str]
) -> Dict[Shape, float]:
    """The gated value per shape; shapes without a positive *backend*
    time (or, when normalizing, a positive *normalize_by* time) are absent."""
    secs = _seconds_by_shape(payload, backend)
    ref = None if normalize_by is None else _seconds_by_shape(payload, normalize_by)
    out: Dict[Shape, float] = {}
    for shape, seconds in secs.items():
        if seconds <= 0:
            continue
        if ref is None:
            out[shape] = seconds
        elif ref.get(shape, 0) > 0:
            out[shape] = seconds / ref[shape]
    return out


#: Counters gated per row.  Deterministic given (code, instance), so the
#: comparison is exact — no normalization needed.
_GATED_COUNTERS = ("pivots", "refactorizations")


def _counter_rows(payload: Dict) -> Dict[Tuple, Dict[str, int]]:
    """``(backend, kernel, n, m) → {counter: value}`` for rows that carry
    counters (older baselines without them are silently absent)."""
    out: Dict[Tuple, Dict[str, int]] = {}
    for row in payload.get("rows", []):
        if "pivots" not in row:
            continue
        key = (
            str(row.get("backend")),
            str(row.get("kernel")),
            int(row["n"]),
            int(row["m"]),
        )
        out[key] = {
            counter: int(row.get(counter, 0)) for counter in _GATED_COUNTERS
        }
    return out


def check_counters(
    baseline: Dict, fresh: Dict, max_growth: float, slack: int
) -> int:
    """Gate pivot/refactorization counts per (backend, kernel, shape) row.

    Returns the number of violations (0 = pass).  A fresh value passes when
    ``fresh <= baseline * max_growth + slack``.  Skipped only when the
    baseline carries no counter rows at all; counter rows that match no
    fresh row count as one violation.
    """
    base = _counter_rows(baseline)
    if not base:
        print("counter gate: baseline carries no counters — skipped")
        return 0
    new = _counter_rows(fresh)
    common = sorted(set(base) & set(new))
    if not common:
        print(
            f"FAIL: counter gate: none of the baseline's {len(base)} counter "
            f"rows match a fresh (backend, kernel, n, m) row"
        )
        return 1
    failures = 0
    for key in common:
        backend, kernel, n, m = key
        for counter in _GATED_COUNTERS:
            b, f = base[key][counter], new[key][counter]
            allowed = b * max_growth + slack
            ok = f <= allowed
            marker = "ok" if ok else "FAIL"
            if not ok or f != b:
                print(
                    f"  {marker}: n={n:3d} m={m:3d} {backend}/{kernel} "
                    f"{counter}: baseline {b}, fresh {f} "
                    f"(allowed ≤ {allowed:.1f})"
                )
            failures += 0 if ok else 1
    print(
        f"counter gate: {len(common)} (backend, kernel, shape) rows, "
        f"{failures} violation(s) "
        f"(growth ≤ {max_growth}x + {slack})"
    )
    return failures


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed BENCH_lp_backends.json")
    parser.add_argument("fresh", help="freshly generated BENCH_lp_backends.json")
    parser.add_argument("--backend", default="hybrid")
    parser.add_argument("--normalize-by", default="exact")
    parser.add_argument("--max-slowdown", type=float, default=1.5)
    parser.add_argument(
        "--absolute", action="store_true",
        help="compare raw seconds (only meaningful when baseline and fresh "
        "ran on the same machine)",
    )
    parser.add_argument(
        "--max-counter-growth", type=float, default=1.1,
        help="allowed pivot/refactorization growth ratio per row "
        "(default 1.1)",
    )
    parser.add_argument(
        "--counter-slack", type=int, default=4,
        help="absolute slack added to the counter bound (default 4; keeps "
        "tiny baselines from gating on ±1)",
    )
    args = parser.parse_args(argv)

    with open(args.baseline) as fh:
        baseline = json.load(fh)
    with open(args.fresh) as fh:
        fresh = json.load(fh)

    normalize_by = None if args.absolute else args.normalize_by
    base_vals = _metric(baseline, args.backend, normalize_by)
    fresh_vals = _metric(fresh, args.backend, normalize_by)
    common = sorted(_seconds_by_shape(fresh, args.backend))
    if not common:
        print(f"FAIL: the fresh file has no {args.backend} rows")
        return 2
    unmeasured = [s for s in common if s not in base_vals or s not in fresh_vals]
    if unmeasured:
        needs = f"a positive {args.backend} time"
        if normalize_by is not None:
            needs += f" and a positive {normalize_by} time"
        print(
            f"FAIL: fresh shape(s) {unmeasured} lack {needs} in the baseline "
            f"or the fresh file — the median would silently cover fewer "
            f"shapes; regenerate the committed artifact"
        )
        return 2

    # Drift is checked on every shape both files measured.
    base_t = _t_star_by_shape(baseline, args.backend)
    fresh_t = _t_star_by_shape(fresh, args.backend)
    for shape in sorted(set(base_t) & set(fresh_t)):
        if base_t.get(shape) != fresh_t.get(shape):
            print(
                f"FAIL: exact T* drifted at (n={shape[0]}, m={shape[1]}): "
                f"baseline {base_t.get(shape)} vs fresh {fresh_t.get(shape)}"
            )
            return 1

    unit = "s" if args.absolute else f"x {args.normalize_by}"
    slowdowns = []
    for shape in common:
        ratio = fresh_vals[shape] / base_vals[shape]
        slowdowns.append(ratio)
        print(
            f"n={shape[0]:3d} m={shape[1]:3d} {args.backend}: "
            f"baseline {base_vals[shape]:.4f}{unit}  "
            f"fresh {fresh_vals[shape]:.4f}{unit}  slowdown {ratio:.2f}x"
        )
    median = statistics.median(slowdowns)
    print(
        f"median {args.backend} slowdown over {len(common)} shape(s): "
        f"{median:.2f}x (gate: {args.max_slowdown}x, "
        f"{'absolute seconds' if args.absolute else 'normalized by ' + args.normalize_by})"
    )
    if median > args.max_slowdown:
        print("FAIL: perf regression gate tripped")
        return 1
    counter_failures = check_counters(
        baseline, fresh, args.max_counter_growth, args.counter_slack
    )
    if counter_failures:
        print("FAIL: solver-counter regression gate tripped")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
