"""Micro-benchmarks of the core algorithmic kernels (multi-round timings).

Unlike the experiment benches (single-round sweeps), these time the paper's
individual algorithms on fixed representative instances so solver-level
regressions are measurable.

Run as a script, it micro-benchmarks the **LU basis kernel**
(:class:`repro.lp.basis.LUBasis`: factorize, ftran, btran, rank-one update)
on optimal IP-3 bases across the E14 shapes and writes ``BENCH_kernels.json``
to the repository root (mirrored under ``benchmarks/results/``)::

    PYTHONPATH=src python benchmarks/bench_kernels.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import pytest

from repro import schedule_hierarchical, schedule_semi_partitioned, two_approximation
from repro.baselines import mcnaughton_schedule
from repro.core.hierarchical import allocate_loads
from repro.core.programs import build_ip3, minimal_fractional_T
from repro.lp.solve import solve_lp
from repro.rounding.lst import lst_round
from repro.workloads import (
    random_feasible_pair,
    random_hierarchical,
    random_semi_partitioned,
    rng_from_seed,
)


@pytest.fixture(scope="module")
def semi_fixture():
    rng = rng_from_seed(1001)
    inst = random_semi_partitioned(rng, n=48, m=8)
    assignment, T = random_feasible_pair(rng, inst)
    return inst, assignment, T


@pytest.fixture(scope="module")
def hier_fixture():
    rng = rng_from_seed(1002)
    inst = random_hierarchical(rng, n=32, m=12, split_probability=0.9)
    assignment, T = random_feasible_pair(rng, inst)
    return inst, assignment, T


def test_kernel_algorithm1_semi_partitioned(benchmark, semi_fixture):
    inst, assignment, T = semi_fixture
    schedule = benchmark(
        lambda: schedule_semi_partitioned(inst, assignment, T, check_feasibility=False)
    )
    assert schedule.makespan() <= T


def test_kernel_algorithm2_load_allocation(benchmark, hier_fixture):
    inst, assignment, T = hier_fixture
    allocation = benchmark(lambda: allocate_loads(inst, assignment, T))
    assert allocation.T == T


def test_kernel_algorithm3_hierarchical_schedule(benchmark, hier_fixture):
    inst, assignment, T = hier_fixture
    schedule = benchmark(
        lambda: schedule_hierarchical(inst, assignment, T, check_feasibility=False)
    )
    assert schedule.makespan() <= T


def test_kernel_exact_simplex_ip3(benchmark):
    rng = rng_from_seed(1003)
    inst = random_hierarchical(rng, n=10, m=5)
    _lo, hi = inst.trivial_bounds()
    lp = build_ip3(inst, hi)
    solution = benchmark(lambda: solve_lp(lp, backend="exact"))
    assert solution.is_optimal


def test_kernel_scipy_lp_ip3(benchmark):
    rng = rng_from_seed(1003)
    inst = random_hierarchical(rng, n=30, m=10)
    _lo, hi = inst.trivial_bounds()
    lp = build_ip3(inst, hi)
    solution = benchmark(lambda: solve_lp(lp, backend="scipy"))
    assert solution.is_optimal


def test_kernel_lst_rounding(benchmark):
    rng = rng_from_seed(1004)
    n, m = 24, 6
    p = {
        j: {i: int(rng.integers(1, 20)) for i in range(m)} for j in range(n)
    }
    from repro.baselines import minimal_unrelated_T

    T = minimal_unrelated_T(p, backend="scipy")
    mapping = benchmark(lambda: lst_round(p, T, backend="scipy"))
    assert len(mapping) == n


def test_kernel_two_approximation_end_to_end(benchmark):
    rng = rng_from_seed(1005)
    inst = random_hierarchical(rng, n=16, m=6)
    result = benchmark.pedantic(
        lambda: two_approximation(inst, backend="scipy"), rounds=3, iterations=1
    )
    assert result.makespan <= result.bound


def test_kernel_mcnaughton(benchmark):
    rng = rng_from_seed(1006)
    lengths = [int(rng.integers(1, 100)) for _ in range(2000)]
    T, schedule = benchmark(lambda: mcnaughton_schedule(lengths, 64))
    assert schedule.makespan() == T


# ---------------------------------------------------------------------------
# LU basis kernel (factorize / ftran / btran / rank-one update)
# ---------------------------------------------------------------------------

#: E14 shapes the script-mode microbench sweeps (pytest uses the smallest).
LU_SHAPES = ((16, 6), (24, 8), (32, 10), (48, 12), (64, 16))


def _lu_fixture(n, m, seed=140):
    """An optimal IP-3 basis at the top breakpoint, in kernel terms.

    Returns ``(solver, basis_columns)`` where *solver* is the revised
    driver's scaled-integer view of the LP and *basis_columns* are the
    sparse columns of an optimal basis — exactly what a warm-started probe
    factorizes, so the timings reflect production inputs, not random
    matrices.
    """
    from fractions import Fraction

    from repro.core.programs import IP3Builder
    from repro.lp.simplex import _RevisedSolver, solve_standard, standard_form

    inst = random_hierarchical(rng_from_seed(seed), n=n, m=m)
    builder = IP3Builder(inst)
    coeff, senses, rhs, active = builder.probe_rows(builder.breakpoints[-1])
    objective = [Fraction(0)] * len(active)
    std = standard_form(coeff, senses, rhs, objective)
    solver = _RevisedSolver(std, objective, 5000, 200000, "dantzig")
    result = solve_standard(coeff, senses, rhs, objective)
    assert result.status == "optimal"
    return solver, [solver.cols[c] for c in result.basis]


def _time_lu_ops(solver, basis_columns, rounds=3):
    """Wall-clock the four kernel operations on a realistic basis."""
    import time

    from repro.lp.basis import LUBasis

    m = solver.m
    times = {"factorize_ms": [], "ftran_us": [], "btran_us": [], "update_ms": []}
    for _ in range(rounds):
        start = time.perf_counter()
        lub = LUBasis.factorize(m, basis_columns, solver.b_int)
        times["factorize_ms"].append((time.perf_counter() - start) * 1e3)
        assert lub is not None

        sample = solver.cols[: min(len(solver.cols), 128)]
        start = time.perf_counter()
        for col in sample:
            lub.ftran(col)
        times["ftran_us"].append((time.perf_counter() - start) * 1e6 / len(sample))

        cb = {i: 1 for i in range(0, m, 3)}
        start = time.perf_counter()
        for _ in range(16):
            lub.btran(cb)
        times["btran_us"].append((time.perf_counter() - start) * 1e6 / 16)

        # Update pairs: pivot a non-basic column in, then the displaced one
        # back (both legal exchanges), so the basis — and therefore the
        # per-op cost — is identical across iterations.
        basic = set()
        pairs = 0
        start = time.perf_counter()
        for j, col in enumerate(solver.cols):
            if pairs >= 8:
                break
            alpha = lub.ftran(col)
            row = next(
                (r for r in range(m) if alpha[r] != 0 and r not in basic), None
            )
            if row is None:
                continue
            old = basis_columns[row]
            lub.update(row, alpha)
            lub.update(row, lub.ftran(old))
            basic.add(row)
            pairs += 1
        if pairs:
            times["update_ms"].append(
                (time.perf_counter() - start) * 1e3 / (2 * pairs)
            )
    return {op: round(min(vals), 4) for op, vals in times.items() if vals}


def _time_repr_ops(solver, basis_columns, rounds=3):
    """Sparse rows (as factorized) vs dense-forced rows for ftran/btran.

    The sparse representation is whatever :class:`LUBasis` chose per row
    under :data:`~repro.lp.basis.DENSIFY_THRESHOLD`; the dense twin is the
    same factorization with every row expanded, so the delta is purely the
    representation's doing.
    """
    import time

    from repro.lp.basis import LUBasis, _to_dense

    m = solver.m
    sparse = LUBasis.factorize(m, basis_columns, solver.b_int)
    dense = LUBasis.factorize(m, basis_columns, solver.b_int)
    assert sparse is not None and dense is not None
    for i in range(m):
        row = dense.inv[i]
        if type(row) is dict:
            dense.inv[i] = _to_dense(row, m)
    sample = solver.cols[: min(len(solver.cols), 128)]
    cb = {i: 1 for i in range(0, m, 3)}
    out = {
        "sparse_row_fraction": round(
            sum(1 for i in range(m) if type(sparse.inv[i]) is dict) / m, 4
        ),
        "mean_row_density": round(
            sum(sparse.row_density(i) for i in range(m)) / m, 4
        ),
    }
    for name, lub in (("sparse", sparse), ("dense", dense)):
        ftran_best = btran_best = float("inf")
        for _ in range(rounds):
            start = time.perf_counter()
            for col in sample:
                lub.ftran(col)
            ftran_best = min(
                ftran_best, (time.perf_counter() - start) * 1e6 / len(sample)
            )
            start = time.perf_counter()
            for _ in range(16):
                lub.btran(cb)
            btran_best = min(
                btran_best, (time.perf_counter() - start) * 1e6 / 16
            )
        out[f"ftran_{name}_us"] = round(ftran_best, 4)
        out[f"btran_{name}_us"] = round(btran_best, 4)
    return out


def _pricing_pivots(n, m, seed=140):
    """Cold-solve pivot counts per pricing rule on the assignment LP at T*.

    The LST assignment LP is the hardest single cold solve of the E14
    pipeline (wide, degenerate), so it is where the pricing rules actually
    diverge.  Non-canonical solves (vertex identity irrelevant), so each
    rule runs free — the point of the column is the pivot-count spread,
    with ``dantzig`` (the canonical solves' rule) as the reference.
    """
    from repro._fraction import is_inf, to_fraction
    from repro.core.programs import minimal_fractional_T
    from repro.lp.simplex import PRICINGS, solve_standard
    from repro.rounding.lst import build_unrelated_lp

    inst = random_hierarchical(rng_from_seed(seed), n=n, m=m).with_singletons()
    T = minimal_fractional_T(inst, backend="exact")
    p_matrix = {}
    for j in range(inst.n):
        row = {}
        for i in sorted(inst.machines):
            value = inst.p(j, frozenset([i]))
            if not is_inf(value):
                row[i] = to_fraction(value)
        p_matrix[j] = row
    lp = build_unrelated_lp(p_matrix, T)
    coeff, senses, rhs, objective = lp.to_standard_rows()
    out = {}
    for pricing in PRICINGS:
        result = solve_standard(
            coeff, senses, rhs, objective, pricing=pricing, canonical=False
        )
        assert result.status == "optimal"
        out[f"pivots_{pricing}"] = result.pivots
    return out


def test_kernel_lu_basis_ops(benchmark):
    solver, basis_columns = _lu_fixture(*LU_SHAPES[0])
    from repro.lp.basis import LUBasis

    lub = benchmark(lambda: LUBasis.factorize(solver.m, basis_columns, solver.b_int))
    assert lub is not None and lub.den != 0


def lu_main(argv=None):
    """Script mode: emit BENCH_kernels.json across the E14 shapes."""
    import argparse
    import json
    import os

    parser = argparse.ArgumentParser(description="LU basis kernel microbench")
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser.add_argument(
        "--out", default=os.path.join(repo_root, "BENCH_kernels.json")
    )
    parser.add_argument("--quick", action="store_true", help="two shapes only")
    args = parser.parse_args(argv)

    shapes = LU_SHAPES[:2] if args.quick else LU_SHAPES
    rows = []
    for n, m in shapes:
        solver, basis_columns = _lu_fixture(n, m)
        ops = _time_lu_ops(solver, basis_columns)
        ops.update(_time_repr_ops(solver, basis_columns))
        ops.update(_pricing_pivots(n, m))
        row = {
            "n": n,
            "m": m,
            "rows": solver.m,
            "cols": len(solver.cols),
            **ops,
        }
        rows.append(row)
        print(
            f"n={n:3d} m={m:3d} rows={solver.m:4d} cols={len(solver.cols):5d}  "
            + "  ".join(f"{k}={v}" for k, v in ops.items())
        )
    payload = {"family": "e14_scaling", "kernel": "LUBasis", "rows": rows}
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
    results_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, "BENCH_kernels.json"), "w") as fh:
        json.dump(payload, fh, indent=2)
    return 0


if __name__ == "__main__":
    raise SystemExit(lu_main())
