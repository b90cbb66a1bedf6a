"""The HiGHS float leg is marshaled the same way on every path.

HiGHS answers depend on its exact input, so the sparse dict-row marshaling
(:func:`~repro.lp.scipy_backend.marshal_rows`), the ``T*``-search template
(:meth:`~repro.core.programs.IP3Builder.float_program`) and the dense build
they replaced must hand it bit-identical matrices, right-hand sides and
objectives.  The integer breakpoint-rank masks of :class:`IP3Builder` must
select exactly what the Fraction ``p ≤ T`` masks select, and support-only
rationalization must agree with the element-wise snap rule.
"""

from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("scipy")

from scipy.sparse import coo_array, csc_array, vstack  # noqa: E402

import repro.lp.hybrid as hybrid_mod  # noqa: E402
from repro._fraction import rationalize  # noqa: E402
from repro.core.instance import Instance  # noqa: E402
from repro.core.laminar import LaminarFamily  # noqa: E402
from repro.core.programs import T_KEY, IP3Builder  # noqa: E402
from repro.lp.model import LinearProgram  # noqa: E402
from repro.lp.scipy_backend import (  # noqa: E402
    _SNAP_EPS,
    marshal_rows,
    rationalize_point,
)
from repro.workloads import derive_seed, random_hierarchical, rng_from_seed  # noqa: E402

#: The three smallest shapes of the perfbench ``approx`` pool.
PERFBENCH_SHAPES = ((32, 10), (48, 12), (64, 16))


def _perfbench_instance(n, m):
    rng = rng_from_seed(derive_seed(140, "perfbench", n, m, 0))
    return random_hierarchical(rng, n=n, m=m)


def _zero_time_instance():
    """Zero processing times on singletons, so load rows carry explicit 0s."""
    family = LaminarFamily.clustered(4, 2)
    processing = {}
    for j in range(6):
        processing[j] = {}
        for alpha in family.sets:
            if len(alpha) == 1:
                processing[j][alpha] = 0 if (j + min(alpha)) % 2 else j + 1
            else:
                processing[j][alpha] = j + len(alpha)
    return Instance(family, processing)


INSTANCES = [
    pytest.param(lambda s=s: _perfbench_instance(*s), id=f"{s[0]}x{s[1]}")
    for s in PERFBENCH_SHAPES
] + [pytest.param(_zero_time_instance, id="zero-times")]


def _horizons(builder):
    """Every breakpoint, a midpoint between each pair, one below them all."""
    points = builder.breakpoints
    mids = [(a + b) / 2 for a, b in zip(points, points[1:])]
    return list(points) + mids + [points[0] - 1]


def _dense_highs_input(coeff_rows, senses, rhs, objective):
    """The dense marshaling the sparse paths replaced, as HiGHS receives it."""
    n = len(objective)
    dense = np.zeros((len(coeff_rows), n))
    for i, row in enumerate(coeff_rows):
        for j, v in row.items():
            dense[i, j] = float(v)
    ub = [i for i, sense in enumerate(senses) if sense != "=="]
    eq = [i for i, sense in enumerate(senses) if sense == "=="]
    a_ub = np.array([-dense[i] if senses[i] == ">=" else dense[i] for i in ub])
    b_ub = [-float(rhs[i]) if senses[i] == ">=" else float(rhs[i]) for i in ub]
    stacked = np.vstack((a_ub.reshape(len(ub), n), dense[eq]))
    return (
        csc_array(stacked),
        np.array(b_ub, dtype=float),
        np.array([float(rhs[i]) for i in eq], dtype=float),
        np.array([float(v) for v in objective]),
    )


def _sparse_highs_input(program):
    """What ``linprog`` builds from sparse blocks: COO each, stacked, CSC."""
    matrix = csc_array(vstack((coo_array(program.a_ub), coo_array(program.a_eq))))
    return matrix, program.b_ub, program.b_eq, program.c


def _bits(array):
    array = np.asarray(array)
    return array.dtype.str, array.shape, array.tobytes()


def _assert_identical(expected, actual):
    (a0, *vectors0), (a1, *vectors1) = expected, actual
    assert a0.shape == a1.shape
    for field in ("data", "indices", "indptr"):
        assert _bits(getattr(a0, field)) == _bits(getattr(a1, field)), field
    for v0, v1 in zip(vectors0, vectors1):
        assert _bits(v0) == _bits(v1)


@pytest.mark.parametrize("make", INSTANCES)
def test_template_matches_dict_rows_and_dense(make):
    builder = IP3Builder(make())
    for T in _horizons(builder):
        rows, senses, rhs, active = builder.probe_rows(T)
        objective = [Fraction(0)] * len(active)
        dense = _dense_highs_input(rows, senses, rhs, objective)
        from_rows = _sparse_highs_input(marshal_rows(rows, senses, rhs, objective))
        templated = _sparse_highs_input(builder.float_program(active, rhs))
        _assert_identical(dense, from_rows)
        _assert_identical(dense, templated)


def test_zero_times_reach_the_rows():
    """The hand-built instance really exercises explicit zero coefficients."""
    builder = IP3Builder(_zero_time_instance())
    rows = builder.probe_rows(builder.breakpoints[-1])[0]
    assert any(v == 0 for row in rows for v in row.values())
    assert builder.breakpoints[0] == 0


def test_marshal_rows_negates_ge_rows_and_keeps_objective():
    rows = [{0: Fraction(1, 3), 2: Fraction(0)}, {1: Fraction(2)}, {0: 1, 1: 1}]
    senses = [">=", "<=", "=="]
    rhs = [Fraction(0), Fraction(7, 2), Fraction(1)]
    objective = [Fraction(-1), Fraction(0), Fraction(5, 7)]
    _assert_identical(
        _dense_highs_input(rows, senses, rhs, objective),
        _sparse_highs_input(marshal_rows(rows, senses, rhs, objective)),
    )


def test_phase1_program_matches_dense(monkeypatch):
    """``certify_infeasible``'s ``[A | S | I]`` program, built sparse."""
    rows = [{0: Fraction(1), 1: Fraction(1)}, {0: Fraction(1)}, {1: Fraction(0)}]
    senses = ["==", ">=", "<="]
    rhs = [Fraction(1), Fraction(3), Fraction(-2)]
    captured = []

    def capture(program):
        captured.append(program)
        raise RuntimeError("captured")

    monkeypatch.setattr(hybrid_mod, "run_highs", capture)
    assert hybrid_mod.certify_infeasible(rows, senses, rhs, num_vars=2) is None
    # Sign-normalized rows (row 2 flips to ">= 2"), slacks, artificials.
    phase1 = [
        {0: 1, 1: 1, 4: 1},
        {0: 1, 2: -1, 5: 1},
        {1: 0, 3: -1, 6: 1},
    ]
    objective = [0, 0, 0, 0, 1, 1, 1]
    _assert_identical(
        _dense_highs_input(phase1, ["=="] * 3, [1, 3, 2], objective),
        _sparse_highs_input(captured[0]),
    )


def _old_min_T_lp(builder, r_anchor, t_low):
    """``min_T_lp`` masked on Fraction ``p ≤ r_anchor`` (the pre-rank rule)."""
    lp = LinearProgram()
    lp.add_variable(T_KEY, lb=0)
    by_job = {}
    for j, alpha, p in builder.finite:
        if p <= r_anchor:
            lp.add_variable(("x", alpha, j), lb=0)
            by_job.setdefault(j, []).append(alpha)
    for j in range(builder.instance.n):
        if j not in by_job:
            return None
        lp.add_constraint({("x", alpha, j): 1 for alpha in by_job[j]}, "==", 1)
    for alpha, entries in builder.load_template_idx:
        coeffs = {T_KEY: -len(alpha)}
        for gi, p in entries:
            j, beta, _p = builder.finite[gi]
            if p <= r_anchor:
                coeffs[("x", beta, j)] = p
        lp.add_constraint(coeffs, "<=", 0)
    lp.add_constraint({T_KEY: 1}, ">=", t_low)
    lp.set_objective({T_KEY: 1})
    return lp


@pytest.mark.parametrize("make", INSTANCES)
def test_rank_masks_equal_fraction_masks(make):
    builder = IP3Builder(make())
    for T in _horizons(builder):
        k = builder.horizon_rank(T)
        assert [r <= k for r in builder.var_rank] == [p <= T for p in builder.var_p]
        unplaceable = any(
            not any(builder.var_p[gi] <= T for gi in gis)
            for gis in builder.assign_template
        )
        assert (k < builder.placement_rank) == unplaceable
        _rows, _senses, rhs, active = builder.probe_rows(T)
        assert active == [gi for gi, p in enumerate(builder.var_p) if p <= T]
        assert rhs[builder.instance.n:] == [
            len(alpha) * T for alpha, _entries in builder.load_template_idx
        ]


@pytest.mark.parametrize("make", INSTANCES)
def test_min_T_lp_rank_mask_equals_fraction_mask(make):
    builder = IP3Builder(make())
    horizons = _horizons(builder)
    for T in horizons[::9] + horizons[-1:]:
        expected = _old_min_T_lp(builder, T, T)
        got = builder.min_T_lp(T, T)
        assert (got is None) == (expected is None)
        if got is not None:
            assert got.variable_keys == expected.variable_keys
            assert got.to_standard_rows() == expected.to_standard_rows()


def _old_snap(value, max_denominator=10**6):
    nearest = round(value)
    if abs(value - nearest) < _SNAP_EPS:
        return Fraction(int(nearest))
    return rationalize(value, max_denominator)


def test_support_only_rationalization_matches_elementwise_rule():
    crafted = [
        0.0, -0.0, 1e-300, -1e-12, 4e-10, -9.9e-10, 1e-9, -1e-9, 2e-9,
        -3e-9, 2.9999999995, 3.0000000004, 1.0 - 1e-10, -1.0 + 1e-10,
        7.0, -2.0, 0.5, 1.0 / 3.0, 2.0 / 7.0, 123456.5, 1e-7, 1e-6, 3e-6,
        -4e-6, 2.5e-5,
    ]
    got = rationalize_point(np.array(crafted))
    assert got == [_old_snap(v) for v in crafted]
    assert all(type(v) is Fraction for v in got)


def test_rationalization_still_rejects_nan():
    with pytest.raises(ValueError):
        rationalize_point(np.array([0.0, float("nan")]))
