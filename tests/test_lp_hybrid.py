"""Tests for the certified hybrid backend and the fraction-free simplex."""

from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.exceptions import SolverError
from repro.lp import (
    BACKENDS,
    LinearProgram,
    feasible_point,
    is_feasible,
    solve_lp,
    solve_standard,
    solve_standard_hybrid,
)
from repro.lp.simplex import _point_hints


def _knapsack_lp():
    lp = LinearProgram()
    lp.add_variable("x", ub=2)
    lp.add_variable("y", ub=3)
    lp.add_constraint({"x": 1, "y": 2}, "<=", 4)
    lp.set_objective({"x": -1, "y": -1})
    return lp


class TestHybridBackend:
    def test_registered(self):
        assert "hybrid" in BACKENDS

    def test_agrees_with_exact_on_optimum(self):
        lp = _knapsack_lp()
        exact = solve_lp(lp, backend="exact")
        hybrid = solve_lp(lp, backend="hybrid")
        assert hybrid.status == "optimal"
        assert hybrid.objective == exact.objective
        # Values are exact rationals, not rationalized floats.
        assert all(isinstance(v, Fraction) for v in hybrid.values.values())

    def test_infeasible_verdict_confirmed_exactly(self):
        lp = LinearProgram()
        lp.add_variable("x", ub=1)
        lp.add_constraint({"x": 1}, ">=", 2)
        assert solve_lp(lp, backend="hybrid").status == "infeasible"
        assert not is_feasible(lp, backend="hybrid")

    def test_unbounded(self):
        result = solve_standard_hybrid(
            coeff_rows=[], senses=[], rhs=[], objective=[Fraction(-1)]
        )
        assert result.status == "unbounded"

    def test_returns_basic_solution(self):
        # A vertex has at most (#rows) nonzeros — the property LST needs.
        rows = [{j: Fraction(1) for j in range(6)}, {0: Fraction(1), 3: Fraction(2)}]
        result = solve_standard_hybrid(
            coeff_rows=rows,
            senses=["==", "<="],
            rhs=[Fraction(4), Fraction(3)],
            objective=[Fraction(0)] * 6,
        )
        assert result.status == "optimal"
        assert sum(1 for v in result.x if v != 0) <= 2

    def test_fractional_vertex_exact(self):
        # Optimum at (8/5, 6/5): rationalization must recover it exactly.
        result = solve_standard_hybrid(
            coeff_rows=[
                {0: Fraction(1), 1: Fraction(2)},
                {0: Fraction(3), 1: Fraction(1)},
            ],
            senses=["<=", "<="],
            rhs=[Fraction(4), Fraction(6)],
            objective=[Fraction(-1), Fraction(-1)],
        )
        assert result.objective == Fraction(-14, 5)
        assert result.x == [Fraction(8, 5), Fraction(6, 5)]


class TestWarmStart:
    def test_warm_values_do_not_change_result(self):
        lp = _knapsack_lp()
        cold = solve_lp(lp, backend="exact")
        warm = solve_lp(lp, backend="exact", warm_values=cold.values)
        assert warm.objective == cold.objective
        assert warm.values == cold.values

    def test_bad_warm_values_are_harmless(self):
        lp = _knapsack_lp()
        nonsense = {"x": Fraction(10**6), "y": Fraction(1, 10**6)}
        warm = solve_lp(lp, backend="exact", warm_values=nonsense)
        assert warm.objective == solve_lp(lp, backend="exact").objective

    def test_warm_start_skips_pivots(self):
        # An equality program needs phase-1 work from a cold start; with the
        # optimal support pushed first it should need strictly fewer pivots.
        rows = [{j: Fraction(1) for j in range(8)}, {0: Fraction(1), 4: Fraction(1)}]
        senses = ["==", ">="]
        rhs = [Fraction(5), Fraction(1)]
        objective = [Fraction(j + 1) for j in range(8)]
        cold = solve_standard(rows, senses, rhs, objective)
        warm = solve_standard(
            rows, senses, rhs, objective,
            warm_hints=[j for j, v in enumerate(cold.x) if v > 0],
        )
        assert warm.objective == cold.objective
        assert warm.pivots <= cold.pivots

    def test_point_hints_order(self):
        hints = _point_hints([Fraction(0), Fraction(1, 2), Fraction(3), Fraction(0)])
        assert hints == [2, 1]


class TestCheckValues:
    def test_certifies_feasible_point(self):
        lp = _knapsack_lp()
        assert lp.check_values({"x": Fraction(2), "y": Fraction(1)}) == []

    def test_detects_row_violation(self):
        lp = _knapsack_lp()
        violations = lp.check_values({"x": Fraction(2), "y": Fraction(3)})
        assert violations and "violated" in violations[0]

    def test_detects_bound_violation(self):
        lp = _knapsack_lp()
        assert lp.check_values({"x": Fraction(-1)})
        assert lp.check_values({"y": Fraction(4)})

    def test_hairline_violation_caught(self):
        # A point off by 10^-12 — invisible to float tolerances, caught
        # exactly.  This is the scipy-propagation bug the re-check closes.
        lp = LinearProgram()
        lp.add_variable("x")
        lp.add_constraint({"x": 1}, "<=", 1)
        assert lp.check_values({"x": Fraction(1)}) == []
        assert lp.check_values({"x": 1 + Fraction(1, 10**12)})


class TestFeasiblePoint:
    def test_point_is_exactly_feasible(self):
        lp = _knapsack_lp()
        for backend in ("exact", "scipy", "hybrid"):
            point = feasible_point(lp, backend=backend)
            assert point is not None
            assert lp.check_values(point) == []

    def test_none_on_infeasible(self):
        lp = LinearProgram()
        lp.add_variable("x", ub=1)
        lp.add_constraint({"x": 1}, ">=", 2)
        for backend in ("exact", "scipy", "hybrid"):
            assert feasible_point(lp, backend=backend) is None

    def test_empty_row_infeasibility(self):
        # The builders encode "job has no options" as {} == 1.
        lp = LinearProgram()
        lp.add_variable("x", ub=1)
        lp.add_constraint({}, "==", 1)
        for backend in ("exact", "scipy", "hybrid"):
            assert not is_feasible(lp, backend=backend)


class TestPivotAccounting:
    def test_pivots_reported(self):
        result = solve_standard(
            coeff_rows=[{0: Fraction(1), 1: Fraction(2)}],
            senses=["<="],
            rhs=[Fraction(4)],
            objective=[Fraction(-1), Fraction(-1)],
        )
        assert result.status == "optimal"
        assert result.pivots >= 1

    def test_unknown_backend_still_raises(self):
        lp = _knapsack_lp()
        with pytest.raises(SolverError):
            solve_lp(lp, backend="cplex")


def _assignment_lp():
    """Large enough (12 variables × 6 rows) for the hybrid float leg."""
    lp = LinearProgram()
    for j in range(12):
        lp.add_variable(("x", j), lb=0)
    for block in range(4):
        lp.add_constraint(
            {("x", j): 1 for j in range(3 * block, 3 * block + 3)}, "==", 1
        )
    lp.add_constraint({("x", j): Fraction(j + 1) for j in range(12)}, "<=", 30)
    lp.add_constraint({("x", j): 1 for j in range(0, 12, 2)}, ">=", 1)
    lp.set_objective({("x", j): Fraction((5 * j) % 7 + 1) for j in range(12)})
    return lp


def _fallback_reasons(tracer):
    return [
        sp.attrs["hybrid_fallback"]
        for sp in tracer.spans
        if "hybrid_fallback" in sp.attrs
    ]


class TestHighsFallback:
    """Only a HiGHS failure falls back to the exact solve, and it says why."""

    def test_marshaling_bug_propagates(self, monkeypatch):
        import repro.lp.scipy_backend as scipy_mod

        def broken(*args, **kwargs):
            raise RuntimeError("marshaling bug")

        monkeypatch.setattr(scipy_mod, "marshal_rows", broken)
        with pytest.raises(RuntimeError, match="marshaling bug"):
            solve_lp(_assignment_lp(), backend="hybrid")

    def test_template_bug_propagates(self, monkeypatch):
        from repro.core.programs import minimal_fractional_T
        from repro.lp.scipy_backend import FloatTemplate
        from repro.workloads import random_hierarchical, rng_from_seed

        def broken(self, active, rhs):
            raise RuntimeError("template bug")

        monkeypatch.setattr(FloatTemplate, "program", broken)
        inst = random_hierarchical(rng_from_seed(140), n=16, m=6)
        with pytest.raises(RuntimeError, match="template bug"):
            minimal_fractional_T(inst, backend="hybrid")

    def test_highs_error_falls_back_with_reason(self, monkeypatch):
        import repro.lp.scipy_backend as scipy_mod
        from repro.obs.trace import span, tracing

        lp = _assignment_lp()
        exact = solve_lp(lp, backend="exact")

        def failing(*args, **kwargs):
            raise ValueError("HiGHS exploded")

        monkeypatch.setattr(scipy_mod, "linprog", failing)
        with tracing() as tracer:
            with span("test.solve"):
                hybrid = solve_lp(lp, backend="hybrid")
        assert hybrid.status == exact.status == "optimal"
        assert hybrid.objective == exact.objective
        assert hybrid.values == exact.values
        assert _fallback_reasons(tracer) == ["highs-error: ValueError"]

    def test_highs_failure_status_falls_back_with_reason(self, monkeypatch):
        import repro.lp.scipy_backend as scipy_mod
        from scipy.optimize import OptimizeResult

        from repro.obs.trace import span, tracing

        lp = _assignment_lp()
        exact = solve_lp(lp, backend="exact")

        def struggling(*args, **kwargs):
            return OptimizeResult(status=4, message="numerical difficulties")

        monkeypatch.setattr(scipy_mod, "linprog", struggling)
        with tracing() as tracer:
            with span("test.solve"):
                hybrid = solve_lp(lp, backend="hybrid")
        assert hybrid.objective == exact.objective
        assert _fallback_reasons(tracer) == ["highs-status: 4"]

    def test_search_falls_back_to_exact_t_star(self, monkeypatch):
        import repro.lp.scipy_backend as scipy_mod
        from repro.core.programs import minimal_fractional_T
        from repro.obs.trace import tracing
        from repro.workloads import random_hierarchical, rng_from_seed

        inst = random_hierarchical(rng_from_seed(140), n=16, m=6)
        expected = minimal_fractional_T(inst, backend="exact")

        def failing(*args, **kwargs):
            raise ValueError("HiGHS exploded")

        monkeypatch.setattr(scipy_mod, "linprog", failing)
        with tracing() as tracer:
            assert minimal_fractional_T(inst, backend="hybrid") == expected
        probes = [sp for sp in tracer.spans if sp.name == "search.probe"]
        assert any(
            sp.attrs.get("hybrid_fallback") == "highs-error: ValueError"
            for sp in probes
        )


@st.composite
def random_lp(draw):
    n = draw(st.integers(1, 4))
    r = draw(st.integers(1, 4))
    rows = []
    senses = []
    rhs = []
    for _ in range(r):
        row = {
            j: Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
            for j in range(n)
            if draw(st.booleans())
        }
        rows.append(row)
        senses.append(draw(st.sampled_from(["<=", ">=", "=="])))
        rhs.append(Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 3))))
    objective = [Fraction(draw(st.integers(-3, 3))) for _ in range(n)]
    return rows, senses, rhs, objective


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(random_lp())
def test_hybrid_agrees_with_exact_exactly(data):
    """Status and optimum match to exact equality — the certification claim."""
    rows, senses, rhs, objective = data
    exact = solve_standard(rows, senses, rhs, objective)
    hybrid = solve_standard_hybrid(rows, senses, rhs, objective)
    assert exact.status == hybrid.status
    if exact.status == "optimal":
        assert exact.objective == hybrid.objective
