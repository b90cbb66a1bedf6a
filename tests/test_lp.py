"""Tests for the LP substrate: model builder, exact simplex, scipy backend."""

from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.exceptions import SolverError
from repro.lp import LinearProgram, solve_binary_ilp, solve_lp, solve_standard
from repro.lp.scipy_backend import solve_standard_float
from repro.lp.solve import is_feasible


class TestModelBuilder:
    def test_duplicate_variable_raises(self):
        lp = LinearProgram()
        lp.add_variable("x")
        with pytest.raises(SolverError):
            lp.add_variable("x")

    def test_unknown_sense_raises(self):
        lp = LinearProgram()
        lp.add_variable("x")
        with pytest.raises(SolverError):
            lp.add_constraint({"x": 1}, "<", 1)

    def test_zero_coefficients_dropped(self):
        lp = LinearProgram()
        lp.add_variable("x")
        lp.add_variable("y")
        lp.add_constraint({"x": 1, "y": 0}, "<=", 1)
        assert lp.rows[0].coeffs == {0: 1}

    def test_nonzero_lower_bound_rejected_in_standard_form(self):
        lp = LinearProgram()
        lp.add_variable("x", lb=1)
        with pytest.raises(SolverError):
            lp.to_standard_rows()

    def test_upper_bounds_become_rows(self):
        lp = LinearProgram()
        lp.add_variable("x", ub=3)
        rows, senses, rhs, obj = lp.to_standard_rows()
        assert senses == ["<="]
        assert rhs == [3]

    def test_objective_coeffs_roundtrip(self):
        lp = LinearProgram()
        lp.add_variable("x")
        lp.set_objective({"x": Fraction(2, 3)})
        assert lp.objective_coeffs == {"x": Fraction(2, 3)}


class TestExactSimplex:
    def test_known_optimum(self):
        # max x+y st x+2y<=4, 3x+y<=6 → min -(x+y); opt at (8/5, 6/5): -14/5.
        result = solve_standard(
            coeff_rows=[{0: Fraction(1), 1: Fraction(2)}, {0: Fraction(3), 1: Fraction(1)}],
            senses=["<=", "<="],
            rhs=[Fraction(4), Fraction(6)],
            objective=[Fraction(-1), Fraction(-1)],
        )
        assert result.status == "optimal"
        assert result.objective == Fraction(-14, 5)
        assert result.x == [Fraction(8, 5), Fraction(6, 5)]

    def test_equality_constraints(self):
        result = solve_standard(
            coeff_rows=[{0: Fraction(1), 1: Fraction(1)}],
            senses=["=="],
            rhs=[Fraction(5)],
            objective=[Fraction(1), Fraction(2)],
        )
        assert result.objective == 5  # all weight on x0

    def test_negative_rhs_normalized(self):
        # -x <= -2 means x >= 2.
        result = solve_standard(
            coeff_rows=[{0: Fraction(-1)}],
            senses=["<="],
            rhs=[Fraction(-2)],
            objective=[Fraction(1)],
        )
        assert result.objective == 2

    def test_infeasible(self):
        result = solve_standard(
            coeff_rows=[{0: Fraction(1)}, {0: Fraction(1)}],
            senses=["<=", ">="],
            rhs=[Fraction(1), Fraction(2)],
            objective=[Fraction(0)],
        )
        assert result.status == "infeasible"

    def test_unbounded(self):
        result = solve_standard(
            coeff_rows=[],
            senses=[],
            rhs=[],
            objective=[Fraction(-1)],
        )
        assert result.status == "unbounded"

    def test_degenerate_redundant_rows(self):
        # Duplicate equality rows leave an artificial basic at zero.
        result = solve_standard(
            coeff_rows=[{0: Fraction(1)}, {0: Fraction(1)}],
            senses=["==", "=="],
            rhs=[Fraction(3), Fraction(3)],
            objective=[Fraction(1)],
        )
        assert result.status == "optimal"
        assert result.x == [Fraction(3)]

    def test_basic_solution_support_bound(self):
        # A vertex has at most (#rows) nonzeros.
        rows = [{j: Fraction(1) for j in range(6)}, {0: Fraction(1), 3: Fraction(2)}]
        result = solve_standard(
            coeff_rows=rows,
            senses=["==", "<="],
            rhs=[Fraction(4), Fraction(3)],
            objective=[Fraction(0)] * 6,
        )
        assert result.status == "optimal"
        assert sum(1 for v in result.x if v != 0) <= 2


@st.composite
def random_lp(draw):
    n = draw(st.integers(1, 4))
    r = draw(st.integers(1, 4))
    rows = []
    senses = []
    rhs = []
    for _ in range(r):
        row = {
            j: Fraction(draw(st.integers(-4, 4)))
            for j in range(n)
            if draw(st.booleans())
        }
        rows.append(row)
        senses.append(draw(st.sampled_from(["<=", ">=", "=="])))
        rhs.append(Fraction(draw(st.integers(-6, 6))))
    objective = [Fraction(draw(st.integers(-3, 3))) for _ in range(n)]
    return rows, senses, rhs, objective


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(random_lp())
def test_exact_simplex_agrees_with_scipy(data):
    rows, senses, rhs, objective = data
    exact = solve_standard(rows, senses, rhs, objective)
    floaty = solve_standard_float(rows, senses, rhs, objective)
    assert exact.status == floaty.status
    if exact.status == "optimal":
        assert abs(float(exact.objective) - float(floaty.objective)) < 1e-6


class TestSolveLP:
    def test_backend_dispatch(self):
        lp = LinearProgram()
        lp.add_variable("x", ub=2)
        lp.set_objective({"x": -1})
        for backend in ("exact", "scipy"):
            solution = solve_lp(lp, backend=backend)
            assert solution.value("x") == 2

    def test_unknown_backend_raises(self):
        lp = LinearProgram()
        lp.add_variable("x")
        with pytest.raises(SolverError):
            solve_lp(lp, backend="gurobi")

    def test_is_feasible(self):
        lp = LinearProgram()
        lp.add_variable("x", ub=1)
        lp.add_constraint({"x": 1}, ">=", 2)
        assert not is_feasible(lp)


class TestBranchAndBound:
    def test_binary_knapsack(self):
        # min -(4a + 3b + 2c) st 2a+2b+c <= 3, binary → a + c = -6.
        lp = LinearProgram()
        for name, value in (("a", -4), ("b", -3), ("c", -2)):
            lp.add_variable(name, ub=1, integral=True)
        lp.add_constraint({"a": 2, "b": 2, "c": 1}, "<=", 3)
        lp.set_objective({"a": -4, "b": -3, "c": -2})
        result = solve_binary_ilp(lp)
        assert result.objective == -6
        assert result.values["a"] == 1 and result.values["c"] == 1

    def test_mixed_continuous_binary(self):
        lp = LinearProgram()
        lp.add_variable("x", ub=1, integral=True)
        lp.add_variable("y", ub=Fraction(5, 2))
        lp.add_constraint({"x": 2, "y": 1}, "<=", 3)
        lp.set_objective({"x": -3, "y": -1})
        result = solve_binary_ilp(lp)
        assert result.objective == -4  # x=1, y=1

    def test_infeasible(self):
        lp = LinearProgram()
        lp.add_variable("x", ub=1, integral=True)
        lp.add_constraint({"x": 1}, ">=", 2)
        assert solve_binary_ilp(lp).status == "infeasible"

    def test_bad_binary_bounds_raise(self):
        lp = LinearProgram()
        lp.add_variable("x", ub=2, integral=True)
        with pytest.raises(SolverError):
            solve_binary_ilp(lp)

    def test_lp_gap_instance(self):
        # The LP relaxation is fractional-friendly; the ILP optimum is -1.
        lp = LinearProgram()
        lp.add_variable("x", ub=1, integral=True)
        lp.add_variable("y", ub=1, integral=True)
        lp.add_constraint({"x": 1, "y": 1}, "<=", 1)
        lp.add_constraint({"x": -1, "y": 1}, "<=", 0)
        lp.set_objective({"x": -1, "y": -1})
        result = solve_binary_ilp(lp)
        assert result.objective == -1
        values = result.values
        assert values["x"] + values["y"] <= 1
