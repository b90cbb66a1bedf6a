"""Tests for Lemma VI.2's iterative rounding and the Section VI memory models."""

from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro import Instance, LaminarFamily, validate_schedule
from repro.core.memory import (
    harmonic,
    minimal_model1_T,
    minimal_model2_T,
    model1_lp_feasible,
    model2_lp_feasible,
    model2_rho,
    solve_model1,
    solve_model2,
)
from repro.exceptions import (
    InfeasibleError,
    InvalidInstanceError,
    RoundingCertificationError,
    RoundingError,
    SolverError,
)
from repro.rounding.iterative import PackingRow, column_rho, iterative_round
from repro.workloads import rng_from_seed


class TestHarmonic:
    def test_values(self):
        assert harmonic(1) == 1
        assert harmonic(2) == Fraction(3, 2)
        assert harmonic(4) == Fraction(25, 12)


class TestIterativeRound:
    def test_integral_input_untouched(self):
        groups = {0: [("a", 0)], 1: [("b", 1)]}
        rows = [PackingRow("r", {("a", 0): Fraction(1)}, Fraction(2))]
        result = iterative_round(groups, rows)
        assert result.values == {("a", 0): 1, ("b", 1): 1}
        assert result.dropped_rows == []

    def test_assignment_rows_exact(self):
        groups = {j: [(i, j) for i in range(3)] for j in range(4)}
        rows = [
            PackingRow(
                f"load[{i}]",
                {(i, j): Fraction(2) for j in range(4)},
                Fraction(3),
            )
            for i in range(3)
        ]
        result = iterative_round(groups, rows)
        for j in range(4):
            assert sum(result.values[(i, j)] for i in range(3)) == 1

    def test_violation_bounded_by_one_plus_rho(self):
        groups = {j: [(i, j) for i in range(2)] for j in range(4)}
        rows = [
            PackingRow(
                f"load[{i}]",
                {(i, j): Fraction(1) for j in range(4)},
                Fraction(2),
            )
            for i in range(2)
        ]
        rho = column_rho(groups, rows)
        result = iterative_round(groups, rows, rho=rho)
        assert result.max_violation_ratio <= 1 + rho

    def test_cost_never_worsens(self):
        groups = {0: [("a", 0), ("b", 0)]}
        rows = [PackingRow("r", {("a", 0): Fraction(1)}, Fraction(1))]
        costs = {("a", 0): Fraction(5), ("b", 0): Fraction(1)}
        result = iterative_round(groups, rows, costs=costs)
        assert result.objective == 1  # picks the cheap candidate

    def test_empty_group_raises(self):
        with pytest.raises(InfeasibleError):
            iterative_round({0: []}, [])

    def test_duplicate_key_across_groups_raises(self):
        with pytest.raises(RoundingError):
            iterative_round({0: [("a",)], 1: [("a",)]}, [])

    def test_infeasible_lp_raises(self):
        groups = {0: [("a", 0)]}
        rows = [PackingRow("r", {("a", 0): Fraction(5)}, Fraction(1))]
        with pytest.raises(InfeasibleError):
            iterative_round(groups, rows)

    def test_column_rho(self):
        groups = {0: [("a", 0)]}
        rows = [
            PackingRow("r1", {("a", 0): Fraction(1)}, Fraction(2)),
            PackingRow("r2", {("a", 0): Fraction(3)}, Fraction(3)),
        ]
        assert column_rho(groups, rows) == Fraction(3, 2)

    def test_negative_bound_raises(self):
        with pytest.raises(RoundingError):
            PackingRow("r", {("a", 0): Fraction(1)}, Fraction(-1))

    def test_negative_coefficient_raises(self):
        with pytest.raises(RoundingError):
            PackingRow("r", {("a", 0): Fraction(-1)}, Fraction(1))

    def test_zero_bound_rows_skipped_by_column_rho(self):
        # b = 0 rows carry no rounding slack: they are excluded from ρ
        # instead of dividing by zero.
        groups = {0: [("a", 0), ("b", 0)]}
        rows = [
            PackingRow("zero", {("a", 0): Fraction(1)}, Fraction(0)),
            PackingRow("r", {("a", 0): Fraction(1), ("b", 0): Fraction(2)}, Fraction(4)),
        ]
        assert column_rho(groups, rows) == Fraction(1, 2)

    def test_zero_bound_row_forces_exact_satisfaction(self):
        # The candidate with positive weight on the b = 0 row can never be
        # chosen; the sibling gets the assignment and usage stays 0.
        groups = {0: [("a", 0), ("b", 0)]}
        rows = [PackingRow("zero", {("a", 0): Fraction(3)}, Fraction(0))]
        result = iterative_round(groups, rows)
        assert result.values == {("a", 0): 0, ("b", 0): 1}
        assert result.row_usage["zero"] == 0
        assert result.certified_limits["zero"] == 0

    def test_zero_bound_infeasible_when_unavoidable(self):
        # Fractional (here: integral 1) weight on a zero-bound row is
        # infeasible by convention.
        groups = {0: [("a", 0)]}
        rows = [PackingRow("zero", {("a", 0): Fraction(1)}, Fraction(0))]
        with pytest.raises(InfeasibleError):
            iterative_round(groups, rows)

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(0, 10**6))
    def test_lemma_vi2_guarantee_random(self, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        m = int(rng.integers(2, 4))
        groups = {j: [(i, j) for i in range(m)] for j in range(n)}
        # Feasible by construction: bounds sized for the fractional spread.
        coeffs = {
            (i, j): Fraction(int(rng.integers(1, 5))) for i in range(m) for j in range(n)
        }
        rows = []
        for i in range(m):
            total = sum(coeffs[(i, j)] for j in range(n))
            rows.append(
                PackingRow(
                    f"r{i}",
                    {(i, j): coeffs[(i, j)] for j in range(n)},
                    max(Fraction(total, m), max(coeffs[(i, j)] for j in range(n))),
                )
            )
        rho = column_rho(groups, rows)
        result = iterative_round(groups, rows, rho=rho)
        # Lemma VI.2's claim: every packing row within (1 + ρ)·b.
        assert result.max_violation_ratio <= 1 + rho
        for j in range(n):
            assert sum(result.values[(i, j)] for i in range(m)) == 1


def _odd_cycle_program(c=3):
    """The E16 stress shape: c groups locked on a cycle of c tight rows."""
    from repro.workloads.families import fallback_stress_program

    program = fallback_stress_program(cycle=c)
    return program.groups, program.rows, program.costs


class TestSelfCertification:
    """The hardened Lemma VI.2 fallback (ISSUE 3 regression tests)."""

    def test_fallback_unreachable_at_column_rho(self):
        # With ρ = column_rho the residual rule is complete (module
        # docstring): the fallback never fires on the adversarial cycle.
        groups, rows, costs = _odd_cycle_program()
        result = iterative_round(groups, rows, costs=costs)
        assert result.fallback_drops == 0
        assert result.max_violation_ratio <= 1 + column_rho(groups, rows)

    def test_fallback_fires_and_certifies(self):
        # Declaring ρ below the column bound reaches the fallback; the
        # achieved usage still passes the (1+ρ) self-certification.
        groups, rows, costs = _odd_cycle_program()
        rho = column_rho(groups, rows) / 2
        result = iterative_round(groups, rows, costs=costs, rho=rho)
        assert result.fallback_drops > 0
        assert not result.certification_violations()
        assert all(
            result.row_usage[n] <= result.certified_limits[n]
            for n in result.row_bounds
        )

    def test_certification_violation_raises_structured(self):
        groups, rows, costs = _odd_cycle_program()
        rho = column_rho(groups, rows) / 8
        with pytest.raises(RoundingCertificationError) as excinfo:
            iterative_round(groups, rows, costs=costs, rho=rho)
        err = excinfo.value
        assert err.violations
        for name, (usage, limit, bound) in err.violations.items():
            assert usage > limit
            assert limit == (1 + rho) * bound
        assert err.result is not None and err.result.fallback_drops > 0

    def test_certify_false_returns_uncertified_result(self):
        groups, rows, costs = _odd_cycle_program()
        rho = column_rho(groups, rows) / 8
        result = iterative_round(
            groups, rows, costs=costs, rho=rho, certify=False
        )
        assert result.fallback_drops > 0
        assert result.certification_violations()
        with pytest.raises(RoundingCertificationError):
            result.certify()

    def test_certification_error_survives_pickling(self):
        # Sweep workers raise across a process pool: the structured error
        # must round-trip through pickle with its violations intact.
        import pickle

        groups, rows, costs = _odd_cycle_program()
        rho = column_rho(groups, rows) / 8
        with pytest.raises(RoundingCertificationError) as excinfo:
            iterative_round(groups, rows, costs=costs, rho=rho)
        clone = pickle.loads(pickle.dumps(excinfo.value))
        assert clone.violations == excinfo.value.violations
        assert clone.result.fallback_drops == excinfo.value.result.fallback_drops
        assert str(clone) == str(excinfo.value)

    def test_kept_rows_certified_at_their_bound(self):
        groups = {0: [("a", 0)], 1: [("b", 1)]}
        rows = [PackingRow("r", {("a", 0): Fraction(1)}, Fraction(2))]
        result = iterative_round(groups, rows)
        assert result.certified_limits == {"r": Fraction(2)}


def _e10_draws():
    """Model 1 inputs from E10's budgeted generator, a few seeds."""
    from repro.experiments.e10_memory_model1 import _budgeted_instance

    shapes = (("semi", 6, 2), ("semi", 8, 4), ("clustered", 8, 4))
    return [
        _budgeted_instance(rng_from_seed(seed), kind, n, m)
        for seed, (kind, n, m) in enumerate(shapes, start=100)
    ]


def _e11_draws():
    """Model 2 inputs from E11's uniform trees, a few seeds.

    Sizes are drawn from [1/2, 1] rather than E11's [1/8, 1/2], so that
    rows (9) move T* above (IP-3)'s on every draw.
    """
    from repro.experiments.e11_memory_model2 import _uniform_tree
    from repro.workloads.generators import monotone_instance

    draws = []
    for seed, m, n, mu in ((110, 4, 6, 2), (113, 4, 8, 2), (114, 8, 16, Fraction(5, 4))):
        rng = rng_from_seed(seed)
        inst = monotone_instance(rng, _uniform_tree(m, 2), n=n)
        sizes = [Fraction(int(rng.integers(4, 9)), 8) for _ in range(n)]
        draws.append((inst, sizes, mu))
    return draws


#: Below every minimal horizon of the tests' inputs by a hair.
_HAIR = Fraction(1, 10**9)


@pytest.fixture
def memory_instance():
    return Instance.semi_partitioned(
        p_local=[[2, 2], [2, 2], [2, 2], [2, 2]],
        p_global=[3, 3, 3, 3],
    )


class TestModel1:
    def test_round_and_schedule(self, memory_instance):
        space = [[1, 1]] * 4
        budgets = {0: 2, 1: 2}
        T = minimal_model1_T(memory_instance, space, budgets)
        result = solve_model1(memory_instance, space, budgets, T)
        assert result.makespan_ratio <= 3
        assert result.max_memory_ratio <= 3
        report = validate_schedule(
            result.instance, result.assignment, result.schedule
        )
        assert report.valid

    def test_lp_feasibility_monotone_in_T(self, memory_instance):
        """The search's T* is the LP's threshold, by the independent
        ``LinearProgram`` path, and does not depend on the backend."""
        draws = [(memory_instance, [[1, 1]] * 4, {0: 2, 1: 2})] + _e10_draws()
        for inst, space, budgets in draws:
            T = minimal_model1_T(inst, space, budgets)
            assert minimal_model1_T(inst, space, budgets, backend="exact") == T
            assert model1_lp_feasible(inst, space, budgets, T)
            assert not model1_lp_feasible(inst, space, budgets, T - _HAIR)

    def test_oversized_footprint_pruned(self, memory_instance):
        # A job whose footprint exceeds every budget cannot be placed.
        space = [[5, 5]] + [[1, 1]] * 3
        budgets = {0: 2, 1: 2}
        with pytest.raises(InfeasibleError):
            solve_model1(memory_instance, space, budgets, 10)
        with pytest.raises(InfeasibleError):
            minimal_model1_T(memory_instance, space, budgets)

    def test_global_mask_charges_all_machines(self):
        # One job forced global: its footprint counts on both machines.
        from repro import INF

        inst = Instance.semi_partitioned(p_local=[[2, 2]], p_global=[2])
        space = [[2, 2]]
        result = solve_model1(inst, space, {0: 2, 1: 2}, 2)
        j_mask = result.assignment[0]
        for i in j_mask:
            assert result.memory_usage[i] == 2

    def test_nonpositive_budget_raises(self, memory_instance):
        with pytest.raises(InvalidInstanceError):
            solve_model1(memory_instance, [[1, 1]] * 4, {0: 0, 1: 2}, 10)

    def test_kernel_keyword_accepts_only_revised(self, memory_instance):
        space, budgets = [[1, 1]] * 4, {0: 2, 1: 2}
        T = minimal_model1_T(memory_instance, space, budgets)
        plain = solve_model1(memory_instance, space, budgets, T)
        named = solve_model1(memory_instance, space, budgets, T, kernel="revised")
        assert named.makespan == plain.makespan
        for solve, args in (
            (solve_model1, (space, budgets, T)),
            (solve_model2, ([Fraction(1, 2)] * 4, 2, T)),
        ):
            with pytest.raises(SolverError):
                solve(memory_instance, *args, kernel="tableau")


class TestModel2:
    @pytest.fixture
    def tree_instance(self):
        return Instance.clustered(
            2,
            p_local=[[2, 2, 2, 2]] * 4,
            p_cluster=[[3, 3]] * 4,
            p_global=[4] * 4,
        )

    def test_rho_values(self, tree_instance, memory_instance):
        # k = 3 levels: ρ = 1 + H_3 = 1 + 11/6.
        assert model2_rho(tree_instance) == 1 + harmonic(3)
        # k = 2 levels: the tighter 2 + 1/m.
        assert model2_rho(memory_instance) == 2 + Fraction(1, 2)

    def test_sigma_guarantees(self, tree_instance):
        sizes = [Fraction(1, 2)] * 4
        T = minimal_model2_T(tree_instance, sizes, 2)
        result = solve_model2(tree_instance, sizes, 2, T)
        assert result.sigma == 2 + harmonic(3)
        assert result.makespan_ratio <= result.sigma
        assert result.max_memory_ratio <= result.sigma
        assert validate_schedule(
            result.instance, result.assignment, result.schedule
        ).valid

    def test_semi_partitioned_sigma_3_plus_1_over_m(self, memory_instance):
        sizes = [Fraction(1, 4)] * 4
        T = minimal_model2_T(memory_instance, sizes, 2)
        result = solve_model2(memory_instance, sizes, 2, T)
        assert result.sigma == 3 + Fraction(1, 2)
        assert result.makespan_ratio <= result.sigma
        assert result.max_memory_ratio <= result.sigma

    def test_root_unbounded(self, tree_instance):
        sizes = [1] * 4
        root = frozenset(range(4))
        T = minimal_model2_T(tree_instance, sizes, Fraction(3, 2))
        result = solve_model2(tree_instance, sizes, Fraction(3, 2), T)
        assert root not in result.capacities

    def test_lp_feasibility_monotone_in_T(self, tree_instance):
        """As for Model 1: T* is the threshold of the independent LP path,
        identical under both certified backends."""
        draws = [(tree_instance, [Fraction(1, 2)] * 4, 2)] + _e11_draws()
        for inst, sizes, mu in draws:
            T = minimal_model2_T(inst, sizes, mu)
            assert minimal_model2_T(inst, sizes, mu, backend="exact") == T
            assert model2_lp_feasible(inst, sizes, mu, T)
            assert not model2_lp_feasible(inst, sizes, mu, T - _HAIR)

    def test_job_size_above_one_rejected(self, tree_instance):
        with pytest.raises(InvalidInstanceError):
            solve_model2(tree_instance, [2] * 4, 2, 10)

    def test_mu_at_most_one_rejected(self, tree_instance):
        with pytest.raises(InvalidInstanceError):
            solve_model2(tree_instance, [Fraction(1, 2)] * 4, 1, 10)

    def test_forest_rejected(self):
        fam = LaminarFamily([0, 1, 2, 3], [[0, 1], [2, 3], [0], [1], [2], [3]])
        inst = Instance(
            fam,
            {0: {frozenset({0}): 1, frozenset({1}): 1, frozenset({0, 1}): 1}},
            validate=False,
        )
        with pytest.raises(InvalidInstanceError):
            solve_model2(inst, [Fraction(1, 2)], 2, 5)

    def test_memory_pressure_forces_spreading(self):
        # Tight leaf capacities push jobs to bigger masks despite the cost.
        inst = Instance.clustered(
            2,
            p_local=[[1, 1, 1, 1]] * 4,
            p_cluster=[[2, 2]] * 4,
            p_global=[3] * 4,
        )
        sizes = [1, 1, 1, 1]
        mu = Fraction(3, 2)
        # Leaf capacity µ^0 = 1: one job per singleton; cluster µ^1 = 3/2.
        T = minimal_model2_T(inst, sizes, mu)
        result = solve_model2(inst, sizes, mu, T)
        assert result.max_memory_ratio <= result.sigma


class TestModel1Exact:
    def test_exact_respects_budgets_strictly(self, memory_instance):
        from repro.core.memory import solve_model1_exact

        space = [[1, 1]] * 4
        budgets = {0: 2, 1: 2}
        T_opt, assignment = solve_model1_exact(memory_instance, space, budgets)
        assert T_opt == 4  # two jobs per machine, locals of length 2
        for i in budgets:
            used = sum(space[j][i] for j, a in assignment.items() if i in a)
            assert used <= budgets[i]

    def test_exact_infeasible_budgets_raise(self, memory_instance):
        from repro.core.memory import solve_model1_exact
        from repro.exceptions import InfeasibleError

        space = [[3, 3]] * 4
        with pytest.raises(InfeasibleError):
            solve_model1_exact(memory_instance, space, {0: 2, 1: 2})

    def test_bicriteria_within_3x_of_exact(self):
        from repro.core.memory import minimal_model1_T, solve_model1, solve_model1_exact
        from repro.exceptions import InfeasibleError
        from repro.workloads import random_semi_partitioned, rng_from_seed

        rng = rng_from_seed(88)
        checked = 0
        for _ in range(4):
            inst = random_semi_partitioned(rng, n=4, m=2)
            space = [[int(rng.integers(1, 3)) for _ in range(2)] for _ in range(4)]
            budgets = {0: 4, 1: 4}
            try:
                T_opt, _a = solve_model1_exact(inst, space, budgets)
                T_lp = minimal_model1_T(inst, space, budgets)
                result = solve_model1(inst, space, budgets, T_lp)
            except InfeasibleError:
                continue
            checked += 1
            # The LP horizon lower-bounds the constrained optimum, and the
            # rounded makespan is within 3 of it — hence within 3 of T_opt.
            assert T_lp <= T_opt
            assert result.makespan <= 3 * T_opt
        assert checked > 0
