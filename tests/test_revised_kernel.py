"""Tests for the exact revised simplex, the LU basis, and the probe pipeline.

Covers:

* agreement with the brute-force vertex-enumeration oracle of
  ``lp_oracle.py`` (status, objective, lex-min vertex) on LPs drawn from
  **every** workload family, plus hypothesis LPs;
* warm-start edge cases — degenerate hints with no positive ratio, a failed
  crash falling back to ratio-test pushes, Farkas-dual seeding across an
  infeasible→feasible probe pair;
* the structured pivot budget (:class:`~repro.exceptions.PivotLimitError`)
  and the ``bland_threshold``/``max_pivots`` parameters;
* hybrid certification still rejecting corrupted candidates under the
  factorized-basis verifier.
"""

from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.programs import IP3Builder, minimal_fractional_T, _ProbeSession
from repro.exceptions import PivotLimitError, SolverError
from repro.lp import (
    LUBasis,
    LinearProgram,
    SolverStats,
    collect_stats,
    farkas_certifies,
    solve_lp,
    solve_standard,
)
from repro.core.instance import Instance
from repro.lp.certificates import denormalize_farkas
from repro.lp.simplex import standard_form
from repro.lp.solve import check_standard_rows, feasible_point_rows
from repro.workloads import FAMILIES, make_instance, make_topology, rng_from_seed

from lp_oracle import oracle_solve


def _assert_matches_oracle(rows, senses, rhs, objective):
    """Status and objective match brute-force enumeration, and so does the
    ``canonical="lex"`` vertex; infeasibility comes with a verified proof."""
    status, value, vertex = oracle_solve(rows, senses, rhs, objective)
    result = solve_standard(rows, senses, rhs, objective)
    lex = solve_standard(rows, senses, rhs, objective, canonical="lex")
    assert result.status == lex.status == status
    if status == "optimal":
        assert result.objective == lex.objective == value
        assert lex.x == vertex  # identical vertex, not just identical value
    elif status == "infeasible":
        assert farkas_certifies(rows, senses, rhs, result.farkas)


class TestOracleAndScipyAgreement:
    def test_all_workload_families(self):
        """IP-3 LPs from every family (first job, so enumeration stays
        small): the solver agrees with the oracle, feasibility and cost."""
        topo = make_topology("flat4")
        for i, name in enumerate(sorted(FAMILIES)):
            full = make_instance(name, rng_from_seed(900 + i), topo, n=1)
            inst = Instance(full.family, lambda j, alpha: full.p(j, alpha), n=1)
            builder = IP3Builder(inst)
            for T in (builder.breakpoints[0], builder.breakpoints[-1]):
                rows, senses, rhs, active = builder.probe_rows(T)
                for c in (Fraction(0), Fraction(1)):
                    objective = [c] * len(active)
                    _assert_matches_oracle(rows, senses, rhs, objective)

    def test_t_star_matches_across_kernels_and_families(self):
        """T* of the revised (exact) and float (scipy) backends agree."""
        topo = make_topology("smp2x2x2")
        for i, name in enumerate(sorted(FAMILIES)):
            inst = make_instance(name, rng_from_seed(40 + i), topo, n=5)
            t_exact = minimal_fractional_T(inst, backend="exact")
            assert minimal_fractional_T(inst, backend="scipy") == t_exact

    def test_partial_pricing_same_value(self):
        """Partial pricing may pick another vertex, never another optimum."""
        topo = make_topology("flat4")
        inst = make_instance("heavy_tailed", rng_from_seed(7), topo, n=6)
        builder = IP3Builder(inst)
        rows, senses, rhs, active = builder.probe_rows(builder.breakpoints[-1])
        objective = [Fraction(1)] * len(active)
        full = solve_standard(rows, senses, rhs, objective, pricing="dantzig")
        part = solve_standard(rows, senses, rhs, objective, pricing="partial")
        assert full.status == part.status == "optimal"
        assert full.objective == part.objective
        # Both are vertices: support bounded by the row count.
        assert sum(1 for v in part.x if v) <= len(rows)

    def test_unknown_pricing_rejected(self):
        for pricing in ("newton", "steepest"):
            with pytest.raises(SolverError):
                solve_standard([], [], [], [Fraction(1)], pricing=pricing)


@st.composite
def random_lp(draw):
    n = draw(st.integers(1, 4))
    r = draw(st.integers(1, 4))
    rows, senses, rhs = [], [], []
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
def test_matches_oracle_on_random_lps(data):
    _assert_matches_oracle(*data)


class TestLUBasis:
    def test_factorize_identity_roundtrip(self):
        cols = [{0: 2, 1: 1}, {1: 3}, {0: 1, 2: 5}]
        b = [4, 6, 10]
        lub = LUBasis.factorize(3, cols, b)
        assert lub is not None
        # B · x = b with x = rhs/den: verify column-wise.
        for r in range(3):
            lhs = sum(cols[c].get(r, 0) * lub.rhs[c] for c in range(3))
            assert lhs == b[r] * lub.den

    def test_factorize_singular_returns_none(self):
        cols = [{0: 1, 1: 1}, {0: 2, 1: 2}, {2: 1}]
        assert LUBasis.factorize(3, cols, [1, 2, 3]) is None

    def test_ftran_btran_consistency(self):
        cols = [{0: 3, 1: 1}, {1: 2, 2: 1}, {2: 4}]
        lub = LUBasis.factorize(3, cols, [1, 1, 1])
        probe = {0: 5, 2: 7}
        alpha = lub.ftran(probe)
        # W·a and c·W agree with a direct elementwise evaluation (rows may
        # be stored sparse: read entries through row_items).
        w = [dict(lub.row_items(i)) for i in range(3)]
        for i in range(3):
            assert alpha[i] == sum(
                w[i].get(k, 0) * v for k, v in probe.items()
            )
        y = lub.btran({0: 2, 2: -1})
        for j in range(3):
            assert y[j] == 2 * w[0].get(j, 0) - w[2].get(j, 0)

    def test_refactorize_is_canonical(self):
        """A from-scratch refactorization reproduces the updated state."""
        cols = [{0: 2, 1: 1}, {1: 3, 2: 1}, {0: 1, 2: 2}]
        b = [3, 5, 7]
        lub = LUBasis.factorize(3, cols, b)
        den = lub.den
        inv = [dict(lub.row_items(i)) for i in range(3)]
        rhs = lub.rhs[:]
        assert lub.refactorize(cols, b)
        assert lub.den == den
        assert [dict(lub.row_items(i)) for i in range(3)] == inv
        assert lub.rhs == rhs
        assert lub.refactorizations == 1


class TestWarmStartEdgeCases:
    def test_degenerate_hint_no_positive_ratio(self):
        """A hint column with no positive entry is skipped harmlessly."""
        # x0 only appears with negative coefficient in a <= row: its
        # transformed column has no positive ratio; pushing it must not
        # corrupt the solve.
        rows = [{0: Fraction(-1), 1: Fraction(1)}]
        senses = ["<="]
        rhs = [Fraction(2)]
        objective = [Fraction(0), Fraction(-1)]
        result = solve_standard(rows, senses, rhs, objective, warm_hints=[0])
        assert result.status == "unbounded"

    def test_bad_warm_point_repaired(self):
        """An infeasible warm point costs pivots, never correctness."""
        lp = LinearProgram()
        lp.add_variable("x", ub=2)
        lp.add_variable("y", ub=3)
        lp.add_constraint({"x": 1, "y": 2}, "<=", 4)
        lp.set_objective({"x": -1, "y": -1})
        good = solve_lp(lp, backend="exact")
        bad = solve_lp(
            lp, backend="exact",
            warm_values={"x": Fraction(100), "y": Fraction(100)},
        )
        assert bad.status == "optimal"
        assert bad.objective == good.objective

    def test_crash_hit_skips_phase1(self):
        """A feasible warm point factorizes straight past phase 1."""
        rows = [
            {j: Fraction(1) for j in range(4)},
            {0: Fraction(2), 1: Fraction(1)},
        ]
        senses = ["==", "<="]
        rhs = [Fraction(2), Fraction(3)]
        objective = [Fraction(1), Fraction(2), Fraction(3), Fraction(4)]
        cold = solve_standard(rows, senses, rhs, objective)
        warm = solve_standard(rows, senses, rhs, objective, warm_point=cold.x)
        assert warm.status == "optimal" and warm.objective == cold.objective
        assert warm.stats.warm_start_hits == 1
        assert warm.stats.phase1_pivots == 0
        assert warm.pivots <= cold.pivots

    def test_farkas_seeding_infeasible_to_feasible_probe_pair(self):
        """The pipeline's certificate survives exactly while T is infeasible."""
        inst = make_instance(
            "near_critical", rng_from_seed(11), make_topology("clustered4x2"), n=6
        )
        builder = IP3Builder(inst)
        t_star = minimal_fractional_T(inst, backend="exact")
        points = builder.breakpoints
        # Infeasible horizons at which every job still has an option (the
        # structurally-infeasible ones are decided without an LP and thus
        # without a certificate).
        infeasible_ts = [
            t
            for t in points
            if t < t_star
            and all(
                any(builder.var_p[gi] <= t for gi in group)
                for group in builder.assign_template
            )
        ][-2:]
        feasible_t = next(t for t in points if t >= t_star)
        if not infeasible_ts:
            pytest.skip("no LP-infeasible breakpoint below T*")
        session = _ProbeSession(builder, "exact")
        # First infeasible probe solves and stores a verified certificate.
        assert session.probe(infeasible_ts[0]) is None
        assert session.farkas is not None
        rows0 = builder.probe_rows(infeasible_ts[0])[:3]
        assert farkas_certifies(*rows0, session.farkas)
        # Second infeasible probe is answered by certificate reuse when the
        # certificate transfers (and by a fresh solve otherwise) — either
        # way the verdict is infeasible.
        with collect_stats() as stats:
            assert session.probe(infeasible_ts[-1]) is None
        assert stats.farkas_reuses + stats.solves >= 1
        # The feasible side of the pair: the stale certificate must NOT
        # certify the feasible LP, and the probe must find a point.
        rows1 = builder.probe_rows(feasible_t)[:3]
        assert not farkas_certifies(*rows1, session.farkas)
        point = session.probe(feasible_t)
        assert point is not None
        coeff, senses, rhs, active = builder.probe_rows(feasible_t)
        dense = [Fraction(0)] * len(active)
        for li, gi in enumerate(active):
            dense[li] = point.get(gi, Fraction(0))
        assert check_standard_rows(coeff, senses, rhs, dense)

    def test_point_reuse_across_probes(self):
        """A downward probe inside the feasible region reuses the point."""
        inst = make_instance(
            "density", rng_from_seed(3), make_topology("flat4"), n=5
        )
        builder = IP3Builder(inst)
        points = builder.breakpoints
        session = _ProbeSession(builder, "exact")
        assert session.probe(points[-1]) is not None
        with collect_stats() as stats:
            verdict = session.probe(points[-1])  # same horizon: trivial reuse
        assert verdict is not None
        assert stats.point_reuses == 1 and stats.solves == 0


class TestPivotBudget:
    def test_structured_error_fields(self):
        rows = [{0: Fraction(1), 1: Fraction(1)}, {0: Fraction(1)}]
        senses = ["==", "<="]
        rhs = [Fraction(1), Fraction(1)]
        objective = [Fraction(-1), Fraction(1)]
        with pytest.raises(PivotLimitError) as err:
            solve_standard(rows, senses, rhs, objective, max_pivots=1)
        assert err.value.budget == 1
        assert err.value.pivots == 2
        assert err.value.kernel == "revised"
        assert err.value.phase in (1, 2)

    def test_default_budget_solves_fine(self):
        rows = [{0: Fraction(1)}]
        result = solve_standard(rows, ["<="], [Fraction(1)], [Fraction(-1)])
        assert result.status == "optimal"

    def test_bland_threshold_zero_still_terminates(self):
        """Bland-from-pivot-0 is slower but exact — a pure safety rule."""
        rows = [
            {0: Fraction(1), 1: Fraction(2), 2: Fraction(1)},
            {0: Fraction(3), 1: Fraction(1)},
        ]
        senses = ["<=", "<="]
        rhs = [Fraction(4), Fraction(6)]
        objective = [Fraction(-1), Fraction(-1), Fraction(-1)]
        a = solve_standard(rows, senses, rhs, objective, bland_threshold=0)
        b = solve_standard(rows, senses, rhs, objective)
        assert a.status == b.status == "optimal"
        assert a.objective == b.objective


class TestHybridCertification:
    def test_corrupted_candidate_rejected(self, monkeypatch):
        """A wrong float candidate is repaired by the exact verifier."""
        import repro.lp.hybrid as hybrid_mod
        from repro.lp.simplex import SimplexResult

        lp = LinearProgram()
        for j in range(10):
            lp.add_variable(("x", j), lb=0)
        lp.add_constraint({("x", j): 1 for j in range(10)}, "==", 1)
        lp.add_constraint(
            {("x", j): Fraction(j + 1) for j in range(10)}, "<=", 3
        )
        lp.set_objective({("x", j): Fraction(j + 1) for j in range(10)})

        def corrupted(coeff_rows, senses, rhs, objective):
            # Claims optimality at a wildly infeasible point.
            return SimplexResult(
                "optimal", [Fraction(5)] * len(objective), Fraction(0), None
            )

        monkeypatch.setattr(hybrid_mod, "float_candidate", corrupted)
        monkeypatch.setattr(hybrid_mod, "_FLOAT_SIZE_CUTOFF", 0)
        solution = solve_lp(lp, backend="hybrid")
        assert solution.is_optimal
        assert solution.objective == Fraction(1)  # true optimum: all on x0

    def test_corrupted_infeasibility_claim_rejected(self, monkeypatch):
        import repro.lp.hybrid as hybrid_mod
        from repro.lp.simplex import SimplexResult

        lp = LinearProgram()
        for j in range(8):
            lp.add_variable(("x", j), lb=0)
        lp.add_constraint({("x", j): 1 for j in range(8)}, "==", 1)

        def lying(coeff_rows, senses, rhs, objective):
            return SimplexResult("infeasible", [], None, None)

        monkeypatch.setattr(hybrid_mod, "float_candidate", lying)
        monkeypatch.setattr(hybrid_mod, "_FLOAT_SIZE_CUTOFF", 0)
        # certify_infeasible cannot produce a proof for a feasible program,
        # so the exact solver re-derives the true verdict.
        solution = solve_lp(lp, backend="hybrid")
        assert solution.is_optimal


    def _attack_search(self, monkeypatch, fake):
        """``minimal_fractional_T`` with *fake* as the float candidate on
        every probe and min-T solve; returns (T*, templated calls)."""
        import repro.lp.hybrid as hybrid_mod
        from repro.workloads import random_hierarchical

        inst = random_hierarchical(rng_from_seed(140), n=16, m=6)
        expected = minimal_fractional_T(inst, backend="exact")
        templated = []

        def spy(coeff_rows, senses, rhs, objective, program=None):
            if program is not None:
                templated.append(program)
            return fake(objective)

        monkeypatch.setattr(hybrid_mod, "float_candidate", spy)
        assert minimal_fractional_T(inst, backend="hybrid") == expected
        return templated

    def test_search_rejects_optimality_at_infeasible_point(self, monkeypatch):
        """Probe and min-T candidates claiming optimality at an infeasible
        point are re-checked and repaired: T* is the exact backend's."""
        from repro.lp.simplex import SimplexResult

        templated = self._attack_search(
            monkeypatch,
            lambda objective: SimplexResult(
                "optimal", [Fraction(5)] * len(objective), Fraction(0), None
            ),
        )
        assert templated  # the probes' template path was attacked

    def test_search_rejects_false_infeasibility(self, monkeypatch):
        """A false "infeasible" never ends a probe without an exact Farkas
        certificate: T* is the exact backend's."""
        from repro.lp.simplex import SimplexResult

        templated = self._attack_search(
            monkeypatch,
            lambda objective: SimplexResult("infeasible", [], None, None),
        )
        assert templated


class TestCertificates:
    def test_denormalize_flips_negative_rhs_rows(self):
        y = [Fraction(1), Fraction(2)]
        out = denormalize_farkas(y, [Fraction(-3), Fraction(3)])
        assert out == [Fraction(-1), Fraction(2)]

    def test_farkas_rejects_wrong_length_and_signs(self):
        rows = [{0: Fraction(1)}]
        assert not farkas_certifies(rows, ["<="], [Fraction(1)], [])
        # y > 0 on a <= row violates the sign condition.
        assert not farkas_certifies(rows, ["<="], [Fraction(1)], [Fraction(1)])

    def test_feasible_point_rows_returns_certificate(self):
        rows = [{0: Fraction(1)}, {0: Fraction(1)}]
        senses = [">=", "<="]
        rhs = [Fraction(3), Fraction(1)]
        point, farkas = feasible_point_rows(rows, senses, rhs, 1, backend="exact")
        assert point is None and farkas is not None
        assert farkas_certifies(rows, senses, rhs, farkas)


class TestStatsPlumbing:
    def test_lp_solution_carries_stats(self):
        lp = LinearProgram()
        lp.add_variable("x", ub=1)
        lp.set_objective({"x": -1})
        solution = solve_lp(lp, backend="exact")
        assert isinstance(solution.stats, SolverStats)
        assert solution.stats.solves == 1

    def test_collect_stats_nested_scopes(self):
        lp = LinearProgram()
        lp.add_variable("x", ub=1)
        lp.set_objective({"x": -1})
        with collect_stats() as outer:
            solve_lp(lp, backend="exact")
            with collect_stats() as inner:
                solve_lp(lp, backend="exact")
        assert inner.solves == 1
        assert outer.solves == 2
        assert "solves" in outer.render()

    def test_profile_cli_flag(self, capsys):
        from repro.cli import main

        assert main(["solve", "--demo", "ii1", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "solver profile:" in out
        assert "pivots" in out

    def test_kernel_cli_flag_is_gone(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["experiments", "e01", "--kernel", "revised"])


def test_standard_form_unchanged_contract():
    """The shared standard form still sign-normalizes rows to b ≥ 0."""
    std = standard_form(
        [{0: Fraction(1)}], ["<="], [Fraction(-2)], [Fraction(0)]
    )
    assert std.senses == [">="]
    assert std.rhs == [Fraction(2)]
