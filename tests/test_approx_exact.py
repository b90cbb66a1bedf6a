"""Tests for the Theorem V.2 2-approximation and the exact solver."""

from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro import (
    Instance,
    LaminarFamily,
    minimal_fractional_T,
    solve_exact,
    two_approximation,
    validate_schedule,
)
from repro.exceptions import InfeasibleError, SolverError
from repro.workloads import (
    example_ii1,
    example_v1,
    example_v1_optimal_assignment,
    random_hierarchical,
    random_semi_partitioned,
    rng_from_seed,
)


class TestSolveExact:
    def test_example_ii1_optimum(self, instance_ii1):
        result = solve_exact(instance_ii1)
        assert result.optimum == 2
        assert result.assignment[2] == frozenset({0, 1})

    def test_example_v1_series(self):
        for n in (3, 4, 6):
            inst = example_v1(n)
            result = solve_exact(inst)
            assert result.optimum == n - 1
            _opt_assign, opt = example_v1_optimal_assignment(n)
            assert result.optimum == opt

    def test_schedule_buildable(self, instance_ii1):
        result = solve_exact(instance_ii1)
        schedule = result.build_schedule(instance_ii1)
        assert validate_schedule(instance_ii1, result.assignment, schedule).valid

    def test_matches_brute_force_on_tiny_instances(self):
        from itertools import product

        from repro.core.assignment import Assignment, min_T_for_assignment

        rng = rng_from_seed(21)
        for _ in range(5):
            inst = random_hierarchical(rng, n=3, m=3)
            sets = inst.family.sets
            best = None
            for combo in product(range(len(sets)), repeat=3):
                try:
                    a = Assignment({j: sets[combo[j]] for j in range(3)})
                    T = min_T_for_assignment(inst, a)
                except Exception:
                    continue
                if best is None or T < best:
                    best = T
            assert solve_exact(inst).optimum == best

    def test_upper_bound_hint_does_not_change_result(self, instance_ii1):
        plain = solve_exact(instance_ii1)
        hinted = solve_exact(instance_ii1, upper_bound=10)
        assert plain.optimum == hinted.optimum

    def test_upper_bound_is_inclusive(self):
        # The 2-approximation's makespan is optimal on this draw; passing it
        # as the bound must still find the optimum.
        inst = random_hierarchical(rng_from_seed(1), n=6, m=4)
        makespan = two_approximation(inst).makespan
        plain = solve_exact(inst)
        assert plain.optimum == makespan
        hinted = solve_exact(inst, upper_bound=makespan)
        assert hinted.optimum == plain.optimum
        assert hinted.assignment == plain.assignment
        assert hinted.nodes_explored <= plain.nodes_explored

    def test_upper_bound_below_optimum_raises(self):
        inst = random_hierarchical(rng_from_seed(1), n=6, m=4)
        opt = solve_exact(inst).optimum
        with pytest.raises(InfeasibleError):
            solve_exact(inst, upper_bound=opt - Fraction(1, 10**9))

    def test_infeasible_job_raises(self):
        from repro import INF

        fam = LaminarFamily.global_only(2)
        inst = Instance(fam, {0: {frozenset({0, 1}): INF}})
        with pytest.raises(InfeasibleError):
            solve_exact(inst)

    def test_node_limit(self):
        rng = rng_from_seed(3)
        inst = random_hierarchical(rng, n=8, m=4)
        with pytest.raises(SolverError):
            solve_exact(inst, node_limit=2)


class TestTwoApproximation:
    def test_example_ii1(self, instance_ii1):
        result = two_approximation(instance_ii1)
        assert result.T_lp == 2
        assert result.makespan <= result.bound
        assert result.ratio_vs_lp <= 2

    def test_schedule_valid_in_extended_instance(self, instance_ii1):
        result = two_approximation(instance_ii1)
        report = validate_schedule(result.instance, result.assignment, result.schedule)
        assert report.valid

    def test_original_masks_map_back(self, instance_ii1):
        result = two_approximation(instance_ii1)
        masks = result.original_masks()
        for j in masks:
            assert masks[j] in instance_ii1.family

    def test_pushdown_certificate_path(self, instance_ii1):
        result = two_approximation(instance_ii1, use_pushdown_certificate=True)
        assert result.makespan <= 2 * result.T_lp

    def test_family_without_singletons(self):
        # Theorem V.2 requires the w.l.o.g. singleton completion; check the
        # pipeline performs it internally.
        fam = LaminarFamily([0, 1], [[0, 1]])
        inst = Instance(fam, {0: {frozenset({0, 1}): 4}, 1: {frozenset({0, 1}): 4}})
        result = two_approximation(inst)
        assert result.makespan <= result.bound
        assert result.instance.family.has_all_singletons

    def test_identical_machines_load_balance(self):
        inst = Instance.identical(3, [5, 5, 5])
        result = two_approximation(inst)
        # T* = 5; each job lands alone on a machine: makespan exactly 5.
        assert result.T_lp == 5
        assert result.makespan == 5

    def test_scipy_backend(self, instance_ii1):
        result = two_approximation(instance_ii1, backend="scipy")
        assert result.makespan <= result.bound

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(0, 10**6))
    def test_theorem_v2_bound_random_semi_partitioned(self, seed):
        rng = rng_from_seed(seed)
        inst = random_semi_partitioned(
            rng, n=int(rng.integers(2, 6)), m=int(rng.integers(2, 4))
        )
        result = two_approximation(inst)
        assert result.makespan <= 2 * result.T_lp
        report = validate_schedule(result.instance, result.assignment, result.schedule)
        assert report.valid

    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(0, 10**6))
    def test_theorem_v2_bound_random_hierarchical(self, seed):
        rng = rng_from_seed(seed)
        inst = random_hierarchical(
            rng, n=int(rng.integers(2, 6)), m=int(rng.integers(2, 5))
        )
        result = two_approximation(inst, use_pushdown_certificate=True)
        assert result.makespan <= 2 * result.T_lp

    def test_ratio_vs_exact_at_most_2(self):
        rng = rng_from_seed(99)
        for _ in range(6):
            inst = random_hierarchical(rng, n=int(rng.integers(2, 5)), m=3)
            approx = two_approximation(inst)
            exact = solve_exact(inst)
            assert approx.makespan <= 2 * exact.optimum
            assert exact.optimum >= approx.T_lp


class TestFindAssignmentWithin:
    def test_witness_at_optimum(self, instance_ii1):
        from repro.core.exact import find_assignment_within
        from repro import min_T_for_assignment

        witness = find_assignment_within(instance_ii1, 2)
        assert witness is not None
        assert min_T_for_assignment(instance_ii1, witness) <= 2

    def test_no_witness_below_optimum(self, instance_ii1):
        from repro.core.exact import find_assignment_within

        assert find_assignment_within(instance_ii1, 1) is None

    def test_agrees_with_solve_exact_random(self):
        from fractions import Fraction

        from repro.core.exact import find_assignment_within
        from repro import solve_exact
        from repro.workloads import random_hierarchical, rng_from_seed

        rng = rng_from_seed(66)
        for _ in range(6):
            inst = random_hierarchical(rng, n=4, m=3)
            opt = solve_exact(inst).optimum
            assert find_assignment_within(inst, opt) is not None
            if opt > 0:
                assert find_assignment_within(inst, opt - Fraction(1, 1000)) is None


class TestEdgeCases:
    def test_zero_length_jobs_through_pipeline(self):
        inst = Instance.semi_partitioned(
            p_local=[[0, 0], [2, 2]], p_global=[0, 3]
        )
        result = two_approximation(inst)
        assert result.makespan <= result.bound
        assert validate_schedule(
            result.instance, result.assignment, result.schedule
        ).valid

    def test_single_machine_instance(self):
        inst = Instance.unrelated([[3], [4]])
        result = two_approximation(inst)
        assert result.T_lp == 7
        assert result.makespan == 7
        assert solve_exact(inst).optimum == 7

    def test_single_job_prefers_cheapest_mask(self):
        inst = Instance.semi_partitioned(p_local=[[5, 2]], p_global=[6])
        result = two_approximation(inst)
        assert result.makespan == 2
        assert solve_exact(inst).optimum == 2

    def test_all_jobs_identical_times(self):
        inst = Instance.semi_partitioned(
            p_local=[[4, 4]] * 4, p_global=[4] * 4
        )
        exact = solve_exact(inst)
        assert exact.optimum == 8  # two per machine; migration buys nothing


#: E18 draws (root seed 180, T = 12, hierarchical family) and the exact
#: number of nodes the decide-mode search enters on each, with its result:
#: ``None`` or the witness's mask per job.
_PINNED_DRAWS = [
    (("smp2x2x2", "jittered", 0.95, 0), 6438, None),
    (
        ("smp2x2x2", "jittered", 0.95, 3),
        39184,
        [(7,), (0, 1, 2, 3, 4, 5, 6, 7), (6,), (0, 1, 2, 3, 4, 5, 6, 7),
         (0, 1, 2, 3, 4, 5, 6, 7), (0, 1, 2, 3, 4, 5, 6, 7),
         (0, 1, 2, 3, 4, 5, 6, 7), (7,), (0, 1, 2, 3, 4, 5, 6, 7), (0,),
         (0, 1, 2, 3, 4, 5, 6, 7), (4,), (2,), (5,), (0, 1), (2, 3), (1,),
         (0,), (0, 1, 2, 3, 4, 5, 6, 7), (0, 1, 2, 3, 4, 5, 6, 7),
         (0, 1, 2, 3, 4, 5, 6, 7), (0, 1, 2, 3, 4, 5, 6, 7), (0, 1)],
    ),
    (
        ("smp2x2x2", "synchronous", 0.95, 8),
        1951,
        [(0, 1, 2, 3, 4, 5, 6, 7), (0, 1, 2, 3, 4, 5, 6, 7), (6, 7),
         (0, 1, 2, 3, 4, 5, 6, 7), (0, 1, 2, 3, 4, 5, 6, 7), (5,), (0, 1),
         (0, 1, 2, 3, 4, 5, 6, 7), (3,), (2,), (4, 5),
         (0, 1, 2, 3, 4, 5, 6, 7), (0, 1, 2, 3, 4, 5, 6, 7), (7,), (5,),
         (0, 1, 2, 3, 4, 5, 6, 7), (2, 3), (2, 3), (0, 1, 2, 3, 4, 5, 6, 7),
         (0,), (1,), (0, 1), (0,), (0, 1, 2, 3, 4, 5, 6, 7)],
    ),
    (
        ("clustered4x2", "sporadic", 0.95, 3),
        2109,
        [(0,), (2,), (0,), (0, 1, 2, 3), (2, 3), (0, 1, 2, 3), (0, 1), (0,),
         (0, 1, 2, 3), (1,), (0, 1, 2, 3)],
    ),
]


class TestDecideNodeCounts:
    """The witness search's node count is pinned through ``node_limit``:
    the search finishes within exactly N nodes and gives up at N - 1."""

    @pytest.mark.parametrize("draw,nodes,expected", _PINNED_DRAWS)
    def test_exact_node_count(self, draw, nodes, expected):
        from repro.baselines.restrictions import restrict_instance, restricted_family_for
        from repro.core.exact import find_assignment_within
        from repro.workloads import derive_seed
        from repro.workloads.families import make_topology
        from repro.workloads.generators import utilization_workload

        topology, arrivals, u, trial = draw
        seed = derive_seed(180, "e18", topology, arrivals, str(u), trial)
        ext = utilization_workload(
            rng_from_seed(seed), make_topology(topology).family, u, 12
        ).with_singletons()
        inst = restrict_instance(ext, restricted_family_for(ext, "hierarchical"))
        witness = find_assignment_within(inst, 12, node_limit=nodes)
        if expected is None:
            assert witness is None
        else:
            assert [tuple(sorted(witness[j])) for j in range(inst.n)] == expected
        with pytest.raises(SolverError):
            find_assignment_within(inst, 12, node_limit=nodes - 1)


def _mixed_denominators() -> Instance:
    third, seventh, eleventh = Fraction(1, 3), Fraction(1, 7), Fraction(1, 11)
    return Instance.clustered(
        2,
        p_local=[[7 * third, 5 * seventh, 2, 13 * eleventh],
                 [3, 10 * third, 17 * seventh, 4],
                 [20 * eleventh, 2, 5 * third, 12 * seventh],
                 [1, 8 * seventh, 1, 19 * eleventh]],
        p_cluster=[[8 * third, 3], [26 * seventh, 4], [25 * eleventh, 2], [13 * seventh, 2]],
        p_global=[3, 5, 3, 3],
    )


def _halves_on_pairs() -> Instance:
    # Denominators that share a factor with a set size: loads of the
    # 2-machine set are quarters although every time is a half.
    half = Fraction(1, 2)
    return Instance.semi_partitioned(
        p_local=[[3 * half, 1], [2, 3], [3, 3]], p_global=[3 * half, 3, 4]
    )


def _huge_time() -> Instance:
    return Instance.semi_partitioned(
        p_local=[[2**62, 2**62], [5, 2**62], [Fraction(7, 3), 4]],
        p_global=[2**62, 2**62, 6],
    )


def _zero_volume() -> Instance:
    return Instance.semi_partitioned(
        p_local=[[0, 0], [0, 3], [2, 2], [0, 0]], p_global=[0, 4, 3, 0]
    )


def _single_machine() -> Instance:
    return Instance.unrelated([[Fraction(5, 3)], [Fraction(2, 7)], [4]])


def _all_zero() -> Instance:
    return Instance.identical(3, [0, 0])


class TestIntegerScaling:
    """The search scales times and horizons to integers; its optimum and
    witnesses must agree with the independent (IP-3) ILP oracle."""

    @pytest.mark.parametrize(
        "build",
        [
            _mixed_denominators,
            _halves_on_pairs,
            _huge_time,
            _zero_volume,
            _single_machine,
            _all_zero,
        ],
    )
    def test_agrees_with_ilp_oracle(self, build):
        from repro import min_T_for_assignment
        from repro.core.exact import find_assignment_within
        from repro.core.exact_ilp import solve_exact_ilp

        inst = build()
        opt = solve_exact(inst).optimum
        assert opt == solve_exact_ilp(inst).optimum
        witness = find_assignment_within(inst, opt)
        assert witness is not None
        assert min_T_for_assignment(inst, witness) <= opt
        assert find_assignment_within(inst, opt - Fraction(1, 10**9)) is None

    def test_fractional_optimum_of_mixed_denominators(self):
        opt = solve_exact(_mixed_denominators()).optimum
        assert opt.denominator > 1
