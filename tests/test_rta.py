"""RTA engine: soundness, busy-window exactness, the admission pre-filter,
and the E15/E19 reproducibility regressions (PR 10)."""

import json
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.restrictions import (
    SCHEDULER_CLASSES,
    exact_schedulable_within,
    restrict_instance,
    restricted_family_for,
)
from repro.core.assignment import min_T_for_assignment, verify_ip2
from repro.core.exact import find_assignment_within
from repro.core.hierarchical import schedule_hierarchical
from repro.core.instance import Instance
from repro.core.laminar import LaminarFamily
from repro.exceptions import AnalyticSoundnessError, SolverError
from repro.lp.stats import collect_stats
from repro.rta import (
    SCHEDULABLE,
    UNKNOWN,
    UNSCHEDULABLE,
    analytic_schedulable,
    demand_profile,
    infeasibility_witness,
    makespan_bound,
    response_bounds,
)
from repro.simulation.admission import witness_within
from repro.workloads import rng_from_seed
from repro.workloads.generators import utilization_workload

_SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

T_REF = 20


def _workload(seed, u, family=None):
    family = family or LaminarFamily.clustered(4, 2)
    return utilization_workload(rng_from_seed(seed), family, u, T_REF)


class TestSoundness:
    @_SETTINGS
    @given(
        st.integers(0, 10**6),
        st.sampled_from([0.4, 0.7, 0.9, 1.0, 1.1]),
        st.sampled_from(SCHEDULER_CLASSES),
    )
    def test_decided_verdicts_agree_with_exact(self, seed, u, cls):
        """SCHEDULABLE ⇒ the exact search succeeds; UNSCHEDULABLE ⇒ it
        fails.  The acceptance-criterion property, over random workloads."""
        inst = _workload(seed, u)
        verdict = analytic_schedulable(inst, cls, T_REF)
        if verdict.status == UNKNOWN:
            return
        truth = exact_schedulable_within(inst, cls, T_REF)
        assert (verdict.status == SCHEDULABLE) == truth, verdict.reason

    @_SETTINGS
    @given(st.integers(0, 10**6), st.sampled_from([0.5, 0.9, 1.05]))
    def test_global_class_always_decided(self, seed, u):
        """With one admissible set there is one assignment: either it fits
        (FFD places everything) or the root demand bound refutes — the
        engine is complete for the global class."""
        inst = _workload(seed, u)
        assert analytic_schedulable(inst, "global", T_REF).decided

    def test_schedulable_witness_is_verified_and_lp_free(self):
        with collect_stats() as stats:
            found = 0
            for seed in range(10):
                inst = _workload(seed, 0.7)
                verdict = analytic_schedulable(inst, "hierarchical", T_REF)
                if verdict.status != SCHEDULABLE:
                    continue
                found += 1
                restricted = restrict_instance(
                    inst, restricted_family_for(inst, "hierarchical")
                )
                assert verify_ip2(restricted, verdict.assignment, T_REF).feasible
        assert found > 0
        assert stats.solves == 0 and stats.pivots == 0

    def test_class_inapplicable_is_unschedulable(self):
        # A flat identical-machines family has no singletons: partitioned
        # scheduling cannot express the instance and loses it (the E15
        # convention).
        inst = Instance.identical(3, [4, 4, 4])
        verdict = analytic_schedulable(inst, "partitioned", 10)
        assert verdict.status == UNSCHEDULABLE
        assert verdict.reason == "class-inapplicable"
        assert not exact_schedulable_within(inst, "partitioned", 10)


class TestDemandBounds:
    def test_no_feasible_mask(self):
        inst = Instance.identical(2, [9, 1])
        profile = demand_profile(inst, 5)
        witness = infeasibility_witness(inst, profile)
        assert witness is not None and witness["test"] == "no-feasible-mask"
        assert find_assignment_within(inst, 5) is None

    def test_demand_bound_violation(self):
        # Three jobs trapped in a 1-machine subtree of a 2-level family.
        fam = LaminarFamily.semi_partitioned(2)
        root = frozenset({0, 1})
        inst = Instance(
            fam,
            {
                j: {frozenset({0}): 4, frozenset({1}): 10**6, root: 10**6}
                for j in range(3)
            },
            validate=False,
        )
        profile = demand_profile(inst, 10)
        witness = infeasibility_witness(inst, profile)
        assert witness is not None and witness["test"] == "demand-bound"
        assert witness["lhs"] == 12 and witness["rhs"] == 10
        assert find_assignment_within(inst, 10) is None

    def test_heavy_singleton_pigeonhole(self):
        # Three pinned-only jobs each > T/2 on two machines: no two share.
        inst = Instance.unrelated([[3, 3], [3, 3], [3, 3]])
        profile = demand_profile(inst, 5)
        witness = infeasibility_witness(inst, profile)
        assert witness is not None
        assert witness["test"] == "heavy-singleton-pigeonhole"
        assert find_assignment_within(inst, 5) is None

    def test_feasible_instance_has_no_witness(self):
        inst = Instance.identical(2, [2, 2, 2])
        assert infeasibility_witness(inst, demand_profile(inst, 3)) is None


class TestBusyWindows:
    def test_closed_form_identical_machines(self):
        # Three unit-speed jobs of length 2 on 2 machines, all on the root:
        # W(M) = 6/2 = 3 — McNaughton's bound, and the response bound of
        # every job.
        inst = Instance.identical(2, [2, 2, 2])
        verdict = analytic_schedulable(inst, "global", 3)
        assert verdict.status == SCHEDULABLE
        assert verdict.certificate["makespan_bound"] == 3
        assert all(b == 3 for b in verdict.response_bounds.values())

    @_SETTINGS
    @given(st.integers(0, 10**6), st.sampled_from([0.5, 0.8]))
    def test_makespan_bound_equals_min_T(self, seed, u):
        """max_roots W(root) is exactly min_T_for_assignment — the busy
        window fixpoint converges in one step to the IP-2 optimum."""
        inst = _workload(seed, u)
        verdict = analytic_schedulable(inst, "hierarchical", T_REF)
        if verdict.status != SCHEDULABLE:
            return
        restricted = restrict_instance(
            inst, restricted_family_for(inst, "hierarchical")
        )
        bound = makespan_bound(restricted, verdict.assignment)
        assert bound == min_T_for_assignment(restricted, verdict.assignment)
        assert bound == verdict.certificate["makespan_bound"] <= T_REF
        assert bound == max(verdict.response_bounds.values())

    def test_bounds_are_realizable(self):
        """A schedule built at the makespan bound completes every job by
        its response bound (the witness semantics of the busy window)."""
        inst = _workload(3, 0.7)
        verdict = analytic_schedulable(inst, "hierarchical", T_REF)
        assert verdict.status == SCHEDULABLE
        restricted = restrict_instance(
            inst, restricted_family_for(inst, "hierarchical")
        )
        bound = verdict.certificate["makespan_bound"]
        schedule = schedule_hierarchical(restricted, verdict.assignment, bound)
        for j in range(restricted.n):
            completion = max(s.end for _m, s in schedule.job_segments(j))
            assert completion <= verdict.response_bounds[j]

    def test_response_bounds_exact_fractions(self):
        inst = _workload(5, 0.8)
        verdict = analytic_schedulable(inst, "hierarchical", T_REF)
        if verdict.status == SCHEDULABLE:
            assert all(
                isinstance(b, Fraction) for b in verdict.response_bounds.values()
            )


#: The third outcome of a witness search: it hit its node limit.
GAVE_UP = "gave up"


def _witness_outcome(inst, **kwargs):
    """A witness, ``None`` (proved absent), or :data:`GAVE_UP`."""
    try:
        return witness_within(inst, T_REF, **kwargs)
    except SolverError:
        return GAVE_UP


def _assert_prefilter_identity(inst, **kwargs):
    with_pf = _witness_outcome(inst, prefilter=True, **kwargs)
    without = _witness_outcome(inst, prefilter=False, **kwargs)
    if with_pf is None and without == GAVE_UP:
        # The pre-filter answered without searching; that is sound only
        # on an analytic refutation (a finished search finds no witness).
        verdict = analytic_schedulable(inst, "hierarchical", T_REF)
        assert verdict.status == UNSCHEDULABLE
    else:
        assert with_pf == without


def _assert_fast_path_sound(inst, **kwargs):
    fast = _witness_outcome(inst, analytic_witness=True, **kwargs)
    exact = _witness_outcome(inst, prefilter=False, **kwargs)
    if fast is GAVE_UP or exact is not GAVE_UP:
        # Fast path and search agree on *whether* a witness exists, or
        # both gave up.
        assert (fast is None) == (exact is None)
        assert (fast is GAVE_UP) == (exact is GAVE_UP)
    elif fast is None:
        # Only an analytic refutation answers without searching.
        verdict = analytic_schedulable(inst, "hierarchical", T_REF)
        assert verdict.status == UNSCHEDULABLE
    if fast is not None and fast is not GAVE_UP:
        # Any fast-path witness is itself IP-2 feasible; against a search
        # that gave up, that is the whole check.
        restricted = restrict_instance(
            inst, restricted_family_for(inst, "hierarchical")
        )
        assert verify_ip2(restricted, fast, T_REF).feasible


class TestPrefilter:
    @_SETTINGS
    @given(st.integers(0, 10**6), st.sampled_from([0.6, 0.95, 1.05]))
    def test_prefilter_identity(self, seed, u):
        """The acceptance criterion: the pre-filter never changes which
        instances get a witness, nor which witness they get."""
        _assert_prefilter_identity(_workload(seed, u).with_singletons())

    def test_prefilter_identity_when_both_searches_give_up(self):
        """Regression: at ``seed=293, u=0.95`` the analytic verdict is
        UNKNOWN and both searches exhaust their node limit; giving up on
        both sides is the same outcome, not an error — for the pre-filter
        and for the analytic-witness fast path alike."""
        inst = _workload(293, 0.95).with_singletons()
        assert analytic_schedulable(inst, "hierarchical", T_REF).status == UNKNOWN
        assert _witness_outcome(inst, node_limit=10_000) == GAVE_UP
        _assert_prefilter_identity(inst, node_limit=10_000)
        _assert_fast_path_sound(inst, node_limit=10_000)

    @_SETTINGS
    @given(st.integers(0, 10**6), st.sampled_from([0.6, 0.95]))
    def test_analytic_witness_fast_path_is_sound(self, seed, u):
        _assert_fast_path_sound(_workload(seed, u).with_singletons())


class TestE15Regressions:
    def test_sweep_rows_equal_serial_rows(self):
        """Per-level derived seeds: a sweep task per utilization level
        reproduces the serial run bit-for-bit (the PR-10 rng bugfix)."""
        from repro.experiments.e15_schedulability import run

        full = run(utilizations=(0.6, 0.9), m=4, T_ref=20, trials=3)
        parts = [
            run(utilizations=(u,), m=4, T_ref=20, trials=3)
            for u in (0.6, 0.9)
        ]
        assert full.rows == parts[0].rows + parts[1].rows
        # Byte-level: the JSON payload rows concatenate identically.
        full_rows = json.dumps(full.table.to_json()["rows"], sort_keys=True)
        part_rows = json.dumps(
            parts[0].table.to_json()["rows"] + parts[1].table.to_json()["rows"],
            sort_keys=True,
        )
        assert full_rows == part_rows

    def test_acceptance_is_exact_fraction(self):
        from repro.experiments.e15_schedulability import run

        result = run(utilizations=(0.9,), m=4, T_ref=20, trials=3)
        for row in result.rows:
            for value in row.acceptance.values():
                assert isinstance(value, Fraction)
                assert value.denominator in (1, 3)
        # Round-trips through the payload encoding unchanged.
        encoded = result.table.to_json()
        from repro.analysis.tables import Table

        assert Table.from_json(encoded).to_json() == encoded

    def test_solver_error_counted_not_swallowed(self, monkeypatch):
        """A pivot/node-limit blowup lands in solver_errors, never in the
        'not schedulable' denominator (the PR-10 error-swallowing fix)."""
        from repro.experiments import e15_schedulability as e15

        def explode(instance, scheduler_class, T_ref):
            if scheduler_class == "hierarchical":
                raise SolverError("node limit for the test")
            return exact_schedulable_within(instance, scheduler_class, T_ref)

        monkeypatch.setattr(e15, "exact_schedulable_within", explode)
        result = e15.run(utilizations=(0.6,), m=4, T_ref=20, trials=3)
        row = result.rows[0]
        assert row.solver_errors["hierarchical"] == 3
        assert row.acceptance["hierarchical"] == 0
        assert sum(row.solver_errors.values()) == 3

    def test_hierarchy_dominates_without_epsilon(self):
        from repro.experiments.e15_schedulability import E15Result, E15Row
        from repro.analysis import Table

        rows = [
            E15Row(
                utilization=0.9,
                acceptance={
                    c: Fraction(2, 3) if c != "hierarchical" else Fraction(2, 3)
                    for c in SCHEDULER_CLASSES
                },
            )
        ]
        assert E15Result(rows=rows, table=Table("t", ["a"])).hierarchy_dominates
        rows[0].acceptance["partitioned"] = Fraction(2, 3) + Fraction(1, 10**12)
        assert not E15Result(
            rows=rows, table=Table("t", ["a"])
        ).hierarchy_dominates


class TestE18Regressions:
    def test_prefilter_rows_identical(self):
        from repro.experiments.e18_online_arrivals import run

        base = run(utilizations=(0.6, 0.95), trials=1)
        filtered = run(utilizations=(0.6, 0.95), trials=1, prefilter=True)
        assert base.rows == filtered.rows

    def test_solver_error_field_present(self):
        from repro.experiments.e18_online_arrivals import run

        result = run(utilizations=(0.6,), trials=1)
        assert all(r.solver_errors == 0 for r in result.rows)
        assert "solver errors" in result.table.headers


class TestE19:
    def test_registered_and_sweepable(self):
        from repro.runner import get_spec

        spec = get_spec("e19")
        assert spec.space["scheduler_classes"]
        assert len(list(spec.points())) == 4

    def test_run_is_sound_and_lp_free(self):
        from repro.experiments.e19_analytic_vs_simulated import run

        with collect_stats() as stats:
            result = run(
                utilizations=(0.6, 0.95),
                scheduler_classes=("global", "partitioned", "hierarchical"),
                trials=2,
            )
        assert stats.solves == 0 and stats.pivots == 0
        assert result.sound
        for row in result.rows:
            assert isinstance(row.decided, Fraction)
            assert (
                row.analytic_schedulable
                + row.analytic_unschedulable
                + row.unknown
                == row.trials
            )
            # Soundness made it through without raising, so the decided
            # counts bracket the truth.
            assert row.analytic_schedulable <= row.exact_schedulable
            assert row.analytic_unschedulable <= row.trials - row.exact_schedulable

    def test_class_sharded_rows_equal_serial(self):
        from repro.experiments.e19_analytic_vs_simulated import run

        kwargs = dict(utilizations=(0.6, 0.95), trials=2)
        a = run(scheduler_classes=("global", "partitioned"), **kwargs)
        b = run(scheduler_classes=("hierarchical",), **kwargs)
        full = run(
            scheduler_classes=("global", "partitioned", "hierarchical"),
            **kwargs,
        )
        assert a.rows + b.rows == full.rows

    def test_disagreement_raises(self, monkeypatch):
        from repro.experiments import e19_analytic_vs_simulated as e19

        monkeypatch.setattr(
            e19, "exact_schedulable_within", lambda *a, **k: False
        )
        with pytest.raises(AnalyticSoundnessError):
            e19.run(
                utilizations=(0.5,),
                scheduler_classes=("hierarchical",),
                trials=2,
            )
