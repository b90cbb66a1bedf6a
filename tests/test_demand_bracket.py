"""The demand-bracketed T*-search: soundness of the demand refutation.

:meth:`~repro.core.programs.IP3Builder.demand_bracket` finds the first
breakpoint rank *k* at which the LP-valid demand tests pass and a Farkas
vector refuting rank ``k - 1``; :func:`~repro.core.programs._search_minimal_T`
checks the vector and then starts its search at *k*.  Every refuted
breakpoint is re-decided here by an independent LP path (``build_ip3`` for
(IP-3), ``_memory_lp`` for the memory models) under the exact backend.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.core.instance import Instance
from repro.core.laminar import LaminarFamily
from repro.core.memory import (
    minimal_model1_T,
    minimal_model2_T,
    model1_lp_feasible,
    model2_lp_feasible,
)
from repro.core.programs import IP3Builder, lp_feasible, minimal_fractional_T
from repro.lp.certificates import farkas_certifies
from repro.lp.stats import collect_stats
from repro.obs import tracing
from repro.rta.demand import demand_profile, infeasibility_witness
from repro.session import Session
from repro.workloads import (
    FAMILIES,
    TOPOLOGIES,
    derive_seed,
    make_instance,
    make_topology,
    monotone_instance,
    random_hierarchical,
    rng_from_seed,
)

#: Probe outcomes that certify a breakpoint feasible.
_FEASIBLE = {"solved-feasible", "point-reuse"}


@pytest.fixture
def brackets(monkeypatch):
    """Record ``(builder, k, refutation)`` for every bracket a search takes."""
    seen = []
    original = IP3Builder.demand_bracket

    def spy(self):
        k, refutation = original(self)
        seen.append((self, k, refutation))
        return k, refutation

    monkeypatch.setattr(IP3Builder, "demand_bracket", spy)
    return seen


def _search(run):
    """Run *run* traced; return its value, the search's probe spans and the
    search span."""
    with tracing() as tracer:
        value = run()
    probes = [sp for sp in tracer.spans if sp.name == "search.probe"]
    (search,) = [sp for sp in tracer.spans if sp.name == "search.minimal_fractional_T"]
    return value, probes, search


def _check_bracket(builder, k, refutation, probes, feasible_at):
    """Every breakpoint below *k* is LP-infeasible, the anchor is the first
    feasible breakpoint, and a refutation certifies rank ``k - 1``."""
    points = builder.breakpoints
    for bp in points[:k]:
        assert not feasible_at(bp), f"refuted breakpoint {bp} is feasible"
    if refutation is not None:
        test, y = refutation
        assert test in ("demand-bound", "total-volume")
        rows, senses, rhs, _active = builder.probe_rows(points[k - 1])
        assert farkas_certifies(rows, senses, rhs, y)
        refuted = [sp for sp in probes if sp.attrs.get("outcome") == "demand-refuted"]
        assert [sp.attrs["T"] for sp in refuted] == [str(points[k - 1])]
        assert refuted[0].attrs["test"] == test
    anchor = next((bp for bp in points[k:] if feasible_at(bp)), None)
    feasible = [
        Fraction(sp.attrs["T"]) for sp in probes if sp.attrs.get("outcome") in _FEASIBLE
    ]
    if anchor is None:
        assert not feasible
    else:
        assert min(feasible) == anchor


class TestSoundnessOverTheZoo:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_refuted_breakpoints_are_lp_infeasible(self, family, brackets):
        refuted = 0
        for topology in sorted(TOPOLOGIES):
            rng = rng_from_seed(derive_seed(17, family, topology))
            inst = make_instance(family, rng, make_topology(topology), 6)
            brackets.clear()
            _T, probes, search = _search(lambda: minimal_fractional_T(inst))
            (builder, k, refutation), = brackets
            assert "demand" not in search.attrs
            _check_bracket(
                builder, k, refutation, probes,
                lambda bp: lp_feasible(inst, bp, backend="exact"),
            )
            refuted += refutation is not None
        assert refuted, "no draw of this family was refuted: the check is vacuous"

    @pytest.mark.parametrize("seed", range(4))
    def test_model1(self, seed, brackets):
        from repro.experiments.e10_memory_model1 import _budgeted_instance

        kind = ("semi", "clustered")[seed % 2]
        inst, space, budgets = _budgeted_instance(rng_from_seed(200 + seed), kind, 8, 4)
        _T, probes, _search_sp = _search(lambda: minimal_model1_T(inst, space, budgets))
        (builder, k, refutation), = brackets
        _check_bracket(
            builder, k, refutation, probes,
            lambda bp: model1_lp_feasible(inst, space, budgets, bp, backend="exact"),
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_model2(self, seed, brackets):
        from repro.experiments.e11_memory_model2 import _uniform_tree

        rng = rng_from_seed(300 + seed)
        inst = monotone_instance(rng, _uniform_tree(4, 2), n=8)
        sizes = [Fraction(int(rng.integers(1, 9)), 8) for _ in range(8)]
        mu = Fraction(3, 2)
        _T, probes, _search_sp = _search(lambda: minimal_model2_T(inst, sizes, mu))
        (builder, k, refutation), = brackets
        _check_bracket(
            builder, k, refutation, probes,
            lambda bp: model2_lp_feasible(inst, sizes, mu, bp, backend="exact"),
        )


class TestOnlyLPValidTests:
    def test_pigeonhole_alone_never_refutes(self):
        """Three jobs pinned to {0} or {1} with p = 3 = 0.6·T at T = 5 (a
        fourth job on {2} puts a breakpoint there): the heavy-singleton
        pigeonhole refutes every *integral* assignment, but the LP is
        feasible, and the builder must not refute it."""
        family = LaminarFamily.singletons(3)
        zero, one, two = (frozenset({i}) for i in range(3))
        inst = Instance(
            family, {0: {zero: 3, one: 3}, 1: {zero: 3, one: 3}, 2: {zero: 3, one: 3},
                     3: {two: 5}},
        )
        witness = infeasibility_witness(inst, demand_profile(inst, 5))
        assert witness["test"] == "heavy-singleton-pigeonhole"
        assert lp_feasible(inst, 5, backend="exact")
        builder = IP3Builder(inst)
        assert builder.breakpoints == [3, 5]
        assert builder.demand_bracket() == (1, None)
        assert minimal_fractional_T(inst) == 5

    def test_total_volume_refutes_jobs_spread_over_two_roots(self, brackets):
        """Jobs free to run on {0} or {1} are trapped in neither root, so
        only the total volume refutes T = 3; it refutes every breakpoint,
        and the min-T LP above them finds T* = 9/2."""
        family = LaminarFamily.singletons(2)
        zero, one = frozenset({0}), frozenset({1})
        inst = Instance(family, {j: {zero: 3, one: 3} for j in range(3)})
        T, probes, _search_sp = _search(lambda: minimal_fractional_T(inst))
        assert T == Fraction(9, 2)
        (builder, k, refutation), = brackets
        assert (k, refutation[0]) == (1, "total-volume")
        assert refutation[1] == [3, 3, 3, -1, -1]
        _check_bracket(
            builder, k, refutation, probes,
            lambda bp: lp_feasible(inst, bp, backend="exact"),
        )
        assert [sp.attrs["outcome"] for sp in probes] == ["demand-refuted"]

    def test_model1_budget_pruning_narrows_the_trap(self, brackets):
        """Both jobs' footprint on machine 1 exceeds its budget, so Model 1
        prunes every pair touching it and traps both jobs in {0}.  The
        instance alone sees them free to use {1} and the root, and no test
        refutes T = 4; the builder's pruned pairs refute it at {0}."""
        inst = Instance.semi_partitioned(p_local=[[4, 4], [4, 4]], p_global=[5, 5])
        space = [[1, 5], [1, 5]]
        budgets = {0: 10, 1: 2}
        assert infeasibility_witness(inst, demand_profile(inst, 4)) is None
        T, probes, _search_sp = _search(lambda: minimal_model1_T(inst, space, budgets))
        assert T == 8
        (builder, k, refutation), = brackets
        assert builder.breakpoints == [4]
        test, y = refutation
        assert (k, test) == (1, "demand-bound")
        load_rows = [alpha for alpha, _entries in builder.load_template_idx]
        assert y == [4, 4] + [-1 if alpha == {0} else 0 for alpha in load_rows] + [0, 0]
        assert not model1_lp_feasible(inst, space, budgets, 4, backend="exact")
        assert model1_lp_feasible(inst, space, budgets, 8, backend="exact")
        _check_bracket(
            builder, k, refutation, probes,
            lambda bp: model1_lp_feasible(inst, space, budgets, bp, backend="exact"),
        )


class TestRejectedVector:
    def test_wrong_vector_is_rejected_and_recorded(self, monkeypatch):
        inst = random_hierarchical(rng_from_seed(derive_seed(140, "perfbench", 32, 10, 0)),
                                   n=32, m=10)
        expected = minimal_fractional_T(inst)
        original = IP3Builder.demand_bracket

        def wrong(self):
            k, (test, y) = original(self)
            return k, (test, [-v for v in y])

        monkeypatch.setattr(IP3Builder, "demand_bracket", wrong)
        with collect_stats() as stats:
            T, probes, search = _search(lambda: minimal_fractional_T(inst))
        assert T == expected
        assert search.attrs["demand"].startswith("rejected: demand-bound vector")
        assert [sp.attrs["outcome"] for sp in probes].count("demand-rejected") == 1
        assert stats.demand_refutations == 0


#: Exact counters of one perfbench ``approx`` operation (a cold Theorem V.2
#: two-approximation) per shape: one demand refutation, the first survivor
#: probed and feasible, then the min-T LP below it and the LST rounding LP.
PINNED = {
    (32, 10): dict(demand_refutations=1, point_reuses=0, farkas_reuses=0,
                   solves=2, pivots=86, highs_calls=3),
    (96, 20): dict(demand_refutations=1, point_reuses=0, farkas_reuses=0,
                   solves=2, pivots=209, highs_calls=3),
}


@pytest.mark.parametrize("shape", sorted(PINNED))
def test_perfbench_approx_counts_are_pinned(shape):
    pytest.importorskip("scipy")
    n, m = shape
    inst = random_hierarchical(rng_from_seed(derive_seed(140, "perfbench", n, m, 0)), n=n, m=m)
    with collect_stats() as stats:
        Session(cache=False).two_approximation(inst)
    assert {name: getattr(stats, name) for name in PINNED[shape]} == PINNED[shape]
