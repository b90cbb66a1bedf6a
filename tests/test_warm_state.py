"""WarmState lifecycle: staleness, resumability, determinism, the seam.

The carried-basis contract of PR 8 (see :mod:`repro.lp.warm`) has sharp
edges this module pins down:

* a stale basis — wrong dimensions, vanished variables, out-of-range
  labels — must degrade *cleanly* (same answer as a cold solve, never an
  exception, never a corrupted solver);
* a :class:`~repro.exceptions.PivotLimitError` mid-search must leave the
  :class:`~repro.core.programs._ProbeSession` resumable;
* a carried-basis solve under ``canonical="lex"`` lands on exactly the
  cold solve's vertex (warm starts change the path, never the answer);
* ``WarmState`` is process-local ephemera: pickling and session
  canonicalization both refuse it;
* sparse and densified ``W`` rows answer ftran/btran identically;
* the gmpy2 bigint seam is optional and escapable (``REPRO_BIGINT``).
"""

from __future__ import annotations

import copy
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro._fraction import HAVE_GMPY2, bigint, bigint_backend
from repro.core.programs import IP3Builder, _ProbeSession
from repro.exceptions import PivotLimitError
from repro.lp import (
    LinearProgram,
    LUBasis,
    SolverStats,
    collect_stats,
    solve_lp,
    solve_standard,
)
from repro.lp.basis import _to_dense
from repro.lp.warm import WarmState
from repro.workloads import make_instance, make_topology, rng_from_seed

from lp_oracle import oracle_solve


def _small_lp():
    """A 2-row / 4-var LP with a unique optimum and a nontrivial basis."""
    rows = [
        {0: Fraction(1), 1: Fraction(1), 2: Fraction(1), 3: Fraction(1)},
        {0: Fraction(2), 1: Fraction(1)},
    ]
    senses = ["==", "<="]
    rhs = [Fraction(2), Fraction(3)]
    objective = [Fraction(1), Fraction(2), Fraction(3), Fraction(4)]
    return rows, senses, rhs, objective


class TestProcessLocality:
    def test_pickle_refused(self):
        state = WarmState([("s", 0)], 1, 2, (1,))
        with pytest.raises(TypeError):
            pickle.dumps(state)

    def test_deepcopy_refused(self):
        # copy.deepcopy routes through __reduce__ as well: aliasing live
        # kernel state across a "copy" would be just as unsound.
        state = WarmState([("s", 0)], 1, 2, (1,))
        with pytest.raises(TypeError):
            copy.deepcopy(state)

    def test_session_canonicalization_refused(self):
        from repro.session.canon import canonical

        state = WarmState([("s", 0)], 1, 2, (1,))
        with pytest.raises(TypeError):
            canonical({"payload": state})

    def test_relabel_drops_token_and_farkas(self):
        state = WarmState(
            [("x", 0), ("s", 1)], 2, 2, (1, 1),
            token="witness",
            point={0: Fraction(1), 1: Fraction(2)},
            farkas=(Fraction(1), Fraction(-1)),
        )
        mapped = state.relabel_dict({0: "a", 1: "b"})
        assert mapped is not None
        assert mapped.token is None and mapped.farkas is None
        assert mapped.labels == (("x", "a"), ("s", 1))
        assert mapped.point == {"a": Fraction(1), "b": Fraction(2)}

    def test_relabel_basic_miss_is_stale(self):
        """A basic structural that does not map kills the whole state..."""
        state = WarmState([("x", 0)], 1, 2, (1,), point={1: Fraction(3)})
        assert state.relabel_dict({1: "b"}) is None

    def test_relabel_point_miss_merely_drops(self):
        """...but a non-basic point entry is just dropped."""
        state = WarmState([("x", 0)], 1, 2, (1,), point={0: Fraction(1), 1: Fraction(3)})
        mapped = state.relabel_dict({0: "a"})
        assert mapped is not None
        assert mapped.point == {"a": Fraction(1)}


class TestStaleBasisRejection:
    def test_dimension_change_rejected_cleanly(self):
        """A basis carried across a row-count change degrades to cold."""
        rows, senses, rhs, objective = _small_lp()
        donor = solve_standard(rows, senses, rhs, objective)
        assert donor.status == "optimal" and donor.warm_state is not None

        # Same variables, one extra row: state.m no longer matches.
        rows2 = rows + [{2: Fraction(1), 3: Fraction(1)}]
        senses2 = senses + ["<="]
        rhs2 = rhs + [Fraction(1)]
        cold = solve_standard(rows2, senses2, rhs2, objective)
        warm = solve_standard(
            rows2, senses2, rhs2, objective, warm_state=donor.warm_state
        )
        assert warm.status == cold.status == "optimal"
        assert warm.x == cold.x
        assert warm.stats.basis_reuses == 0
        assert warm.stats.crash_skips == 0

    def test_out_of_range_labels_rejected_cleanly(self):
        """Labels pointing past the consumer's variable space are stale."""
        rows, senses, rhs, objective = _small_lp()
        donor = solve_standard(rows, senses, rhs, objective)
        # Shrink to 2 structural variables; any ("x", j>=2) label is now
        # unresolvable and the whole state must be rejected, not crash.
        rows2 = [{k: v for k, v in r.items() if k < 2} for r in rows]
        obj2 = objective[:2]
        cold = solve_standard(rows2, senses, rhs, obj2)
        warm = solve_standard(
            rows2, senses, rhs, obj2, warm_state=donor.warm_state
        )
        assert warm.status == cold.status
        assert warm.x == cold.x

    def test_keyed_state_with_vanished_variable_degrades_to_point(self):
        """solve_lp: a basic variable missing from the new LP = stale."""

        def build(extra):
            lp = LinearProgram()
            lp.add_variable("x", ub=2)
            lp.add_variable("y", ub=3)
            if extra:
                lp.add_variable("z", ub=1)
            keys = {"x": 1, "y": 2, "z": 1} if extra else {"x": 1, "y": 2}
            lp.add_constraint(keys, "<=", 4)
            obj = {"x": -1, "y": -1, "z": -3} if extra else {"x": -1, "y": -1}
            lp.set_objective(obj)
            return lp

        donor = solve_lp(build(True), backend="exact")
        assert donor.status == "optimal" and donor.warm_state is not None
        # "z" is basic at the donor optimum (cost -3 dominates); the target
        # LP does not have it, so the carried basis cannot resolve.
        cold = solve_lp(build(False), backend="exact")
        warm = solve_lp(build(False), backend="exact", warm_state=donor.warm_state)
        assert warm.status == cold.status == "optimal"
        assert warm.values == cold.values
        assert warm.objective == cold.objective

    def test_verbatim_reuse_requires_token(self):
        """Without a structure token tier 1 never fires (tier 2 may)."""
        rows, senses, rhs, objective = _small_lp()
        token = object()
        donor = solve_standard(
            rows, senses, rhs, objective, structure_token=token
        )
        warm = solve_standard(
            rows, senses, rhs, objective, warm_state=donor.warm_state
        )
        assert warm.status == "optimal"
        assert warm.stats.crash_skips == 0  # no token presented

        verbatim = solve_standard(
            rows, senses, rhs, objective,
            warm_state=donor.warm_state, structure_token=token,
        )
        assert verbatim.status == "optimal"
        assert verbatim.x == donor.x
        assert verbatim.stats.crash_skips == 1
        assert verbatim.stats.basis_reuses == 1
        assert verbatim.stats.phase1_pivots == 0


class TestPivotLimitResumability:
    def test_kernel_raise_leaves_no_global_residue(self):
        """A budgeted abort is an exception, not a corrupted process."""
        rows, senses, rhs, objective = _small_lp()
        with pytest.raises(PivotLimitError):
            solve_standard(rows, senses, rhs, objective, max_pivots=1)
        # The very next solve in the same process is untouched.
        result = solve_standard(rows, senses, rhs, objective)
        assert result.status == "optimal"

    def test_probe_session_resumable_after_pivot_limit(self, monkeypatch):
        """A PivotLimitError mid-search leaves the session answerable."""
        # near_critical has many breakpoints where lower probes are not
        # answered structurally, so one genuinely reaches the solver.
        topo = make_topology("flat4")
        inst = make_instance("near_critical", rng_from_seed(11), topo, n=8)
        builder = IP3Builder(inst)
        T_hi = builder.breakpoints[-1]

        session = _ProbeSession(builder, backend="exact")
        assert session.probe(T_hi) is not None  # seeds point + basis

        import repro.core.programs as programs

        real = programs.feasible_point_rows

        def explode(*args, **kwargs):
            raise PivotLimitError(budget=1, pivots=1, phase=2, kernel="revised")

        # Walk down the breakpoint ladder until a probe actually needs an
        # LP solve — simulating a search step whose carried point did not
        # transfer (real searches hit this whenever the support dies), so
        # the probe reaches the solver and aborts mid-search.
        real_check = programs.check_standard_rows
        monkeypatch.setattr(programs, "feasible_point_rows", explode)
        monkeypatch.setattr(
            programs, "check_standard_rows", lambda *a, **k: False
        )
        T_abort = None
        for T in reversed(builder.breakpoints[:-1]):
            try:
                session.probe(T)
            except PivotLimitError:
                T_abort = T
                break
        assert T_abort is not None, "no probe reached the solver"
        monkeypatch.setattr(programs, "feasible_point_rows", real)
        monkeypatch.setattr(programs, "check_standard_rows", real_check)

        # The session resumes: same verdict as a never-interrupted session.
        fresh = _ProbeSession(builder, backend="exact")
        resumed_verdict = session.probe(T_abort)
        fresh.probe(T_hi)
        fresh_verdict = fresh.probe(T_abort)
        assert (resumed_verdict is None) == (fresh_verdict is None)


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


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(random_lp())
def test_carried_basis_solve_equals_cold_solve(data):
    """Property: warm path ≠ warm answer.  Under ``canonical="lex"`` a
    solve seeded with *any* carried basis lands on the cold solve's exact
    vertex — the lex-min optimum is independent of pricing and warm start.
    """
    rows, senses, rhs, objective = data
    cold = solve_standard(
        rows, senses, rhs, objective, pricing="dantzig", canonical="lex"
    )
    # Donor: a different pricing rule and no cleanup, so its final basis
    # is as unlike the cold path as this LP allows.
    donor = solve_standard(
        rows, senses, rhs, objective, pricing="partial", canonical=False
    )
    assert donor.status == cold.status
    if donor.status != "optimal":
        return
    warm = solve_standard(
        rows, senses, rhs, objective, pricing="dantzig",
        warm_state=donor.warm_state, canonical="lex",
    )
    assert warm.status == "optimal"
    assert warm.objective == cold.objective
    assert warm.x == cold.x  # identical vertex, not just identical value


class TestLexCanonicalAcrossPricing:
    def test_lex_canonical_erases_pricing_choice(self):
        rows, senses, rhs, objective = _small_lp()
        vertices = {
            pricing: solve_standard(
                rows, senses, rhs, objective, pricing=pricing, canonical="lex"
            ).x
            for pricing in ("dantzig", "partial")
        }
        assert vertices["dantzig"] == vertices["partial"]


class TestWarmKeyDrops:
    def test_unknown_warm_keys_counted(self):
        lp = LinearProgram()
        lp.add_variable("x", ub=2)
        lp.add_variable("y", ub=3)
        lp.add_constraint({"x": 1, "y": 2}, "<=", 4)
        lp.set_objective({"x": -1, "y": -1})
        with collect_stats() as stats:
            result = solve_lp(
                lp, backend="exact",
                warm_values={
                    "x": Fraction(1),
                    "ghost": Fraction(5),
                    ("gone", 2): Fraction(7),
                },
            )
        assert result.status == "optimal"
        assert result.stats.warm_key_drops == 2
        assert stats.warm_key_drops == 2

    def test_valid_warm_keys_not_counted(self):
        lp = LinearProgram()
        lp.add_variable("x", ub=2)
        lp.add_constraint({"x": 1}, "<=", 2)
        lp.set_objective({"x": -1})
        result = solve_lp(lp, backend="exact", warm_values={"x": Fraction(1)})
        assert result.status == "optimal"
        assert result.stats.warm_key_drops == 0


class TestSparseDenseEquivalence:
    def _random_basis(self, m, seed):
        rng = random.Random(seed)
        while True:
            cols = []
            for _ in range(m):
                col = {
                    i: rng.randrange(-5, 6)
                    for i in range(m)
                    if rng.random() < 0.5
                }
                cols.append(col)
            b = [rng.randrange(0, 9) for _ in range(m)]
            lub = LUBasis.factorize(m, cols, b)
            if lub is not None:
                return lub, cols

    def test_ftran_btran_identical_on_densified_rows(self):
        """Forcing every W row dense changes nothing but the layout."""
        for seed in (3, 5, 8):
            sparse, cols = self._random_basis(7, seed)
            dense, _ = self._random_basis(7, seed)  # identical factorization
            assert dense.den == sparse.den
            for i in range(dense.m):
                row = dense.inv[i]
                if type(row) is dict:
                    dense.inv[i] = _to_dense(row, dense.m)
                assert dense.row_density(i) == 1.0
            probe_cols = cols + [{i: bigint(1)} for i in range(7)]
            for col in probe_cols:
                assert sparse.ftran(col) == dense.ftran(col)
            for cb in ({0: bigint(1)}, {i: bigint(i + 1) for i in range(7)}):
                assert sparse.btran(cb) == dense.btran(cb)

    def test_sparse_btran_counter_only_on_sparse_rows(self):
        sparse, _ = self._random_basis(6, 13)
        all_sparse = all(type(r) is dict for r in sparse.inv)
        before = sparse.sparse_btrans
        sparse.btran({0: bigint(1)})
        if all_sparse:
            assert sparse.sparse_btrans == before + 1
        dense, _ = self._random_basis(6, 13)
        for i in range(dense.m):
            if type(dense.inv[i]) is dict:
                dense.inv[i] = _to_dense(dense.inv[i], dense.m)
        before = dense.sparse_btrans
        dense.btran({0: bigint(1)})
        assert dense.sparse_btrans == before  # dense path never counts


class TestBigintSeam:
    def test_backend_reported(self):
        assert bigint_backend() in ("gmpy2", "python")
        assert (bigint_backend() == "gmpy2") == HAVE_GMPY2

    def test_bigint_arithmetic_is_exact(self):
        x = bigint(2) ** 200 + bigint(1)
        assert int(x) == 2**200 + 1
        assert Fraction(int(bigint(3)), int(bigint(6))) == Fraction(1, 2)

    @pytest.mark.skipif(not HAVE_GMPY2, reason="gmpy2 not installed")
    def test_kernel_equivalence_under_gmpy2(self):
        """With gmpy2 active the solver still matches the oracle exactly."""
        rows, senses, rhs, objective = _small_lp()
        status, value, vertex = oracle_solve(rows, senses, rhs, objective)
        result = solve_standard(rows, senses, rhs, objective, canonical="lex")
        assert result.status == status == "optimal"
        assert result.objective == value
        assert result.x == vertex
        assert all(isinstance(v, Fraction) for v in result.x)

    def test_escape_hatch_forces_python_ints(self):
        """``REPRO_BIGINT=python`` pins the built-in int in a fresh process."""
        env = dict(os.environ, REPRO_BIGINT="python")
        env["PYTHONPATH"] = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
        )
        code = (
            "from fractions import Fraction\n"
            "from repro._fraction import bigint, bigint_backend\n"
            "assert bigint_backend() == 'python', bigint_backend()\n"
            "assert type(bigint(7)) is int\n"
            "from repro.lp import solve_standard\n"
            "r = solve_standard("
            "[{0: Fraction(1)}], ['<='], [Fraction(2)], [Fraction(-1)])\n"
            "assert r.status == 'optimal' and r.x == [Fraction(2)]\n"
            "print('ok')\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "ok"
