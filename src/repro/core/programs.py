"""Builders for the paper's mathematical programs (IP-1) … (IP-3).

The decision form (IP-3) at a fixed horizon ``T`` is the primitive
everything else uses:

* ``Σ_{α} x_{αj} = 1``          for every job (assignment rows),
* ``Σ_j Σ_{β ⊆ α} p_{βj} x_{βj} ≤ |α|·T``  for every admissible set,
* ``x_{αj} = 0`` whenever ``p_{αj} > T``   (the pruning set ``R``).

Minimizing the makespan reduces to binary search on ``T``: the admissible
pair set ``R(T)`` only changes at the distinct finite processing-time values,
and between two consecutive breakpoints feasibility is a single LP with ``T``
as an explicit variable.  :func:`minimal_fractional_T` implements that search
exactly, returning the paper's lower bound ``T* ≤ opt(I)``.

Probe cost: a naive implementation rebuilds the subset-closure scan
(``O(|F|²·n)``) and cold-starts the simplex at every probe.  The search here
is **incremental** end to end:

* one :class:`IP3Builder` is shared across all probes — the closure is
  computed once, and each probe's rows are materialized by *masking* the
  cached index templates (:meth:`IP3Builder.probe_rows`), not by
  rebuilding a keyed :class:`~repro.lp.model.LinearProgram`.  Masks are
  integer tests: every variable carries the rank of its ``p`` among the
  breakpoints, so ``p ≤ T`` is ``rank ≤ horizon_rank(T)``;
* the float leg is marshaled once per search as well: the builder keeps
  one sparse :class:`~repro.lp.scipy_backend.FloatTemplate` of the
  assignment and load blocks over all columns, and a probe that calls
  HiGHS slices it to its active columns and converts only the right-hand
  sides (:meth:`IP3Builder.float_program`).  HiGHS receives input bit-identical
  to marshaling the probe's own rows, so every verdict is unchanged;
* the breakpoints below the first one that passes the LP-valid demand tests
  of :mod:`repro.rta.demand` cost no LP at all: one combinatorial Farkas
  vector (:meth:`IP3Builder.demand_bracket`), checked exactly against the
  probe rows just below that breakpoint, refutes them all, since LP
  feasibility is monotone in ``T``.  The first survivor is probed first,
  and on the ``approx`` shapes it is the anchor, so the search makes one
  probe solve;
* successive probes reuse the bracketing probes' outcomes: a still-valid
  feasible point answers a "yes" probe after one ``O(nnz)`` exact re-check,
  a still-valid Farkas certificate answers a "no" probe the same way, and
  when a solve is unavoidable it is warm-started from the previous feasible
  point's factorized basis (:class:`_ProbeSession`);
* the search solves at most one min-T LP.  The probe at the anchor (the
  smallest feasible breakpoint) already certified ``T = anchor`` feasible
  under ``R(anchor)``, so only the bracket below it needs an LP, and that
  LP is warm-started from the anchor's feasible point.

The Section VI memory models are (IP-3) plus ``T``-independent packing
rows, so they run the same search: :class:`IP3Builder` takes a static pair
filter and those rows, and :mod:`repro.core.memory` calls
:func:`_search_minimal_T` on such a builder.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import lcm
from typing import AbstractSet, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .._fraction import is_inf, to_fraction
from ..exceptions import InfeasibleError, InvalidInstanceError
from ..lp.certificates import farkas_certifies
from ..lp.model import LinearProgram
from ..lp.solve import check_standard_rows, feasible_point, feasible_point_rows, solve_lp
from ..lp.stats import SolverStats, record
from ..lp.warm import WarmState
from ..obs.trace import span as trace_span
from .assignment import FractionalAssignment
from .instance import Instance
from .laminar import MachineSet

Time = Union[int, Fraction]

#: Variable key for the horizon in the min-T LPs.
T_KEY = ("__T__",)


def admissible_pairs(instance: Instance, T: Time) -> List[Tuple[MachineSet, int]]:
    """The pruning set ``R = {(α, j) : p_{αj} ≤ T}`` of Section V."""
    T = to_fraction(T)
    pairs: List[Tuple[MachineSet, int]] = []
    for j in range(instance.n):
        for alpha in instance.family.sets:
            p = instance.p(j, alpha)
            if not is_inf(p) and to_fraction(p) <= T:
                pairs.append((alpha, j))
    return pairs


class IP3Builder:
    """Instance structure shared by every LP a ``T``-search builds.

    Precomputes the finite pairs, the breakpoint list, and the per-set
    subset-closure templates of the load rows, so each probe LP is a filter
    pass instead of a fresh ``O(|F|²·n)`` scan.  Variable and row ordering
    match :func:`build_ip3` exactly (the vertex a solver returns depends on
    it).

    Two optional inputs extend (IP-3) to the Section VI memory models:
    *pairs*, a static pair filter (only finite ``(α, j)`` pairs in it get a
    variable at any horizon), and *fixed_rows*, ``T``-independent ``≤``
    rows given as ``(coeffs, bound)`` with *coeffs* keyed by ``(α, j)``
    pairs the builder carries.  Every LP the builder emits appends the
    fixed rows after the load rows, masked like them.
    """

    def __init__(
        self,
        instance: Instance,
        pairs: Optional[AbstractSet[Tuple[MachineSet, int]]] = None,
        fixed_rows: Sequence[Tuple[Mapping[Tuple[MachineSet, int], Time], Time]] = (),
    ):
        self.instance = instance
        family = instance.family
        n = instance.n
        #: (j, α, p) for every finite pair, in build_ip3 variable order.
        self.finite: List[Tuple[int, MachineSet, Fraction]] = []
        has_finite = [False] * n
        for j in range(n):
            for alpha in family.sets:
                p = instance.p(j, alpha)
                if not is_inf(p) and (pairs is None or (alpha, j) in pairs):
                    self.finite.append((j, alpha, to_fraction(p)))
                    has_finite[j] = True
        self.jobs_without_options: List[int] = [
            j for j in range(n) if not has_finite[j]
        ]
        self.breakpoints: List[Fraction] = sorted({p for _j, _a, p in self.finite})

        # Index-based row templates for probe masking: probes address
        # variables by their position in ``self.finite`` (stable across all
        # horizons), so materializing a probe is pure integer filtering —
        # no tuple-key hashing, no LinearProgram object.
        var_of_pair: Dict[Tuple[int, MachineSet], int] = {
            (j, alpha): gi for gi, (j, alpha, _p) in enumerate(self.finite)
        }
        #: Processing time per global variable index.
        self.var_p: List[Fraction] = [p for _j, _a, p in self.finite]
        #: Per-job assignment-row template: global variable indices.
        self.assign_template: List[List[int]] = [[] for _ in range(n)]
        for gi, (j, _alpha, _p) in enumerate(self.finite):
            self.assign_template[j].append(gi)
        #: Per-set load-row template: (global index, p_{βj}) over β ⊆ α.
        self.load_template_idx: List[Tuple[MachineSet, List[Tuple[int, Fraction]]]] = []
        for alpha in family.sets:
            entries: List[Tuple[int, Fraction]] = []
            for beta in family.subsets_of(alpha):
                for j in range(n):
                    gi = var_of_pair.get((j, beta))
                    if gi is not None:
                        entries.append((gi, self.var_p[gi]))
            self.load_template_idx.append((alpha, entries))
        #: The fixed rows in index form: ([(global index, coeff)], bound).
        self.fixed_template_idx: List[Tuple[List[Tuple[int, Fraction]], Fraction]] = [
            (
                [
                    (var_of_pair[(j, alpha)], to_fraction(c))
                    for (alpha, j), c in coeffs.items()
                ],
                to_fraction(bound),
            )
            for coeffs, bound in fixed_rows
        ]
        #: Breakpoint rank per global variable index:
        #: ``breakpoints[var_rank[gi]] == var_p[gi]``, so ``p ≤ T`` is the
        #: integer test ``var_rank[gi] ≤ horizon_rank(T)``.
        rank_of = {p: k for k, p in enumerate(self.breakpoints)}
        self.var_rank: List[int] = [rank_of[p] for p in self.var_p]
        #: Smallest horizon rank at which every job has an admissible pair
        #: (``len(breakpoints)`` — never reached — when some job has none).
        self.placement_rank: int = max(
            (
                min((self.var_rank[gi] for gi in gis), default=len(self.breakpoints))
                for gis in self.assign_template
            ),
            default=-1,
        )
        self._float_template = None

    def demand_bracket(self) -> Tuple[int, Optional[Tuple[str, List[Fraction]]]]:
        """First horizon rank the LP-valid demand tests pass, plus a refutation.

        Returns ``(k, refutation)``: *k* is the smallest rank
        ``≥ placement_rank`` at which the ``demand-bound`` and
        ``total-volume`` tests of :mod:`repro.rta.demand` pass over this
        builder's own pairs (``len(breakpoints)`` when they fail at every
        rank), and *refutation* is ``(test, y)`` with ``y`` a Farkas vector
        over ``probe_rows(breakpoints[k - 1])``'s rows, or ``None`` when
        ``k == placement_rank`` (the rank below is structurally infeasible).

        From ``placement_rank`` on every job's cheapest pair is admitted,
        so its cheapest time ``c_j`` no longer moves; job *j* is *trapped*
        in ``β`` at rank *k* while none of its pairs of rank ``≤ k`` lies
        outside ``β``.  Every column of the vector is ``≤ 0``:

        * demand-bound at ``β`` — ``-1`` on ``β``'s load row, ``+c_j`` on
          the assignment row of each job trapped in ``β``: a trapped job's
          columns all sit in ``β``'s load row, so each gets
          ``c_j - p ≤ 0``; an untrapped job's columns get ``-p`` or 0.  The
          gain is ``D(β) - |β|·T``, positive when the test fails;
        * total volume — ``-1`` on every root's load row, ``+c_j`` on every
          assignment row: each column lies under exactly one root.

        Fixed rows get 0.  The heavy-singleton pigeonhole test is not used:
        it holds only for integral assignments.  Demand is non-increasing
        in ``T`` (traps only widen) and capacity increasing, so a test that
        passes at a rank passes above it, and *k* is a binary search.
        """
        points = self.breakpoints
        start = max(self.placement_rank, 0)
        if start >= len(points):
            return start, None
        n = self.instance.n
        finite = self.finite
        rank = self.var_rank
        by_rank = [sorted(gis, key=rank.__getitem__) for gis in self.assign_template]
        cheapest = [self.var_p[gis[0]] for gis in by_rank]
        # The tests compare on integers: every time scaled by one lcm.
        scale = lcm(*(p.denominator for p in points))
        cap = [p.numerator * (scale // p.denominator) for p in points]
        cost = [c.numerator * (scale // c.denominator) for c in cheapest]
        # Per load row: (escape rank, job) for every job with a pair inside
        # β, the escape rank being that of its cheapest-ranked pair outside
        # β — the job is trapped in β at exactly the ranks below it.
        trapped: List[List[Tuple[int, int]]] = []
        for _alpha, entries in self.load_template_idx:
            inside = {gi for gi, _p in entries}
            escapes = []
            for j in {finite[gi][0] for gi in inside}:
                escape = next(
                    (rank[gi] for gi in by_rank[j] if gi not in inside), len(points)
                )
                escapes.append((escape, j))
            trapped.append(escapes)
        sizes = [len(alpha) for alpha, _entries in self.load_template_idx]
        roots = [
            b for b, (alpha, _e) in enumerate(self.load_template_idx)
            if self.instance.family.parent(alpha) is None
        ]
        volume = sum(cost)
        root_size = sum(sizes[b] for b in roots)

        def violated(k: int) -> Optional[Tuple[str, int]]:
            """The first failing test at rank *k*: ``(test, load row)``."""
            for b, escapes in enumerate(trapped):
                if sum(cost[j] for e, j in escapes if e > k) > sizes[b] * cap[k]:
                    return "demand-bound", b
            if volume > root_size * cap[k]:
                return "total-volume", -1
            return None

        lo, hi = start, len(points)
        while lo < hi:
            mid = (lo + hi) // 2
            if violated(mid) is None:
                hi = mid
            else:
                lo = mid + 1
        if lo == start:
            return lo, None
        test, b = violated(lo - 1)
        y = [Fraction(0)] * (n + len(self.load_template_idx) + len(self.fixed_template_idx))
        if test == "demand-bound":
            y[n + b] = Fraction(-1)
            for e, j in trapped[b]:
                if e > lo - 1:
                    y[j] = cheapest[j]
        else:
            for r in roots:
                y[n + r] = Fraction(-1)
            y[:n] = cheapest
        return lo, (test, y)

    def horizon_rank(self, T: Fraction) -> int:
        """Index of the largest breakpoint ``≤ T`` (``-1`` below them all)."""
        return bisect_right(self.breakpoints, T) - 1

    def float_program(self, active: List[int], rhs: List[Fraction]):
        """HiGHS input of the probe whose ``probe_rows`` gave *active*, *rhs*.

        Sliced from one :class:`~repro.lp.scipy_backend.FloatTemplate` of
        the assignment, load and fixed blocks over global columns, built on
        first use; only the right-hand sides are converted per probe, the load
        bounds from the exact products ``|α|·T`` in *rhs*
        (``|α|·float(T)`` can differ in the last ulp).  Bit-identical to
        marshaling ``probe_rows(T)`` itself.
        """
        if self._float_template is None:
            from ..lp.scipy_backend import FloatTemplate

            p_float = [float(p) for p in self.var_p]
            rows: List[Dict[int, float]] = [
                {gi: 1.0 for gi in gis} for gis in self.assign_template
            ]
            rows += [
                {gi: p_float[gi] for gi, _p in entries}
                for _alpha, entries in self.load_template_idx
            ]
            rows += [
                {gi: float(c) for gi, c in entries}
                for entries, _bound in self.fixed_template_idx
            ]
            senses = ["=="] * len(self.assign_template)
            senses += ["<="] * (len(rows) - len(senses))
            self._float_template = FloatTemplate(rows, senses, len(self.finite))
        return self._float_template.program(active, rhs)

    def probe_rows(
        self, T: Fraction
    ) -> Tuple[List[Dict[int, Fraction]], List[str], List[Fraction], List[int]]:
        """The decision LP at horizon *T* as masked standard rows.

        Returns ``(coeff_rows, senses, rhs, active)`` where *active* maps
        local variable index → position in ``self.finite``.  Row order is
        the :func:`build_ip3` order (all assignment rows, then all load
        rows), followed by the fixed rows; one order at every horizon is
        what keeps Farkas certificates transferable between probes.
        ``O(nnz)`` — a filter pass over cached index templates, masking on
        the integer ``var_rank[gi] ≤ horizon_rank(T)`` rather than on
        Fraction comparisons.
        """
        k = self.horizon_rank(T)
        rank = self.var_rank
        active = [gi for gi, r in enumerate(rank) if r <= k]
        local = {gi: li for li, gi in enumerate(active)}
        coeff_rows: List[Dict[int, Fraction]] = []
        senses: List[str] = []
        rhs: List[Fraction] = []
        one = Fraction(1)
        for j in range(self.instance.n):
            coeff_rows.append(
                {local[gi]: one for gi in self.assign_template[j] if rank[gi] <= k}
            )
            senses.append("==")
            rhs.append(one)
        for alpha, entries in self.load_template_idx:
            coeff_rows.append(
                {local[gi]: p for gi, p in entries if rank[gi] <= k}
            )
            senses.append("<=")
            rhs.append(len(alpha) * T)
        for entries, bound in self.fixed_template_idx:
            coeff_rows.append({local[gi]: c for gi, c in entries if rank[gi] <= k})
            senses.append("<=")
            rhs.append(bound)
        return coeff_rows, senses, rhs, active

    def min_T_lp(self, r_anchor: Fraction, t_low: Fraction) -> Optional[LinearProgram]:
        """Min-T LP with ``R`` frozen at *r_anchor* and ``T ≥ t_low``.

        Returns ``None`` when some job has no admissible set at the anchor
        (the frozen-R program is then trivially infeasible).
        """
        k = self.horizon_rank(r_anchor)
        if k < self.placement_rank:
            return None
        rank = self.var_rank
        keys = [("x", alpha, j) for j, alpha, _p in self.finite]
        lp = LinearProgram()
        lp.add_variable(T_KEY, lb=0)
        for gi, key in enumerate(keys):
            if rank[gi] <= k:
                # No explicit ub: x ≤ 1 is implied by the assignment rows,
                # and a bound row would multiply the basis size.
                lp.add_variable(key, lb=0)
        for j, gis in enumerate(self.assign_template):
            lp.add_constraint(
                {keys[gi]: 1 for gi in gis if rank[gi] <= k},
                "==", 1, name=f"assign[{j}]",
            )
        for alpha, entries in self.load_template_idx:
            coeffs: Dict = {T_KEY: -len(alpha)}
            for gi, p in entries:
                if rank[gi] <= k:
                    coeffs[keys[gi]] = p
            lp.add_constraint(coeffs, "<=", 0, name=f"load[{sorted(alpha)}]")
        for i, (entries, bound) in enumerate(self.fixed_template_idx):
            lp.add_constraint(
                {keys[gi]: c for gi, c in entries if rank[gi] <= k},
                "<=", bound, name=f"fixed[{i}]",
            )
        lp.add_constraint({T_KEY: 1}, ">=", t_low, name="bracket-low")
        lp.set_objective({T_KEY: 1})
        return lp


class _ProbeSession:
    """Incremental feasibility probing for one binary search.

    Carries the last feasible point and the last Farkas certificate across
    probes.  Probe rows share one variable indexing (positions in
    ``builder.finite``) and one row order, so both artifacts transfer
    between horizons: a point transfers downward whenever its support
    survives the shrunken pruning set and the tightened load bounds (one
    exact ``O(nnz)`` re-check decides), a certificate transfers upward
    whenever the new columns keep its column sums non-positive (same
    check).  Either hit answers the probe with **no LP solve at all**;
    misses fall through to a certified solve warm-started from the masked
    previous point.  Shortcut hits are recorded as
    ``point_reuses``/``farkas_reuses`` in any active
    :func:`repro.lp.stats.collect_stats` scope.

    Probes that do solve additionally carry the solver's **basis**
    (:class:`~repro.lp.warm.WarmState`) to the next probe.  The state is
    stored in the local column space of the producing probe together with
    its ``active`` mask; a consumer with the *same* active set hands it to
    the solver unchanged (the structure token then authorizes verbatim
    ``W`` reuse whenever the row scales also agree), while a different
    active set relabels through the shared global indexing — dropping the
    token, so the solver refactorizes the surviving basis (``O(m³)``, still
    skipping phase 1 and the warm-point push).  A basis whose basic
    structural columns were masked away degrades to the point path.
    """

    def __init__(self, builder: IP3Builder, backend: str):
        self.builder = builder
        self.backend = backend
        #: Last feasible point, keyed by global variable index (support only).
        self.point: Optional[Dict[int, Fraction]] = None
        #: Last verified Farkas certificate, in probe-row order.
        self.farkas: Optional[List[Fraction]] = None
        #: Basis of the last probe that actually solved (local labels).
        self.state: Optional[WarmState] = None
        #: The ``active`` mask (local→global) the state was produced under.
        self.state_active: Optional[Tuple[int, ...]] = None

    def _token(self, active: Tuple[int, ...]) -> Tuple:
        """Structure witness: same builder + same active mask ⇒ identical
        probe columns (row order and unscaled coefficients are functions of
        the templates and the mask; scale equality is checked separately by
        the solver)."""
        return (id(self.builder), active)

    def _carried_state(
        self, active: List[int]
    ) -> Tuple[Optional[WarmState], object]:
        """The carried basis relabelled for a probe over *active*."""
        if self.state is None or self.state_active is None:
            return None, None
        key = tuple(active)
        if self.state_active == key:
            return self.state, self._token(key)
        old_active = self.state_active
        new_local = {gi: li for li, gi in enumerate(active)}

        def mapper(li_old: object) -> Optional[int]:
            if not isinstance(li_old, int) or not 0 <= li_old < len(old_active):
                return None  # pragma: no cover - labels are self-produced
            return new_local.get(old_active[li_old])

        return self.state.relabel(mapper, new_n=len(active)), None

    def probe(self, T: Fraction) -> Optional[Dict[int, Fraction]]:
        """Certified feasibility verdict at horizon *T*.

        Returns the feasible point (global-index keyed, support only) or
        ``None`` for a certified infeasibility.
        """
        builder = self.builder
        rank = builder.var_rank
        k = builder.horizon_rank(T)
        with trace_span("search.probe", T=str(T)) as probe_sp:
            # A job with no admissible pair at T is an unsatisfiable {} == 1
            # row; decide it structurally instead of building the LP.
            if k < builder.placement_rank:
                if probe_sp:
                    probe_sp.attrs["outcome"] = "structurally-infeasible"
                return None
            coeff_rows, senses, rhs, active = builder.probe_rows(T)
            if self.farkas is not None and farkas_certifies(
                coeff_rows, senses, rhs, self.farkas
            ):
                record(SolverStats(farkas_reuses=1))
                if probe_sp:
                    probe_sp.attrs["outcome"] = "farkas-reuse"
                return None
            masked: Optional[List[Fraction]] = None
            if self.point is not None:
                masked = [self.point.get(gi, Fraction(0)) for gi in active]
                support_survives = all(rank[gi] <= k for gi in self.point)
                if support_survives and check_standard_rows(
                    coeff_rows, senses, rhs, masked
                ):
                    record(SolverStats(point_reuses=1))
                    if probe_sp:
                        probe_sp.attrs["outcome"] = "point-reuse"
                    return self.point
            carried, token = self._carried_state(active)
            point, farkas, state = feasible_point_rows(
                coeff_rows, senses, rhs, len(active),
                backend=self.backend, warm_point=masked,
                warm_state=carried, structure_token=token,
                want_state=True,
                _float_program=lambda: builder.float_program(active, rhs),
            )
            if probe_sp:
                # The span has seen no solve but this one.
                probe_sp.attrs["basis_reuse"] = bool(probe_sp.stats.basis_reuses)
            if state is not None:
                self.state = state
                self.state_active = tuple(active)
            if point is not None:
                self.point = {
                    active[li]: v for li, v in enumerate(point) if v
                }
                if probe_sp:
                    probe_sp.attrs["outcome"] = "solved-feasible"
                return self.point
            if farkas is not None:
                self.farkas = farkas
            if probe_sp:
                probe_sp.attrs["outcome"] = "solved-infeasible"
            return None

    def refute(self, T: Fraction, test: str, y: List[Fraction]) -> bool:
        """Check the demand vector *y* against the probe rows at *T*.

        A vector that certifies is recorded as a ``demand_refutations``
        probe and seeds the carried certificate; one that does not is
        reported (``False``) and never used.
        """
        with trace_span("search.probe", T=str(T), test=test) as probe_sp:
            coeff_rows, senses, rhs, _active = self.builder.probe_rows(T)
            if not farkas_certifies(coeff_rows, senses, rhs, y):
                if probe_sp:
                    probe_sp.attrs["outcome"] = "demand-rejected"
                return False
            record(SolverStats(demand_refutations=1))
            self.farkas = list(y)
            if probe_sp:
                probe_sp.attrs["outcome"] = "demand-refuted"
            return True

    def keyed_point(self, gpoint: Dict[int, Fraction]) -> Dict:
        """A global-index point as ``("x", α, j)``-keyed LP warm values."""
        finite = self.builder.finite
        return {
            ("x", finite[gi][1], finite[gi][0]): v for gi, v in gpoint.items()
        }


def build_ip3(
    instance: Instance,
    T: Time,
    integral: bool = False,
) -> LinearProgram:
    """The decision program (IP-3) at horizon *T* (LP relaxation by default).

    Variables are keyed ``("x", α, j)``; only pairs in ``R(T)`` get a
    variable, which encodes constraint (3c) structurally.
    """
    T = to_fraction(T)
    lp = LinearProgram()
    pairs = admissible_pairs(instance, T)
    by_job: Dict[int, List[MachineSet]] = {}
    for alpha, j in pairs:
        # ub=1 is implied by the assignment rows; it is only declared for
        # integral builds, where branch-and-bound requires explicit bounds.
        lp.add_variable(
            ("x", alpha, j), lb=0, ub=1 if integral else None, integral=integral
        )
        by_job.setdefault(j, []).append(alpha)
    for j in range(instance.n):
        if j not in by_job:
            # No admissible set fits within T — encode infeasibility as an
            # unsatisfiable row instead of raising, so binary search can
            # treat it uniformly.
            lp.add_constraint({}, "==", 1, name=f"assign[{j}]")
        else:
            lp.add_constraint(
                {("x", alpha, j): 1 for alpha in by_job[j]},
                "==",
                1,
                name=f"assign[{j}]",
            )
    for alpha in instance.family.sets:
        coeffs: Dict = {}
        for beta in instance.family.subsets_of(alpha):
            for j in range(instance.n):
                key = ("x", beta, j)
                if lp.has_variable(key):
                    coeffs[key] = to_fraction(instance.p(j, beta))
        lp.add_constraint(coeffs, "<=", len(alpha) * T, name=f"load[{sorted(alpha)}]")
    return lp


def feasible_lp_solution(
    instance: Instance,
    T: Time,
    backend: str = "hybrid",
) -> Optional[FractionalAssignment]:
    """A feasible fractional solution of (IP-3)'s LP relaxation at *T*.

    Returns ``None`` when the relaxation is infeasible.  The solution is a
    basic one (vertex) with the exact and hybrid backends.  With
    ``backend="scipy"`` the rationalized point is re-checked exactly and
    **repaired** (exact re-solve, warm-started from the candidate) when it
    violates any constraint — an uncertified point never propagates into
    ``push_down``/``lst_round``.
    """
    lp = build_ip3(instance, T)
    solution = solve_lp(lp, backend=backend)
    if not solution.is_optimal and backend == "scipy":
        # A float "infeasible" right at the certified T* boundary is noise
        # territory; re-derive the verdict exactly before returning None.
        solution = solve_lp(lp, backend="exact")
    if not solution.is_optimal:
        return None
    if backend == "scipy" and lp.check_values(solution.values):
        # Rationalization noise: certify by exact re-solve instead of
        # handing a near-feasible point to the rounding arguments.
        solution = solve_lp(lp, backend="exact", warm_values=solution.values)
        if not solution.is_optimal:  # pragma: no cover - float false positive
            return None
    values = {
        (alpha, j): value
        for (tag, alpha, j), value in solution.values.items()
        if tag == "x" and value != 0
    }
    return FractionalAssignment(values)


def lp_feasible(instance: Instance, T: Time, backend: str = "hybrid") -> bool:
    """Whether the LP relaxation of (IP-3) is feasible at horizon *T*.

    Certified for every backend: the verdict is always backed by either an
    exactly re-checked point or an exact solve (see
    :func:`repro.lp.solve.feasible_point`).
    """
    lp = build_ip3(instance, to_fraction(T))
    return feasible_point(lp, backend=backend) is not None


def _min_T_with_fixed_R(
    builder: IP3Builder,
    r_anchor: Fraction,
    t_low: Fraction,
    backend: str,
    warm_values: Optional[Dict] = None,
) -> Optional[Fraction]:
    """Minimize T over the LP with ``R = R(r_anchor)`` and ``T ≥ t_low``.

    Returns the optimal T or ``None`` when infeasible.  Caller must ensure
    the returned value stays inside the bracket where ``R`` is constant.
    *warm_values* (a feasible point of the decision LP at a neighbouring
    horizon) lets the exact/hybrid backends start from a feasible basis.
    The optimum ``T`` is vertex-invariant, so the vertex is not
    canonicalized.
    """
    with trace_span(
        "search.min_T", anchor=str(r_anchor), warm=warm_values is not None,
    ) as min_sp:
        lp = builder.min_T_lp(r_anchor, t_low)
        if lp is None:
            if min_sp:
                min_sp.attrs["outcome"] = "trivially-infeasible"
            return None
        solution = solve_lp(
            lp, backend=backend, warm_values=warm_values, canonical=False
        )
        if not solution.is_optimal:
            if min_sp:
                min_sp.attrs["outcome"] = "infeasible"
            return None
        if min_sp:
            min_sp.attrs["outcome"] = "optimal"
        return to_fraction(solution.value(T_KEY))


def _search_minimal_T(builder: IP3Builder, backend: str) -> Fraction:
    """The minimum horizon at which *builder*'s LP relaxation is feasible.

    Binary search over ``builder.breakpoints`` (non-empty), then at most
    one min-T LP.  The search is sound because LP feasibility is monotone
    in ``T``: raising ``T`` only adds columns (``R(T)`` grows) and only
    loosens the load bounds ``|α|·T``, so a point feasible at one horizon
    stays feasible above it, and a horizon refuted is refuted below.

    The lower bracket comes from :meth:`IP3Builder.demand_bracket`: the
    first rank *k* the demand tests pass, with a Farkas vector for rank
    ``k - 1``.  The vector is trusted only after
    :func:`~repro.lp.certificates.farkas_certifies` accepts it against
    that probe's own rows (``yᵀA ≤ 0`` column-wise and ``yᵀb > 0`` prove
    the rows empty), and by monotonicity it then refutes every
    breakpoint below *k* with no LP.  ``breakpoints[k]`` is probed first:
    when it is feasible it is the anchor and the search is over; when not,
    the binary search runs over ``(k, top]``, its solved certificate
    carrying upward.  A vector that fails its check is a bug: the search
    falls back to ``lo = 0`` and records the reason as ``demand`` on its
    span.  The probes run through :class:`_ProbeSession`, so consecutive
    probes reuse each other's feasible points and Farkas certificates.

    The anchor — the smallest breakpoint whose probe is feasible — needs
    no LP of its own: with ``R(anchor)`` and ``T ≥ anchor`` the optimum is
    ``anchor`` itself, since its probe certified that horizon.  Only the
    bracket below it, with ``R(prev)``, can hold a smaller ``T``.  Raises
    :class:`InfeasibleError` when no horizon is feasible, which only
    fixed rows can cause.
    """
    points = builder.breakpoints
    with trace_span(
        "search.minimal_fractional_T",
        n=builder.instance.n, backend=backend, breakpoints=len(points),
    ) as search_sp:
        session = _ProbeSession(builder, backend)
        lo_idx, refutation = builder.demand_bracket()
        if refutation is not None:
            test, y = refutation
            if not session.refute(points[lo_idx - 1], test, y):
                if search_sp:
                    search_sp.attrs["demand"] = (
                        f"rejected: {test} vector does not certify "
                        f"T={points[lo_idx - 1]}"
                    )
                lo_idx = 0
        hi_idx = len(points) - 1
        anchor_point = None
        if lo_idx <= hi_idx:
            anchor_point = session.probe(points[lo_idx])
            if anchor_point is not None:
                hi_idx = lo_idx
            elif lo_idx < hi_idx:
                lo_idx += 1
                anchor_point = session.probe(points[hi_idx])
        if anchor_point is None:
            # The optimum lies above every processing time (the load bound
            # dominates); R is maximal there, so one min-T LP settles it.
            top = points[hi_idx]
            t_above = _min_T_with_fixed_R(builder, top, top, backend)
            if t_above is None:
                raise InfeasibleError("LP relaxation infeasible at every horizon")
            return t_above
        # Find the smallest breakpoint index at which the LP becomes
        # feasible; anchor_point stays the feasible point at points[hi_idx].
        while lo_idx < hi_idx:
            mid = (lo_idx + hi_idx) // 2
            mid_point = session.probe(points[mid])
            if mid_point is not None:
                anchor_point = mid_point
                hi_idx = mid
            else:
                lo_idx = mid + 1
        anchor = points[lo_idx]
        if lo_idx == 0:
            return anchor
        # Below `anchor`, R is strictly smaller: the previous bracket
        # [prev, anchor) with R(prev) may still hold a smaller T.  The
        # anchor's feasible point, restricted to R(prev)'s variables (absent
        # keys are dropped and counted by the solver), with ``T = anchor``
        # is the best available seed: often feasible for that LP, and its
        # support still crashes most of the basis when it is not.
        prev = points[lo_idx - 1]
        prev_warm = session.keyed_point(anchor_point)
        prev_warm[T_KEY] = anchor
        t_prev = _min_T_with_fixed_R(
            builder, prev, prev, backend, warm_values=prev_warm
        )
        if t_prev is not None and t_prev < anchor:
            return t_prev
        return anchor


def minimal_fractional_T(instance: Instance, backend: str = "hybrid") -> Fraction:
    """The minimum horizon ``T*`` at which (IP-3)'s LP relaxation is feasible.

    This is the paper's fractional lower bound: ``T* ≤ opt(I)``, found by
    :func:`_search_minimal_T`.

    Degenerate inputs resolve exactly instead of entering a vacuous search:

    * no jobs → ``0``;
    * a job whose processing row is all-INF can never be placed at any
      horizon → :class:`InvalidInstanceError` (structural, not a matter of
      ``T``);
    * all finite processing times zero (zero-volume instance) → ``0``.
    """
    if instance.n == 0:
        return Fraction(0)
    builder = IP3Builder(instance)
    if builder.jobs_without_options:
        jobs = builder.jobs_without_options
        raise InvalidInstanceError(
            f"job(s) {jobs} have no finite processing time on any admissible "
            f"set; no horizon T can make (IP-3) feasible"
        )
    if builder.breakpoints[-1] == 0:
        # Every finite time is 0 and every job has one: T* = 0 exactly.
        return Fraction(0)
    return _search_minimal_T(builder, backend)
