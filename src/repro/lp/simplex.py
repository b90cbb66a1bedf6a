"""Exact revised simplex over the rationals, with fraction-free pivoting.

The rounding arguments of Sections V and VI need *basic* feasible solutions:
Lenstra–Shmoys–Tardos relies on the pseudo-forest structure of a vertex's
support, and Lemma VI.2's iterative relaxation counts fractional variables at
a vertex.  Floating-point solvers return "almost" vertices; telling a
fractional value from numeric noise then needs tolerances that can break the
combinatorial arguments.  This implementation is exact throughout, so support
and fractionality are exact properties.

Arithmetic: each constraint row is pre-scaled to integers and the solver
keeps only the basis inverse, factorized in Edmonds' integer-preserving form
(:class:`repro.lp.basis.LUBasis` — the arithmetic lrs uses), so no rational
normalization ever happens inside the pivot loop.  An iteration
reconstructs just what it needs:

* the dual row ``y = c_B·B⁻¹`` by one backward transform (``btran``) of the
  sparse basic-cost vector,
* reduced costs ``c_j − y·a_j`` by sparse dot products against the original
  columns (*pricing* — never materialized as a row),
* the entering column ``B⁻¹·a_q`` by one forward transform (``ftran``),
* the basis exchange by one ``O(rows²)`` rank-one update.

Pricing: ``pricing="dantzig"`` prices every column and enters the most
negative reduced cost (ties to the smallest index).  ``pricing="partial"``
scans columns in rotating blocks and takes the Dantzig winner of the first
block containing an improving column; it prices only a fraction of the
columns per iteration but may land on a *different* (equally optimal)
vertex when optima are non-unique.  Under both rules, once the pivot count
crosses ``bland_threshold`` the rule switches to Bland's smallest-index rule,
which cannot cycle, so termination is guaranteed.

Vertex identity: ``canonical=True`` pins Dantzig pricing, so a program
always yields the same deterministic vertex; ``canonical="lex"`` pivots the
optimum to the lexicographically minimal optimal vertex, which is
independent of the pricing rule and of any warm start.

Warm starts: callers that already hold a (near-)feasible point — a prior
solve of a neighbouring LP in a binary search, or a rationalized HiGHS
candidate in the ``hybrid`` backend — pass it as ``warm_point`` (or its bare
support as ``warm_hints``).  The support columns are eliminated straight
into the basis (``O(rows³)``, independent of the column count); a crash
that lands on an infeasible dictionary falls back to ordinary ratio-test
pushes, which preserve feasibility unconditionally.  A carried
:class:`~repro.lp.warm.WarmState` reinstalls a previous solve's basis.

Infeasible programs return an exact Farkas certificate
(:mod:`repro.lp.certificates`) read off the optimal phase-1 duals, so
callers running probe sequences can re-check it against a neighbouring LP
and skip entire solves.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Dict, List, Optional, Sequence, Tuple

from .._fraction import bigint, to_fraction
from ..exceptions import PivotLimitError, SolverError
from .basis import LUBasis
from .certificates import denormalize_farkas, farkas_certifies
from .stats import SolverStats, record
from .warm import WarmState

#: After this many pivots the pivot rule switches to Bland's (anti-cycling).
#: Overridable per solve via ``solve_standard(bland_threshold=…)``.
BLAND_THRESHOLD_DEFAULT = 5000
#: Default hard cap — exceeded only by a bug, not by honest degeneracy.
#: Overridable per solve via ``solve_standard(max_pivots=…)``; exceeding it
#: raises the structured :class:`~repro.exceptions.PivotLimitError`.
MAX_PIVOTS_DEFAULT = 200000

#: Process-default override of :data:`MAX_PIVOTS_DEFAULT` (``None`` = use
#: the constant).  The sweep runner's per-task pivot budget
#: (:mod:`repro.runner.budget`) installs a cap here for the duration of a
#: worker task, so every solve the task performs — however deep in the
#: pipeline — answers to the budget without threading ``max_pivots``
#: through every call chain.
_default_max_pivots: "Optional[int]" = None


def set_default_max_pivots(cap: "Optional[int]") -> "Optional[int]":
    """Set the process-default pivot budget; returns the previous value.

    ``None`` restores :data:`MAX_PIVOTS_DEFAULT`.  Explicit
    ``solve_standard(max_pivots=…)`` arguments always win over the default.
    """
    global _default_max_pivots
    previous = _default_max_pivots
    _default_max_pivots = cap
    return previous


def default_max_pivots() -> int:
    """The pivot budget solves use when no ``max_pivots`` is passed."""
    return MAX_PIVOTS_DEFAULT if _default_max_pivots is None else _default_max_pivots


#: Pricing rules the solver implements (see the module docstring).
PRICINGS: Tuple[str, ...] = ("dantzig", "partial")

#: Pricing of a **non-canonical** solve given ``pricing=None`` (probes,
#: min-T bisection — the hot paths, where any optimal vertex will do).
#: Canonical solves with ``pricing=None`` pin Dantzig instead.
_PROBE_PRICING = "partial"


@dataclass
class SimplexResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: List[Fraction]
    objective: Optional[Fraction]
    basis: Optional[List[int]]
    pivots: int = 0
    #: Per-solve performance counters (``None`` for the float backend).
    stats: Optional[SolverStats] = None
    #: Verified Farkas certificate (infeasible results; row-indexed in the
    #: caller's row order, see :mod:`repro.lp.certificates`).
    farkas: Optional[List[Fraction]] = None
    #: Carried solver state for the *next* solve (optimal results only):
    #: the final basis as labels, the live factorized basis, and the
    #: vertex.  Process-local ephemera — never serialized.
    warm_state: Optional[WarmState] = None

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"


@dataclass
class StandardForm:
    """The normalized standard form shared by the exact and hybrid solvers.

    Rows are sign-normalized to ``b ≥ 0``; slack and artificial variables are
    assigned fixed column indices so a candidate basis can be described by
    column index alone.
    """

    n: int  # structural variables
    num_rows: int
    rows: List[Dict[int, Fraction]]
    senses: List[str]
    rhs: List[Fraction]
    slack_of_row: List[Optional[int]]
    slack_sign: List[int]
    needs_artificial: List[bool]
    art_start: int  # first artificial column; == total non-artificial columns
    total_cols: int  # including artificials, excluding the rhs column


def standard_form(
    coeff_rows: Sequence[Dict[int, Fraction]],
    senses: Sequence[str],
    rhs: Sequence[Fraction],
    objective: Sequence[Fraction],
) -> StandardForm:
    """Normalize ``min c·x s.t. rows, x ≥ 0`` for the exact and hybrid solvers."""
    n = len(objective)
    r = len(coeff_rows)
    if len(senses) != r or len(rhs) != r:
        raise SolverError("rows, senses and rhs must have equal length")
    norm_rows: List[Dict[int, Fraction]] = []
    norm_rhs: List[Fraction] = []
    norm_senses: List[str] = []
    for i in range(r):
        row = dict(coeff_rows[i])
        b = to_fraction(rhs[i])
        sense = senses[i]
        if sense not in ("<=", ">=", "=="):
            raise SolverError(f"unknown sense {sense!r}")
        if b < 0:
            row = {j: -v for j, v in row.items()}
            b = -b
            sense = {"<=": ">=", ">=": "<=", "==": "=="}[sense]
        norm_rows.append(row)
        norm_rhs.append(b)
        norm_senses.append(sense)

    slack_index = n
    slack_of_row: List[Optional[int]] = [None] * r
    slack_sign: List[int] = [0] * r
    for i, sense in enumerate(norm_senses):
        if sense in ("<=", ">="):
            slack_of_row[i] = slack_index
            slack_sign[i] = 1 if sense == "<=" else -1
            slack_index += 1
    needs_artificial = [sense in (">=", "==") for sense in norm_senses]
    art_start = slack_index
    total_cols = art_start + sum(needs_artificial)
    return StandardForm(
        n=n,
        num_rows=r,
        rows=norm_rows,
        senses=norm_senses,
        rhs=norm_rhs,
        slack_of_row=slack_of_row,
        slack_sign=slack_sign,
        needs_artificial=needs_artificial,
        art_start=art_start,
        total_cols=total_cols,
    )


def _point_hints(point: Sequence[Fraction]) -> List[int]:
    """Support of a warm-start point, largest value first (deterministic)."""
    support = [(v, j) for j, v in enumerate(point) if v > 0]
    support.sort(key=lambda pair: (-pair[0], pair[1]))
    return [j for _v, j in support]


#: Relative slack below which a row counts as tight at a warm-start point.
#: Only a *heuristic* (the crash result is verified exactly afterwards), so
#: the tolerance exists to keep rationalization noise from hiding a row that
#: is tight at the true vertex.
_TIGHT_EPS = 1e-9


def _tight_rows(
    coeff_rows: Sequence[Dict[int, Fraction]],
    senses: Sequence[str],
    rhs: Sequence[Fraction],
    point: Sequence[Fraction],
) -> List[bool]:
    """Which rows hold with (near-)equality at *point*.

    Equality rows count as tight regardless of the (possibly noisy) point —
    their artificial has to leave the basis either way.
    """
    flags: List[bool] = []
    # Float throughout: this is a heuristic with a relative tolerance nine
    # orders of magnitude above float dot-product noise, and the crash it
    # feeds is verified exactly afterwards.  Exact Fraction accumulation
    # here used to be one of the most expensive steps of a warm solve.
    fpoint = [float(v) for v in point]
    for row, sense, b in zip(coeff_rows, senses, rhs):
        if sense == "==":
            flags.append(True)
            continue
        activity = 0.0
        for j, v in row.items():
            pj = fpoint[j]
            if pj:
                activity += float(v) * pj
        fb = float(b)
        flags.append(abs(activity - fb) <= _TIGHT_EPS * max(1.0, abs(fb)))
    return flags


class _RevisedSolver:
    """One solve's state: scaled columns, factorized basis, counters."""

    def __init__(
        self,
        std,
        objective: Sequence[Fraction],
        bland_threshold: int,
        max_pivots: int,
        pricing: str,
    ):
        self.std = std
        self.m = std.num_rows
        self.bland_threshold = bland_threshold
        self.max_pivots = max_pivots
        if pricing not in PRICINGS:
            raise SolverError(f"unknown pricing rule {pricing!r}")
        self.pricing = pricing
        self.stats = SolverStats(solves=1)
        self.phase = 2

        # Row scales: every constraint row becomes integer; slacks and
        # artificials are implicitly rescaled with their row (their columns
        # keep ±1 entries) without changing the structural solution.
        m, n = self.m, std.n
        self.scales: List[int] = []
        for i in range(m):
            scale = 1
            for v in std.rows[i].values():
                scale = lcm(scale, v.denominator)
            scale = lcm(scale, std.rhs[i].denominator)
            self.scales.append(scale)
        # Kernel integers go through the active bigint backend (gmpy2 when
        # available): products/sums inside ftran/btran/update then stay in
        # the fast type automatically.  Each row scale is a multiple of
        # every denominator in its row, so the scaled entries come from
        # pure integer arithmetic — no Fraction multiply (whose gcd
        # normalization used to dominate solver construction).
        self.b_int: List[int] = [
            bigint(
                std.rhs[i].numerator * (self.scales[i] // std.rhs[i].denominator)
            )
            for i in range(m)
        ]

        # Sparse integer columns of [A | S | I].
        cols: List[Dict[int, int]] = [dict() for _ in range(std.total_cols)]
        for i in range(m):
            scale = self.scales[i]
            for j, v in std.rows[i].items():
                cols[j][i] = bigint(v.numerator * (scale // v.denominator))
        art_index = std.art_start
        self.art_of_row: List[Optional[int]] = [None] * m
        for i in range(m):
            s = std.slack_of_row[i]
            if s is not None:
                cols[s][i] = std.slack_sign[i]
            if std.needs_artificial[i]:
                cols[art_index][i] = 1
                self.art_of_row[i] = art_index
                art_index += 1
        self.cols = cols
        self.col_items: List[Tuple[Tuple[int, int], ...]] = [
            tuple(c.items()) for c in cols
        ]

        # Scaled integer objective (positive scaling preserves signs/argmin).
        obj_scale = 1
        fr_obj = [to_fraction(c) for c in objective]
        for c in fr_obj:
            obj_scale = lcm(obj_scale, c.denominator)
        self.c_int: List[int] = [
            bigint(c.numerator * (obj_scale // c.denominator)) for c in fr_obj
        ]

        # Slack-or-artificial starting basis (identity in the scaled system).
        self.basis: List[int] = [
            self.art_of_row[i]
            if self.art_of_row[i] is not None
            else std.slack_of_row[i]  # type: ignore[list-item]
            for i in range(m)
        ]
        self.lub = LUBasis(m, self.b_int)
        self._cursor = 0
        self._block = max(64, (std.art_start + 7) // 8)

    # ------------------------------------------------------------------
    # Counters
    # ------------------------------------------------------------------

    @property
    def pivots(self) -> int:
        return self.lub.updates

    def _pivot(self, row: int, alpha: Sequence[int], col: int) -> None:
        self.lub.update(row, alpha)
        self.basis[row] = col
        if self.phase == 1:
            self.stats.phase1_pivots += 1
        if self.lub.updates > self.max_pivots:
            raise PivotLimitError(
                self.max_pivots, self.lub.updates, self.phase, kernel="revised"
            )

    # ------------------------------------------------------------------
    # Pricing
    # ------------------------------------------------------------------

    def _structural_cost(self, j: int) -> int:
        # Phase 1 prices against zero structural costs; phase 2 against the
        # scaled objective (slack/artificial costs are zero in both).
        if self.phase == 1 or j >= self.std.n:
            return 0
        return self.c_int[j]

    def _reduced(self, j: int, y_num: List[int], den: int) -> int:
        r = self._structural_cost(j) * den
        for i, v in self.col_items[j]:
            yi = y_num[i]
            if yi:
                r -= yi * v
        return r

    def _entering(self, y_num: List[int], bland: bool) -> Optional[int]:
        limit = self.std.art_start
        den = self.lub.den
        if bland:
            for j in range(limit):
                if self._reduced(j, y_num, den) < 0:
                    return j
            return None
        if self.pricing == "dantzig":
            best_j: Optional[int] = None
            best = 0
            for j in range(limit):
                v = self._reduced(j, y_num, den)
                if v < best:
                    best = v
                    best_j = j
            return best_j
        # Partial pricing: rotating blocks, Dantzig winner of the first
        # block that contains any improving column.
        scanned = 0
        j = self._cursor if self._cursor < limit else 0
        best_j = None
        best = 0
        while scanned < limit:
            v = self._reduced(j, y_num, den)
            if v < best:
                best = v
                best_j = j
            scanned += 1
            j += 1
            if j >= limit:
                j = 0
            if scanned % self._block == 0 and best_j is not None:
                break
        if best_j is not None:
            self._cursor = (best_j + 1) % limit
        return best_j

    def _dual_row(self) -> List[int]:
        """den-scaled duals ``c_B·W`` for the current phase's costs."""
        if self.phase == 1:
            cb = {
                i: 1
                for i in range(self.m)
                if self.basis[i] >= self.std.art_start
            }
        else:
            cb = {}
            for i in range(self.m):
                b = self.basis[i]
                if b < self.std.n and self.c_int[b]:
                    cb[i] = self.c_int[b]
        return self.lub.btran(cb)

    # ------------------------------------------------------------------
    # Ratio test (ties broken by smallest basis index: Bland-safe)
    # ------------------------------------------------------------------

    def _leaving(self, alpha: Sequence[int]) -> Optional[int]:
        rhs, basis = self.lub.rhs, self.basis
        best_r: Optional[int] = None
        best_b = best_a = 0
        for r in range(self.m):
            a = alpha[r]
            if a <= 0:
                continue
            b = rhs[r]
            if best_r is None:
                best_r, best_b, best_a = r, b, a
                continue
            lhs = b * best_a
            cmp = best_b * a
            if lhs < cmp or (lhs == cmp and basis[r] < basis[best_r]):
                best_r, best_b, best_a = r, b, a
        return best_r

    def run_phase(self, phase: int) -> str:
        self.phase = phase
        while True:
            bland = self.pivots >= self.bland_threshold
            y_num = self._dual_row()
            col = self._entering(y_num, bland)
            if col is None:
                return "optimal"
            alpha = self.lub.ftran(self.cols[col])
            row = self._leaving(alpha)
            if row is None:
                return "unbounded"
            self._pivot(row, alpha, col)

    # ------------------------------------------------------------------
    # Warm starts
    # ------------------------------------------------------------------

    def crash_factorize(
        self, hints: Sequence[int], eligible: Optional[Sequence[bool]]
    ) -> bool:
        """Factorize the hinted basis directly; ``True`` iff exactly feasible.

        Hint columns are eliminated into eligible (tight) rows —
        structurally-owning rows first, artificial-basic ones preferred so
        phase 1 dissolves as a side effect — then slack columns are
        reinstated on rows whose artificial would otherwise sit at a
        non-zero level.  The intermediate dictionaries may be infeasible;
        the result counts only if the final one is exactly feasible with
        every remaining artificial at level 0.
        """
        std, m = self.std, self.m
        self.stats.refactorizations += 1
        self.lub.refactorizations += 1
        claimed = [False] * m
        in_basis = set(self.basis)
        skipped: List[int] = []
        for col in hints:
            if not 0 <= col < std.art_start or col in in_basis:
                continue
            alpha = self.lub.ftran(self.cols[col])
            best_row: Optional[int] = None
            best_rank = 2
            for r in range(m):
                if (
                    claimed[r]
                    or (eligible is not None and not eligible[r])
                    or r not in self.cols[col]
                    or alpha[r] == 0
                ):
                    continue
                rank = 0 if self.basis[r] >= std.art_start else 1
                if rank < best_rank:
                    best_rank = rank
                    best_row = r
                    if rank == 0:
                        break
            if best_row is None:
                skipped.append(col)
                continue
            in_basis.discard(self.basis[best_row])
            self._pivot(best_row, alpha, col)
            in_basis.add(col)
            claimed[best_row] = True
        # Mop-up: stragglers may factor into eligible rows through fill-in
        # once every structurally-owning row is placed.
        for col in skipped:
            alpha = self.lub.ftran(self.cols[col])
            best_row = None
            for r in range(m):
                if (
                    claimed[r]
                    or (eligible is not None and not eligible[r])
                    or alpha[r] == 0
                ):
                    continue
                best_row = r
                if self.basis[r] >= std.art_start:
                    break
            if best_row is None:
                continue  # linearly dependent on the placed columns
            in_basis.discard(self.basis[best_row])
            self._pivot(best_row, alpha, col)
            in_basis.add(col)
            claimed[best_row] = True
        # A "≥" row that is slack at the warm point starts artificial-basic;
        # reinstate its surplus column so the artificial is not left at a
        # negative level.
        for r in range(m):
            if self.basis[r] >= std.art_start:
                s = std.slack_of_row[r]
                if s is not None and s not in in_basis:
                    alpha = self.lub.ftran(self.cols[s])
                    if alpha[r] != 0:
                        in_basis.discard(self.basis[r])
                        self._pivot(r, alpha, s)
                        in_basis.add(s)
        for r in range(m):
            if self.lub.rhs[r] < 0:
                return False
            if self.basis[r] >= std.art_start and self.lub.rhs[r] != 0:
                return False
        return True

    def push_hints(self, hints: Sequence[int]) -> None:
        """Ratio-test pushes: always legal, bad hints only cost their pivots."""
        in_basis = set(self.basis)
        for col in hints:
            if not 0 <= col < self.std.art_start or col in in_basis:
                continue
            alpha = self.lub.ftran(self.cols[col])
            row = self._leaving(alpha)
            if row is None:
                continue
            in_basis.discard(self.basis[row])
            self._pivot(row, alpha, col)
            in_basis.add(col)

    def crash_from_state(
        self, state: WarmState, token: object
    ) -> bool:
        """Install a carried :class:`WarmState` basis; ``True`` iff feasible.

        Two tiers (see :mod:`repro.lp.warm`): when the caller's structure
        *token* matches the state's and the row scales are identical, the
        factorized ``W`` is reinstalled verbatim — ``rhs = W·b`` is the only
        arithmetic (``crash_skips``).  Otherwise the labelled columns are
        factorized directly, ``O(m³)`` but self-validating against the
        *current* columns.  Either way the resulting dictionary must be
        exactly feasible with every artificial at level 0, or the state is
        rejected with the solver untouched (stale bases degrade cleanly).
        """
        std, m = self.std, self.m
        if state.m != m or len(state.labels) != m:
            return False
        resolved: List[int] = []
        for kind, payload in state.labels:
            col: Optional[int] = None
            if kind == "x":
                if isinstance(payload, int) and 0 <= payload < std.n:
                    col = payload
            elif kind == "s":
                if isinstance(payload, int) and 0 <= payload < m:
                    col = std.slack_of_row[payload]
            elif kind == "a":
                if isinstance(payload, int) and 0 <= payload < m:
                    col = self.art_of_row[payload]
            if col is None:
                return False
            resolved.append(col)
        if len(set(resolved)) != m:
            return False

        # Tier 1: verbatim W reinstall.  Sound only when the caller vouches
        # (token equality) that its basis columns are identical to the
        # producer's — a feasibility check alone cannot validate W as B⁻¹.
        if (
            state.lub is not None
            and token is not None
            and state.token is not None
            and state.token == token
            and state.scales == tuple(self.scales)
            and state.lub.m == m
        ):
            cand = state.lub.rebind(self.b_int)
            if self._dictionary_feasible(cand, resolved):
                cand.updates = self.lub.updates
                cand.refactorizations = self.lub.refactorizations
                cand.sparse_btrans = self.lub.sparse_btrans
                self.lub = cand
                self.basis = resolved
                self.stats.crash_skips += 1
                return True

        # Tier 2: factorize the labelled columns against the current system
        # (self-validating — no token needed), tracking which row each
        # column claims so basis membership stays positional.
        prior_updates = self.lub.updates
        prior_refacts = self.lub.refactorizations
        self.stats.refactorizations += 1
        fresh = LUBasis(m, self.b_int)
        claimed = [False] * m
        assign: List[int] = [-1] * m
        for col in resolved:
            alpha = fresh.ftran(self.cols[col])
            row = next(
                (r for r in range(m) if not claimed[r] and alpha[r] != 0), None
            )
            if row is None:
                return False  # singular against the current columns
            fresh.update(row, alpha)
            claimed[row] = True
            assign[row] = col
        if not self._dictionary_feasible(fresh, assign):
            return False
        fresh.updates = prior_updates  # a crash is a refactorization, not pivots
        fresh.refactorizations = prior_refacts + 1
        fresh.sparse_btrans += self.lub.sparse_btrans
        self.lub = fresh
        self.basis = assign
        return True

    def _dictionary_feasible(self, lub: LUBasis, basis: Sequence[int]) -> bool:
        """Non-negative basics, artificials (if basic) exactly at zero."""
        art_start = self.std.art_start
        for r in range(self.m):
            v = lub.rhs[r]
            if v < 0:
                return False
            if basis[r] >= art_start and v != 0:
                return False
        return True

    def reset(self) -> None:
        """Back to the slack/artificial identity basis (crash fallback)."""
        self.basis = [
            self.art_of_row[i]
            if self.art_of_row[i] is not None
            else self.std.slack_of_row[i]  # type: ignore[list-item]
            for i in range(self.m)
        ]
        updates, refact = self.lub.updates, self.lub.refactorizations
        sparse_btrans = self.lub.sparse_btrans
        self.lub = LUBasis(self.m, self.b_int)
        self.lub.updates = updates  # pivot budget covers the failed crash
        self.lub.refactorizations = refact
        self.lub.sparse_btrans = sparse_btrans

    # ------------------------------------------------------------------
    # Lexicographic canonicalization
    # ------------------------------------------------------------------

    def canonicalize(self) -> None:
        """Pivot within the optimal face to the **lex-min** optimal vertex.

        Runs Bland's rule on the ε-perturbed objective ``c·x + Σ εᵏ·x_k``
        over Q(ε): among the zero-reduced-cost columns, enter the smallest
        *j* whose lex reduced-cost vector is lex-negative.  The component of
        that vector at structural index ``k`` (ascending) is 0 when *k* is
        nonbasic (≠ j), +1 when ``k == j`` (structural *j* itself), and
        ``−(W·a_j)[r(k)]/den`` when *k* is basic at row ``r(k)`` — so the
        scan below stops at the first basic ``k < j`` whose row entry is
        non-zero (positive entry ⟹ improving, negative ⟹ not), and a
        structural *j* surviving the scan hits its own +1 (not improving)
        while a slack *j* with an all-zero scan moves no structural at all.

        Pivots on zero-reduced-cost columns leave the phase-2 reduced costs
        unchanged, so optimality is preserved throughout; Bland's rule
        cannot cycle, and the lex-min optimum is **unique**, so the vertex
        reached is independent of the pivot path (and hence of the pricing
        rule) — what makes partial pricing safe for output-facing solves.
        """
        n = self.std.n
        limit = self.std.art_start
        while True:
            y_num = self._dual_row()
            den = self.lub.den
            basics = sorted(
                (self.basis[r], r) for r in range(self.m) if self.basis[r] < n
            )
            in_basis = set(self.basis)
            enter: Optional[int] = None
            for j in range(limit):
                if j in in_basis:
                    continue
                if self._reduced(j, y_num, den) != 0:
                    continue
                improving = False
                for k, r in basics:
                    if k >= j:
                        break  # j's own +1 component decides: not improving
                    d = self.lub.row_dot(r, self.cols[j])
                    if d > 0:
                        improving = True
                        break
                    if d < 0:
                        break
                if improving:
                    enter = j
                    break
            if enter is None:
                return
            alpha = self.lub.ftran(self.cols[enter])
            row = self._leaving(alpha)
            if row is None:  # pragma: no cover - lex objective bounded on x≥0
                return
            self._pivot(row, alpha, enter)

    # ------------------------------------------------------------------
    # WarmState extraction
    # ------------------------------------------------------------------

    def build_warm_state(
        self, x: Sequence[Fraction], token: object
    ) -> WarmState:
        """Package the final basis as a carried :class:`WarmState`.

        The live :class:`LUBasis` is *moved* (rows are copy-on-write, so a
        future consumer cloning it never aliases mutations); labels encode
        basis membership positionally in this solve's index space.
        """
        std = self.std
        labels: List[Tuple[str, object]] = []
        slack_row = {
            s: r for r, s in enumerate(std.slack_of_row) if s is not None
        }
        art_row = {a: r for r, a in enumerate(self.art_of_row) if a is not None}
        for b in self.basis:
            if b < std.n:
                labels.append(("x", b))
            elif b >= std.art_start:
                labels.append(("a", art_row[b]))
            else:
                labels.append(("s", slack_row[b]))
        point = {j: x[j] for j in range(std.n) if x[j]}
        return WarmState(
            labels,
            self.m,
            std.n,
            tuple(self.scales),
            lub=self.lub,
            token=token,
            point=point,
        )

    # ------------------------------------------------------------------
    # Phase-1 bookkeeping
    # ------------------------------------------------------------------

    def artificial_level_positive(self) -> bool:
        return any(
            self.lub.rhs[i] != 0
            for i in range(self.m)
            if self.basis[i] >= self.std.art_start
        )

    def clear_artificials(self) -> None:
        """Pivot zero-level artificials out wherever a structural entry exists.

        Load-bearing: a basic artificial at level 0 whose row has non-zero
        structural entries could be lifted off zero by a later phase-2
        pivot, silently voiding an equality row.  All-zero rows (redundant constraints) keep their
        artificial marker; extraction skips it and pricing never enters
        artificial columns.
        """
        for i in range(self.m):
            if self.basis[i] >= self.std.art_start:
                for j in range(self.std.art_start):
                    entry = self.lub.row_dot(i, self.cols[j])
                    if entry != 0:
                        alpha = self.lub.ftran(self.cols[j])
                        self._pivot(i, alpha, j)
                        break

    def farkas_certificate(
        self,
        coeff_rows: Sequence[Dict[int, Fraction]],
        senses: Sequence[str],
        rhs: Sequence[Fraction],
    ) -> Optional[List[Fraction]]:
        """The exact Farkas dual read off the optimal phase-1 basis.

        The scaled phase-1 duals ``y_num/den`` certify the *scaled* rows;
        row ``i`` of the scaled system is ``scales[i]`` times the
        sign-normalized row, so the normalized certificate is
        ``y_num[i]·scales[i]/den``, denormalized back to the caller's row
        signs.  Verified exactly before being returned — a certificate this
        module emits is always a proof.
        """
        self.phase = 1
        y_num = self._dual_row()
        den = self.lub.den
        y_std = [
            Fraction(y_num[i] * self.scales[i], den) for i in range(self.m)
        ]
        y_raw = denormalize_farkas(y_std, [to_fraction(b) for b in rhs])
        if farkas_certifies(coeff_rows, senses, rhs, y_raw):
            return y_raw
        return None  # pragma: no cover - duality guarantees the checks

    # ------------------------------------------------------------------
    # Extraction
    # ------------------------------------------------------------------

    def extract(self, objective: Sequence[Fraction]):
        n = self.std.n
        den = self.lub.den
        x = [Fraction(0)] * n
        for i in range(self.m):
            if self.basis[i] < n:
                x[self.basis[i]] = Fraction(self.lub.rhs[i], den)
        value = sum(
            (to_fraction(objective[j]) * x[j] for j in range(n) if x[j]),
            Fraction(0),
        )
        return x, value


def solve_standard(
    coeff_rows: Sequence[Dict[int, Fraction]],
    senses: Sequence[str],
    rhs: Sequence[Fraction],
    objective: Sequence[Fraction],
    warm_hints: Optional[Sequence[int]] = None,
    warm_point: Optional[Sequence[Fraction]] = None,
    bland_threshold: Optional[int] = None,
    max_pivots: Optional[int] = None,
    pricing: Optional[str] = None,
    warm_state: Optional[WarmState] = None,
    structure_token: object = None,
    canonical: "bool | str" = True,
) -> SimplexResult:
    """Solve ``min c·x  s.t.  rows, x ≥ 0`` exactly.

    *coeff_rows* are sparse ``{var_index: coefficient}`` mappings; *senses*
    entries are ``"<="``, ``">="`` or ``"=="``.  The returned ``x`` is a
    basic solution: at most ``len(coeff_rows)`` entries are non-zero.
    ``SimplexResult.stats`` carries the solve's counters; infeasible results
    carry a verified Farkas certificate on ``SimplexResult.farkas``.

    *bland_threshold* / *max_pivots* override the anti-cycling switchover
    and the pivot budget (:data:`BLAND_THRESHOLD_DEFAULT` /
    :func:`default_max_pivots`); exhausting the budget raises the
    structured :class:`~repro.exceptions.PivotLimitError`.

    Warm starts (see the module docstring) can only speed the solve up,
    never change its guarantees: *warm_point* is a candidate solution whose
    support and tight rows seed a crash basis; *warm_hints* is the bare
    column-index form used when no full point is available; *warm_state* is
    a carried :class:`~repro.lp.warm.WarmState` whose basis (labels in this
    LP's index space) skips phase 1 and the crash push outright when it is
    still feasible.  A stale state degrades to its carried point, then to a
    cold start.  *structure_token* additionally authorizes verbatim ``W``
    reuse (see :mod:`repro.lp.warm`).  Optimal results carry the next
    solve's ``warm_state``.

    *pricing* is one of :data:`PRICINGS`; *canonical* picks the
    vertex-identity contract.  ``True`` (the default) returns a
    deterministic vertex: ``pricing=None`` pins Dantzig, and an explicitly
    non-Dantzig pricing gets a lexicographic cleanup instead.  ``"lex"``
    always pivots the optimum to the lexicographically minimal vertex —
    independent of the pricing rule *and* of warm starts.  ``False`` skips
    all of it: probe-style callers that need only feasibility or the
    objective value take partial pricing (unless *pricing* says otherwise)
    and whatever vertex the solve lands on.
    """
    # Imported late: the tracer imports the lp package for its stats sink.
    from ..obs.trace import span as trace_span

    if pricing is None:
        pricing = "dantzig" if canonical is True else _PROBE_PRICING
    with trace_span(
        "lp.solve", kernel="revised", rows=len(coeff_rows), cols=len(objective),
    ) as solve_sp:
        std = standard_form(coeff_rows, senses, rhs, objective)
        solver = _RevisedSolver(
            std,
            objective,
            bland_threshold if bland_threshold is not None else BLAND_THRESHOLD_DEFAULT,
            max_pivots if max_pivots is not None else default_max_pivots(),
            pricing,
        )
        has_artificials = any(std.needs_artificial)

        crashed = False
        if warm_state is not None:
            solver.stats.warm_start_attempts += 1
            with trace_span("lp.crash", state=True) as crash_sp:
                crashed = solver.crash_from_state(warm_state, structure_token)
                if crash_sp:
                    crash_sp.attrs["hit"] = crashed
                    crash_sp.attrs["verbatim"] = bool(solver.stats.crash_skips)
            if crashed:
                solver.stats.warm_start_hits += 1
                solver.stats.basis_reuses += 1
            elif warm_point is None and warm_state.point:
                # Stale basis: degrade to the carried vertex as a point hint.
                pt = [Fraction(0)] * std.n
                for payload, value in warm_state.point.items():
                    if isinstance(payload, int) and 0 <= payload < std.n:
                        pt[payload] = to_fraction(value)
                warm_point = pt

        eligible: Optional[List[bool]] = None
        if not crashed and warm_point is not None and len(warm_point) == std.n:
            point = [to_fraction(v) for v in warm_point]
            warm_hints = _point_hints(point) + list(warm_hints or [])
            eligible = _tight_rows(coeff_rows, senses, rhs, point)

        if not crashed and warm_hints:
            solver.stats.warm_start_attempts += 1
            with trace_span("lp.crash", hints=len(warm_hints)) as crash_sp:
                crashed = solver.crash_factorize(warm_hints, eligible)
                if crashed:
                    solver.stats.warm_start_hits += 1
                else:
                    # The crash landed on an infeasible dictionary; restart
                    # from the identity basis and fall back to ratio-test
                    # pushes.
                    solver.reset()
                    solver.push_hints(warm_hints)
                if crash_sp:
                    crash_sp.attrs["hit"] = crashed
                    crash_sp.attrs["pivots"] = solver.pivots

        # ------------- Phase 1: minimize the sum of artificials ------------
        if has_artificials and not crashed:
            with trace_span("lp.phase1") as phase_sp:
                status = solver.run_phase(1)
                if phase_sp:
                    phase_sp.attrs["pivots"] = solver.stats.phase1_pivots
            if status == "unbounded":  # pragma: no cover - impossible: cost ≥ 0
                raise SolverError("phase-1 objective unbounded")
            if solver.artificial_level_positive():
                farkas = solver.farkas_certificate(coeff_rows, senses, rhs)
                solver.stats.pivots = solver.pivots
                solver.stats.sparse_btrans = solver.lub.sparse_btrans
                record(solver.stats)
                if solve_sp:
                    solve_sp.attrs["status"] = "infeasible"
                return SimplexResult(
                    "infeasible", [], None, None, solver.pivots,
                    stats=solver.stats, farkas=farkas,
                )
        if has_artificials:
            solver.clear_artificials()

        # ------------- Phase 2: original objective -------------------------
        phase1_total = solver.pivots
        with trace_span("lp.phase2") as phase_sp:
            status = solver.run_phase(2)
            if phase_sp:
                phase_sp.attrs["pivots"] = solver.pivots - phase1_total
        if status == "optimal" and (
            canonical == "lex" or (canonical is True and pricing != "dantzig")
        ):
            solver.canonicalize()
        solver.stats.pivots = solver.pivots
        solver.stats.sparse_btrans = solver.lub.sparse_btrans
        record(solver.stats)
        if solve_sp:
            solve_sp.attrs["status"] = status
            solve_sp.attrs["pivots"] = solver.pivots
        if status == "unbounded":
            return SimplexResult(
                "unbounded", [], None, list(solver.basis), solver.pivots,
                stats=solver.stats,
            )
        x, value = solver.extract(objective)
        return SimplexResult(
            "optimal", x, value, list(solver.basis), solver.pivots,
            stats=solver.stats,
            warm_state=solver.build_warm_state(x, structure_token),
        )
