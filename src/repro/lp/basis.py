"""Fraction-free factorized basis for the revised exact simplex.

A dense simplex dictionary updates **every** column on every pivot —
``O(rows·cols)`` big-integer work per pivot, even though a simplex
iteration only ever reads one entering column and one cost row.  The
revised simplex (:mod:`repro.lp.simplex`) instead maintains a
factorization of the *basis* alone; per-pivot work drops to ``O(rows²)``
plus the sparse pricing of candidate columns.

Representation
--------------
:class:`LUBasis` keeps the basis inverse in Edmonds' integer-preserving
form, the same arithmetic lrs uses for its full dictionary:

    B⁻¹ = W / den,         W integer (rows² entries),  den > 0

where ``den = |det(B)|`` in the row-scaled integer system and ``W`` is the
correspondingly scaled adjugate.  Every entry of ``W`` (and of the
transformed right-hand side ``W·b``) is a minor of the original constraint
matrix — the classical Bareiss/Edmonds subdeterminant identity — so the
rank-one pivot update

    W'[i][j] = (W[i][j]·α_r − α_i·W[r][j]) / den        (i ≠ r)

divides **exactly**: no rational normalization, no gcd scans, and the
representation after any pivot sequence is *canonical* (it depends only on
the current basis, not on the path taken to reach it).

Sparse rows
-----------
``W`` starts as the identity — one nonzero per row — and a pivot touches a
row's support only through the pivot row's support, so early in a solve
(and throughout phase 1, where the basis is mostly slacks/artificials)
most rows stay very sparse.  Each row of ``W`` is therefore stored as a
**dict of nonzeros** until its fill exceeds :data:`DENSIFY_THRESHOLD` of
the dimension, at which point it converts to a dense list for good (dense
scans of small integer lists beat dict overhead once fill is substantial,
and converting back and forth would churn).  ``ftran``/``btran``/
``row_dot``/``update`` all branch per row, so their cost tracks nnz while
sparsity lasts; ``sparse_btrans`` counts btran calls answered entirely
from sparse rows (surfaced through :class:`~repro.lp.stats.SolverStats`).

Rows are **copy-on-write**: every operation replaces row objects instead
of mutating them, so :meth:`clone` is ``O(rows)`` (it shares row objects)
— the cheap primitive behind verbatim basis reuse across solves (see
:mod:`repro.lp.warm`).

Operations
----------
``ftran(a)``
    Forward transform: the den-scaled dictionary column ``W·a`` of a sparse
    column ``a`` — ``O(rows · nnz(a))``.
``btran(c_B)``
    Backward transform: the den-scaled dual row ``c_Bᵀ·W`` of a sparse
    basic-cost vector — ``O(nnz(c_B) · nnz(rows))``.
``update(r, α)``
    Rank-one basis exchange given the already-ftran'd entering column α,
    pivoting on row ``r`` — ``O(Σ_i nnz(row_i))``, at worst ``O(rows²)``.
``factorize(columns, b)``
    Fraction-free elimination of an explicit column set straight into a
    factorized basis (Gauss–Jordan realized as ``rows`` ftran+update
    steps, i.e. the LU elimination with the L-factor applied through).
    This is how the hybrid backend certifies a float candidate — and how a
    carried :class:`~repro.lp.warm.WarmState` whose structure witness does
    not match is re-anchored: the labelled basis is factorized
    **directly** — ``O(rows³)``, independent of the total column count —
    instead of being pushed in through ``O(rows)`` ratio-test pivots.

Because the arithmetic is exact, periodic refactorization is *not* needed
for numerical hygiene (there is no drift to flush, and a from-scratch
factorization reproduces ``W`` and ``den`` bit-for-bit — the representation
is canonical).  :meth:`refactorize` exists for the structural occasions
where the basis is *given* rather than evolved — crash starts from a float
candidate, re-anchoring a basis carried across two neighbouring LPs of a
binary search — and as an invariant self-check; the driver counts every
call in :class:`~repro.lp.stats.SolverStats`.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Union

from .._fraction import bigint
from ..exceptions import SolverError

#: A row of ``W``: dict-of-nonzeros while sparse, dense list once filled.
Row = Union[Dict[int, int], List[int]]

#: Fill fraction above which a sparse row converts to a dense list (and
#: stays dense).  Dict iteration costs ~3× a list scan per element in
#: CPython, so the crossover sits near 1/3.
DENSIFY_THRESHOLD = 0.34


class LUBasis:
    """Integer-preserving factorized basis inverse (see module docstring).

    ``inv`` holds ``W`` row-major (sparse dict rows or dense list rows);
    ``rhs`` holds the transformed right-hand side ``W·b`` (updated in
    lockstep with ``W`` so the current basic values are always
    ``rhs[i] / den``); ``den > 0`` is maintained as an invariant so sign
    tests read directly off the integers.
    """

    __slots__ = (
        "m", "den", "inv", "rhs", "updates", "refactorizations",
        "sparse_btrans", "_dense_at",
    )

    def __init__(self, m: int, b: Sequence[int]):
        if len(b) != m:
            raise SolverError("rhs length must match the basis dimension")
        one = bigint(1)
        self.m = m
        self.den = one
        self.inv: List[Row] = [{i: one} for i in range(m)]
        self.rhs: List[int] = [bigint(v) for v in b]
        self.updates = 0
        self.refactorizations = 0
        #: btran calls answered entirely from sparse rows.
        self.sparse_btrans = 0
        # Densify once fill crosses the threshold; precomputed per instance.
        self._dense_at = max(2, int(DENSIFY_THRESHOLD * m) + 1)

    # ------------------------------------------------------------------
    # Cheap structural copies (copy-on-write rows)
    # ------------------------------------------------------------------

    def clone(self) -> "LUBasis":
        """``O(m)`` copy sharing row objects (rows are copy-on-write)."""
        dup = LUBasis.__new__(LUBasis)
        dup.m = self.m
        dup.den = self.den
        dup.inv = list(self.inv)
        dup.rhs = list(self.rhs)
        dup.updates = 0
        dup.refactorizations = 0
        dup.sparse_btrans = 0
        dup._dense_at = self._dense_at
        return dup

    def rebind(self, b: Sequence[int]) -> "LUBasis":
        """Clone with ``rhs`` recomputed as ``W·b`` — ``O(Σ nnz(row))``.

        The primitive behind verbatim basis reuse: the same factorized
        ``W`` anchored to a new right-hand side (only sound when the basis
        columns themselves are unchanged — the caller vouches via the
        :class:`~repro.lp.warm.WarmState` structure token).
        """
        if len(b) != self.m:
            raise SolverError("rhs length must match the basis dimension")
        dup = self.clone()
        rhs: List[int] = []
        for row in self.inv:
            s = bigint(0)
            if type(row) is dict:
                for k, w in row.items():
                    v = b[k]
                    if v:
                        s += w * v
            else:
                for k, v in enumerate(b):
                    if v:
                        w = row[k]
                        if w:
                            s += w * v
            rhs.append(s)
        dup.rhs = rhs
        return dup

    # ------------------------------------------------------------------
    # Exact solves
    # ------------------------------------------------------------------

    def ftran(self, col: Mapping[int, int]) -> List[int]:
        """``W·a`` for a sparse column *a* — the den-scaled dictionary column."""
        items = [(k, v) for k, v in col.items() if v]
        cdict = dict(items)
        cget = cdict.get
        nitems = len(items)
        zero = bigint(0)
        out = []
        for row in self.inv:
            s = zero
            if type(row) is dict:
                # Dot over the intersection: iterate whichever side is
                # smaller — deep in a sparse factorization rows often hold
                # fewer nonzeros than the incoming column.
                if len(row) < nitems:
                    for k, w in row.items():
                        v = cget(k)
                        if v is not None:
                            s += w * v
                else:
                    get = row.get
                    for k, v in items:
                        w = get(k)
                        if w is not None:
                            s += w * v
            else:
                for k, v in items:
                    w = row[k]
                    if w:
                        s += w * v
            out.append(s)
        return out

    def btran(self, basic_costs: Mapping[int, int]) -> List[int]:
        """``c_Bᵀ·W`` for a sparse basic-cost vector — den-scaled duals."""
        out = [bigint(0)] * self.m
        all_sparse = True
        for i, c in basic_costs.items():
            if c == 0:
                continue
            row = self.inv[i]
            if type(row) is dict:
                for j, w in row.items():
                    out[j] += c * w
            else:
                all_sparse = False
                for j in range(self.m):
                    w = row[j]
                    if w:
                        out[j] += c * w
        if all_sparse:
            self.sparse_btrans += 1
        return out

    # ------------------------------------------------------------------
    # Rank-one update
    # ------------------------------------------------------------------

    def update(self, row: int, alpha: Sequence[int]) -> None:
        """Basis exchange pivoting on ``(row, alpha[row])``.

        *alpha* is the entering column's forward transform (``ftran``
        output).  Exactly the Edmonds integer pivot restricted to the
        ``W | rhs`` block; divisions are exact by the minor identity.
        Row objects are replaced, never mutated (copy-on-write for
        :meth:`clone`).
        """
        piv = alpha[row]
        if piv == 0:
            raise SolverError("zero pivot element in basis update")
        den = self.den
        m = self.m
        dense_at = self._dense_at
        inv, rhs = self.inv, self.rhs
        piv_row = inv[row]
        piv_sparse = type(piv_row) is dict
        piv_rhs = rhs[row]
        for i in range(m):
            if i == row:
                continue
            f = alpha[i]
            w_row = inv[i]
            w_sparse = type(w_row) is dict
            if f == 0:
                if piv != den:
                    if w_sparse:
                        inv[i] = {j: w * piv // den for j, w in w_row.items()}
                    else:
                        inv[i] = [w * piv // den if w else 0 for w in w_row]
                    rhs[i] = rhs[i] * piv // den
            else:
                if w_sparse and piv_sparse:
                    acc: Dict[int, int] = {j: w * piv for j, w in w_row.items()}
                    get = acc.get
                    zero = bigint(0)
                    for j, p in piv_row.items():
                        acc[j] = get(j, zero) - f * p
                    new_row: Row = {}
                    for j, v in acc.items():
                        if v:
                            new_row[j] = v // den
                    if len(new_row) >= dense_at:
                        dense = [0] * m
                        for j, v in new_row.items():
                            dense[j] = v
                        new_row = dense
                    inv[i] = new_row
                else:
                    wr = w_row if not w_sparse else _to_dense(w_row, m)
                    pr = piv_row if not piv_sparse else _to_dense(piv_row, m)
                    inv[i] = [
                        (w * piv - f * p) // den for w, p in zip(wr, pr)
                    ]
                rhs[i] = (rhs[i] * piv - f * piv_rhs) // den
        if piv < 0:
            # Keep den > 0 so feasibility tests read off rhs signs directly.
            self.den = -piv
            self.inv = [
                {j: -w for j, w in r.items()} if type(r) is dict
                else [-w for w in r]
                for r in inv
            ]
            self.rhs = [-v for v in rhs]
        else:
            self.den = piv
        self.updates += 1

    # ------------------------------------------------------------------
    # Factorization of an explicit basis
    # ------------------------------------------------------------------

    @classmethod
    def factorize(
        cls,
        m: int,
        columns: Sequence[Mapping[int, int]],
        b: Sequence[int],
    ) -> Optional["LUBasis"]:
        """Factorize an explicit set of ``m`` columns, or ``None`` if singular.

        Fraction-free elimination: each column is forward-transformed
        against the partial factorization and pivoted into the first still
        unclaimed row with a non-zero transformed entry (deterministic; any
        non-zero choice is exact).  ``O(m³)`` total.
        """
        if len(columns) != m:
            return None
        basis = cls(m, b)
        claimed = [False] * m
        for col in columns:
            alpha = basis.ftran(col)
            row = next(
                (r for r in range(m) if not claimed[r] and alpha[r] != 0), None
            )
            if row is None:
                return None  # linearly dependent on the columns placed so far
            basis.update(row, alpha)
            claimed[row] = True
        return basis

    def refactorize(
        self, columns: Sequence[Mapping[int, int]], b: Sequence[int]
    ) -> bool:
        """Rebuild this factorization from scratch off *columns*.

        Returns ``False`` (state unchanged) when the columns are singular.
        With exact arithmetic the rebuilt ``W``/``den`` equal the updated
        ones whenever *columns* is the basis the updates evolved — the
        canonical-representation property — so this is used to (re)anchor a
        basis that came from *outside* the update path, and as a self-check.
        """
        fresh = self.factorize(self.m, columns, b)
        if fresh is None:
            return False
        self.den = fresh.den
        self.inv = fresh.inv
        self.rhs = fresh.rhs
        self.refactorizations += 1
        return True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def row_dot(self, row: int, col: Mapping[int, int]) -> int:
        """Single transformed entry ``(W·a)[row]`` — ``O(nnz(a))``."""
        inv_row = self.inv[row]
        if type(inv_row) is dict:
            get = inv_row.get
            s = bigint(0)
            for k, v in col.items():
                if v:
                    w = get(k)
                    if w is not None:
                        s += w * v
            return s
        return sum(inv_row[k] * v for k, v in col.items() if v)

    def row_items(self, row: int):
        """Nonzero ``(col, value)`` pairs of ``W[row]`` in arbitrary order."""
        inv_row = self.inv[row]
        if type(inv_row) is dict:
            return list(inv_row.items())
        return [(j, w) for j, w in enumerate(inv_row) if w]

    def row_density(self, row: int) -> float:
        """Fill fraction of a row (1.0 for dense-converted rows)."""
        inv_row = self.inv[row]
        if type(inv_row) is dict:
            return len(inv_row) / self.m if self.m else 0.0
        return 1.0

    def is_feasible_dictionary(self) -> bool:
        """Whether the current basic values are all non-negative."""
        return all(v >= 0 for v in self.rhs)


def _to_dense(row: Dict[int, int], m: int) -> List[int]:
    out = [0] * m
    for j, w in row.items():
        out[j] = w
    return out
