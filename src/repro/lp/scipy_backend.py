"""Floating-point LP backend on top of :func:`scipy.optimize.linprog`.

Two callers: ``backend="scipy"`` (uncertified floats) and the HiGHS leg of
the certified ``hybrid`` backend (:mod:`repro.lp.hybrid`), whose candidates
the exact stack re-checks.  ``method="highs"`` (dual simplex inside HiGHS)
returns a basic optimal solution, which is what the Section V rounding
needs; values are snapped back to rationals with a denominator bound before
re-entering the exact pipeline.

Marshaling happens in two places, both sparse:

* :func:`marshal_rows` turns standard rows straight into CSR blocks —
  ``A_ub`` holds the ``<=`` rows and the negated ``>=`` rows in row order,
  ``A_eq`` the ``==`` rows — skipping zero coefficients;
* :class:`FloatTemplate` does the same once for a row family over global
  columns, so a caller that masks columns per probe (the ``T*`` search of
  :class:`repro.core.programs.IP3Builder`) slices the template instead of
  re-converting Fractions at every probe.

Either way HiGHS receives input bit-identical to a dense build of the same
rows (``csc_array`` of a dense matrix drops its zeros too): the same CSC
values and sparsity, the same ``b``, the same row stacking (``A_ub`` rows,
then ``A_eq``) and the same column order.  The float leg's answers
therefore do not depend on which path marshaled them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_array

from .._fraction import rationalize
from ..exceptions import SolverError
from .simplex import SimplexResult
from .stats import SolverStats, record

#: Values within this distance of an integer are snapped during rationalization.
_SNAP_EPS = 1e-9

_ZERO = Fraction(0)


class FloatProgram(NamedTuple):
    """HiGHS input ``min c·x  s.t.  A_ub·x ≤ b_ub,  A_eq·x = b_eq,  x ≥ 0``."""

    c: np.ndarray
    a_ub: object
    b_ub: np.ndarray
    a_eq: object
    b_eq: np.ndarray


def _sparse_blocks(
    coeff_rows: Sequence[Dict[int, Fraction]],
    senses: Sequence[str],
    num_cols: int,
) -> Tuple[csr_array, csr_array]:
    """``(A_ub, A_eq)`` as CSR; ``>=`` rows negated, zero coefficients skipped."""
    ub: Tuple[List[float], List[int], List[int]] = ([], [], [0])
    eq: Tuple[List[float], List[int], List[int]] = ([], [], [0])
    for row, sense in zip(coeff_rows, senses):
        if sense == "==":
            data, indices, indptr = eq
        elif sense in ("<=", ">="):
            data, indices, indptr = ub
        else:  # pragma: no cover - guarded upstream
            raise SolverError(f"unknown sense {sense!r}")
        negate = sense == ">="
        for j, v in row.items():
            if v:
                indices.append(j)
                data.append(-float(v) if negate else float(v))
        indptr.append(len(indices))
    return tuple(
        csr_array(
            (
                np.array(data, dtype=float),
                np.array(indices, dtype=np.int32),
                np.array(indptr, dtype=np.int32),
            ),
            shape=(len(indptr) - 1, num_cols),
        )
        for data, indices, indptr in (ub, eq)
    )


def _float_rhs(
    senses: Sequence[str], rhs: Sequence[Fraction]
) -> Tuple[np.ndarray, np.ndarray]:
    """``(b_ub, b_eq)`` in the row order of :func:`_sparse_blocks`."""
    b_ub: List[float] = []
    b_eq: List[float] = []
    for sense, b in zip(senses, rhs):
        if sense == "==":
            b_eq.append(float(b))
        elif sense == "<=":
            b_ub.append(float(b))
        else:
            b_ub.append(-float(b))
    return np.array(b_ub, dtype=float), np.array(b_eq, dtype=float)


def marshal_rows(
    coeff_rows: Sequence[Dict[int, Fraction]],
    senses: Sequence[str],
    rhs: Sequence[Fraction],
    objective: Sequence[Fraction],
) -> FloatProgram:
    """The HiGHS input of the standard-form program over ``len(objective)``
    columns, built sparse straight from the dict rows."""
    n = len(objective)
    c = np.zeros(n)
    for j, v in enumerate(objective):
        if v:
            c[j] = float(v)
    a_ub, a_eq = _sparse_blocks(coeff_rows, senses, n)
    b_ub, b_eq = _float_rhs(senses, rhs)
    return FloatProgram(c, a_ub, b_ub, a_eq, b_eq)


class FloatTemplate:
    """A row family's float matrix over global columns, marshaled once.

    :meth:`program` returns the feasibility program (zero objective) of
    the same rows restricted to a column subset — what :func:`marshal_rows`
    builds from rows masked to those columns, but without touching a
    Fraction coefficient: masking is a CSC column slice.
    """

    def __init__(
        self,
        coeff_rows: Sequence[Dict[int, Fraction]],
        senses: Sequence[str],
        num_cols: int,
    ):
        self.senses = list(senses)
        a_ub, a_eq = _sparse_blocks(coeff_rows, senses, num_cols)
        self.a_ub = a_ub.tocsc()
        self.a_eq = a_eq.tocsc()

    def program(
        self, active: Sequence[int], rhs: Sequence[Fraction]
    ) -> FloatProgram:
        """HiGHS input over the columns *active* (in that order), with the
        exact right-hand sides *rhs* converted once each."""
        cols = np.asarray(active, dtype=np.intp)
        b_ub, b_eq = _float_rhs(self.senses, rhs)
        return FloatProgram(
            np.zeros(len(cols)), self.a_ub[:, cols], b_ub, self.a_eq[:, cols], b_eq
        )


def run_highs(program: FloatProgram):
    """The one ``linprog`` call; returns scipy's ``OptimizeResult``."""
    record(SolverStats(highs_calls=1))
    return linprog(
        c=program.c,
        A_ub=program.a_ub,
        b_ub=program.b_ub,
        A_eq=program.a_eq,
        b_eq=program.b_eq,
        bounds=(0, None),
        method="highs",
    )


def rationalize_point(values, max_denominator: int = 10**6) -> List[Fraction]:
    """Snap a HiGHS point to rationals, touching only its support.

    An entry within :data:`_SNAP_EPS` of an integer becomes that integer,
    any other is rationalized with *max_denominator*.  Entries with
    ``|v| < _SNAP_EPS`` snap to exactly 0 under that rule, so they are
    never visited.
    """
    xs = np.asarray(values, dtype=float)
    x = [_ZERO] * len(xs)
    # ``~(|v| < eps)`` keeps NaN on the element-wise path, which rejects it.
    for j in np.flatnonzero(~(np.abs(xs) < _SNAP_EPS)).tolist():
        value = float(xs[j])
        nearest = round(value)
        if abs(value - nearest) < _SNAP_EPS:
            x[j] = Fraction(int(nearest))
        else:
            x[j] = rationalize(value, max_denominator)
    return x


def solve_standard_float(
    coeff_rows: Sequence[Dict[int, Fraction]],
    senses: Sequence[str],
    rhs: Sequence[Fraction],
    objective: Sequence[Fraction],
    max_denominator: int = 10**6,
    program: Optional[FloatProgram] = None,
    run: Callable[[FloatProgram], object] = run_highs,
) -> Optional[SimplexResult]:
    """Solve the same standard form as the exact simplex, via HiGHS.

    The result's ``x`` is rationalized (``limit_denominator``) so downstream
    exact checks can run; statuses map onto the exact solver's vocabulary.

    *program* is these rows already marshaled (a :class:`FloatTemplate`
    slice, bit-identical to :func:`marshal_rows`); without it the rows are
    marshaled here.  *run* is the step that calls HiGHS: the hybrid
    backend passes one that returns ``None`` when HiGHS itself fails, and
    this function then returns ``None`` too.
    """
    if not objective:
        # linprog rejects empty programs; decide them exactly right here.
        # (The IP-3 builders encode "job has no options" as a {} == 1 row.)
        for sense, b in zip(senses, rhs):
            b = Fraction(b)
            ok = (b >= 0) if sense == "<=" else (b <= 0) if sense == ">=" else b == 0
            if not ok:
                return SimplexResult("infeasible", [], None, None)
        return SimplexResult("optimal", [], Fraction(0), [])
    if program is None:
        program = marshal_rows(coeff_rows, senses, rhs, objective)
    result = run(program)
    if result is None:
        return None
    if result.status == 2:
        return SimplexResult("infeasible", [], None, None)
    if result.status == 3:
        return SimplexResult("unbounded", [], None, None)
    if result.status != 0:
        raise SolverError(f"HiGHS failed: {result.message}")
    x = rationalize_point(result.x, max_denominator)
    objective_value = sum(
        (Fraction(v) * x[j] for j, v in enumerate(objective) if v and x[j]),
        _ZERO,
    )
    return SimplexResult("optimal", x, objective_value, None)
