"""Certified hybrid LP backend: HiGHS speed, exact-simplex guarantees.

The ``scipy`` backend is fast but returns rationalized floats whose
"feasibility" and "basicness" are only approximate — propagating them into
the Section V/VI rounding arguments silently voids the pseudo-forest and
fractionality properties those proofs rely on.  The ``exact`` backend is
certified but pays rational-pivoting cost from a cold start.

``hybrid`` composes the two so callers always get a guaranteed rational
basic optimal solution at close to float speed:

1. solve the LP with HiGHS (:func:`float_candidate`);
2. rationalize the candidate and read off its support;
3. re-solve with the **exact** fraction-free simplex, warm-started by
   factorizing the candidate's support columns into the basis first
   (:func:`repro.lp.simplex.solve_standard` with ``warm_point``).

Step 3 is the certificate: every number the caller sees was produced by
exact pivoting, so feasibility, optimality and basicness hold
unconditionally.  When the float candidate was right — the common case —
the warm-started exact solve needs no phase-1 work and terminates after the
support pushes plus a handful of cleanup pivots.  When the candidate was
wrong (rounding noise, wrong vertex, wrong verdict) the exact simplex
transparently repairs it: bad hints cost only the pivots they take.  A
claimed "infeasible"/"unbounded" is likewise never trusted — the exact
solver re-derives the verdict from scratch.

Small programs skip HiGHS entirely (below :data:`_FLOAT_SIZE_CUTOFF` the
fixed ``linprog`` overhead exceeds a full exact solve).  When scipy is not
installed the backend degrades to the exact solver, keeping every guarantee.

Marshaling lives in :mod:`repro.lp.scipy_backend`: :func:`float_candidate`
and :func:`certify_infeasible` build sparse HiGHS input from the dict rows,
or take a pre-marshaled :class:`~repro.lp.scipy_backend.FloatTemplate`
slice (the ``T*`` search's probes); either way HiGHS receives the same
bits.  Only the ``linprog`` call itself is guarded: a HiGHS exception or a
status other than optimal/infeasible/unbounded falls back to the exact
solve and records ``hybrid_fallback=<reason>`` on the open trace span,
while a bug in marshaling or in reading the result raises.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from .._fraction import rationalize, to_fraction
from .certificates import denormalize_farkas, farkas_certifies
from .simplex import SimplexResult, solve_standard, standard_form

try:  # pragma: no cover - exercised implicitly on import
    from .scipy_backend import (
        FloatProgram,
        marshal_rows,
        run_highs,
        solve_standard_float,
    )

    HAVE_SCIPY = True
except ImportError:  # pragma: no cover - scipy is present in CI images
    HAVE_SCIPY = False

#: Problems with (variables × rows) below this skip the float probe: the
#: fixed cost of one ``linprog`` call exceeds a cold exact solve there.
_FLOAT_SIZE_CUTOFF = 64

#: ``linprog`` statuses the float leg interprets: optimal, infeasible,
#: unbounded.  Anything else (iteration limit, numerical trouble) is a
#: HiGHS failure and falls back to the exact solve.
_HIGHS_VERDICTS = (0, 2, 3)


def _note_fallback(reason: str) -> None:
    """Put *reason* on the innermost open span (no-op when untraced)."""
    from ..obs.trace import current_span

    sp = current_span()
    if sp is not None:
        sp.attrs["hybrid_fallback"] = reason


def _run_highs_guarded(program: FloatProgram):
    """HiGHS on *program*, or ``None`` when HiGHS itself fails.

    Only the ``linprog`` call is guarded: marshaling and reading the result
    run outside, so a bug there raises instead of surfacing as a silent
    exact re-solve.  Each fallback leaves its reason on the current span.
    """
    try:
        result = run_highs(program)
    except Exception as exc:
        _note_fallback(f"highs-error: {type(exc).__name__}")
        return None
    if result.status not in _HIGHS_VERDICTS:
        _note_fallback(f"highs-status: {result.status}")
        return None
    return result


def float_candidate(
    coeff_rows: Sequence[Dict[int, Fraction]],
    senses: Sequence[str],
    rhs: Sequence[Fraction],
    objective: Sequence[Fraction],
    program: Optional[FloatProgram] = None,
) -> Optional[SimplexResult]:
    """The HiGHS candidate, or ``None`` when scipy is missing or HiGHS fails.

    The result is *uncertified*: statuses and values are hints only.
    *program* is these rows already marshaled for HiGHS (a
    :class:`~repro.lp.scipy_backend.FloatTemplate` slice, bit-identical to
    what :func:`~repro.lp.scipy_backend.marshal_rows` would build); without
    it the rows are marshaled here.
    """
    if not HAVE_SCIPY:
        return None
    return solve_standard_float(
        coeff_rows, senses, rhs, objective,
        program=program, run=_run_highs_guarded,
    )


def certify_infeasible(
    coeff_rows: Sequence[Dict[int, Fraction]],
    senses: Sequence[str],
    rhs: Sequence[Fraction],
    num_vars: Optional[int] = None,
) -> Optional[List[Fraction]]:
    """Exact Farkas certificate of infeasibility from a float phase-1 dual.

    A non-``None`` return is a *proof* — never a float verdict: the
    returned ``y`` (row-indexed in the caller's row order, semantics of
    :func:`repro.lp.certificates.farkas_certifies`) has been verified
    exactly, so callers may cache it and re-check it against neighbouring
    LPs (the binary-search probe pipeline does).  The phase-1 program

        min 1ᵀa   s.t.   A·x + S·s + I·a = b,   x, s, a ≥ 0

    (rows sign-normalized to ``b ≥ 0``; ``S`` the slack columns) is always
    feasible, so HiGHS returns an optimal dual ``y``.  Rationalizing ``y``
    and re-checking **exactly** the Farkas conditions

        yᵀA ≤ 0 (all columns),  sign conditions per row sense,  yᵀb > 0

    establishes that the original program is infeasible — without a single
    exact pivot.  Any check failing (dual noise too large, wrong verdict)
    returns ``None`` and the caller falls back to the exact simplex.

    This is what makes the binary search of ``minimal_fractional_T`` fast:
    its infeasible probes are certified in ``O(nnz)`` rational work instead
    of a cold exact phase-1 solve.
    """
    if not HAVE_SCIPY:
        return None
    if num_vars is None:
        num_vars = _num_vars(coeff_rows)
    std = standard_form(coeff_rows, senses, rhs, [Fraction(0)] * num_vars)
    n, r = std.n, std.num_rows
    if r == 0:
        return None  # x = 0 is feasible
    num_slack = sum(1 for s in std.slack_of_row if s is not None)
    art_start = n + num_slack
    # [A | S | I] as "==" rows, marshaled sparse like any other program.
    phase1_rows: List[Dict[int, object]] = []
    for i in range(r):
        row: Dict[int, object] = dict(std.rows[i])
        if std.slack_of_row[i] is not None:
            row[std.slack_of_row[i]] = std.slack_sign[i]
        row[art_start + i] = 1
        phase1_rows.append(row)
    program = marshal_rows(
        phase1_rows, ["=="] * r, std.rhs, [0] * art_start + [1] * r
    )
    result = _run_highs_guarded(program)
    if result is None:
        return None
    if result.status != 0 or result.fun < 1e-9 or result.eqlin is None:
        return None
    raw_rhs = [to_fraction(b) for b in rhs]
    raw = [float(v) for v in result.eqlin.marginals]
    for sign in (1.0, -1.0):  # scipy's dual sign convention varies by path
        try:
            y_std = [rationalize(sign * v, 10**9) for v in raw]
        except ValueError:  # pragma: no cover - non-finite marginals
            continue
        y = denormalize_farkas(y_std, raw_rhs)
        if farkas_certifies(coeff_rows, senses, rhs, y):
            return y
    return None


def _num_vars(coeff_rows: Sequence[Dict[int, Fraction]]) -> int:
    return 1 + max((max(row, default=-1) for row in coeff_rows), default=-1)


def solve_standard_hybrid(
    coeff_rows: Sequence[Dict[int, Fraction]],
    senses: Sequence[str],
    rhs: Sequence[Fraction],
    objective: Sequence[Fraction],
    warm_hints: Optional[Sequence[int]] = None,
    warm_point: Optional[Sequence[Fraction]] = None,
    warm_state=None,
    structure_token: object = None,
    canonical: "bool | str" = True,
) -> SimplexResult:
    """Certified solve: float candidate first, exact verification always.

    The returned :class:`SimplexResult` is produced by the exact simplex in
    every path, so it carries the same guarantees as ``backend="exact"``.
    The rationalized HiGHS point (when HiGHS claims optimality) takes
    precedence over the caller's *warm_point* as the crash-basis seed: the
    candidate's basis is **factorized directly** (``O(rows³)``, independent
    of the column count).  A claimed infeasibility is accepted only with an
    exact Farkas certificate, which is attached to the result for reuse.

    A carried *warm_state* (see :mod:`repro.lp.warm`) is handed through to
    the exact solve, where it takes precedence over any point-based seed —
    a resolvable carried basis beats re-pushing the float candidate's
    support.
    """
    n = len(objective)
    size = n * max(len(coeff_rows), 1)
    if size >= _FLOAT_SIZE_CUTOFF:
        candidate = float_candidate(coeff_rows, senses, rhs, objective)
        if candidate is not None and candidate.status == "optimal":
            warm_point = candidate.x
        elif candidate is not None and candidate.status == "infeasible":
            farkas = certify_infeasible(coeff_rows, senses, rhs, num_vars=n)
            if farkas is not None:
                return SimplexResult(
                    "infeasible", [], None, None, farkas=farkas
                )
    return solve_standard(
        coeff_rows, senses, rhs, objective,
        warm_hints=warm_hints, warm_point=warm_point,
        warm_state=warm_state, structure_token=structure_token,
        canonical=canonical,
    )
