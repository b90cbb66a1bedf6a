"""Unified LP solving entry point with backend dispatch.

Backends
--------
``"exact"``
    Exact rational simplex.  Guaranteed exact optimal *basic* solutions;
    the reference everything else is certified against.
``"scipy"``
    HiGHS floats, rationalized on the way out.  Fast but **uncertified**:
    values may violate constraints by rounding hairs and need not be
    vertices.  Callers must re-check (see
    :meth:`~repro.lp.model.LinearProgram.check_values`) before feeding the
    result to anything that needs exactness.
``"hybrid"``
    HiGHS candidate + exact verification/repair (see :mod:`repro.lp.hybrid`).
    Same guarantees as ``"exact"``, close to ``"scipy"`` speed on anything
    large enough for the float probe to pay off.  Degrades to ``"exact"``
    when scipy is unavailable.

Every exact solve runs the one fraction-free revised simplex of
:mod:`repro.lp.simplex`.  ``canonical=True`` pins Dantzig pricing for a
deterministic vertex; ``canonical="lex"`` returns the lex-min optimal
vertex, independent of warm starts.

Warm starts: pass ``warm_values`` (a previously feasible point keyed like
the program's variables) and the exact/hybrid backends factorize its
support into the starting basis, typically skipping phase 1 entirely.
"""

from __future__ import annotations

import logging
from fractions import Fraction
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .._fraction import to_fraction
from ..exceptions import SolverError
from .hybrid import HAVE_SCIPY, solve_standard_hybrid
from .model import LinearProgram, LPSolution, VarKey
from .simplex import solve_standard
from .stats import SolverStats, record
from .warm import WarmState

logger = logging.getLogger(__name__)

if HAVE_SCIPY:
    from .scipy_backend import solve_standard_float
else:  # pragma: no cover - scipy is present in CI images
    solve_standard_float = None  # type: ignore[assignment]

BACKENDS = ("exact", "scipy", "hybrid")


def _resolve_backend(backend: str) -> str:
    if backend not in BACKENDS:
        raise SolverError(f"unknown backend {backend!r}; choose from {BACKENDS}")
    if backend in ("scipy", "hybrid") and not HAVE_SCIPY:
        if backend == "scipy":
            raise SolverError("backend 'scipy' requested but scipy is not installed")
        backend = "exact"  # hybrid degrades gracefully, guarantees intact
    return backend


def _warm_point(
    lp: LinearProgram, warm_values: Optional[Mapping[VarKey, Fraction]]
) -> Tuple[Optional[List[Fraction]], int]:
    """A prior point as a dense structural vector (missing keys read as 0).

    Returns ``(point, dropped)`` where *dropped* counts warm keys absent
    from the target LP.  Drops are expected across structurally different
    re-solves (masked probes, min-T), but a persistently high count means a
    caller is warm-starting from the wrong space — so they are surfaced in
    ``SolverStats.warm_key_drops`` and a debug log rather than silently
    swallowed as before.
    """
    if not warm_values:
        return None, 0
    point = [Fraction(0)] * lp.num_variables
    found = False
    dropped = 0
    for key, value in warm_values.items():
        if lp.has_variable(key):
            value = to_fraction(value)
            if value != 0:
                point[lp.index_of(key)] = value
                found = True
        else:
            dropped += 1
    if dropped and logger.isEnabledFor(logging.DEBUG):
        logger.debug(
            "warm start dropped %d key(s) absent from the target LP "
            "(%d variables)", dropped, lp.num_variables,
        )
    return (point if found else None), dropped


def _count_warm_drops(drops: int, stats) -> None:
    """Fold *drops* into the per-solve stats and the active scopes/sinks.

    ``record`` was already called inside the solve, so the per-solve object
    must be patched *and* a delta recorded for scope aggregates and span
    sinks to see the count.
    """
    if not drops:
        return
    if stats is not None:
        stats.warm_key_drops += drops
    record(SolverStats(warm_key_drops=drops))


def _local_warm_state(
    lp: LinearProgram, state: Optional[WarmState]
) -> Optional[WarmState]:
    """Relabel a keyed :class:`WarmState` into *lp*'s column space."""
    if state is None:
        return None
    return state.relabel(
        lambda key: lp.index_of(key) if lp.has_variable(key) else None,
        new_n=lp.num_variables,
    )


def _keyed_warm_state(lp: LinearProgram, state) -> Optional[WarmState]:
    """Relabel a solver-produced :class:`WarmState` onto variable keys."""
    if state is None:
        return None
    keys = lp.variable_keys
    return state.relabel(
        lambda j: keys[j] if isinstance(j, int) and 0 <= j < len(keys) else None
    )


def solve_lp(
    lp: LinearProgram,
    backend: str = "exact",
    warm_values: Optional[Mapping[VarKey, Fraction]] = None,
    warm_state: Optional[WarmState] = None,
    structure_token: object = None,
    canonical: "bool | str" = True,
) -> LPSolution:
    """Solve *lp* (minimization) and map values back to variable keys.

    See the module docstring for the per-backend guarantees.  *warm_values*
    is an optional previously-feasible point used to warm-start the
    exact/hybrid backends; it never changes the result, only the pivot
    path.

    *warm_state* is a carried :class:`~repro.lp.warm.WarmState` whose
    structural labels are **variable keys** (as returned on
    ``LPSolution.warm_state``); it is relabelled into *lp*'s column space
    and, when its basis still resolves, the exact solver skips phase 1 and
    the warm-point push outright.  A stale state degrades to its carried
    vertex.  *structure_token* authorizes verbatim basis reuse (raw-row
    callers only — relabelling drops the witness, so keyed carrying always
    refactorizes).  *canonical* picks the vertex-identity contract (see
    :func:`repro.lp.simplex.solve_standard`): ``True`` (default) pins
    Dantzig pricing for a deterministic vertex, ``"lex"`` returns the
    warm-start-independent lex-min vertex, ``False`` whatever vertex the solve lands
    on (probe-style callers that only consume values).
    """
    backend = _resolve_backend(backend)
    coeff_rows, senses, rhs, objective = lp.to_standard_rows()
    local_state = None
    if warm_state is not None and backend in ("exact", "hybrid"):
        local_state = _local_warm_state(lp, warm_state)
        if local_state is None and not warm_values:
            warm_values = warm_state.point  # stale basis: keep the vertex
    warm_pt, drops = _warm_point(lp, warm_values)
    if backend == "exact":
        result = solve_standard(
            coeff_rows, senses, rhs, objective,
            warm_point=warm_pt,
            warm_state=local_state, structure_token=structure_token,
            canonical=canonical,
        )
    elif backend == "hybrid":
        result = solve_standard_hybrid(
            coeff_rows, senses, rhs, objective,
            warm_point=warm_pt,
            warm_state=local_state, structure_token=structure_token,
            canonical=canonical,
        )
    else:
        result = solve_standard_float(coeff_rows, senses, rhs, objective)
    _count_warm_drops(drops, result.stats)
    if result.status != "optimal":
        return LPSolution(
            status=result.status, values={}, objective=None, stats=result.stats
        )
    values: Dict = {}
    for key in lp.variable_keys:
        values[key] = result.x[lp.index_of(key)]
    return LPSolution(
        status="optimal", values=values, objective=result.objective,
        stats=result.stats,
        warm_state=_keyed_warm_state(lp, getattr(result, "warm_state", None)),
    )


def check_standard_rows(
    coeff_rows: Sequence[Dict[int, Fraction]],
    senses: Sequence[str],
    rhs: Sequence[Fraction],
    x: Sequence[Fraction],
) -> bool:
    """Exactly verify ``x ≥ 0`` against the rows (no tolerances).

    The raw-row counterpart of
    :meth:`~repro.lp.model.LinearProgram.check_values`; this is the gate
    that certifies float candidates — and re-certifies cached points in the
    incremental probe pipeline — without an exact solve.
    """
    if any(v < 0 for v in x if v):
        return False
    for row, sense, b in zip(coeff_rows, senses, rhs):
        lhs = sum((v * x[j] for j, v in row.items() if x[j]), Fraction(0))
        b = to_fraction(b)
        ok = (
            lhs <= b if sense == "<="
            else lhs >= b if sense == ">="
            else lhs == b
        )
        if not ok:
            return False
    return True


def feasible_point_rows(
    coeff_rows: Sequence[Dict[int, Fraction]],
    senses: Sequence[str],
    rhs: Sequence[Fraction],
    num_vars: int,
    backend: str = "hybrid",
    warm_point: Optional[Sequence[Fraction]] = None,
    warm_state: Optional[WarmState] = None,
    structure_token: object = None,
    want_state: bool = False,
    _float_program: Optional[Callable[[], object]] = None,
):
    """Certified feasibility probe on raw standard rows.

    Returns ``(point, farkas)``: exactly one of the two is non-``None``
    unless the program is infeasible without an available certificate
    (``(None, None)``).  The point is **exactly** feasible; the certificate
    is **exactly** verified (see :mod:`repro.lp.certificates`).  This is
    the primitive behind the incremental binary-search pipeline of
    :class:`repro.core.programs.IP3Builder`, which calls it with masked row
    views instead of materialized :class:`~repro.lp.model.LinearProgram`
    objects.

    *warm_state* carries the basis of a neighbouring probe's solve (labels
    in **this** row/column space); *structure_token* authorizes verbatim
    basis reuse when the caller guarantees identical columns (see
    :mod:`repro.lp.warm`).  With ``want_state=True`` the return becomes the
    3-tuple ``(point, farkas, state)`` where *state* is the exact solve's
    final :class:`~repro.lp.warm.WarmState` — ``None`` on the float-certified
    shortcut (no exact basis existed) and on infeasibility.  Probe vertices
    are **not** canonicalized (feasibility verdicts are vertex-agnostic).

    *_float_program* is internal: a zero-argument callable returning these
    rows already marshaled for HiGHS (see
    :meth:`repro.core.programs.IP3Builder.float_program`), called only when
    the float leg runs.  It reaches HiGHS through :func:`float_candidate`
    like any other candidate and changes no verdict — the marshaled input
    is bit-identical to the one built from the rows.
    """
    from .hybrid import _FLOAT_SIZE_CUTOFF, certify_infeasible, float_candidate

    if backend not in BACKENDS:
        raise SolverError(f"unknown backend {backend!r}; choose from {BACKENDS}")
    use_float = (
        backend in ("hybrid", "scipy")
        and HAVE_SCIPY
        and num_vars * max(len(coeff_rows), 1) >= _FLOAT_SIZE_CUTOFF
    )
    objective = [Fraction(0)] * num_vars
    if use_float:
        program = _float_program() if _float_program is not None else None
        candidate = float_candidate(
            coeff_rows, senses, rhs, objective, program=program
        )
        if candidate is not None and candidate.status == "optimal":
            if check_standard_rows(coeff_rows, senses, rhs, candidate.x):
                # Certified by the re-check; no exact basis to carry.
                point = list(candidate.x)
                return (point, None, None) if want_state else (point, None)
            warm_point = candidate.x  # uncertified: warm-start the repair
        elif candidate is not None and candidate.status == "infeasible":
            farkas = certify_infeasible(
                coeff_rows, senses, rhs, num_vars=num_vars
            )
            if farkas is not None:
                return (None, farkas, None) if want_state else (None, farkas)
    result = solve_standard(
        coeff_rows, senses, rhs, objective,
        warm_point=warm_point,
        warm_state=warm_state, structure_token=structure_token,
        canonical=False,
    )
    if result.status != "optimal":
        farkas = result.farkas
        return (None, farkas, None) if want_state else (None, farkas)
    state = getattr(result, "warm_state", None)
    return (result.x, None, state) if want_state else (result.x, None)


def feasible_point(lp: LinearProgram, backend: str = "exact") -> Optional[Dict]:
    """An **exactly certified** feasible point of *lp*, or ``None``.

    The keyed form of :func:`feasible_point_rows`, which every backend goes
    through: with ``"hybrid"`` or ``"scipy"``, a rationalized HiGHS point
    that passes the exact re-check is returned directly — no exact pivoting
    at all; the point is feasible but not necessarily basic, which is all a
    feasibility verdict needs.  Every other path (check fails, float says
    infeasible, program below the float size cutoff, ``"exact"``) falls
    through to a certified exact solve.
    """
    backend = _resolve_backend(backend)
    coeff_rows, senses, rhs, _objective = lp.to_standard_rows()
    point, _farkas = feasible_point_rows(
        coeff_rows, senses, rhs, lp.num_variables, backend=backend
    )
    if point is None:
        return None
    return {key: point[lp.index_of(key)] for key in lp.variable_keys}


def is_feasible(lp: LinearProgram, backend: str = "exact") -> bool:
    """Certified feasibility check (see :func:`feasible_point`)."""
    return feasible_point(lp, backend=backend) is not None
