"""Exact Farkas certificates of LP infeasibility, checkable in O(nnz).

A vector ``y`` (one entry per constraint row, in the caller's row order)
certifies that ``{x ≥ 0 : rows}`` is empty when

* ``y_i ≤ 0`` for every ``<=`` row and ``y_i ≥ 0`` for every ``>=`` row
  (equality rows are unrestricted),
* ``Σ_i y_i·a_{ij} ≤ 0`` for every column ``j``, and
* ``Σ_i y_i·b_i > 0``.

Proof: for any feasible ``x ≥ 0``, the sign conditions give
``y_i·(a_i·x) ≥ y_i·b_i`` row-wise, so ``yᵀA·x ≥ yᵀb > 0`` — but every
column sum of ``yᵀA`` is ``≤ 0`` and ``x ≥ 0`` force ``yᵀA·x ≤ 0``.

These certificates are the currency of the incremental probe pipeline: an
infeasible probe of a binary search hands its ``y`` to the next probe,
which re-checks it against the *new* rows in ``O(nnz)`` rational work — if
it still certifies, an entire exact solve is skipped (see
:meth:`repro.core.programs.IP3Builder`).  The exact simplex and the
HiGHS-dual path of :func:`repro.lp.hybrid.certify_infeasible` emit their
certificates in this one format.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Dict, List, Sequence

from .._fraction import to_fraction


def farkas_certifies(
    coeff_rows: Sequence[Dict[int, Fraction]],
    senses: Sequence[str],
    rhs: Sequence[Fraction],
    y: Sequence[Fraction],
) -> bool:
    """Exactly verify the certificate conditions above (``True`` = proof)."""
    if len(y) != len(coeff_rows):
        return False
    fy = [to_fraction(yi) for yi in y]
    for yi, sense in zip(fy, senses):
        if sense == "<=" and yi > 0:
            return False
        if sense == ">=" and yi < 0:
            return False
    # Scale y by the (positive) lcm of its denominators: every condition
    # below is a sign test, so the scaling changes nothing — but it turns
    # the column sums into (mostly) pure integer arithmetic, an order of
    # magnitude cheaper than Fraction accumulation on the probe hot path.
    scale = 1
    for yi in fy:
        scale = lcm(scale, yi.denominator)
    y_int = [yi.numerator * (scale // yi.denominator) for yi in fy]
    column_sums: Dict[int, object] = {}
    for yi, row in zip(y_int, coeff_rows):
        if not yi:
            continue
        for j, v in row.items():
            term = yi * v.numerator if v.denominator == 1 else yi * v
            acc = column_sums.get(j)
            column_sums[j] = term if acc is None else acc + term
    if any(total > 0 for total in column_sums.values()):
        return False
    gain = 0
    for yi, b in zip(y_int, rhs):
        if yi:
            fb = to_fraction(b)
            gain += yi * fb.numerator if fb.denominator == 1 else yi * fb
    return gain > 0


def denormalize_farkas(
    y_std: Sequence[Fraction], raw_rhs: Sequence[Fraction]
) -> List[Fraction]:
    """Map a certificate on sign-normalized rows back to the raw rows.

    :func:`repro.lp.simplex.standard_form` negates every row whose rhs is
    negative; a dual on the normalized system certifies the raw system with
    the corresponding entries negated back.
    """
    return [
        -yi if to_fraction(b) < 0 else yi for yi, b in zip(y_std, raw_rhs)
    ]
