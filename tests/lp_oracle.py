"""Brute-force LP oracle: enumerate every basic solution over Fractions.

An independent reference for the exact simplex; it shares no code with
``repro.lp``.  Each column subset of the equality form ``[A | S]·(x, s) = b``
is solved by Gaussian elimination and its non-negative solutions are kept.
Exponential time: use it only on programs with a handful of rows and columns.
"""

from fractions import Fraction
from itertools import combinations


def _equality_form(rows, senses, rhs, n):
    """Dense ``[A | S]`` (one slack column per inequality row) and ``b``."""
    inequalities = [i for i, sense in enumerate(senses) if sense != "=="]
    matrix = []
    for i, (row, sense) in enumerate(zip(rows, senses)):
        dense = [Fraction(row.get(j, 0)) for j in range(n)]
        for r in inequalities:
            dense.append(Fraction((1 if sense == "<=" else -1) if r == i else 0))
        matrix.append(dense)
    return matrix, [Fraction(b) for b in rhs], n + len(inequalities)


def _solve_columns(matrix, b, cols):
    """The unique ``z`` with ``A[:, cols]·z = b``, or None.

    None when the columns are linearly dependent or the system is
    inconsistent; those subsets have no basic solution of their own.
    """
    aug = [[row[c] for c in cols] + [bi] for row, bi in zip(matrix, b)]
    used = []
    for k in range(len(cols)):
        r = next((r for r in range(len(aug)) if r not in used and aug[r][k]), None)
        if r is None:
            return None  # dependent columns
        used.append(r)
        for other in range(len(aug)):
            if other != r and aug[other][k]:
                f = aug[other][k] / aug[r][k]
                aug[other] = [a - f * p for a, p in zip(aug[other], aug[r])]
    if any(aug[r][-1] for r in range(len(aug)) if r not in used):
        return None  # inconsistent
    return [aug[r][-1] / aug[r][k] for k, r in enumerate(used)]


def _rank(matrix):
    rows, rank = [row[:] for row in matrix], 0
    for k in range(len(rows[0]) if rows else 0):
        p = next((i for i in range(rank, len(rows)) if rows[i][k]), None)
        if p is None:
            continue
        rows[rank], rows[p] = rows[p], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][k] / rows[rank][k]
            rows[i] = [a - f * q for a, q in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _basic_feasible_solutions(matrix, b, width):
    """Every basic feasible solution, as a dense vector of length *width*.

    Every basic solution's support extends to a column basis of size
    ``rank(A)``, so subsets of exactly that size reach all of them.
    """
    for cols in combinations(range(width), _rank(matrix)):
        z = _solve_columns(matrix, b, cols)
        if z is not None and all(v >= 0 for v in z):
            point = [Fraction(0)] * width
            for c, v in zip(cols, z):
                point[c] = v
            yield point


def oracle_solve(rows, senses, rhs, objective):
    """Solve ``min c·x s.t. rows, x ≥ 0`` by enumeration.

    Returns ``(status, value, vertex)``: ``("optimal", c·x*, x*)`` with
    ``x*`` the lexicographically smallest optimal vertex (structural part
    only), or ``("infeasible", None, None)`` / ``("unbounded", None, None)``.
    """
    n = len(objective)
    c = [Fraction(v) for v in objective]
    matrix, b, width = _equality_form(rows, senses, rhs, n)
    points = [p[:n] for p in _basic_feasible_solutions(matrix, b, width)]
    if not points:
        return "infeasible", None, None
    # Unbounded iff some recession direction improves the objective.  The
    # normalized cone {d ≥ 0, A·d ⋈ 0, Σd = 1} is a polytope, so checking
    # its vertices suffices.
    cone = matrix + [[Fraction(1)] * width]
    zero = [Fraction(0)] * len(matrix) + [Fraction(1)]
    for d in _basic_feasible_solutions(cone, zero, width) if any(c) else ():
        if sum(cj * dj for cj, dj in zip(c, d)) < 0:
            return "unbounded", None, None
    value = min(sum(cj * xj for cj, xj in zip(c, p)) for p in points)
    optimal = [p for p in points if sum(cj * xj for cj, xj in zip(c, p)) == value]
    return "optimal", value, min(optimal)
