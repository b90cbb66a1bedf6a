"""Lenstra–Shmoys–Tardos rounding for unrelated machine scheduling.

Given a horizon ``T`` at which the R||Cmax assignment LP

    Σ_i x_{ij} = 1            (j ∈ J, over machines i with p_{ij} ≤ T)
    Σ_j p_{ij} x_{ij} ≤ T     (i ∈ M)
    x ≥ 0

is feasible, the classic rounding [Lenstra, Shmoys, Tardos 1990] produces an
*integral* assignment with makespan at most ``2T``: integral variables of a
basic solution are kept, and the fractional jobs — whose support graph is a
pseudo-forest in which every fractional job has degree ≥ 2 — are matched to
machines so each machine receives at most one extra job of size ≤ T.

This is the engine behind Theorem V.2: after Lemma V.1's push-down, the
hierarchical LP solution lives on singletons and *is* such an LP solution.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Mapping, Tuple, Union

from .._fraction import INF, is_inf, to_fraction, to_fraction_finite
from ..exceptions import InfeasibleError, RoundingError
from ..lp.model import LinearProgram
from ..lp.solve import solve_lp
from .matching import maximum_bipartite_matching
from .pseudoforest import connected_components

Time = Union[int, Fraction]
PMatrix = Mapping[int, Mapping[int, Union[int, Fraction, float]]]


def build_unrelated_lp(p: PMatrix, T: Time) -> LinearProgram:
    """The R||Cmax assignment LP at horizon *T* (variables ``("x", i, j)``).

    *p* maps ``job -> {machine: time}``; pairs with ``p_{ij} > T`` (or INF)
    get no variable, which encodes the pruning.
    """
    T = to_fraction(T)
    lp = LinearProgram()
    machines: Dict[int, List[int]] = {}
    for j in sorted(p):
        allowed = []
        for i in sorted(p[j]):
            value = p[j][i]
            if not is_inf(value) and to_fraction(value) <= T:
                # ub implied by the assignment row; a bound row would only
                # enlarge the basis.
                lp.add_variable(("x", i, j), lb=0)
                allowed.append(i)
                machines.setdefault(i, []).append(j)
        if not allowed:
            lp.add_constraint({}, "==", 1, name=f"assign[{j}]")  # infeasible row
        else:
            lp.add_constraint(
                {("x", i, j): 1 for i in allowed}, "==", 1, name=f"assign[{j}]"
            )
    for i in sorted(machines):
        lp.add_constraint(
            {("x", i, j): to_fraction(p[j][i]) for j in machines[i]},
            "<=",
            T,
            name=f"load[{i}]",
        )
    return lp


def _fractional_graph(
    values: Mapping[Tuple[str, int, int], Fraction],
) -> Tuple[Dict[int, int], List[Tuple[Tuple[str, int], Tuple[str, int]]]]:
    """Split a basic LP solution into integral assignments + fractional edges.

    Returns ``(integral: job -> machine, edges)`` where edges connect
    ``("job", j)`` and ``("machine", i)`` nodes for fractional variables.
    """
    integral: Dict[int, int] = {}
    edges: List[Tuple[Tuple[str, int], Tuple[str, int]]] = []
    for (tag, i, j), value in sorted(values.items(), key=lambda kv: (kv[0][2], kv[0][1])):
        if tag != "x" or value == 0:
            continue
        if value == 1:
            if j in integral:
                raise RoundingError(f"job {j} integrally assigned twice")
            integral[j] = i
        else:
            edges.append((("job", j), ("machine", i)))
    return integral, edges


def round_fractional_solution(
    values: Mapping[Tuple[str, int, int], Fraction],
) -> Dict[int, int]:
    """Round a basic solution of the assignment LP to an integral assignment.

    Every fractional job is matched to one of its fractional machines; the
    matching exists because each pseudo-tree component with all job degrees
    ≥ 2 satisfies Hall's condition.  Raises :class:`RoundingError` when the
    input is not vertex-shaped (e.g. produced by a non-basic solver).
    """
    integral, edges = _fractional_graph(values)
    if not edges:
        return integral
    for component in connected_components(edges):
        if not component.is_pseudotree:
            raise RoundingError(
                "fractional support has a component with more edges than "
                "nodes; the LP solution is not basic"
            )
    adjacency: Dict[int, List[int]] = {}
    for (tag_u, j), (tag_v, i) in edges:
        adjacency.setdefault(j, []).append(i)
    matching = maximum_bipartite_matching(adjacency)
    unmatched = [j for j in adjacency if j not in matching]
    if unmatched:
        raise RoundingError(
            f"fractional jobs {unmatched} could not be matched; "
            f"the LP solution is not basic"
        )
    result = dict(integral)
    for j, i in matching.items():
        if j in result:
            raise RoundingError(f"job {j} both integral and fractional")
        result[j] = i
    return result


def lst_round(
    p: PMatrix,
    T: Time,
    backend: str = "hybrid",
) -> Dict[int, int]:
    """Full LST step: solve the assignment LP at *T*, then round.

    Returns ``job -> machine``.  The resulting per-machine load is at most
    ``2T`` (LP load ≤ T plus at most one extra job of size ≤ T).  Raises
    :class:`InfeasibleError` when the LP itself is infeasible at *T*.

    The rounding needs a *basic* solution; the exact and hybrid backends
    guarantee one.  With ``backend="scipy"`` the rationalized point is
    re-checked exactly first, and any uncertified or non-vertex point is
    repaired by an exact re-solve (warm-started from the candidate) instead
    of being propagated into the pseudo-forest argument.
    """
    lp = build_unrelated_lp(p, T)
    solution = solve_lp(lp, backend=backend)
    if not solution.is_optimal and backend == "scipy":
        # Callers sit exactly on the feasibility knife-edge (T = certified
        # T*); never let a float solver's "infeasible" be the last word.
        solution = solve_lp(lp, backend="exact")
    if not solution.is_optimal:
        raise InfeasibleError(f"assignment LP infeasible at T={T}")
    if backend == "scipy":
        if lp.check_values(solution.values):
            solution = solve_lp(lp, backend="exact", warm_values=solution.values)
            if not solution.is_optimal:  # pragma: no cover - float false positive
                raise InfeasibleError(f"assignment LP infeasible at T={T}")
        else:
            try:
                return round_fractional_solution(solution.values)
            except RoundingError:
                # Feasible but not vertex-shaped (HiGHS interior/crossover
                # artifact): repair with an exact basic re-solve.
                solution = solve_lp(lp, backend="exact", warm_values=solution.values)
    return round_fractional_solution(solution.values)


def assignment_loads(p: PMatrix, assignment: Mapping[int, int]) -> Dict[int, Fraction]:
    """Per-machine load of an integral assignment.

    Assigning a job to a machine with ``p = INF`` is a domain error
    (:class:`~repro.exceptions.InvalidInstanceError`), not a coercion crash.
    """
    loads: Dict[int, Fraction] = {}
    for j, i in assignment.items():
        loads[i] = loads.get(i, Fraction(0)) + to_fraction_finite(
            p[j][i], f"processing time of job {j} on machine {i}"
        )
    return loads
