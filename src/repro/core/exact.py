"""Exact optimal solving of the hierarchical scheduling problem.

Because the (IP-2) constraints are necessary *and* sufficient
(Theorem IV.3), the optimal makespan is

    opt(I) = min over assignments x of
             max( max_j p_{mask(j),j},  max_α Σ_{β⊆α} vol(β) / |α| )

so both questions asked here — the optimum (:func:`solve_exact`) and
"is there an assignment with makespan ≤ T?" (:func:`find_assignment_within`)
— are one search over integral assignments, run by one depth-first
branch-and-bound.

The search works on plain integers.  Every processing time and the bound
are multiplied by the LCM of their denominators times ``lcm(m, set
sizes)``, so every per-machine load ``Σ_{β⊆α} vol(β) / |α|`` is an exact
integer too.  Jobs are explored hardest-first (largest cheapest time), each
job's admissible sets cheapest-first.  The search keeps each set's
per-machine load and the partial peak (the makespan of the jobs assigned so
far), both updated along the chosen set's ancestor chain only.

A leaf is accepted when its makespan is ≤ the integer ``bound``, and one
rule prunes: an option is skipped when its time or the load of any set on
its chain would exceed ``bound``, and a node is cut when its peak exceeds
``bound`` or when the assigned volume plus every unassigned job's cheapest
time exceeds ``m · bound``.  Decide mode stops at the first accepted leaf.
Optimize mode records the leaf, tightens ``bound`` to its makespan − 1 and
goes on, so the last leaf recorded is optimal.

Only meant for the small instances of the experiment suite (it is the
reference that E07 measures approximation ratios against); the 2-approx of
Section V is the scalable path, and :mod:`repro.core.exact_ilp` is the
independent oracle this search is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple, Union

from .._fraction import is_inf, to_fraction
from ..exceptions import InfeasibleError, SolverError
from ..schedule.schedule import Schedule
from .assignment import Assignment, min_T_for_assignment
from .hierarchical import schedule_hierarchical
from .instance import Instance


@dataclass
class ExactResult:
    assignment: Assignment
    optimum: Fraction
    nodes_explored: int
    """Search nodes entered, the root included.  A child whose time or
    chain load already exceeds the bound is skipped without being entered,
    so an *upper_bound* hint lowers this count but not the result."""

    def build_schedule(self, instance: Instance) -> Schedule:
        return schedule_hierarchical(instance, self.assignment, self.optimum)


def _branch_and_bound(
    instance: Instance,
    bound: Optional[Fraction],
    node_limit: int,
    decide: bool,
) -> Tuple[Optional[List[int]], int]:
    """The search core: ``(set index per job, nodes entered)``.

    The choice is the first leaf with makespan ≤ *bound* (*decide*) or the
    best leaf (optimize); ``None`` when no leaf is within *bound*.  A
    ``None`` *bound* accepts any leaf.  Raises :class:`InfeasibleError`
    when optimizing and some job has no admissible set.
    """
    family = instance.family
    sets = family.sets
    n, m = instance.n, instance.m
    index = {alpha: k for k, alpha in enumerate(sets)}
    sizes = [len(alpha) for alpha in sets]

    rows: List[List[Tuple[Fraction, int]]] = []
    for j in range(n):
        row = []
        for k, alpha in enumerate(sets):
            p = instance.p(j, alpha)
            if not is_inf(p):
                row.append((to_fraction(p), k))
        if not row:
            if decide:
                return None, 0
            raise InfeasibleError(f"job {j} has no admissible set")
        rows.append(row)

    denominators = [p.denominator for row in rows for p, _k in row]
    if bound is not None:
        denominators.append(bound.denominator)
    scale = math.lcm(*denominators) * math.lcm(m, *sizes)
    limit = math.inf if bound is None else bound.numerator * (scale // bound.denominator)

    # Per job: (time, set, ((chain set, time / |chain set|), ...)) cheapest
    # first; the chain is the set and its ancestors.
    chains = [[k] + [index[a] for a in family.ancestors(alpha)] for k, alpha in enumerate(sets)]
    options = []
    for row in rows:
        opts = sorted((p.numerator * (scale // p.denominator), k) for p, k in row)
        if opts[0][0] > limit:
            return None, 0
        options.append(
            [(p, k, tuple((a, p // sizes[a]) for a in chains[k])) for p, k in opts]
        )
    order = sorted(range(n), key=lambda j: -options[j][0][0])
    # remaining[t]: the cheapest times of the jobs from position t on, an
    # admissible bound on the volume still to come.
    remaining = [0] * (n + 1)
    for t in range(n - 1, -1, -1):
        remaining[t] = remaining[t + 1] + options[order[t]][0][0]

    load = [0] * len(sets)
    chosen = [-1] * n
    best: Optional[List[int]] = None
    nodes = 0

    def dfs(t: int, peak: int, assigned: int) -> bool:
        nonlocal nodes, limit, best
        nodes += 1
        if nodes > node_limit:
            raise SolverError(f"exact search exceeded {node_limit} nodes")
        if assigned + remaining[t] > m * limit:
            return False
        if t == n:
            best = chosen.copy()
            limit = peak - 1
            return decide
        j = order[t]
        for p, k, chain in options[j]:
            top = p if p > peak else peak
            if top > limit:
                return False  # options are sorted, and a tightened limit cuts this node
            for a, q in chain:
                v = load[a] + q
                if v > limit:
                    break
                if v > top:
                    top = v
            else:
                for a, q in chain:
                    load[a] += q
                chosen[j] = k
                if dfs(t + 1, top, assigned + p):
                    return True
                for a, q in chain:
                    load[a] -= q
        return False

    dfs(0, 0, 0)
    return best, nodes


def solve_exact(
    instance: Instance,
    upper_bound: Optional[Union[int, Fraction]] = None,
    node_limit: int = 2_000_000,
) -> ExactResult:
    """Find an assignment of provably minimal makespan.

    Parameters
    ----------
    upper_bound:
        A makespan known to be achievable (e.g. the 2-approximation's);
        inclusive, so it may equal the optimum.  It tightens pruning but
        never changes the result.
    node_limit:
        Safety cap on search nodes; exceeding it raises
        :class:`SolverError`.
    """
    bound = None if upper_bound is None else to_fraction(upper_bound)
    choice, nodes = _branch_and_bound(instance, bound, node_limit, decide=False)
    if choice is None:
        raise InfeasibleError("no feasible assignment exists")
    sets = instance.family.sets
    assignment = Assignment({j: sets[k] for j, k in enumerate(choice)})
    optimum = min_T_for_assignment(instance, assignment)
    return ExactResult(assignment=assignment, optimum=optimum, nodes_explored=nodes)


def find_assignment_within(
    instance: Instance,
    T: Union[int, Fraction],
    node_limit: int = 2_000_000,
) -> Optional[Assignment]:
    """The first assignment with makespan ≤ *T*, or None when none exists.

    The decide mode of the search behind :func:`solve_exact` — it stops at
    the first witness instead of optimizing, which is what schedulability
    studies (experiment E15) need and is exponentially cheaper near the
    feasibility boundary.
    """
    choice, _nodes = _branch_and_bound(instance, to_fraction(T), node_limit, decide=True)
    if choice is None:
        return None
    sets = instance.family.sets
    return Assignment({j: sets[k] for j, k in enumerate(choice)})
