"""Scheduler-class baselines via family restriction.

The paper frames global, partitioned, clustered and semi-partitioned
scheduling as special admissible families (Section II).  Experiment E12
compares the classes on a *common* hierarchical instance by restricting the
family to the sets each class may use and re-solving:

* ``global``      — ``{M}`` only (McNaughton within the full machine set);
* ``partitioned`` — singletons only (R||Cmax);
* ``clustered``   — one chosen level of clusters (global within a cluster);
* ``semi``        — ``{M}`` ∪ singletons;
* ``hierarchical``— the full family (the paper's contribution).

Restriction can make a specific job infeasible (all its restricted masks
have ``P = ∞``); the result records this instead of raising, because a class
losing instances *is* the phenomenon the comparison measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from .._fraction import INF, is_inf
from ..core.approx import TwoApproxResult, two_approximation
from ..core.assignment import Assignment
from ..core.instance import Instance
from ..core.laminar import LaminarFamily, MachineSet
from ..exceptions import InfeasibleError, InvalidFamilyError


def restrict_instance(instance: Instance, sets: Iterable[Iterable[int]]) -> Instance:
    """A new instance whose family is the given subset of admissible sets.

    Processing times carry over unchanged; every chosen set must already be
    admissible in the source instance.
    """
    chosen = [frozenset(s) for s in sets]
    for alpha in chosen:
        if alpha not in instance.family:
            raise InvalidFamilyError(
                f"{sorted(alpha)} is not admissible in the source instance"
            )
    family = LaminarFamily(instance.machines, chosen)
    processing = {
        j: {alpha: instance.p(j, alpha) for alpha in chosen}
        for j in range(instance.n)
    }
    return Instance(family, processing, validate=False)


def _level_sets(instance: Instance, predicate) -> List[MachineSet]:
    return [alpha for alpha in instance.family.sets if predicate(alpha)]


SCHEDULER_CLASSES = ("global", "partitioned", "clustered", "semi", "hierarchical")


def restricted_family_for(instance: Instance, scheduler_class: str) -> List[MachineSet]:
    """The admissible sets the given scheduler class may use."""
    family = instance.family
    root = frozenset(instance.machines)
    if scheduler_class == "global":
        if root not in family:
            raise InvalidFamilyError("the family lacks the full machine set M")
        return [root]
    if scheduler_class == "partitioned":
        singles = _level_sets(instance, lambda a: len(a) == 1)
        if len(singles) != instance.m:
            raise InvalidFamilyError("the family lacks some singleton")
        return singles
    if scheduler_class == "semi":
        if root not in family:
            raise InvalidFamilyError("the family lacks the full machine set M")
        singles = _level_sets(instance, lambda a: len(a) == 1)
        if len(singles) != instance.m:
            raise InvalidFamilyError("the family lacks some singleton")
        return [root] + singles
    if scheduler_class == "clustered":
        clusters = _level_sets(instance, lambda a: 1 < len(a) < instance.m)
        if not clusters:
            raise InvalidFamilyError("the family has no intermediate clusters")
        # Use the topmost intermediate level plus singletons for leftovers.
        maximal = [
            a for a in clusters
            if not any(a < b for b in clusters)
        ]
        covered = frozenset().union(*maximal)
        extras = [
            frozenset([i]) for i in sorted(instance.machines - covered)
            if frozenset([i]) in family
        ]
        return maximal + extras
    if scheduler_class == "hierarchical":
        return list(family.sets)
    raise InvalidFamilyError(f"unknown scheduler class {scheduler_class!r}")


def restricted_witness(
    instance: Instance,
    scheduler_class: str,
    T,
    node_limit: int = 2_000_000,
) -> Optional[Assignment]:
    """The exact witness search within the class's restricted family.

    The first assignment with makespan ≤ *T* over the sets the class may
    use, or ``None`` when there is none.  Structural inapplicability of the
    class (:class:`InvalidFamilyError`) counts as ``None`` — a class losing
    instances is the phenomenon the comparisons measure — but a
    :class:`~repro.exceptions.SolverError` (node-limit blowup) propagates:
    "the search gave up" must never be tabulated as "not schedulable".
    """
    try:
        sets = restricted_family_for(instance, scheduler_class)
    except InvalidFamilyError:
        return None
    # Looked up per call, so a wrapper installed on the module sees it.
    from ..core.exact import find_assignment_within

    return find_assignment_within(
        restrict_instance(instance, sets), T, node_limit=node_limit
    )


def exact_schedulable_within(
    instance: Instance,
    scheduler_class: str,
    T,
    node_limit: int = 2_000_000,
) -> bool:
    """Exact ground truth for the schedulability studies (E15, E19):
    whether :func:`restricted_witness` finds a witness."""
    return restricted_witness(instance, scheduler_class, T, node_limit) is not None


@dataclass
class ClassComparison:
    scheduler_class: str
    feasible: bool
    makespan: Optional[Fraction]
    T_lp: Optional[Fraction]
    result: Optional[TwoApproxResult]
    schedule: Optional[object] = None
    """The realized schedule (set for both solve methods when feasible)."""


def solve_restricted(
    instance: Instance,
    scheduler_class: str,
    backend: str = "exact",
    method: str = "approx",
) -> ClassComparison:
    """Solve the instance within one scheduler class.

    ``method="approx"`` runs the Theorem V.2 pipeline (scales, but its LST
    step always lands on singleton masks, so it cannot exhibit the migration
    advantage of the richer classes — Example V.1's phenomenon);
    ``method="exact"`` runs branch-and-bound over the restricted masks and
    does exhibit it (small instances only).
    """
    try:
        sets = restricted_family_for(instance, scheduler_class)
        restricted = restrict_instance(instance, sets)
        for j in range(restricted.n):
            if not restricted.allowed_sets(j):
                raise InfeasibleError(f"job {j} infeasible under {scheduler_class}")
        if method == "exact":
            from ..core.exact import solve_exact
            from ..core.hierarchical import schedule_hierarchical

            exact = solve_exact(restricted)
            schedule = schedule_hierarchical(
                restricted, exact.assignment, exact.optimum
            )
            return ClassComparison(
                scheduler_class=scheduler_class,
                feasible=True,
                makespan=exact.optimum,
                T_lp=None,
                result=None,
                schedule=schedule,
            )
        result = two_approximation(restricted, backend=backend)
    except (InfeasibleError, InvalidFamilyError):
        return ClassComparison(scheduler_class, False, None, None, None)
    return ClassComparison(
        scheduler_class=scheduler_class,
        feasible=True,
        makespan=result.makespan,
        T_lp=result.T_lp,
        result=result,
        schedule=result.schedule,
    )


def compare_scheduler_classes(
    instance: Instance,
    classes: Tuple[str, ...] = SCHEDULER_CLASSES,
    backend: str = "exact",
    method: str = "approx",
) -> Dict[str, ClassComparison]:
    """Run every scheduler class on the same instance (experiment E12)."""
    return {
        c: solve_restricted(instance, c, backend=backend, method=method)
        for c in classes
    }
