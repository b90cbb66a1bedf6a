"""Theorem V.2 — the polynomial-time 2-approximation for hierarchical scheduling.

Pipeline (exactly the proof's construction):

1. Extend the family with all singletons (w.l.o.g. step of Section V); the
   singleton time of job *j* on machine *i* is its time on the minimal
   admissible set containing *i*.
2. Find ``T*``, the least horizon at which the LP relaxation of (IP-3) is
   feasible — a lower bound on the optimum (`minimal_fractional_T`).
3. By repeated Lemma V.1 (push-down) the fractional solution can be assumed
   to live on singletons, i.e. it is a feasible solution of the
   unrelated-machines LP of the collapse ``Iu`` at the same ``T*``.
4. Run Lenstra–Shmoys–Tardos rounding on ``Iu`` at ``T*``: integral
   assignment with per-machine load ≤ ``2T*``.
5. The assignment, extended by zeros on non-singletons, is feasible for
   (IP-2) at ``2T* ≤ 2·opt``; Algorithms 2+3 realize the schedule.

The returned object keeps both the LP lower bound and the achieved makespan
so experiment E07 can report empirical ratios.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict

from .._fraction import is_inf, to_fraction
from ..exceptions import RoundingError
from ..rounding.lst import lst_round
from ..schedule.schedule import Schedule
from ..schedule.validator import validate_schedule
from .assignment import Assignment, min_T_for_assignment
from .hierarchical import schedule_hierarchical
from .instance import Instance
from .programs import feasible_lp_solution, minimal_fractional_T
from .pushdown import push_down


@dataclass
class TwoApproxResult:
    """Outcome of the Theorem V.2 algorithm."""

    instance: Instance
    """The singleton-extended instance the assignment refers to."""

    original: Instance
    """The instance the caller passed in."""

    T_lp: Fraction
    """``T*`` — the fractional lower bound on the optimal makespan."""

    assignment: Assignment
    """Integral assignment on singleton masks of the extended family."""

    schedule: Schedule
    makespan: Fraction

    @property
    def bound(self) -> Fraction:
        """The a-priori guarantee ``2·T*`` of Theorem V.2."""
        return 2 * self.T_lp

    @property
    def ratio_vs_lp(self) -> Fraction:
        """``makespan / T*`` — at most 2 by Theorem V.2."""
        if self.T_lp == 0:
            return Fraction(0)
        return self.makespan / self.T_lp

    def original_masks(self) -> Assignment:
        """The assignment mapped back to the original family.

        Each singleton mask ``{i}`` becomes the minimal original admissible
        set containing *i* — the set whose processing time defined the
        singleton's, so delivered work matches exactly.
        """
        masks: Dict[int, frozenset] = {}
        for j, alpha in self.assignment.items():
            if alpha in self.original.family:
                masks[j] = alpha
            else:
                (machine,) = tuple(alpha)
                containing = self.original.family.minimal_containing([machine])
                assert containing is not None
                masks[j] = containing
        return Assignment(masks)


def two_approximation(
    instance: Instance,
    backend: str = "hybrid",
    verify: bool = True,
    use_pushdown_certificate: bool = False,
) -> TwoApproxResult:
    """Run the Theorem V.2 algorithm on a hierarchical instance.

    Parameters
    ----------
    backend:
        LP backend: ``"hybrid"`` (default — HiGHS candidates verified and
        repaired by the exact simplex, so basicness and ``T*`` are still
        exact), ``"exact"`` (pure rational simplex) or ``"scipy"``
        (uncertified floats; every point is exactness-checked and repaired
        before rounding).
    verify:
        Validate the final schedule and the ``≤ 2T*`` bound exactly; a
        failure raises :class:`RoundingError` (it would indicate a bug, not
        an unlucky instance — the guarantee is worst-case).
    use_pushdown_certificate:
        Additionally run Lemma V.1's push-down on an explicit fractional
        solution at ``T*`` and check it lands on singletons.  This is the
        proof's step 3; the pipeline itself only needs its *existence*, so
        the check is optional (tests enable it).
    """
    ext = instance.with_singletons()
    T_star = minimal_fractional_T(ext, backend=backend)

    if use_pushdown_certificate:
        x = feasible_lp_solution(ext, T_star, backend=backend)
        if x is None:  # pragma: no cover - minimal_fractional_T certified it
            raise RoundingError(f"LP infeasible at its own optimum T*={T_star}")
        pushed = push_down(ext, x, T_star)
        if not pushed.supported_on_singletons():  # pragma: no cover
            raise RoundingError("push-down certificate failed")

    # Collapse to the unrelated instance Iu (singleton processing times).
    p_matrix: Dict[int, Dict[int, Fraction]] = {}
    for j in range(ext.n):
        row: Dict[int, Fraction] = {}
        for i in sorted(ext.machines):
            value = ext.p(j, frozenset([i]))
            if not is_inf(value):
                row[i] = to_fraction(value)
        p_matrix[j] = row

    mapping = lst_round(p_matrix, T_star, backend=backend)
    assignment = Assignment({j: frozenset([i]) for j, i in mapping.items()})

    T_schedule = min_T_for_assignment(ext, assignment)
    schedule = schedule_hierarchical(ext, assignment, T_schedule)
    makespan = schedule.makespan()

    if verify:
        report = validate_schedule(ext, assignment, schedule, T=T_schedule)
        if not report.valid:  # pragma: no cover - would be a library bug
            raise RoundingError(f"2-approximation produced an invalid schedule: "
                                f"{report.violations[:3]}")
        if T_star > 0 and makespan > 2 * T_star:  # pragma: no cover
            raise RoundingError(
                f"Theorem V.2 bound violated: makespan {makespan} > 2·T* = {2 * T_star}"
            )

    return TwoApproxResult(
        instance=ext,
        original=instance,
        T_lp=T_star,
        assignment=assignment,
        schedule=schedule,
        makespan=makespan,
    )
