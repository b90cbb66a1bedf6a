"""Solver performance counters and an opt-in aggregation scope.

Perf work on the LP substrate needs numbers that survive machine noise:
wall-clock alone cannot tell "the kernel pivots less" from "the laptop was
idle".  Every solve therefore fills a :class:`SolverStats` record (pivot
counts, phase-1 share, basis refactorizations, warm-start outcomes) that is
attached to the :class:`~repro.lp.simplex.SimplexResult` /
:class:`~repro.lp.model.LPSolution` it produced.

Higher-level pipelines (the ``minimal_fractional_T`` binary search, the
2-approximation, whole experiments) run many solves whose results are not
individually surfaced.  :func:`collect_stats` opens an aggregation scope:
while it is active, every solve (and every probe shortcut that *avoided* a
solve) adds its counters to the scope's aggregate.  ``repro … --profile``
wraps a CLI run in such a scope and prints the totals, so future perf PRs
can cite counters, not just seconds.

Scopes are per-process (module state, not shared across a sweep's worker
pool) and nestable — an inner scope does not steal counts from an outer one.
The sweep runner closes the per-process gap by running every task inside a
scope and handing the aggregate back to the driver (see
:mod:`repro.runner.executor`), where it is persisted in the store index.

The scopes are one stack of accumulators, and the tracing layer
(:mod:`repro.obs`) shares it: an open span pushes its ``stats`` with
:func:`open_scope` and pops it with :func:`close_scope`, exactly like a
scope.  :func:`record` therefore has one fan-out — each delta is added to
every open accumulator, scope or span — and a parent span aggregates its
children's counters just as an outer scope aggregates an inner one's.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Any, Dict, Iterator, List


@dataclass
class SolverStats:
    """Counters for one LP solve (or an aggregate of many).

    ``warm_start_attempts``/``warm_start_hits`` count crash-basis
    factorizations tried/succeeded (a hit means phase 1 was skipped
    outright).  ``point_reuses``/``farkas_reuses`` count binary-search
    probes answered by re-checking a cached feasible point / Farkas
    certificate instead of solving — the incremental-pipeline shortcuts.
    ``demand_refutations`` counts probes refuted by a checked demand-bound
    Farkas vector (:meth:`repro.core.programs.IP3Builder.demand_bracket`),
    and ``highs_calls`` counts ``linprog`` calls of the float leg.
    """

    solves: int = 0
    pivots: int = 0
    phase1_pivots: int = 0
    refactorizations: int = 0
    warm_start_attempts: int = 0
    warm_start_hits: int = 0
    point_reuses: int = 0
    farkas_reuses: int = 0
    demand_refutations: int = 0
    highs_calls: int = 0
    #: WarmState outcomes: ``basis_reuses`` counts solves whose starting
    #: basis came from a carried :class:`~repro.lp.warm.WarmState` (phase 1
    #: skipped); ``crash_skips`` is the subset where the factorized ``W``
    #: itself was installed verbatim — no ``O(m³)`` refactorization, no
    #: ratio-test push.  ``sparse_btrans`` counts btran calls answered
    #: entirely from sparse ``W`` rows; ``warm_key_drops`` counts warm-point
    #: keys dropped because the target LP lacks the variable (cross-probe
    #: shape mismatches — see ``lp/solve.py:_warm_point``).
    basis_reuses: int = 0
    crash_skips: int = 0
    sparse_btrans: int = 0
    warm_key_drops: int = 0
    #: Session-layer solve cache outcomes: a hit means a whole solve (or a
    #: whole pipeline of solves) was answered from the content-addressed
    #: store with zero pivots; a miss means the cold path ran and its
    #: payload was recorded for next time.
    cache_hits: int = 0
    cache_misses: int = 0
    #: Sweep fault-tolerance outcomes, recorded by the driver so the obs
    #: layer (scopes, spans, the store index) sees the recovery machinery
    #: working: ``task_retries`` counts re-submitted task attempts,
    #: ``tasks_quarantined`` counts tasks skipped because their failure-
    #: ledger attempt count exhausted the retry budget, ``budget_kills``
    #: counts workers killed by the driver's wall-clock deadline.
    task_retries: int = 0
    tasks_quarantined: int = 0
    budget_kills: int = 0

    def add(self, other: "SolverStats") -> None:
        for name in _COUNTERS:
            value = getattr(other, name)
            if value:
                setattr(self, name, getattr(self, name) + value)

    def to_json(self) -> Dict[str, int]:
        """Exact JSON-ready form (plain ints, one key per counter).

        The wire format of the sweep hand-back: workers serialize their
        per-task aggregate, the driver and ``repro report --profile``
        rebuild it with :meth:`from_json`.  Round-trip is exact — every
        counter is an int.
        """
        return {name: getattr(self, name) for name in _COUNTERS}

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "SolverStats":
        """Inverse of :meth:`to_json`; unknown keys are ignored, missing
        ones default to 0 (an older artifact stays readable)."""
        return cls(**{name: int(payload.get(name, 0)) for name in _COUNTERS})

    def render(self) -> str:
        """One human-readable block (the ``--profile`` output)."""
        return "\n".join(
            [
                "solver profile:",
                f"  solves            {self.solves}",
                f"  pivots            {self.pivots}  (phase 1: {self.phase1_pivots})",
                f"  refactorizations  {self.refactorizations}",
                f"  warm starts       {self.warm_start_hits}/{self.warm_start_attempts} hits",
                f"  probe shortcuts   {self.point_reuses} point reuses, "
                f"{self.farkas_reuses} Farkas reuses, "
                f"{self.demand_refutations} demand refutations",
                f"  HiGHS calls       {self.highs_calls}",
                f"  basis carrying    {self.basis_reuses} reuses "
                f"({self.crash_skips} verbatim), "
                f"{self.warm_key_drops} warm keys dropped",
                f"  sparse btrans     {self.sparse_btrans}",
                f"  solve cache       {self.cache_hits} hits, "
                f"{self.cache_misses} misses",
                f"  fault tolerance   {self.task_retries} task retries, "
                f"{self.tasks_quarantined} quarantined, "
                f"{self.budget_kills} budget kills",
            ]
        )


#: Field names, in declaration order: the one list every method iterates.
_COUNTERS = tuple(f.name for f in fields(SolverStats))

#: Open accumulators (innermost last): ``collect_stats`` scopes and the
#: ``stats`` of open trace spans.  Module state: cheap, and the solver hot
#: path must not pay for collection when nothing listens.
_scopes: List[SolverStats] = []


def record(stats: SolverStats) -> None:
    """Add *stats* to every open accumulator (a no-op when none is open)."""
    for scope in _scopes:
        scope.add(stats)


def open_scope(scope: SolverStats) -> None:
    """Push *scope* onto the accumulator stack."""
    _scopes.append(scope)


def close_scope(scope: SolverStats) -> None:
    """Remove *scope* from the stack (a no-op if it is not there).

    Removal is by identity wherever the scope sits, so scopes unwound out
    of order (generators closed late, exceptions propagating through
    several nested scopes at once) each remove exactly themselves and never
    leak.  Not ``list.remove``: SolverStats is a value-comparing dataclass,
    and a nested scope can hold exactly the outer scope's counters, so
    equality would pop the wrong — outermost equal — scope.
    """
    for i in range(len(_scopes) - 1, -1, -1):
        if _scopes[i] is scope:
            del _scopes[i]
            break


@contextmanager
def collect_stats() -> Iterator[SolverStats]:
    """Aggregate the stats of every solve performed inside the scope
    (exception-safe; see :func:`close_scope` for the teardown)."""
    scope = SolverStats()
    open_scope(scope)
    try:
        yield scope
    finally:
        close_scope(scope)
