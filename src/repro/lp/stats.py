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

Besides scopes, :func:`record` notifies registered **sinks** — callbacks the
tracing layer (:mod:`repro.obs`) uses to attach counter deltas to the open
spans.  Sinks observe the same stream the scopes aggregate; they must never
influence it, so a sink that itself calls :func:`record` re-entrantly only
updates scopes (the sink fan-out is suppressed while a sink is running —
otherwise one badly-written sink could recurse forever), and both scopes and
sinks are iterated over snapshots so a callback that opens or closes scopes
mid-record cannot corrupt the dispatch.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List


@dataclass
class SolverStats:
    """Counters for one LP solve (or an aggregate of many).

    ``warm_start_attempts``/``warm_start_hits`` count crash-basis
    factorizations tried/succeeded (a hit means phase 1 was skipped
    outright).  ``point_reuses``/``farkas_reuses`` count binary-search
    probes answered by re-checking a cached feasible point / Farkas
    certificate instead of solving — the incremental-pipeline shortcuts.
    """

    solves: int = 0
    pivots: int = 0
    phase1_pivots: int = 0
    refactorizations: int = 0
    warm_start_attempts: int = 0
    warm_start_hits: int = 0
    point_reuses: int = 0
    farkas_reuses: int = 0
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
    #: Solve count per kernel name ("revised", "float").
    kernels: Dict[str, int] = field(default_factory=dict)

    def count_kernel(self, kernel: str) -> None:
        self.kernels[kernel] = self.kernels.get(kernel, 0) + 1

    def add(self, other: "SolverStats") -> None:
        self.solves += other.solves
        self.pivots += other.pivots
        self.phase1_pivots += other.phase1_pivots
        self.refactorizations += other.refactorizations
        self.warm_start_attempts += other.warm_start_attempts
        self.warm_start_hits += other.warm_start_hits
        self.point_reuses += other.point_reuses
        self.farkas_reuses += other.farkas_reuses
        self.basis_reuses += other.basis_reuses
        self.crash_skips += other.crash_skips
        self.sparse_btrans += other.sparse_btrans
        self.warm_key_drops += other.warm_key_drops
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.task_retries += other.task_retries
        self.tasks_quarantined += other.tasks_quarantined
        self.budget_kills += other.budget_kills
        for kernel, count in other.kernels.items():
            self.kernels[kernel] = self.kernels.get(kernel, 0) + count

    def to_json(self) -> Dict[str, Any]:
        """Exact JSON-ready form (plain ints; ``kernels`` copied).

        The wire format of the sweep hand-back: workers serialize their
        per-task aggregate, the driver and ``repro report --profile``
        rebuild it with :meth:`from_json`.  Round-trip is exact — every
        counter is an int and the ``kernels`` dict is copied, not shared.
        """
        return {
            "solves": self.solves,
            "pivots": self.pivots,
            "phase1_pivots": self.phase1_pivots,
            "refactorizations": self.refactorizations,
            "warm_start_attempts": self.warm_start_attempts,
            "warm_start_hits": self.warm_start_hits,
            "point_reuses": self.point_reuses,
            "farkas_reuses": self.farkas_reuses,
            "basis_reuses": self.basis_reuses,
            "crash_skips": self.crash_skips,
            "sparse_btrans": self.sparse_btrans,
            "warm_key_drops": self.warm_key_drops,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "task_retries": self.task_retries,
            "tasks_quarantined": self.tasks_quarantined,
            "budget_kills": self.budget_kills,
            "kernels": dict(self.kernels),
        }

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "SolverStats":
        """Inverse of :meth:`to_json`; unknown keys are ignored, missing
        ones default to 0 (an older artifact stays readable)."""
        stats = cls(
            **{
                name: int(payload.get(name, 0))
                for name in (
                    "solves", "pivots", "phase1_pivots", "refactorizations",
                    "warm_start_attempts", "warm_start_hits",
                    "point_reuses", "farkas_reuses",
                    "basis_reuses", "crash_skips",
                    "sparse_btrans", "warm_key_drops",
                    "cache_hits", "cache_misses",
                    "task_retries", "tasks_quarantined", "budget_kills",
                )
            }
        )
        stats.kernels = {
            str(k): int(v) for k, v in dict(payload.get("kernels", {})).items()
        }
        return stats

    def render(self) -> str:
        """One human-readable block (the ``--profile`` output)."""
        kernels = ", ".join(
            f"{name}×{count}" for name, count in sorted(self.kernels.items())
        ) or "none"
        return "\n".join(
            [
                "solver profile:",
                f"  solves            {self.solves}  ({kernels})",
                f"  pivots            {self.pivots}  (phase 1: {self.phase1_pivots})",
                f"  refactorizations  {self.refactorizations}",
                f"  warm starts       {self.warm_start_hits}/{self.warm_start_attempts} hits",
                f"  probe shortcuts   {self.point_reuses} point reuses, "
                f"{self.farkas_reuses} Farkas reuses",
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


#: Active aggregation scopes (innermost last).  Module state: cheap, and the
#: solver hot path must not pay for collection when nothing listens.
_scopes: List[SolverStats] = []

#: Registered observer callbacks (the tracing layer's span attachment).
_sinks: List[Callable[[SolverStats], None]] = []

#: True while sink callbacks are running: a sink that re-enters record()
#: must not fan out to sinks again (scopes still aggregate normally).
_in_sinks = False


def add_sink(sink: Callable[[SolverStats], None]) -> None:
    """Register *sink* to observe every :func:`record` call.

    Sinks are observers, not aggregators: they receive the same
    :class:`SolverStats` deltas the scopes sum, and must not mutate them.
    """
    _sinks.append(sink)


def remove_sink(sink: Callable[[SolverStats], None]) -> None:
    """Unregister *sink* (by identity; a no-op if it is not registered)."""
    for i in range(len(_sinks) - 1, -1, -1):
        if _sinks[i] is sink:
            del _sinks[i]
            break


def record(stats: SolverStats) -> None:
    """Add *stats* to every active scope and notify sinks (no-op when none).

    Both fan-outs iterate over snapshots: a sink (or a re-entrant caller)
    that opens or closes scopes mid-dispatch cannot corrupt the iteration,
    and a scope torn down concurrently simply stops receiving.  Re-entrant
    ``record`` calls made *from* a sink update scopes but skip the sink
    fan-out — tracing a span must never recurse into tracing.
    """
    global _in_sinks
    for scope in tuple(_scopes):
        scope.add(stats)
    if _sinks and not _in_sinks:
        _in_sinks = True
        try:
            for sink in tuple(_sinks):
                sink(stats)
        finally:
            _in_sinks = False


@contextmanager
def collect_stats() -> Iterator[SolverStats]:
    """Aggregate the stats of every solve performed inside the scope.

    Teardown is exception-safe and order-independent: the scope is removed
    by identity wherever it sits in the stack, so scopes unwound out of
    order (e.g. generators closed late, or exceptions propagating through
    several nested scopes at once) each remove exactly themselves and never
    leak — re-entrant :func:`record` calls from sink callbacks included.
    """
    scope = SolverStats()
    _scopes.append(scope)
    try:
        yield scope
    finally:
        # Remove by identity, not ==: SolverStats is a value-comparing
        # dataclass, and a nested scope can hold exactly the outer scope's
        # counters (record() feeds both), so list.remove would pop the
        # wrong — outermost equal — scope.
        for i in range(len(_scopes) - 1, -1, -1):
            if _scopes[i] is scope:
                del _scopes[i]
                break
