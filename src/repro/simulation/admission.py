"""Admission-driven execution: map arriving job instances onto the
wrap-around template schedule.

The paper's constructions produce one *template* — a wrap-around schedule
for the planning window ``[0, T)``.  A real-time system runs that template
window after window; online arrivals decide *which instance* fills each
window's slot.  The admission rule here is the planning-window discipline
of the semi-partitioned literature:

* each arriving instance of job ``j`` queues FIFO behind earlier pending
  instances of the same job;
* at every window boundary ``w·T`` the head of each non-empty queue whose
  release is ``≤ w·T`` is admitted into window ``w`` and executes exactly
  job ``j``'s template slots, shifted by ``w·T``;
* a template slot whose mod-T wrap pushed a piece to the start of the
  window keeps the periodic reading of :mod:`repro.schedule.periodic`: the
  wrapped tail is the admitted instance's seamless continuation at the
  start of window ``w + 1`` (the instance id carries over, exactly as
  ``unroll(relabel=True)`` labels it).

Admission therefore never executes a piece before its release (the window
boundary is ≥ the release by the rule itself — re-checked independently by
:func:`repro.schedule.validator.check_releases`), never runs an instance
parallel to itself (the template doesn't), and reproduces the cyclic
reading *bit-for-bit* when arrivals are zero-offset periodic with period
``T`` — the cross-check the test suite pins.

Response times, tardiness and deadline misses come from
:func:`repro.schedule.metrics.response_stats`; migration costs are charged
through the same :class:`~repro.simulation.costs.CostModel` / topology-zoo
machinery the offline metrics use, so online and offline numbers are
directly comparable.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ..exceptions import InvalidScheduleError
from ..obs.trace import span as trace_span
from ..schedule.arrivals import JobArrival
from ..schedule.metrics import (
    merge_piece_runs,
    priced_cost_of_merged,
    response_stats,
    transitions_of_merged,
)
from ..schedule.periodic import wrapped_tail
from ..schedule.schedule import Schedule
from .costs import CostModel
from .topology import Topology


@dataclass(frozen=True)
class AdmittedInstance:
    """One arrival after admission: where it ran and how it fared."""

    job: int
    index: int
    release: Fraction
    deadline: Fraction
    window: int
    """Planning window the instance was admitted into."""

    instance_id: int
    """Label of this instance in the materialized schedule
    (``job + window·stride`` — the id :func:`repro.schedule.periodic.unroll`
    would give the same window's copy)."""

    start: Fraction
    """First execution instant (≥ release by the admission rule)."""

    completion: Fraction
    migrations: int
    """Wall-clock migrations of this instance in the materialized schedule."""

    priced_overhead: Fraction
    """Migration/preemption overhead charged by the cost model (0 without
    a topology)."""

    @property
    def response_time(self) -> Fraction:
        return self.completion - self.release

    @property
    def waiting_time(self) -> Fraction:
        """Time between release and the admitting window boundary."""
        return self.start - self.release

    @property
    def missed_deadline(self) -> bool:
        return self.completion > self.deadline


@dataclass
class AdmissionResult:
    """Outcome of :func:`admit`: the materialized timeline plus accounting."""

    schedule: Schedule
    """All admitted instances placed over ``[0, (windows+1)·T]`` (the extra
    window holds the last admitted instances' wrapped tails)."""

    admitted: List[AdmittedInstance]
    pending: List[JobArrival]
    """Arrivals released before the last window boundary but never admitted
    — genuine leftover backlog."""

    unreleased: List[JobArrival]
    """Arrivals released only after the last boundary: they never saw an
    admission opportunity, so they count as horizon truncation, not
    backlog."""

    template_T: Fraction
    windows: int
    max_backlog: int
    """Largest number of simultaneously queued instances observed at any
    window boundary (after admitting) — growth means overload."""

    @property
    def miss_count(self) -> int:
        return sum(1 for a in self.admitted if a.missed_deadline)

    @property
    def miss_ratio(self) -> Optional[Fraction]:
        if not self.admitted:
            return None
        return Fraction(self.miss_count, len(self.admitted))

    @property
    def schedulable(self) -> bool:
        """No deadline miss and no leftover backlog — the phase-diagram
        predicate of experiment E18."""
        return self.miss_count == 0 and not self.pending

    def stats(self):
        """Response/tardiness/miss statistics over the admitted instances."""
        return response_stats(self.admitted)

    def instances_of(self, job: int) -> List[AdmittedInstance]:
        return sorted(
            (a for a in self.admitted if a.job == job), key=lambda a: a.index
        )

    def releases(self) -> Dict[int, Fraction]:
        """``instance_id → release`` for the materialized schedule — the
        mapping :func:`repro.schedule.validator.check_releases` consumes."""
        return {a.instance_id: a.release for a in self.admitted}


def witness_within(
    instance,
    T_ref,
    scheduler_class: str = "hierarchical",
    prefilter: bool = True,
    analytic_witness: bool = False,
    node_limit: int = 2_000_000,
):
    """Find a template witness (assignment with makespan ≤ ``T_ref``),
    with an optional analytic pre-filter in front of the exact search.

    The admission layer needs a witness assignment to build its template;
    under overload most candidate workloads have none, and proving that by
    branch-and-bound is the expensive part.  With *prefilter* on, the RTA
    engine (:func:`repro.rta.analytic_schedulable`) runs first:

    * **UNSCHEDULABLE** → return ``None`` without searching.  Sound: the
      verdict refutes a necessary (IP-2) bound, so the search would have
      exhausted its tree and returned ``None`` too.
    * **SCHEDULABLE** with *analytic_witness* → return the engine's
      capacity-verified assignment (zero search, zero LP solves).  By
      Theorem IV.3 it is a genuine witness; it may differ from the one the
      search would pick, so the default keeps the exact search for
      byte-identical templates.
    * otherwise → fall through to
      :func:`repro.baselines.restrictions.restricted_witness`, the exact
      search on the restricted instance, whose result is identical with and
      without the pre-filter.

    A :class:`~repro.exceptions.SolverError` from the exact search
    propagates — callers decide whether "gave up" is tabulated.
    """
    from ..baselines.restrictions import restricted_witness
    from ..rta import SCHEDULABLE, UNSCHEDULABLE, analytic_schedulable

    with trace_span(
        "sim.prefilter",
        scheduler_class=scheduler_class,
        enabled=prefilter,
    ) as sp:
        if prefilter:
            verdict = analytic_schedulable(instance, scheduler_class, T_ref)
            if sp:
                sp.attrs["verdict"] = verdict.status
            if verdict.status == UNSCHEDULABLE:
                return None
            if analytic_witness and verdict.status == SCHEDULABLE:
                if sp:
                    sp.attrs["fast_path"] = True
                return verdict.assignment
        return restricted_witness(instance, scheduler_class, T_ref, node_limit)


def _template_pieces(
    template: Schedule,
) -> Dict[int, Tuple[List[Tuple[int, Fraction, Fraction]], List[Tuple[int, Fraction, Fraction]]]]:
    """Per job: ``(head pieces, wrapped-tail pieces)`` as machine/start/end.

    Tail detection delegates to :func:`repro.schedule.periodic.wrapped_tail`
    so admission and ``unroll(relabel=True)`` can never disagree on which
    piece wraps.
    """
    pieces = {}
    for job in template.jobs():
        tail = wrapped_tail(template, job)
        tail_ids = {(m, s.start, s.end) for m, s in tail}
        head = [
            (m, s.start, s.end)
            for m, s in template.job_segments(job)
            if (m, s.start, s.end) not in tail_ids
        ]
        pieces[job] = (head, [(m, s.start, s.end) for m, s in tail])
    return pieces


def admit(
    template: Schedule,
    arrivals: Sequence[JobArrival],
    windows: int,
    topology: Optional[Topology] = None,
    cost_model: Optional[CostModel] = None,
    _pieces=None,
) -> AdmissionResult:
    """Run *windows* planning windows of *template* against *arrivals*.

    Arrivals are consumed in ``(release, job, index)`` order; instances of
    one job are admitted FIFO, at most one per window.  Arrivals for jobs
    the template never schedules (zero-work jobs) complete instantly at
    their admitting window boundary.

    With a *topology* (and optional *cost_model*, default
    :meth:`~repro.simulation.costs.CostModel.numa_like`), each admitted
    instance is charged its distance-priced migration overhead.

    *_pieces* is the precomputed :func:`_template_pieces` decomposition —
    :func:`admit_batch` passes it so many streams share one template scan.
    """
    with trace_span(
        "sim.admit", windows=windows, arrivals=len(arrivals)
    ) as admit_sp:
        result = _admit(template, arrivals, windows, topology, cost_model, _pieces)
        if admit_sp:
            admit_sp.attrs["admitted"] = len(result.admitted)
            admit_sp.attrs["pending"] = len(result.pending)
            admit_sp.attrs["max_backlog"] = result.max_backlog
        return result


def _admit(
    template: Schedule,
    arrivals: Sequence[JobArrival],
    windows: int,
    topology: Optional[Topology],
    cost_model: Optional[CostModel],
    _pieces,
) -> AdmissionResult:
    if windows < 1:
        raise InvalidScheduleError(f"need ≥ 1 window, got {windows}")
    T = template.T
    if T <= 0:
        raise InvalidScheduleError("cannot run windows of a zero-horizon template")
    if topology is not None and cost_model is None:
        cost_model = CostModel.numa_like()

    ordered = sorted(arrivals, key=lambda a: (a.release, a.job, a.index))
    for a in ordered:
        if a.job < 0:
            raise InvalidScheduleError(f"arrival for negative job id {a.job}")

    jobs = template.jobs()
    stride = (max(jobs) + 1) if jobs else 1
    max_job = max((a.job for a in ordered), default=-1)
    if max_job >= stride:
        stride = max_job + 1
    pieces = _template_pieces(template) if _pieces is None else _pieces

    result_schedule = Schedule(template.machines, T * (windows + 1))
    queues: Dict[int, Deque[JobArrival]] = {}
    cursor = 0
    max_backlog = 0
    admitted_raw: List[
        Tuple[JobArrival, int, int, List[Tuple[int, Fraction, Fraction]]]
    ] = []

    for w in range(windows):
        boundary = w * T
        while cursor < len(ordered) and ordered[cursor].release <= boundary:
            queues.setdefault(ordered[cursor].job, deque()).append(ordered[cursor])
            cursor += 1
        for job in sorted(queues):
            queue = queues[job]
            if not queue:
                continue
            arrival = queue.popleft()
            instance_id = job + w * stride
            head, tail = pieces.get(job, ([], []))
            placed = []
            for machine, start, end in head:
                result_schedule.add_segment(
                    machine, instance_id, start + boundary, end + boundary
                )
                placed.append((machine, start + boundary, end + boundary))
            for machine, start, end in tail:
                result_schedule.add_segment(
                    machine, instance_id, start + boundary + T, end + boundary + T
                )
                placed.append((machine, start + boundary + T, end + boundary + T))
            admitted_raw.append((arrival, w, instance_id, placed))
        backlog = sum(len(q) for q in queues.values())
        max_backlog = max(max_backlog, backlog)

    admitted: List[AdmittedInstance] = []
    for arrival, w, instance_id, placed in admitted_raw:
        boundary = w * T
        # Accounting works on the instance's own pieces (already in hand)
        # rather than re-scanning the whole materialized schedule — admit()
        # stays linear in total placed pieces.
        merged = merge_piece_runs(placed)
        if merged:
            start = min(s for _m, s, _e in merged)
            completion = max(e for _m, _s, e in merged)
        else:
            start = completion = boundary
        migrations = transitions_of_merged(merged).migrations
        if topology is not None and cost_model is not None:
            overhead = priced_cost_of_merged(merged, topology, cost_model)
        else:
            overhead = Fraction(0)
        admitted.append(
            AdmittedInstance(
                job=arrival.job,
                index=arrival.index,
                release=arrival.release,
                deadline=arrival.deadline,
                window=w,
                instance_id=instance_id,
                start=start,
                completion=completion,
                migrations=migrations,
                priced_overhead=overhead,
            )
        )

    pending = sorted(
        (a for q in queues.values() for a in q),
        key=lambda a: (a.release, a.job, a.index),
    )
    return AdmissionResult(
        schedule=result_schedule,
        admitted=admitted,
        pending=pending,
        unreleased=list(ordered[cursor:]),
        template_T=T,
        windows=windows,
        max_backlog=max_backlog,
    )


def admit_batch(
    template: Schedule,
    streams: Sequence[Sequence[JobArrival]],
    windows: int,
    topology: Optional[Topology] = None,
    cost_model: Optional[CostModel] = None,
) -> List[AdmissionResult]:
    """Admit many independent arrival *streams* against one template.

    The batch entry point of the scheduling-as-a-service layer: the
    template's per-job piece decomposition (the only per-template scan in
    :func:`admit`) is computed **once** and shared, so ``k`` streams cost
    one template analysis plus ``k`` linear admission passes.  Results are
    returned in stream order and are identical to calling :func:`admit`
    per stream — the streams are independent workload scenarios (e.g. the
    arrival-family axis of E18), not one merged arrival set.
    """
    if not streams:
        return []
    if windows < 1:
        raise InvalidScheduleError(f"need ≥ 1 window, got {windows}")
    if template.T <= 0:
        raise InvalidScheduleError("cannot run windows of a zero-horizon template")
    with trace_span(
        "sim.admit_batch", streams=len(streams), windows=windows
    ):
        pieces = _template_pieces(template)
        return [
            admit(
                template, stream, windows,
                topology=topology, cost_model=cost_model, _pieces=pieces,
            )
            for stream in streams
        ]
