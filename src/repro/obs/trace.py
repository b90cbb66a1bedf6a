"""Structured spans over the solver stack.

A :class:`Span` is one named, timed region of work — an LP solve, one
binary-search probe, a cache lookup, an admission pass — with attributes,
exact integer-nanosecond start/end timestamps, and the
:class:`~repro.lp.stats.SolverStats` delta recorded while it was open.
Spans nest: the instrumentation sites (``lp/``, ``core/programs.py``,
``session/``, ``simulation/admission.py``, the sweep executor) all call the
one module-level :func:`span` context manager, which maintains a
per-process stack, so a solve performed inside a probe inside a session
call comes out as a properly parented tree regardless of which layers are
involved.

Cost discipline: when no :class:`Tracer` is installed, :func:`span` checks
one module-level list and yields ``None`` — no :class:`Span` is allocated,
no clock is read, nothing is pushed.  The hot paths stay instrumented
permanently and pay for it only when someone is listening.
Observability must never perturb results, and cannot: spans carry
timestamps and counter copies *out* of the computation and feed nothing
back in (the byte-identity property tests in ``tests/test_obs.py`` pin
this).

Clock: timestamps are ``perf_counter_ns`` rebased once per process onto the
epoch (``time_ns``), so they are monotonic within a process and comparable
across a sweep's worker pool to within wall-clock sync — good enough for
one merged Chrome trace, while in-process durations keep the monotonic
clock's quality.

Counter attachment: an open span's ``stats`` sits on the same accumulator
stack as the :func:`~repro.lp.stats.collect_stats` scopes, so every
:func:`~repro.lp.stats.record` call reaches every open span and every open
scope through one loop.  A parent span therefore aggregates its children's
counters, exactly like nested scopes.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from ..lp import stats as lp_stats
from ..lp.stats import SolverStats

#: Rebases the monotonic clock onto the epoch; computed once per process so
#: spans from different sweep workers line up in one merged trace.
_CLOCK_ORIGIN_NS = time.time_ns() - time.perf_counter_ns()


def _now_ns() -> int:
    return _CLOCK_ORIGIN_NS + time.perf_counter_ns()


@dataclass
class Span:
    """One finished (or still-open) region of traced work."""

    name: str
    span_id: int
    parent_id: Optional[int]
    start_ns: int
    end_ns: int = 0
    #: Free-form attributes; values should be JSON-canonicalizable
    #: (strings/ints preferred — Fractions are stringified on export).
    attrs: Dict[str, Any] = field(default_factory=dict)
    #: Solver-counter delta recorded while the span was open (children
    #: included, like nested ``collect_stats`` scopes).
    stats: SolverStats = field(default_factory=SolverStats)
    #: Process that produced the span (tracks in the Chrome trace).
    pid: int = field(default_factory=os.getpid)

    @property
    def duration_ns(self) -> int:
        return max(0, self.end_ns - self.start_ns)

    def to_json(self) -> Dict[str, Any]:
        """Exact JSON-ready form — the JSONL sink line and the sweep
        worker→driver wire format (:meth:`from_json` inverts it)."""
        payload: Dict[str, Any] = {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "pid": self.pid,
        }
        if self.attrs:
            payload["attrs"] = {k: _jsonable(v) for k, v in self.attrs.items()}
        counters = self.stats.to_json()
        if any(v for v in counters.values()):
            payload["stats"] = counters
        return payload

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "Span":
        return cls(
            name=str(payload["name"]),
            span_id=int(payload["span_id"]),
            parent_id=(
                None if payload.get("parent_id") is None
                else int(payload["parent_id"])
            ),
            start_ns=int(payload["start_ns"]),
            end_ns=int(payload.get("end_ns", 0)),
            attrs=dict(payload.get("attrs", {})),
            stats=SolverStats.from_json(payload.get("stats", {})),
            pid=int(payload.get("pid", 0)),
        )


def _jsonable(value: Any) -> Any:
    """Span attributes as plain JSON scalars (exactness via str, not float)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


class Tracer:
    """Collects finished spans (and optionally streams them to a sink).

    One tracer is usually installed per process for the lifetime of a CLI
    command (:func:`tracing`); the sweep executor installs one per task in
    each worker and ships ``spans`` back to the driver, which grafts them
    under its own task span with :meth:`adopt`.

    *sink*, when given, is called with each :class:`Span` as it finishes —
    the streaming JSONL sink of :mod:`repro.obs.export` plugs in here.
    Sink exceptions propagate (a broken trace file should fail loudly, not
    silently drop spans); the span stack itself unwinds safely either way.
    """

    def __init__(self, sink: Optional[Callable[[Span], None]] = None):
        self.spans: List[Span] = []
        self.sink = sink
        self._next_id = 1

    def _allocate_id(self) -> int:
        span_id = self._next_id
        self._next_id += 1
        return span_id

    def collect(self, span: Span) -> None:
        self.spans.append(span)
        if self.sink is not None:
            self.sink(span)

    def adopt(
        self,
        payloads: Sequence[Dict[str, Any]],
        parent: Optional[Span] = None,
    ) -> List[Span]:
        """Graft foreign (worker) spans into this tracer's id space.

        Span ids are remapped to fresh local ids (parent links rewritten
        consistently); roots of the foreign forest are re-parented under
        *parent* when given.  Timestamps are kept as shipped — the shared
        epoch rebase makes them comparable across processes.
        """
        id_map: Dict[int, int] = {}
        adopted: List[Span] = []
        for payload in payloads:
            span = Span.from_json(payload)
            id_map[span.span_id] = span.span_id = self._allocate_id()
            if span.parent_id is not None and span.parent_id in id_map:
                span.parent_id = id_map[span.parent_id]
            else:
                span.parent_id = parent.span_id if parent is not None else None
            adopted.append(span)
            self.collect(span)
        return adopted


#: Installed tracers (usually 0 or 1) and the stack of open spans.  Spans
#: are global, tracers are collectors: every installed tracer receives
#: every finished span, so the stack is shared.
_tracers: List[Tracer] = []
_stack: List[Span] = []


def tracing_enabled() -> bool:
    """Whether any tracer is installed (the :func:`span` fast-path check)."""
    return bool(_tracers)


def current_span() -> Optional[Span]:
    """The innermost open span, or ``None``."""
    return _stack[-1] if _stack else None


def _close_open_spans() -> None:
    """Empty the open-span stack and take its accumulators off the
    counter stack (the spans stay uncollected)."""
    for sp in _stack:
        lp_stats.close_scope(sp.stats)
    _stack.clear()


def install(tracer: Tracer) -> None:
    """Install *tracer*."""
    _tracers.append(tracer)


def uninstall(tracer: Tracer) -> None:
    """Remove *tracer* (by identity); the last removal drops open spans."""
    for i in range(len(_tracers) - 1, -1, -1):
        if _tracers[i] is tracer:
            del _tracers[i]
            break
    if not _tracers:
        _close_open_spans()


def reset() -> None:
    """Drop every installed tracer and open span.

    For process-pool worker entry points: a fork-started worker inherits
    the driver's installed tracer, so without a reset the worker's spans
    would be delivered to that orphaned copy and vanish instead of being
    collected by a worker-local tracer and shipped home.
    """
    del _tracers[:]
    _close_open_spans()


def adopt_spans(
    payloads: Sequence[Dict[str, Any]],
    parent: Optional[Span] = None,
) -> List[Span]:
    """Graft foreign span payloads into the installed tracer.

    The driver-side half of the sweep handoff: workers ship
    ``Span.to_json()`` lists home, and the driver grafts them under its
    current open span (or *parent* when given).  No-op when tracing is off
    or *payloads* is empty.
    """
    if not _tracers or not payloads:
        return []
    if parent is None:
        parent = current_span()
    return _tracers[0].adopt(payloads, parent=parent)


@contextmanager
def tracing(tracer: Optional[Tracer] = None) -> Iterator[Tracer]:
    """Install a tracer for the duration of the scope (exception-safe)."""
    tracer = tracer or Tracer()
    install(tracer)
    try:
        yield tracer
    finally:
        uninstall(tracer)


@contextmanager
def span(name: str, **attrs: Any) -> Iterator[Optional[Span]]:
    """Open one traced span; yields the :class:`Span` (``None`` when
    tracing is off, so call sites guard attribute writes with ``if sp:``).

    Teardown mirrors :func:`~repro.lp.stats.collect_stats`: the span and
    its accumulator are removed from their stacks by identity, so stacks
    unwound out of order under exceptions still close every span exactly
    once.
    """
    if not _tracers:
        yield None
        return
    tracer = _tracers[0]
    parent = _stack[-1] if _stack else None
    sp = Span(
        name=name,
        span_id=tracer._allocate_id(),
        parent_id=parent.span_id if parent is not None else None,
        start_ns=_now_ns(),
        attrs=attrs,
    )
    _stack.append(sp)
    lp_stats.open_scope(sp.stats)
    try:
        yield sp
    finally:
        sp.end_ns = _now_ns()
        lp_stats.close_scope(sp.stats)
        for i in range(len(_stack) - 1, -1, -1):
            if _stack[i] is sp:
                del _stack[i]
                break
        for tracer in tuple(_tracers):
            tracer.collect(sp)


@contextmanager
def suspended() -> Iterator[None]:
    """Temporarily disable tracing inside the scope.

    The escape hatch for timing experiments: E14 measures cold-solve
    wall-clock, and even cheap span bookkeeping inside the timed region
    would show up in its ``seconds`` column — so it wraps the timed calls
    in ``suspended()`` and stays trace-off by design (documented in
    EXPERIMENTS.md).  Open spans are left open; they simply receive no
    children and no counter deltas while suspended.  Their accumulators
    are taken off the counter stack and restored afterwards, so enclosing
    ``collect_stats`` scopes keep counting throughout.
    """
    if not _tracers:
        yield
        return
    saved_tracers = _tracers[:]
    saved_stack = _stack[:]
    del _tracers[:]
    _close_open_spans()
    try:
        yield
    finally:
        _tracers.extend(saved_tracers)
        _stack.extend(saved_stack)
        for sp in saved_stack:
            lp_stats.open_scope(sp.stats)
