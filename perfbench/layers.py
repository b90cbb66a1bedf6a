"""Per-layer attribution for the traced run.

The library already emits spans (``lp.*``, ``search.*``, ``rta.*``,
``sim.*``, ``session.*``) and routes every ``SolverStats`` record into the
open spans.  Layers without spans of their own are timed from outside: in
the traced run only, :func:`instrumented` rebinds the layer functions the
pipelines call (as the calling modules imported them) to wrappers that
open a ``bench.*`` span around the original.  Nothing in ``src/`` changes,
and the untraced run calls the originals.

:func:`op_profile` reduces one operation's span tree to self-times per
span name and layer, inclusive times per span name, and the operation's
counters; :class:`LayerTotals` sums profiles over a run and derives the
per-layer metrics.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from contextlib import contextmanager
from fractions import Fraction
from typing import Any, Dict, Iterator, List, Tuple

from repro.exceptions import SolverError
from repro.obs import Span, Tracer, span, tracing

#: (module, attribute, span name): the layer calls timed from outside.
WRAPPED = (
    ("repro.core.approx", "lst_round", "bench.lst_round"),
    ("repro.core.approx", "schedule_hierarchical", "bench.schedule_hierarchical"),
    ("repro.core.approx", "validate_schedule", "bench.validate_schedule"),
    ("repro.core.memory", "iterative_round", "bench.iterative_round"),
    ("repro.core.memory", "schedule_hierarchical", "bench.schedule_hierarchical"),
    ("repro.core.hierarchical", "schedule_hierarchical", "bench.schedule_hierarchical"),
    ("repro.core.exact", "find_assignment_within", "bench.find_assignment_within"),
)

#: Layer of a span, by full name first and then by the prefix before the
#: first dot.  ``bench.op`` is the operation itself: its self-time is the
#: part of the operation no layer span covers.
LAYER_BY_NAME = {
    "bench.op": "unattributed",
    "bench.lst_round": "rounding",
    "bench.iterative_round": "rounding",
    "bench.minimal_model_T": "core.memory",
    "bench.solve_model": "core.memory",
    "bench.schedule_hierarchical": "schedule",
    "bench.validate_schedule": "schedule",
    "bench.check_releases": "schedule",
    "bench.find_assignment_within": "core.exact",
    "bench.utilization_workload": "workloads",
    "bench.make_arrivals": "workloads",
}
LAYER_BY_PREFIX = {
    "lp": "lp",
    "search": "core.programs",
    "rta": "rta",
    "sim": "simulation",
}
#: An uncached session call is the pipeline module's own code between its
#: layer calls; a cached one is session I/O.
PIPELINE_OF_SESSION_CALL = {
    "session.two_approximation": "core.approx",
    "session.minimal_model1_T": "core.memory",
    "session.minimal_model2_T": "core.memory",
    "session.template": "core.hierarchical",
}


def layer_of(sp: Span) -> str:
    if sp.name in LAYER_BY_NAME:
        return LAYER_BY_NAME[sp.name]
    if sp.name.startswith("session.") and sp.attrs.get("cache") == "off":
        return PIPELINE_OF_SESSION_CALL.get(sp.name, "session")
    prefix = sp.name.split(".", 1)[0]
    return LAYER_BY_PREFIX.get(prefix, prefix)


def _timed(fn, name: str):
    def wrapper(*args, **kwargs):
        with span(name) as sp:
            try:
                return fn(*args, **kwargs)
            except SolverError:
                if sp:
                    sp.attrs["solver_error"] = True
                raise

    wrapper.__wrapped__ = fn
    return wrapper


@contextmanager
def instrumented() -> Iterator[None]:
    """Wrap every ``WRAPPED`` function for the scope; fail if one is gone."""
    saved = []
    try:
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                raise RuntimeError(f"layer entry point {module_name}.{attr} is gone")
            saved.append((module, attr, original))
            setattr(module, attr, _timed(original, name))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


COUNTERS = (
    "solves", "pivots", "phase1_pivots", "refactorizations",
    "warm_start_attempts", "warm_start_hits", "point_reuses",
    "farkas_reuses", "basis_reuses", "crash_skips", "cache_hits",
    "cache_misses",
)


def op_profile(spans: List[Span]) -> Dict:
    """Self and inclusive times (ns) and counters of one operation."""
    by_id = {sp.span_id: sp for sp in spans}
    child_ns: Dict[int, int] = defaultdict(int)
    for sp in spans:
        if sp.parent_id in by_id:
            child_ns[sp.parent_id] += sp.duration_ns
    self_by_name: Dict[str, int] = defaultdict(int)
    self_by_layer: Dict[str, int] = defaultdict(int)
    inclusive: Dict[str, int] = defaultdict(int)
    events: Dict[str, int] = defaultdict(int)
    hit_ns = miss_put_ns = 0
    (root,) = [sp for sp in spans if sp.name == "bench.op"]
    for sp in spans:
        own = sp.duration_ns - child_ns[sp.span_id]
        self_by_name[sp.name] += own
        self_by_layer[layer_of(sp)] += own
        if not _has_ancestor_named(sp, by_id):
            inclusive[sp.name] += sp.duration_ns
        if sp.name == "rta.analyze":
            events["rta.queries"] += 1
            status = sp.attrs.get("status")
            events["rta.decided"] += status != "UNKNOWN"
            events["rta.unschedulable_skips"] += status == "UNSCHEDULABLE"
        elif sp.name == "bench.find_assignment_within":
            events["exact.node_limit_hits"] += bool(sp.attrs.get("solver_error"))
        elif sp.name.startswith("session."):
            outcome = sp.attrs.get("cache")
            events[f"cache.{outcome}"] += 1
            if outcome == "hit":
                hit_ns += sp.duration_ns
            elif outcome == "miss":
                miss_put_ns += own
    stats = root.stats.to_json()
    counters = {name: stats[name] for name in COUNTERS}
    counters.update(events)
    return {
        "wall_ns": root.duration_ns,
        "self_by_name": dict(self_by_name),
        "self_by_layer": dict(self_by_layer),
        "inclusive": dict(inclusive),
        "counters": counters,
        "hit_ns": hit_ns,
        "miss_put_ns": miss_put_ns,
    }


def _has_ancestor_named(sp: Span, by_id: Dict[int, Span]) -> bool:
    parent = by_id.get(sp.parent_id)
    while parent is not None:
        if parent.name == sp.name:
            return True
        parent = by_id.get(parent.parent_id)
    return False


class LayerTotals:
    """Sums of :func:`op_profile` results (plus per-op output counters)."""

    def __init__(self) -> None:
        self.ops = 0
        self.wall_ns = 0
        self.self_by_name: Dict[str, float] = defaultdict(float)
        self.self_by_layer: Dict[str, float] = defaultdict(float)
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.counters: Dict[str, int] = defaultdict(int)
        self.max_backlog = 0
        self.hit_ns = 0
        self.miss_put_ns = 0

    def add(self, profile: Dict, out_counters: Dict[str, int], scale: float) -> None:
        """Add one operation; its times are multiplied by *scale*."""
        self.ops += 1
        self.wall_ns += profile["wall_ns"] * scale
        for field in ("self_by_name", "self_by_layer", "inclusive"):
            total = getattr(self, field)
            for name, value in profile[field].items():
                total[name] += value * scale
        for name, value in profile["counters"].items():
            self.counters[name] += value
        for name, value in out_counters.items():
            self.counters[name] += value
        self.max_backlog = max(self.max_backlog, out_counters.get("sim.max_backlog", 0))
        self.hit_ns += profile["hit_ns"] * scale
        self.miss_put_ns += profile["miss_put_ns"] * scale

    def _per_op_ms(self, ns: int) -> float:
        return ns / 1e6 / self.ops

    def _per_op(self, count: int) -> float:
        return float(Fraction(count, self.ops))

    def metrics(self, untraced_wall_ns: int, untraced_ops: int, store_bytes: int) -> Dict[str, float]:
        """The ``per_layer`` metrics of BENCHMARK.json, per operation."""
        c = self.counters
        inc = self.inclusive
        ms = self._per_op_ms
        per_op = self._per_op
        lookups = c["cache.hit"] + c["cache.miss"]
        return {
            "search.minimal_fractional_T_ms": ms(inc.get("search.minimal_fractional_T", 0)),
            "search.probe_self_ms": ms(self.self_by_name.get("search.probe", 0)),
            "search.point_reuses": per_op(c["point_reuses"]),
            "search.farkas_reuses": per_op(c["farkas_reuses"]),
            "lp.solve_ms": ms(inc.get("lp.solve", 0)),
            "lp.phase1_ms": ms(inc.get("lp.phase1", 0)),
            "lp.phase2_ms": ms(inc.get("lp.phase2", 0)),
            "lp.crash_ms": ms(inc.get("lp.crash", 0)),
            "lp.solves": per_op(c["solves"]),
            "lp.pivots": per_op(c["pivots"]),
            "lp.phase1_pivots": per_op(c["phase1_pivots"]),
            "lp.refactorizations": per_op(c["refactorizations"]),
            "lp.basis_reuses": per_op(c["basis_reuses"]),
            "lp.crash_skips": per_op(c["crash_skips"]),
            "lp.warm_hit_ratio": _ratio(c["warm_start_hits"], c["warm_start_attempts"]),
            "rounding.lst_ms": ms(inc.get("bench.lst_round", 0)),
            "rounding.iterative_ms": ms(inc.get("bench.iterative_round", 0)),
            "rounding.iterations": per_op(c["rounding.iterations"]),
            "rounding.fallback_drops": per_op(c["rounding.fallback_drops"]),
            "memory.search_ms": ms(inc.get("bench.minimal_model_T", 0)),
            "schedule.build_ms": ms(inc.get("bench.schedule_hierarchical", 0)),
            "schedule.validate_ms": ms(inc.get("bench.validate_schedule", 0)),
            "schedule.check_releases_ms": ms(inc.get("bench.check_releases", 0)),
            "rta.analyze_ms": ms(inc.get("rta.analyze", 0)),
            "rta.decided_ratio": _ratio(c["rta.decided"], c["rta.queries"]),
            "rta.unschedulable_skips": per_op(c["rta.unschedulable_skips"]),
            "exact.search_ms": ms(inc.get("bench.find_assignment_within", 0)),
            "exact.node_limit_hits": float(c["exact.node_limit_hits"]),
            "sim.admit_ms": ms(inc.get("sim.admit", 0)),
            "sim.admitted": per_op(c["sim.admitted"]),
            "sim.max_backlog": float(self.max_backlog),
            "sim.miss_ratio": _ratio(c["sim.misses"], c["sim.admitted"]),
            "cache.hit_ms": self.hit_ns / 1e6 / c["cache.hit"] if c["cache.hit"] else 0.0,
            "cache.miss_put_ms": (
                self.miss_put_ns / 1e6 / c["cache.miss"] if c["cache.miss"] else 0.0
            ),
            "cache.hit_ratio": _ratio(c["cache.hit"], lookups),
            "cache.store_bytes": float(store_bytes),
            "obs.trace_overhead_ratio": (
                (self.wall_ns / self.ops) / (untraced_wall_ns / untraced_ops)
            ),
            "bench.unattributed_ms": ms(self.self_by_layer.get("unattributed", 0)),
        }

    def table(self) -> List[str]:
        """Self-time per layer, heaviest first, with its share of the wall."""
        lines = [f"{'layer':<20} {'self ms/op':>11} {'share':>7}"]
        for layer, ns in sorted(self.self_by_layer.items(), key=lambda kv: -kv[1]):
            lines.append(
                f"{layer:<20} {self._per_op_ms(ns):>11.3f} {ns / self.wall_ns:>7.1%}"
            )
        return lines


def _ratio(num: int, den: int) -> float:
    return float(Fraction(num, den)) if den else 0.0


def counter_signature(profile: Dict, out_counters: Dict[str, int]) -> Dict[str, int]:
    """The exact counts of one operation, compared across repetitions."""
    signature = dict(profile["counters"])
    signature.update(out_counters)
    return signature


def traced_op(run, item) -> Tuple[Any, Dict]:
    """Run one operation under a fresh tracer; return (output, profile)."""
    with tracing(Tracer()) as tracer:
        with span("bench.op"):
            out = run(item)
    return out, op_profile(tracer.spans)
