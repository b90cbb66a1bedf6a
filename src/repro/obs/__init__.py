"""Observability substrate: spans, counter attachment, trace export.

The layer every perf claim and the future service daemon report through:

* :mod:`repro.obs.trace` — :class:`Span` / :class:`Tracer` and the
  module-level :func:`span` context manager the solver stack is
  instrumented with (LP simplex, binary-search probes, session cache
  lookups, admission windows, sweep tasks).  An open span's counters sit
  on the one accumulator stack of :mod:`repro.lp.stats`, beside the
  ``collect_stats`` scopes, so spans and scopes see the same deltas.
  Near-zero overhead when no tracer is installed; never perturbs results.
* :mod:`repro.obs.export` — the streaming JSONL span sink and the Chrome
  ``trace_event`` exporter (``chrome://tracing`` / Perfetto), plus the
  structural validator CI runs on emitted traces.

``repro … --trace FILE`` on the CLI installs a tracer around the whole
command and exports on exit (``.jsonl`` suffix selects the JSONL sink,
anything else the Chrome format); the sweep runner ships worker-side span
trees back to the driver so ``--jobs N`` produces one merged trace.
"""

from .export import (
    JsonlSpanSink,
    chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
    write_spans_jsonl,
)
from .trace import (
    Span,
    Tracer,
    adopt_spans,
    current_span,
    install,
    span,
    suspended,
    tracing,
    tracing_enabled,
    uninstall,
)

__all__ = [
    "JsonlSpanSink",
    "Span",
    "Tracer",
    "adopt_spans",
    "chrome_trace",
    "current_span",
    "install",
    "span",
    "suspended",
    "tracing",
    "tracing_enabled",
    "uninstall",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_spans_jsonl",
]
