"""Observability for pipeline runs: span tracing, metrics, reporting.

Public surface:

* :class:`Tracer` / :class:`NullTracer` / :func:`obs_scope` — span tracing
  with the fault-scope installation pattern; :func:`active_tracer` and
  :func:`active_metrics` are the instrumentation seams.
* :class:`MetricsRegistry` — deterministic counters/gauges/histograms.
* :class:`Console` — the CLI's single status-line code path.
* :func:`read_trace` / :func:`render_report` — trace files back to humans
  (the ``repro-obs`` CLI wraps these); :func:`check_span_tree` names a
  trace's span-tree defects.
* :func:`attribute_error` / :class:`ErrorAttribution` — per-cluster
  decomposition of the extrapolation error.
* :class:`HistoryStore` / :func:`check_regression` — the run-history
  regression store (``repro-obs history`` wraps it).
"""

from .attribution import (
    ClusterErrorAttribution,
    ErrorAttribution,
    attribute_error,
    emit_attribution,
    live_scores,
    offline_scores,
)
from .console import Console
from .history import (
    HISTORY_SCHEMA,
    HistoryError,
    HistoryRecord,
    HistoryStore,
    Regression,
    check_regression,
    history_path_for,
)
from .metrics import BUCKET_BOUNDS, Histogram, MetricsRegistry
from .report import folded_stacks, render_diff, render_report
from .trace import (
    DEFAULT_LIMITS,
    SpanRecord,
    TraceData,
    TraceError,
    TraceLimits,
    check_span_tree,
    read_trace,
)
from .tracer import (
    NULL_TRACER,
    NullTracer,
    Span,
    SpanContext,
    TRACE_SCHEMA,
    Tracer,
    active_metrics,
    active_tracer,
    obs_scope,
    worker_tracer,
)

__all__ = [
    "BUCKET_BOUNDS",
    "ClusterErrorAttribution",
    "Console",
    "DEFAULT_LIMITS",
    "ErrorAttribution",
    "HISTORY_SCHEMA",
    "Histogram",
    "HistoryError",
    "HistoryRecord",
    "HistoryStore",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "Regression",
    "Span",
    "SpanContext",
    "SpanRecord",
    "TRACE_SCHEMA",
    "TraceData",
    "TraceError",
    "TraceLimits",
    "Tracer",
    "active_metrics",
    "active_tracer",
    "attribute_error",
    "check_regression",
    "check_span_tree",
    "emit_attribution",
    "folded_stacks",
    "history_path_for",
    "live_scores",
    "obs_scope",
    "offline_scores",
    "read_trace",
    "render_diff",
    "render_report",
    "worker_tracer",
]
