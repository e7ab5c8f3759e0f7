"""Observability for pipeline runs: span tracing, metrics, reporting.

Public surface:

* :class:`Tracer` / :class:`NullTracer` / :func:`obs_scope` — span tracing
  with the fault-scope installation pattern; :func:`active_tracer` and
  :func:`active_metrics` are the instrumentation seams.
* :class:`MetricsRegistry` — deterministic counters/gauges/histograms.
* :class:`Console` — the CLI's single status-line code path.
* :func:`read_trace` / :func:`render_report` — trace files back to humans
  (the ``repro-obs`` CLI wraps these).
* :func:`attribute_error` / :class:`ErrorAttribution` — per-cluster
  decomposition of the extrapolation error.
* :func:`prometheus_text` / :func:`otlp_json` — standard-format export
  (``repro-obs export`` wraps these).
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
from .export import otlp_json, prometheus_text
from .history import (
    HISTORY_SCHEMA,
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
    "emit_attribution",
    "folded_stacks",
    "history_path_for",
    "live_scores",
    "obs_scope",
    "offline_scores",
    "otlp_json",
    "prometheus_text",
    "read_trace",
    "render_diff",
    "render_report",
    "worker_tracer",
]
