"""Standard-format telemetry export: Prometheus text and OTLP-style JSON.

The trace file is this repo's native format; real monitoring stacks
speak Prometheus exposition (for metrics) and OTLP (for spans).  This
module converts a parsed :class:`~repro.obs.trace.TraceData` into both
file documents, so an off-the-shelf Prometheus/collector pairing can
consume our telemetry unchanged:

* :func:`prometheus_text` — text exposition format 0.0.4.  Counters and
  gauges map directly; histograms map to classic Prometheus histograms
  (*cumulative* ``_bucket{le=...}`` series from our fixed log-spaced
  bounds, plus exact ``_sum``/``_count``).  Metric names are sanitized
  (``live.final_error_estimate`` -> ``repro_live_final_error_estimate``)
  and emitted in sorted order, so two runs of one seed export
  byte-identical documents (timestamps are deliberately omitted).
* :func:`otlp_json` — the OTLP/JSON resource->scope->spans shape with
  ids padded/derived to OTLP's 16-byte trace / 8-byte span hex fields
  and times on the unix-nano timeline via the per-process clock anchors.
"""

from __future__ import annotations

import hashlib
import json
import re
from typing import Any, Dict, List

from .metrics import BUCKET_BOUNDS
from .trace import SpanRecord, TraceData

#: Prometheus metric-name sanitizer: anything outside the legal alphabet
#: collapses to ``_``.
_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")

#: All exported metric names carry this prefix (Prometheus convention:
#: one namespace per application).
PROMETHEUS_PREFIX = "repro_"


def _prom_name(name: str) -> str:
    sanitized = _NAME_RE.sub("_", name)
    if not sanitized or not (sanitized[0].isalpha() or sanitized[0] == "_"):
        sanitized = "_" + sanitized
    return PROMETHEUS_PREFIX + sanitized


def _prom_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    text = repr(float(value))
    return text[:-2] if text.endswith(".0") else text


def prometheus_text(trace: TraceData) -> str:
    """The whole registry (parent + workers) as one exposition document."""
    lines: List[str] = []
    counters = trace.counters()
    for name in sorted(counters):
        prom = _prom_name(name) + "_total"
        lines.append(f"# TYPE {prom} counter")
        lines.append(f"{prom} {_prom_value(float(counters[name]))}")
    gauges = trace.gauges()
    for name in sorted(gauges):
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} gauge")
        lines.append(f"{prom} {_prom_value(gauges[name])}")
    histograms = trace.histograms()
    for name in sorted(histograms):
        hist = histograms[name]
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} histogram")
        # Our buckets are per-bin counts; Prometheus buckets are
        # cumulative ("everything <= le"), the +Inf bucket equals _count.
        cumulative = 0
        for bound, count in zip(BUCKET_BOUNDS, hist.buckets):
            cumulative += count
            lines.append(
                f'{prom}_bucket{{le="{_prom_value(bound)}"}} {cumulative}'
            )
        lines.append(f'{prom}_bucket{{le="+Inf"}} {hist.count}')
        lines.append(f"{prom}_sum {_prom_value(hist.total)}")
        lines.append(f"{prom}_count {hist.count}")
    return "\n".join(lines) + "\n"


# -- OTLP-style JSON span export -------------------------------------------


def _otlp_trace_id(trace_id: str) -> str:
    """OTLP wants 16 bytes (32 hex chars); ours are 12 — derive stably."""
    return hashlib.sha256(trace_id.encode("utf-8")).hexdigest()[:32]


def _otlp_span_id(trace_id: str, span_id: str) -> str:
    return hashlib.sha256(
        f"{trace_id}:{span_id}".encode("utf-8")
    ).hexdigest()[:16]


def _otlp_attr(key: str, value: Any) -> Dict[str, Any]:
    if isinstance(value, bool):
        body: Dict[str, Any] = {"boolValue": value}
    elif isinstance(value, int):
        body = {"intValue": str(value)}
    elif isinstance(value, float):
        body = {"doubleValue": value}
    else:
        body = {"stringValue": json.dumps(value, sort_keys=True)
                if isinstance(value, (list, dict)) else str(value)}
    return {"key": key, "value": body}


def _span_times_nano(trace: TraceData, span: SpanRecord) -> "tuple[int, int]":
    start = trace.abs_time(span)
    if start is None:
        # No clock anchor: monotonic time is still a valid *relative*
        # timeline; export it as-is rather than dropping the span.
        start = span.t0
    return int(round(start * 1e9)), int(round((start + span.dur) * 1e9))


def otlp_json(trace: TraceData) -> Dict[str, Any]:
    """The span tree as an OTLP/JSON ``resourceSpans`` document."""
    otlp_tid = _otlp_trace_id(trace.trace_id)
    spans: List[Dict[str, Any]] = []
    for span in trace.spans:
        start_ns, end_ns = _span_times_nano(trace, span)
        record: Dict[str, Any] = {
            "traceId": otlp_tid,
            "spanId": _otlp_span_id(trace.trace_id, span.span_id),
            "name": span.name,
            "kind": 1,  # SPAN_KIND_INTERNAL
            "startTimeUnixNano": str(start_ns),
            "endTimeUnixNano": str(end_ns),
            "attributes": [
                _otlp_attr("repro.pid", span.pid),
                _otlp_attr("repro.cpu_seconds", span.cpu),
            ] + [
                _otlp_attr(key, value)
                for key, value in sorted(span.attrs.items())
            ],
        }
        if span.parent is not None:
            record["parentSpanId"] = _otlp_span_id(
                trace.trace_id, span.parent
            )
        spans.append(record)
    resource_attrs = [
        _otlp_attr("service.name", "repro-looppoint"),
        _otlp_attr("repro.trace_id", trace.trace_id),
        _otlp_attr("repro.schema", trace.schema),
    ] + [
        _otlp_attr(f"repro.meta.{key}", value)
        for key, value in sorted(trace.meta.items())
    ]
    return {
        "resourceSpans": [{
            "resource": {"attributes": resource_attrs},
            "scopeSpans": [{
                "scope": {"name": "repro.obs", "version": trace.schema},
                "spans": spans,
            }],
        }],
    }
