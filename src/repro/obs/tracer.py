"""Span tracing for pipeline runs: nested monotonic-clock spans, one
JSON line per span, stitched across process-pool workers.

Design constraints, in order:

1. **Zero cost when off.**  Instrumented code calls
   :func:`active_tracer` / :func:`active_metrics`; with no tracer
   installed those return :data:`NULL_TRACER` / ``None`` and every span
   is a reused no-op object, so untraced hot loops pay one call per
   seam.  Installation is a module-level slot plus a nestable context
   manager (:func:`obs_scope`).
2. **Crash-honest.**  A span line is written when the span *ends*, to an
   append-only JSON-lines file (one ``write`` per line, flushed), so a
   killed run leaves a readable trace whose missing spans are exactly the
   work that never finished — ``repro-obs report`` names them as
   span-tree defects and exits 1.
3. **Cross-process stitching.**  A :class:`SpanContext` (trace id, parent
   span id, trace path) is picklable; a pool worker resolves it with
   :func:`worker_tracer` and appends its spans to the same file under the
   same trace id, parented into the dispatching span.  Each process
   writes one ``process`` line pairing its wall clock with its monotonic
   clock so a reader can place spans from different processes on one
   absolute timeline.

Timestamps use ``time.perf_counter()`` (monotonic) for intervals and
``time.time()`` only for the per-process clock anchor; CPU time is
``time.process_time()`` deltas.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from .metrics import MetricsRegistry

#: Trace file schema identifier, bumped when record layouts change.
TRACE_SCHEMA = "repro-trace/1"


@dataclass(frozen=True)
class SpanContext:
    """Picklable handle for parenting worker spans into a parent trace."""

    trace_id: str
    span_id: str
    path: str


class Span:
    """One in-flight span; records itself on ``end`` (or scope exit)."""

    __slots__ = ("name", "span_id", "parent_id", "attrs",
                 "_tracer", "_t0", "_cpu0", "_ended")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        span_id: str,
        parent_id: Optional[str],
        attrs: Dict[str, Any],
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs = attrs
        self._tracer = tracer
        self._ended = False
        self._cpu0 = time.process_time()
        self._t0 = time.perf_counter()

    def set(self, key: str, value: Any) -> None:
        """Attach/overwrite one attribute on the live span."""
        self.attrs[key] = value

    def end(self) -> None:
        if self._ended:
            return
        self._ended = True
        dur = time.perf_counter() - self._t0
        cpu = time.process_time() - self._cpu0
        self._tracer._end_span(self, dur, cpu)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        self.end()
        return False


class _NullSpan:
    """Shared do-nothing span; every NullTracer span() returns this."""

    __slots__ = ()

    def set(self, key: str, value: Any) -> None:
        pass

    def end(self) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


class NullTracer:
    """The disabled tracer: every operation is a near-free no-op.

    Instrumented code paths are written against this interface and never
    branch on "is tracing on"; the cost of an untraced span is one method
    call returning a shared singleton.
    """

    enabled = False
    metrics: Optional[MetricsRegistry] = None
    spans_written = 0

    def span(self, name: str, parent: Optional[str] = None,
             **attrs: Any) -> _NullSpan:
        return NULL_SPAN

    def set_current(self, key: str, value: Any) -> None:
        pass

    def current_context(self) -> Optional[SpanContext]:
        return None

    def emit_metrics(self, scope: str = "run", reset: bool = False) -> None:
        pass

    def finish(self) -> Optional[Dict[str, Any]]:
        return None


NULL_SPAN = _NullSpan()
NULL_TRACER = NullTracer()


def _new_trace_id(hint: str) -> str:
    blob = f"{hint}:{os.getpid()}:{time.time_ns()}".encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:12]


class Tracer:
    """Writes one run's spans and metrics to an append-only trace file.

    A fresh :class:`Tracer` appends a ``trace-start`` record (a new trace
    *segment* — re-runs against the same path accumulate like the
    resilience manifest does, and readers use the last segment).  Worker
    processes construct continuation tracers via :func:`worker_tracer`,
    which append a ``process`` record instead.
    """

    enabled = True

    def __init__(
        self,
        path: str,
        trace_id: Optional[str] = None,
        metrics: Optional[MetricsRegistry] = None,
        _continuation: bool = False,
        **meta: Any,
    ) -> None:
        self.path = str(path)
        self.pid = os.getpid()
        self.trace_id = trace_id or _new_trace_id(self.path)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.spans_written = 0
        self._seq = 0
        self._stack: List[Span] = []
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        # Long-lived append handle, closed in close() at trace shutdown.
        self._fh = open(self.path, "a", encoding="utf-8")  # noqa: SIM115
        record = {
            "type": "process" if _continuation else "trace-start",
            "trace_id": self.trace_id,
            "pid": self.pid,
            "epoch": time.time(),
            "mono": time.perf_counter(),
        }
        if not _continuation:
            record["schema"] = TRACE_SCHEMA
            if meta:
                record["meta"] = meta
        self._emit(record)

    # -- record plumbing ---------------------------------------------------

    def _emit(self, record: Dict[str, Any]) -> None:
        # One write per line: small O_APPEND writes do not interleave, so
        # parent and workers can share the file without locking.
        self._fh.write(json.dumps(record, sort_keys=True,
                                  separators=(",", ":")) + "\n")
        self._fh.flush()

    # -- spans -------------------------------------------------------------

    def span(self, name: str, parent: Optional[str] = None,
             **attrs: Any) -> Span:
        """Open a span; nested under the current span unless ``parent``
        names an explicit (possibly cross-process) parent span id."""
        self._seq += 1
        span_id = f"{self.pid:x}.{self._seq}"
        if parent is None and self._stack:
            parent = self._stack[-1].span_id
        span = Span(self, name, span_id, parent, dict(attrs))
        self._stack.append(span)
        return span

    def _end_span(self, span: Span, dur: float, cpu: float) -> None:
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        elif span in self._stack:  # out-of-order end; keep the rest sane
            self._stack.remove(span)
        record: Dict[str, Any] = {
            "type": "span",
            "id": span.span_id,
            "name": span.name,
            "pid": self.pid,
            "t0": round(span._t0, 9),
            "dur": round(dur, 9),
            "cpu": round(cpu, 9),
        }
        if span.parent_id is not None:
            record["parent"] = span.parent_id
        if span.attrs:
            record["attrs"] = span.attrs
        self._emit(record)
        self.spans_written += 1

    def set_current(self, key: str, value: Any) -> None:
        """Attribute the innermost open span, if any (no-op otherwise)."""
        if self._stack:
            self._stack[-1].set(key, value)

    def current_context(self) -> Optional[SpanContext]:
        """A picklable context parenting new work under the current span."""
        if not self._stack:
            return None
        return SpanContext(
            trace_id=self.trace_id,
            span_id=self._stack[-1].span_id,
            path=self.path,
        )

    # -- metrics / lifecycle ----------------------------------------------

    def emit_metrics(self, scope: str = "run", reset: bool = False) -> None:
        """Write the registry as a ``metrics`` record (skipped if empty)."""
        if self.metrics:
            self._emit({
                "type": "metrics",
                "trace_id": self.trace_id,
                "pid": self.pid,
                "scope": scope,
                "metrics": self.metrics.as_dict(),
            })
            if reset:
                self.metrics.reset()

    def finish(self) -> Dict[str, Any]:
        """Flush metrics, write the ``trace-end`` marker, close the file.

        Returns a summary (path, trace id, span count) for a CLI ``[obs]``
        line.  Spans still open are deliberately *not* force-closed: an
        unclosed span means the traced work did not finish, and the trace
        should say so (a span-tree defect in ``repro-obs report``)
        rather than fake an end time.
        """
        self.emit_metrics(scope="run")
        self._emit({
            "type": "trace-end",
            "trace_id": self.trace_id,
            "pid": self.pid,
            "spans": self.spans_written,
            "open_spans": len(self._stack),
        })
        self._fh.close()
        return {
            "path": self.path,
            "trace_id": self.trace_id,
            "spans": self.spans_written,
        }


# -- the installed tracer ------------------------------------------------

_ACTIVE: Optional[Tracer] = None


def active_tracer():
    """The installed tracer, or :data:`NULL_TRACER` when tracing is off."""
    return _ACTIVE if _ACTIVE is not None else NULL_TRACER


def active_metrics() -> Optional[MetricsRegistry]:
    """The installed tracer's registry, or ``None`` (the hot-seam check)."""
    return _ACTIVE.metrics if _ACTIVE is not None else None


@contextmanager
def obs_scope(tracer):
    """Install ``tracer`` for the duration of the block (nestable).

    A ``None`` or disabled tracer installs nothing — the seams keep
    hitting the ``is None`` fast path.
    """
    if tracer is None or not tracer.enabled:
        yield
        return
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer
    try:
        yield
    finally:
        _ACTIVE = previous


#: Per-worker-process continuation tracers, keyed by (path, trace id):
#: a pool worker serves many jobs of one run and must emit its ``process``
#: clock-anchor record exactly once.
_WORKER_TRACERS: Dict[Any, Tracer] = {}


def worker_tracer(ctx: Optional[SpanContext]):
    """Resolve a :class:`SpanContext` into this process's tracer.

    Returns :data:`NULL_TRACER` for ``None`` (tracing off in the parent).
    """
    if ctx is None:
        return NULL_TRACER
    key = (ctx.path, ctx.trace_id)
    tracer = _WORKER_TRACERS.get(key)
    if tracer is None:
        tracer = Tracer(ctx.path, trace_id=ctx.trace_id, _continuation=True)
        _WORKER_TRACERS[key] = tracer
    return tracer
