"""Bounded reading of trace files written by :mod:`repro.obs.tracer`.

A trace file accumulates *segments* (one ``trace-start`` per run, so
reruns against one path append); readers work on the last segment.
Parsing is bounded — byte and span limits with explicit truncation
flagging — so ``repro-obs`` stays O(limits) on a pathological
multi-gigabyte trace instead of OOMing.  A damaged trace still reads:
:func:`check_span_tree` names what is wrong with its span tree, and
``repro-obs report`` prints those defects and exits 1 on them.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..errors import ReproError

#: Same-process interval slack for :func:`check_span_tree`: parent and
#: child timestamps come from one monotonic clock; only the 1 ns record
#: rounding applies.
SAME_PID_EPS = 1e-6

#: Cross-process interval slack: spans are aligned through per-process
#: epoch/monotonic clock anchors sampled at different instants.
CROSS_PID_EPS = 0.25


class TraceError(ReproError):
    """A trace file cannot be read at all (missing, empty, no segment)."""


@dataclass(frozen=True)
class TraceLimits:
    """Parser bounds; exceeding either stops reading and flags truncation."""

    max_bytes: int = 64 * 1024 * 1024
    max_spans: int = 500_000
    #: Longest single line considered parseable (a span record is a few
    #: hundred bytes; anything near this is damage, not data).
    max_line_bytes: int = 1 * 1024 * 1024

    def __post_init__(self) -> None:
        for name in ("max_bytes", "max_spans", "max_line_bytes"):
            value = getattr(self, name)
            if value < 1:
                raise TraceError(f"TraceLimits.{name} must be >= 1, got {value}")


DEFAULT_LIMITS = TraceLimits()


@dataclass(frozen=True)
class SpanRecord:
    """One completed span, as read back from the file."""

    span_id: str
    name: str
    pid: int
    t0: float
    dur: float
    cpu: float
    parent: Optional[str]
    attrs: Dict[str, Any]

    @property
    def end(self) -> float:
        return self.t0 + self.dur


@dataclass
class TraceData:
    """The last trace segment of one file, parsed within bounds."""

    path: str
    trace_id: str = ""
    schema: str = ""
    meta: Dict[str, Any] = field(default_factory=dict)
    root_pid: int = -1
    #: Per-process clock anchors: pid -> (epoch seconds, monotonic seconds)
    #: sampled at the same instant, for cross-process time alignment.
    clocks: Dict[int, Tuple[float, float]] = field(default_factory=dict)
    spans: List[SpanRecord] = field(default_factory=list)
    metrics: List[Dict[str, Any]] = field(default_factory=list)
    end: Optional[Dict[str, Any]] = None
    #: Parsing stopped at a limit; the span set is a prefix, not the run.
    truncated: bool = False
    #: Unparseable lines skipped (torn writes from a killed process).
    corrupt_lines: int = 0
    segments: int = 0

    def by_id(self) -> Dict[str, SpanRecord]:
        return {span.span_id: span for span in self.spans}

    def children(self) -> Dict[str, List[SpanRecord]]:
        out: Dict[str, List[SpanRecord]] = {}
        for span in self.spans:
            if span.parent is not None:
                out.setdefault(span.parent, []).append(span)
        return out

    def roots(self) -> List[SpanRecord]:
        return [span for span in self.spans if span.parent is None]

    def abs_time(self, span: SpanRecord) -> Optional[float]:
        """Span start on the shared wall-clock timeline, if anchored."""
        anchor = self.clocks.get(span.pid)
        if anchor is None:
            return None
        epoch, mono = anchor
        return epoch + (span.t0 - mono)

    def counters(self) -> Dict[str, int]:
        """All metrics records' counters summed (parent run + worker jobs)."""
        out: Dict[str, int] = {}
        for record in self.metrics:
            for name, value in (
                record.get("metrics", {}).get("counters", {}).items()
            ):
                out[name] = out.get(name, 0) + int(value)
        return out

    def gauges(self) -> Dict[str, float]:
        """All metrics records' gauges, last write wins (file order)."""
        out: Dict[str, float] = {}
        for record in self.metrics:
            for name, value in (
                record.get("metrics", {}).get("gauges", {}).items()
            ):
                out[name] = float(value)
        return out

    def histograms(self) -> Dict[str, "Histogram"]:
        """All metrics records' histograms merged (parent run + worker
        jobs), so exact ``count``/``sum`` — and therefore true means —
        survive aggregation instead of bucket-midpoint estimates."""
        from .metrics import Histogram

        out: Dict[str, Histogram] = {}
        for record in self.metrics:
            for name, data in (
                record.get("metrics", {}).get("histograms", {}).items()
            ):
                hist = out.get(name)
                if hist is None:
                    hist = out[name] = Histogram()
                if isinstance(data, dict):
                    hist.merge_dict(data)
        return out


def _span_from(record: Dict[str, Any]) -> Optional[SpanRecord]:
    try:
        return SpanRecord(
            span_id=str(record["id"]),
            name=str(record["name"]),
            pid=int(record["pid"]),
            t0=float(record["t0"]),
            dur=float(record["dur"]),
            cpu=float(record.get("cpu", 0.0)),
            parent=(
                str(record["parent"]) if record.get("parent") is not None
                else None
            ),
            attrs=dict(record.get("attrs", {})),
        )
    except (KeyError, TypeError, ValueError):
        return None


def read_trace(
    path: str, limits: Optional[TraceLimits] = None
) -> TraceData:
    """Parse the last segment of ``path`` within ``limits``.

    Every ``trace-start`` restarts accumulation, so memory is bounded by
    the *last* segment even when earlier segments are huge.  Raises
    :class:`TraceError` only when no segment exists at all; damaged or
    truncated content degrades to flags on the returned data.
    """
    limits = limits or DEFAULT_LIMITS
    if not os.path.isfile(path):
        raise TraceError(f"trace file not found: {path}")
    data = TraceData(path=str(path))
    seen_start = False
    consumed = 0
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                consumed += len(line)
                if consumed > limits.max_bytes:
                    data.truncated = True
                    break
                line = line.strip()
                if not line:
                    continue
                if len(line) > limits.max_line_bytes:
                    data.corrupt_lines += 1
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    data.corrupt_lines += 1
                    continue
                if not isinstance(record, dict):
                    data.corrupt_lines += 1
                    continue
                kind = record.get("type")
                if kind == "trace-start":
                    # New segment: drop everything accumulated so far.
                    segments = data.segments + 1
                    corrupt = data.corrupt_lines
                    data = TraceData(path=str(path))
                    data.segments = segments
                    data.corrupt_lines = corrupt
                    data.trace_id = str(record.get("trace_id", ""))
                    data.schema = str(record.get("schema", ""))
                    data.meta = dict(record.get("meta", {}))
                    data.root_pid = int(record.get("pid", -1))
                    data.clocks[data.root_pid] = (
                        float(record.get("epoch", 0.0)),
                        float(record.get("mono", 0.0)),
                    )
                    seen_start = True
                elif kind == "process":
                    data.clocks[int(record.get("pid", -1))] = (
                        float(record.get("epoch", 0.0)),
                        float(record.get("mono", 0.0)),
                    )
                elif kind == "span":
                    span = _span_from(record)
                    if span is None:
                        data.corrupt_lines += 1
                        continue
                    data.spans.append(span)
                    if len(data.spans) >= limits.max_spans:
                        data.truncated = True
                        break
                elif kind == "metrics":
                    data.metrics.append(record)
                elif kind == "trace-end":
                    data.end = record
                # Unknown record types are skipped: forward compatibility.
    except OSError as exc:
        raise TraceError(f"cannot read trace {path!r}: {exc}") from exc
    if not seen_start:
        raise TraceError(
            f"{path} contains no trace-start record "
            f"(not a repro trace, or fully corrupt)"
        )
    return data


def check_span_tree(data: TraceData) -> List[str]:
    """What is wrong with a parsed trace's span tree, one line per defect.

    Spans are written when they *close* (see :mod:`repro.obs.tracer`), so
    the trace of a healthy run is a complete tree: every span's parent
    record exists, every child's interval nests inside its parent's, and
    the ``trace-end`` marker reports zero open spans.  Each defect is
    evidence of a real failure mode:

    * an **unclosed span** (or a missing ``trace-end``) is work that never
      finished — a crashed stage, a hung worker, a killed run;
    * a **worker span with no parent** means cross-process stitching
      broke — the dispatching span's context did not survive into the
      pool worker;
    * a **child outside its parent's interval** means the tree lies about
      causality (clock misuse or a span closed out of scope).

    Under truncation the missing-``trace-end`` and missing-parent checks
    are skipped: the record may simply lie beyond the parse bounds.
    """
    defects: List[str] = []
    if data.end is None:
        if not data.truncated:
            defects.append(
                "no trace-end record: the traced run was killed (or the "
                "tracer never finished); spans in flight at that point "
                "are lost"
            )
    else:
        open_spans = int(data.end.get("open_spans", 0) or 0)
        if open_spans:
            defects.append(
                f"{open_spans} span(s) still open at trace-end — traced "
                f"work that never finished"
            )
    by_id = data.by_id()
    for span in data.spans:
        if span.parent is None:
            continue
        parent = by_id.get(span.parent)
        if parent is None:
            if data.truncated:
                continue  # the parent may lie beyond the parse bounds
            if span.pid != data.root_pid:
                defects.append(
                    f"{span.span_id}: worker span {span.name!r} (pid "
                    f"{span.pid}) has no parent record {span.parent!r} — "
                    f"the dispatching span never closed or stitching broke"
                )
            else:
                defects.append(
                    f"{span.span_id}: span {span.name!r} references parent "
                    f"{span.parent!r} which has no record — an unclosed "
                    f"(crashed) enclosing span"
                )
            continue
        if span.pid == parent.pid:
            outside = (
                span.t0 < parent.t0 - SAME_PID_EPS
                or span.end > parent.end + SAME_PID_EPS
            )
        else:
            child_abs = data.abs_time(span)
            parent_abs = data.abs_time(parent)
            if child_abs is None or parent_abs is None:
                defects.append(
                    f"{span.span_id}: span {span.name!r} (pid {span.pid}) "
                    f"crosses processes but a clock-anchor 'process' "
                    f"record is missing — intervals cannot be aligned"
                )
                continue
            outside = (
                child_abs < parent_abs - CROSS_PID_EPS
                or child_abs + span.dur
                > parent_abs + parent.dur + CROSS_PID_EPS
            )
        if outside:
            defects.append(
                f"{span.span_id}: span {span.name!r} "
                f"[{span.t0:.6f}, {span.end:.6f}] lies outside its parent "
                f"{parent.name!r} [{parent.t0:.6f}, {parent.end:.6f}]"
            )
    return defects
