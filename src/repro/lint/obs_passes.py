"""Trace-stream invariants: is a run's span trace well-formed?

Spans are written when they *close* (see :mod:`repro.obs.tracer`), so the
trace of a healthy run is a complete tree: every span's parent record
exists, every child's interval nests inside its parent's, and the
``trace-end`` marker reports zero open spans.  Each violation is evidence
of a real failure mode:

* an **unclosed span** (or a missing ``trace-end``) is work that never
  finished — a crashed stage, a hung worker, a killed run;
* a **worker span with no parent** means cross-process stitching broke —
  the dispatching span's context did not survive into the pool worker;
* a **child outside its parent's interval** means the tree lies about
  causality (clock misuse or a span closed out of scope).

Parsing is bounded (:class:`~repro.obs.trace.TraceLimits`): a
multi-gigabyte or damaged trace degrades to an OBS002 warning on the
parsed prefix instead of an OOM, and missing-parent checks are suppressed
under truncation — the parent may simply lie beyond the parse bounds.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional

from ..obs.trace import DEFAULT_LIMITS, TraceData, TraceLimits, read_trace
from .findings import Finding, LintReport, make_finding

#: Same-process interval slack: parent and child timestamps come from one
#: monotonic clock; only the 1 ns record rounding applies.
SAME_PID_EPS = 1e-6

#: Cross-process interval slack: spans are aligned through per-process
#: epoch/monotonic clock anchors sampled at different instants.
CROSS_PID_EPS = 0.25


def check_span_tree(data: TraceData) -> List[Finding]:
    """OBS001: unclosed spans, orphaned worker spans, non-nested children."""
    findings: List[Finding] = []
    if data.end is None:
        if not data.truncated:
            findings.append(make_finding(
                "OBS001", data.path,
                "no trace-end record: the traced run was killed (or the "
                "tracer never finished); spans in flight at that point "
                "are lost",
            ))
    else:
        open_spans = int(data.end.get("open_spans", 0) or 0)
        if open_spans:
            findings.append(make_finding(
                "OBS001", data.path,
                f"{open_spans} span(s) still open at trace-end — traced "
                f"work that never finished",
            ))
    by_id = data.by_id()
    for span in data.spans:
        if span.parent is None:
            continue
        parent = by_id.get(span.parent)
        if parent is None:
            if data.truncated:
                continue  # the parent may lie beyond the parse bounds
            if span.pid != data.root_pid:
                findings.append(make_finding(
                    "OBS001", span.span_id,
                    f"worker span {span.name!r} (pid {span.pid}) has no "
                    f"parent record {span.parent!r} — the dispatching "
                    f"span never closed or stitching broke",
                ))
            else:
                findings.append(make_finding(
                    "OBS001", span.span_id,
                    f"span {span.name!r} references parent "
                    f"{span.parent!r} which has no record — an unclosed "
                    f"(crashed) enclosing span",
                ))
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
                findings.append(make_finding(
                    "OBS001", span.span_id,
                    f"span {span.name!r} (pid {span.pid}) crosses "
                    f"processes but a clock-anchor 'process' record is "
                    f"missing — intervals cannot be aligned",
                ))
                continue
            outside = (
                child_abs < parent_abs - CROSS_PID_EPS
                or child_abs + span.dur
                > parent_abs + parent.dur + CROSS_PID_EPS
            )
        if outside:
            findings.append(make_finding(
                "OBS001", span.span_id,
                f"span {span.name!r} [{span.t0:.6f}, {span.end:.6f}] "
                f"lies outside its parent {parent.name!r} "
                f"[{parent.t0:.6f}, {parent.end:.6f}]",
            ))
    return findings


def check_parse_health(data: TraceData) -> List[Finding]:
    """OBS002: the bounded parser dropped content."""
    findings: List[Finding] = []
    if data.truncated:
        findings.append(make_finding(
            "OBS002", data.path,
            f"parse stopped at the reader's bounds after "
            f"{len(data.spans)} span(s); the span set is a prefix of "
            f"the run (raise --max-bytes/--max-spans to see more)",
        ))
    if data.corrupt_lines:
        findings.append(make_finding(
            "OBS002", data.path,
            f"{data.corrupt_lines} unparseable line(s) skipped — torn "
            f"writes from a killed process, or non-trace content",
        ))
    return findings


#: Fields every history record must carry (audited by OBS003).
_HISTORY_REQUIRED = (
    "ts", "run_id", "workload", "mode", "coverage_pct", "wall_s",
    "predicted_cycles",
)


def check_history_file(path: str) -> List[Finding]:
    """OBS003: schema and timestamp-order audit of a run-history file.

    Torn/unparseable lines are *not* findings — the store's append
    protocol tolerates them by design and the loader counts them — but a
    record that parses and then violates the schema, or runs time
    backwards, would silently poison the regression gate's baseline.
    """
    from ..obs.history import HISTORY_SCHEMA, HistoryStore

    findings: List[Finding] = []
    records, _ = HistoryStore(path).load()
    prev_ts: Optional[float] = None
    for idx, record in enumerate(records):
        where = f"{path}:record {idx}"
        if record.schema != HISTORY_SCHEMA:
            findings.append(make_finding(
                "OBS003", where,
                f"schema marker {record.schema!r} is not "
                f"{HISTORY_SCHEMA!r} — written by an incompatible "
                f"version, or hand-edited",
            ))
        data = record.as_dict()
        missing = [
            f for f in _HISTORY_REQUIRED
            if data.get(f) in (None, "") and f != "ts"
        ]
        if not record.ts:
            missing.insert(0, "ts")
        if missing:
            findings.append(make_finding(
                "OBS003", where,
                f"required field(s) missing or empty: "
                f"{', '.join(missing)}",
            ))
        if record.mode not in ("offline", "live"):
            findings.append(make_finding(
                "OBS003", where,
                f"mode {record.mode!r} is neither 'offline' nor 'live'",
            ))
        if prev_ts is not None and record.ts < prev_ts:
            findings.append(make_finding(
                "OBS003", where,
                f"timestamp {record.ts:.6f} precedes its predecessor "
                f"{prev_ts:.6f} — append order must be time order "
                f"(records merged from another machine, or a clock "
                f"stepped backwards)",
            ))
        prev_ts = record.ts
    return findings


def lint_trace_file(
    path: str,
    limits: Optional[TraceLimits] = None,
    disable: FrozenSet[str] = frozenset(),
) -> LintReport:
    """Read ``path`` within ``limits`` and run the OBS passes over it.

    Raises :class:`~repro.obs.trace.TraceError` when the file is not a
    trace at all; damaged-but-readable traces produce findings instead.
    """
    data = read_trace(path, limits or DEFAULT_LIMITS)
    report = LintReport(subject=path, disabled=sorted(disable))
    for name, check in (
        ("obs.span_tree", check_span_tree),
        ("obs.parse_health", check_parse_health),
    ):
        report.extend(
            f for f in check(data) if f.rule_id not in disable
        )
        report.mark_pass(name)
    return report


def lint_history_file(
    path: str,
    disable: FrozenSet[str] = frozenset(),
) -> LintReport:
    """Run the OBS003 history audit over one history file."""
    report = LintReport(subject=path, disabled=sorted(disable))
    report.extend(
        f for f in check_history_file(path) if f.rule_id not in disable
    )
    report.mark_pass("obs.history")
    return report
