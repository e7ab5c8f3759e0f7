"""Performance / evidence-completeness passes.

The lint replay attaches a :class:`~repro.exec_engine.observers.
TraceCollector` bounded at :data:`TRACE_LIMIT` block events so
block-level evidence is available to future passes without risking
unbounded memory on huge runs.  Truncation no longer raises (the collector
drops the tail and sets ``truncated``); PERF001 surfaces that drop, because
every conclusion of the form "no finding" is only as good as the evidence
actually collected.
"""

from __future__ import annotations

from typing import List

from ..exec_engine.observers import TraceCollector
from .findings import Finding, make_finding

#: Block-event cap of the trace collector lint attaches to its analysis
#: replay; PERF001 fires if the replay overflows it.
TRACE_LIMIT = 5_000_000


def check_trace_truncation(trace: TraceCollector) -> List[Finding]:
    """PERF001: the analysis trace overflowed its collector's cap.

    The finding quantifies the loss: events seen versus the configured
    capacity, and the fraction of the run's block events the collector
    actually holds — so "how incomplete is the evidence" is answerable
    from the finding alone.
    """
    findings: List[Finding] = []
    if trace.truncated:
        kept = len(trace.blocks)
        seen = kept + trace.dropped_blocks
        coverage = kept / seen if seen else 0.0
        findings.append(make_finding(
            "PERF001",
            f"trace[limit={trace.limit}]",
            f"replay produced {seen} block events against a capacity of "
            f"{trace.limit}: kept {kept} ({coverage:.1%} of the block "
            f"stream), dropped {trace.dropped_blocks} block / "
            f"{trace.dropped_syncs} sync events past the cap; block-level "
            f"evidence covers only a prefix of the run — raise "
            f"repro.lint.perf_passes.TRACE_LIMIT for full coverage",
        ))
    return findings
