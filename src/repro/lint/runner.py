"""Orchestration: run every pass family against one workload or pipeline.

The two expensive families share one constrained analysis replay:
``concurrency`` reads a concurrency analyzer and a sync log attached to
it, ``dominance`` reads a DCFG builder attached to it.  The ``markers``
family is static and needs no replay.  Everything runs serially in the
calling process.

Rule suppression is resolved *before* passes run: a family whose rules
are all disabled is never executed (disabling both replay families drops
the analysis replay), and partially-disabled families have the
suppressed rules filtered as findings arrive, never post-hoc on the
assembled report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Dict, FrozenSet, Iterable, List, Optional, Tuple, TYPE_CHECKING,
)

from ..dcfg.graph import DCFGBuilder
from ..exec_engine.observers import Observer, SyncEventLog
from ..pinplay.replayer import ConstrainedReplayer
from .concurrency_passes import (
    ConcurrencyAnalyzer,
    check_barrier_divergence,
    check_lock_order,
    check_races,
)
from .dcfg_passes import check_marker_dominance
from .findings import Finding, LintReport, RULES, rule_families
from .marker_passes import check_marker_blocks, check_slice_population

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..clustering.simpoint import SimPointSelection
    from ..core.looppoint import LoopPointPipeline
    from ..profiling.profile_result import ProfileData
    from ..workloads.base import Workload

#: Families whose findings derive from the shared analysis replay.
REPLAY_FAMILIES: FrozenSet[str] = frozenset({"concurrency", "dominance"})

#: Report-assembly order; also the order families are marked in
#: ``passes_run``.
FAMILY_ORDER: Tuple[str, ...] = ("concurrency", "markers", "dominance")


@dataclass(frozen=True)
class LintOptions:
    """Which rules to suppress."""

    #: Rule ids to suppress (see docs/METHODOLOGY.md, "Validating a run").
    disable: FrozenSet[str] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        unknown = set(self.disable) - set(RULES)
        if unknown:
            raise ValueError(f"unknown rule id(s) in disable: {sorted(unknown)}")


def family_enabled(family: str, disable: FrozenSet[str]) -> bool:
    """A family runs iff at least one of its rules is not disabled."""
    return any(r not in disable for r in rule_families().get(family, []))


def _keep(
    findings: Iterable[Finding], disable: FrozenSet[str]
) -> List[Finding]:
    """Drop suppressed rules at the family boundary (not post-hoc)."""
    return [f for f in findings if f.rule_id not in disable]


def _replay_findings(
    pipeline: "LoopPointPipeline",
    profile: "ProfileData",
    selection: Optional["SimPointSelection"],
    want: FrozenSet[str],
) -> Dict[str, List[Finding]]:
    """One constrained analysis replay feeding every wanted replay family."""
    program = pipeline.workload.program
    pinball = pipeline.record()
    observers: List[Observer] = []
    if "dominance" in want:
        builder = DCFGBuilder(program, pinball.nthreads, track_threads=True)
        observers.append(builder)
    if "concurrency" in want:
        analyzer = ConcurrencyAnalyzer(pinball.nthreads)
        sync_log = SyncEventLog(pinball.nthreads)
        observers.extend((analyzer, sync_log))
    ConstrainedReplayer(program, pinball, observers=observers).run()
    out: Dict[str, List[Finding]] = {}
    if "concurrency" in want:
        findings = list(check_lock_order(analyzer))
        findings.extend(check_barrier_divergence(sync_log))
        findings.extend(check_races(analyzer))
        out["concurrency"] = findings
    if "dominance" in want and selection is not None:
        out["dominance"] = check_marker_dominance(
            program, profile, selection, builder.result(),
            thread_graphs=builder.thread_graphs(),
        )
    return out


def lint_pipeline(
    pipeline: "LoopPointPipeline",
    options: Optional[LintOptions] = None,
) -> LintReport:
    """Verify every checked workload property of one pipeline's run."""
    options = options or LintOptions()
    disable = options.disable

    def enabled(family: str) -> bool:
        return family_enabled(family, disable)

    workload = pipeline.workload
    report = LintReport(subject=workload.full_name, disabled=sorted(disable))
    # A live pipeline is linted against its streamed profile — forcing
    # pipeline.profile() here would run the offline replay live mode
    # exists to skip.
    live = getattr(pipeline, "_live", None)
    want_replay = frozenset(f for f in REPLAY_FAMILIES if enabled(f))
    if live is not None:
        # A live run has no offline selection; forcing one here would
        # execute the very profile+select stages live mode exists to
        # avoid.
        want_replay -= {"dominance"}
    profile: Optional["ProfileData"] = None
    if want_replay or enabled("markers"):
        profile = live.profile if live is not None else pipeline.profile()

    computed: Dict[str, List[Finding]] = {}
    if want_replay and profile is not None:
        selection = (
            pipeline.select() if "dominance" in want_replay else None
        )
        computed.update(_replay_findings(
            pipeline, profile, selection, want_replay,
        ))
    if profile is not None and enabled("markers"):
        findings = check_marker_blocks(workload.program, profile.marker_pcs)
        findings.extend(check_slice_population(profile))
        computed["markers"] = findings

    for family in FAMILY_ORDER:
        if family in computed:
            report.extend(_keep(computed[family], disable))
            report.mark_pass(family)
        else:
            report.mark_pass(family, source="skipped")
    return report


def lint_workload(
    workload: "Workload",
    options: Optional[LintOptions] = None,
    pipeline_options=None,
) -> LintReport:
    """Build a pipeline for ``workload`` and lint its run."""
    from ..core.looppoint import LoopPointPipeline

    pipeline = LoopPointPipeline(workload, options=pipeline_options)
    return lint_pipeline(pipeline, options)
