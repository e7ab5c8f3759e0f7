"""Orchestration: run every pass family against one workload or pipeline.

The expensive families share their inputs: one constrained analysis
replay feeds ``dcfg`` / ``concurrency`` / ``perf`` / ``dominance`` /
``xar`` (a DCFG builder, a concurrency analyzer, a sync log and a trace
collector all observe it), and ``MARK004`` costs one more profiling
replay.  The cheap families (fault-plan structure, static marker checks,
config arithmetic, the live audit, store hygiene) need no replay.
Everything runs serially in the calling process.

Rule suppression is resolved *before* passes run: a family whose rules
are all disabled is never executed (disabling ``MARK004`` alone drops the
second profiling replay entirely, and disabling every replay-derived
family drops the analysis replay), and partially-disabled families have
the suppressed rules filtered as findings arrive, never post-hoc on the
assembled report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Dict, FrozenSet, Iterable, List, Optional, Tuple, TYPE_CHECKING,
)

from ..config import DEFAULT_LINT_THRESHOLDS, LintThresholds
from ..dcfg.graph import DCFGBuilder
from ..exec_engine.flowcontrol import DEFAULT_FLOW_WINDOW
from ..exec_engine.observers import SyncEventLog, TraceCollector
from ..pinplay.replayer import ConstrainedReplayer
from .concurrency_passes import (
    ConcurrencyAnalyzer,
    check_barrier_divergence,
    check_gseq_integrity,
    check_lock_order,
    check_races,
)
from .config_passes import check_fault_plan, run_config_passes
from .dcfg_passes import check_marker_dominance, run_dcfg_passes
from .findings import Finding, LintReport, RULES, rule_families
from .marker_passes import (
    check_marker_blocks,
    check_monotone_counts,
    check_replay_invariance,
)
from .perf_passes import check_trace_truncation
from .store_passes import run_store_passes
from .xar_passes import read_trace_for_audit, run_xar_passes

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..clustering.simpoint import SimPointSelection
    from ..core.looppoint import LoopPointPipeline
    from ..profiling.profile_result import ProfileData
    from ..workloads.base import Workload

#: Families whose findings derive from the shared analysis replay.
REPLAY_FAMILIES: FrozenSet[str] = frozenset(
    {"dcfg", "concurrency", "perf", "dominance", "xar"}
)

#: Report-assembly order; also the order families are marked in
#: ``passes_run``.
FAMILY_ORDER: Tuple[str, ...] = (
    "faultplan", "dcfg", "concurrency", "perf", "markers",
    "invariance", "dominance", "config", "xar", "live", "store",
)


@dataclass(frozen=True)
class LintOptions:
    """What to check and how strictly."""

    #: Run the two-replay boundary-invariance check (costs one extra
    #: profiling replay).
    check_invariance: bool = True
    #: Rule ids to suppress (see docs/METHODOLOGY.md, "Validating a run").
    disable: FrozenSet[str] = field(default_factory=frozenset)
    thresholds: LintThresholds = field(
        default_factory=lambda: DEFAULT_LINT_THRESHOLDS
    )
    #: Flow-control window the recording used.
    flow_window: int = DEFAULT_FLOW_WINDOW

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
    trace_limit: Optional[int],
) -> Dict[str, List[Finding]]:
    """One constrained analysis replay feeding every wanted replay family."""
    program = pipeline.workload.program
    pinball = pipeline.record()
    builder = DCFGBuilder(
        program, pinball.nthreads, track_threads="dominance" in want
    )
    analyzer = ConcurrencyAnalyzer(pinball.nthreads)
    sync_log = SyncEventLog(pinball.nthreads)
    trace = TraceCollector(limit=trace_limit)
    ConstrainedReplayer(
        program, pinball, observers=(builder, analyzer, sync_log, trace),
    ).run()
    dcfg = builder.result()
    out: Dict[str, List[Finding]] = {}
    if "dcfg" in want:
        out["dcfg"] = run_dcfg_passes(dcfg, pinball.nthreads)
    if "concurrency" in want:
        findings = list(check_lock_order(analyzer))
        findings.extend(check_barrier_divergence(sync_log))
        findings.extend(check_races(analyzer))
        findings.extend(check_gseq_integrity(sync_log))
        out["concurrency"] = findings
    if "perf" in want:
        out["perf"] = check_trace_truncation(trace)
    if "dominance" in want and selection is not None:
        out["dominance"] = check_marker_dominance(
            program, profile, selection, dcfg,
            thread_graphs=builder.thread_graphs(),
        )
    if "xar" in want and selection is not None:
        trace_path = pipeline.options.trace_path
        out["xar"] = run_xar_passes(
            profile,
            selection.clusters,
            dcfg=dcfg,
            stage_keys=pipeline.stage_keys(),
            manifest_path=pipeline.options.manifest_path,
            cache=pipeline.artifacts,
            trace_data=(
                read_trace_for_audit(trace_path) if trace_path else None
            ),
        )
    return out


def lint_pipeline(
    pipeline: "LoopPointPipeline",
    options: Optional[LintOptions] = None,
) -> LintReport:
    """Verify every checked invariant of one pipeline's run."""
    options = options or LintOptions()
    disable = options.disable

    def enabled(family: str) -> bool:
        return family_enabled(family, disable)

    workload = pipeline.workload
    report = LintReport(subject=workload.full_name, disabled=sorted(disable))
    if pipeline.options.fault_plan is not None:
        if enabled("faultplan"):
            # Checked first, and without installing the plan: a
            # structurally invalid plan would make every later stage raise
            # at install time, so lint reports it as findings and stops
            # instead of crashing.
            report.extend(_keep(check_fault_plan(
                pipeline.options.fault_plan,
                job_timeout_s=pipeline.options.job_timeout_s,
            ), disable))
            report.mark_pass("faultplan")
            if report.has_errors:
                return report
        else:
            report.mark_pass("faultplan", source="skipped")

    # A live pipeline is linted against its streamed profile — forcing
    # pipeline.profile() here would run the offline replay live mode
    # exists to skip.  Its boundaries equal the offline profile's by
    # construction (the scout reuses the slicer's close rule), and
    # MARK004 *verifies* exactly that claim.
    live = getattr(pipeline, "_live", None)
    want_replay = frozenset(f for f in REPLAY_FAMILIES if enabled(f))
    if live is not None:
        # A live run has no offline selection; forcing one here would
        # execute the very profile+select stages live mode exists to
        # avoid.  The LIVE001 family audits the streaming selection.
        want_replay -= {"dominance", "xar"}
    want_invariance = options.check_invariance and enabled("invariance")
    profile: Optional["ProfileData"] = None
    if want_replay or want_invariance or enabled("markers") or enabled(
        "config"
    ):
        profile = live.profile if live is not None else pipeline.profile()

    program = workload.program
    computed: Dict[str, List[Finding]] = {}
    if want_replay and profile is not None:
        selection = (
            pipeline.select() if {"dominance", "xar"} & want_replay
            else None
        )
        computed.update(_replay_findings(
            pipeline, profile, selection, want_replay,
            options.thresholds.trace_limit,
        ))
    if want_invariance and profile is not None:
        computed["invariance"] = check_replay_invariance(
            program, pipeline.record(), profile.slice_size, profile,
        )

    for family in FAMILY_ORDER:
        if family == "faultplan":
            continue  # handled above, and only when a plan exists
        if family == "markers":
            if profile is None or not enabled("markers"):
                report.mark_pass("markers", source="skipped")
                continue
            findings = check_marker_blocks(program, profile.marker_pcs)
            findings.extend(check_monotone_counts(profile.slices))
            report.extend(_keep(findings, disable))
            report.mark_pass("markers")
        elif family == "config":
            if profile is None or not enabled("config"):
                report.mark_pass("config", source="skipped")
                continue
            report.extend(_keep(run_config_passes(
                pipeline.options.resolved_scale(),
                pipeline.slice_size,
                pipeline.options.startup_fraction,
                profile=profile,
                flow_window=options.flow_window,
                thresholds=options.thresholds,
            ), disable))
            report.mark_pass("config")
        elif family == "live":
            # Runs only when this pipeline actually executed a live
            # pass: the checks are arithmetic over the in-memory
            # LiveResult, so there is nothing to audit on an offline run.
            if live is None or not enabled("live"):
                report.mark_pass("live", source="skipped")
                continue
            from .live_passes import run_live_passes

            report.extend(_keep(run_live_passes(live), disable))
            report.mark_pass("live")
        elif family == "store":
            # A directory walk over the cache dir's *current* state.
            if not pipeline.options.cache_dir or not enabled("store"):
                report.mark_pass("store", source="skipped")
                continue
            report.extend(_keep(
                run_store_passes(pipeline.options.cache_dir), disable,
            ))
            report.mark_pass("store")
        elif family in computed:
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
