"""Pipeline-configuration sanity passes.

These rules cross-check one run's knobs against the scaling contract in
:mod:`repro.config`: slice sizes, the flow-control window, warmup budgets,
and the startup-exclusion fraction.  Misconfigurations here don't crash the
pipeline — they quietly degrade profile stability, which is exactly what a
lint pass should surface.
"""

from __future__ import annotations

from typing import List, Optional

from ..config import DEFAULT_LINT_THRESHOLDS, LintThresholds, ReproScale
from ..exec_engine.flowcontrol import DEFAULT_FLOW_WINDOW
from ..profiling.profile_result import ProfileData
from ..resilience import WORKER_HANG, FaultPlan
from .findings import Finding, make_finding


def check_flow_window(
    slice_size: int,
    flow_window: int = DEFAULT_FLOW_WINDOW,
    thresholds: LintThresholds = DEFAULT_LINT_THRESHOLDS,
) -> List[Finding]:
    """Rule CONF001: equal progress must be finer-grained than a slice."""
    limit = thresholds.max_flow_window_fraction * slice_size
    if flow_window > limit:
        return [make_finding(
            "CONF001", f"flow window {flow_window}",
            f"window exceeds {thresholds.max_flow_window_fraction:.0%} of "
            f"the global slice size {slice_size}; per-slice thread shares "
            f"become schedule-dependent",
        )]
    return []


def check_warmup(
    scale: ReproScale,
    thresholds: LintThresholds = DEFAULT_LINT_THRESHOLDS,
) -> List[Finding]:
    """Rule CONF002: warmup must cover enough history."""
    needed = thresholds.min_warmup_slices * scale.slice_size_per_thread
    if scale.warmup_instructions < needed:
        return [make_finding(
            "CONF002", f"scale {scale.name!r}",
            f"warmup_instructions {scale.warmup_instructions} < "
            f"{thresholds.min_warmup_slices:g} per-thread slice(s) "
            f"({needed:.0f} instructions)",
        )]
    return []


def check_slice_budget(
    scale: ReproScale,
    slice_size: int,
    total_filtered: Optional[int] = None,
) -> List[Finding]:
    """Rule CONF003: the run must stay under the scale's max_slices guard."""
    if total_filtered is None or slice_size <= 0:
        return []
    expected = total_filtered / slice_size
    if expected > scale.max_slices:
        return [make_finding(
            "CONF003", f"slice_size {slice_size}",
            f"~{expected:.0f} slices expected for {total_filtered} filtered "
            f"instructions, over the scale's max_slices={scale.max_slices}",
        )]
    return []


def check_startup_fraction(startup_fraction: float) -> List[Finding]:
    """Rule CONF004: the startup exclusion is a fraction of the run."""
    if not 0.0 <= startup_fraction < 1.0:
        return [make_finding(
            "CONF004", f"startup_fraction {startup_fraction}",
            "must lie in [0, 1); everything else excludes the whole run "
            "or nothing meaningful",
        )]
    return []


def check_slice_population(
    profile: ProfileData,
    thresholds: LintThresholds = DEFAULT_LINT_THRESHOLDS,
) -> List[Finding]:
    """Rule CONF005: clustering needs a population of slices."""
    if profile.num_slices < thresholds.min_slices:
        return [make_finding(
            "CONF005", f"{profile.num_slices} slice(s)",
            f"fewer than {thresholds.min_slices} slices; SimPoint "
            f"selection degenerates to whole-run simulation",
        )]
    return []


#: FaultPlan.iter_problems codes mapped onto lint rule ids.
_FAULT_PROBLEM_RULES = {
    "unknown-site": "FLT001",
    "bad-probability": "FLT002",
    "bad-hang": "FLT002",
    "bad-mode": "FLT003",
}


def check_fault_plan(
    plan: FaultPlan, job_timeout_s: Optional[float] = None
) -> List[Finding]:
    """Rules FLT001-FLT004: validate an injection plan before it runs.

    The structural problems (unknown site, bad numbers, bad mode) reuse
    :meth:`FaultPlan.iter_problems` — the same checks the pipeline enforces
    at install time — so lint and runtime can never disagree about what a
    valid plan is.  FLT004 adds the one cross-option check lint alone can
    see: a ``worker.hang`` that undershoots the job timeout never exercises
    the timeout/terminate path it presumably exists to test.
    """
    findings = [
        make_finding(_FAULT_PROBLEM_RULES[code], where, message)
        for code, where, message in plan.iter_problems()
        if code in _FAULT_PROBLEM_RULES
    ]
    if job_timeout_s is not None:
        for index, spec in enumerate(plan.faults):
            if spec.site == WORKER_HANG and spec.hang_s <= job_timeout_s:
                findings.append(make_finding(
                    "FLT004", f"faults[{index}] ({spec.site})",
                    f"hang_s {spec.hang_s} <= job_timeout_s {job_timeout_s}"
                    f"; the hang resolves before the timeout fires",
                ))
    return findings


def run_config_passes(
    scale: ReproScale,
    slice_size: int,
    startup_fraction: float,
    profile: Optional[ProfileData] = None,
    flow_window: int = DEFAULT_FLOW_WINDOW,
    thresholds: LintThresholds = DEFAULT_LINT_THRESHOLDS,
) -> List[Finding]:
    """All pipeline-config passes."""
    findings = []
    findings.extend(check_flow_window(slice_size, flow_window, thresholds))
    findings.extend(check_warmup(scale, thresholds))
    findings.extend(check_startup_fraction(startup_fraction))
    if profile is not None:
        findings.extend(check_slice_budget(
            scale, slice_size, profile.filtered_instructions
        ))
        findings.extend(check_slice_population(profile, thresholds))
    return findings
