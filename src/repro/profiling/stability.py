"""Automated stable-region analysis.

Section V-A.1 of the paper: "not all region boundaries specified using
(PC, count) can provide stable regions ... We assume that the users can
choose the appropriate stable regions, and that, while straight-forward to
accomplish in an automated way, we leave that analysis to future work."

This module is that analysis.  A region is *stable* when the relative order
of its boundary-marker crossings is the same in every execution: if the
start marker of one region can overtake the end marker of another under a
different interleaving, region contents shift between runs.  We verify
stability empirically: record several executions under different host
seeds (and optionally the other wait policy), profile each, and check that

1. every marker `(PC, count)` boundary re-occurs with identical counts, and
2. the *interleaving margin* — how far apart consecutive boundary crossings
   are in global filtered instructions — exceeds the maximum observed
   inter-thread drift, so no realistic schedule can reorder them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..errors import ProfilingError
from ..exec_engine.flowcontrol import DEFAULT_FLOW_WINDOW, FlowControl
from ..isa.image import Program
from ..pinplay.recorder import record_execution
from ..policy import WaitPolicy
from ..runtime.omp import OmpRuntime
from ..runtime.thread import ThreadProgram
from .profile_result import ProfileData, profile_pinball


@dataclass
class RegionStability:
    """Verdict for one slice boundary."""

    slice_index: int
    marker_pc: Optional[int]
    marker_count: Optional[int]
    #: Boundary re-occurred identically in every profiled execution.
    reproducible: bool
    #: Global filtered-instruction gap to the nearest other boundary of a
    #: *different* marker PC; small gaps are vulnerable to reordering.
    crossing_margin: int

    def is_stable(self, drift_bound: int) -> bool:
        return self.reproducible and self.crossing_margin >= drift_bound


@dataclass
class StabilityReport:
    """Outcome of the multi-execution stability analysis."""

    regions: List[RegionStability]
    executions: int
    #: Largest inter-thread progress drift observed across recordings.
    drift_bound: int

    @property
    def stable_fraction(self) -> float:
        if not self.regions:
            return 1.0
        stable = sum(1 for r in self.regions if r.is_stable(self.drift_bound))
        return stable / len(self.regions)

    def unstable_slices(self) -> List[int]:
        return [
            r.slice_index for r in self.regions
            if not r.is_stable(self.drift_bound)
        ]


def analyze_stability(
    program: Program,
    thread_program: ThreadProgram,
    omp: OmpRuntime,
    nthreads: int,
    slice_size: int,
    *,
    seeds: Sequence[int] = (0, 101, 202),
    wait_policies: Sequence[WaitPolicy] = (WaitPolicy.ACTIVE,),
    flow_window: int = DEFAULT_FLOW_WINDOW,
) -> StabilityReport:
    """Profile several independent recordings and cross-check boundaries."""
    if not seeds:
        raise ProfilingError("need at least one seed")
    profiles: List[ProfileData] = []
    for policy in wait_policies:
        for seed in seeds:
            pinball, _ = record_execution(
                program, thread_program, omp, nthreads,
                wait_policy=policy, seed=seed,
                flow_control=FlowControl(flow_window),
            )
            profiles.append(profile_pinball(program, pinball, slice_size))

    reference = profiles[0]
    # Drift bound: the flow-control window bounds recording drift; the
    # unconstrained simulation drift is bounded by a few scheduling quanta.
    # Use twice the window per thread as the conservative envelope.
    drift_bound = 2 * flow_window

    regions: List[RegionStability] = []
    boundaries = [
        (s.index, s.end, s.start_filtered + s.filtered_instructions)
        for s in reference.slices
    ]
    for index, marker, coordinate in boundaries:
        if marker is None:
            regions.append(
                RegionStability(index, None, None, True, 1 << 62)
            )
            continue
        reproducible = all(
            index < p.num_slices and p.slices[index].end == marker
            for p in profiles[1:]
        )
        # Margin to the nearest boundary with a *different* marker PC:
        # same-PC boundaries are totally ordered by their counts and can
        # never reorder; cross-PC boundaries can.
        margin = 1 << 62
        for other_index, other_marker, other_coord in boundaries:
            if other_index == index or other_marker is None:
                continue
            if other_marker.pc == marker.pc:
                continue
            margin = min(margin, abs(other_coord - coordinate))
        regions.append(
            RegionStability(
                slice_index=index,
                marker_pc=marker.pc,
                marker_count=marker.count,
                reproducible=reproducible,
                crossing_margin=margin,
            )
        )
    return StabilityReport(
        regions=regions,
        executions=len(profiles),
        drift_bound=drift_bound,
    )
