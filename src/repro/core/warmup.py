"""Warmup placement for region simulation (Sec. III-F).

Binary-driven simulation warms each looppoint in the sweep that reaches
it.  A region's ``warm_start`` marker bounds that warmup: the sweep
fast-forwards functionally up to it and warms caches and predictor with the
full cost model from there to the region start.
:func:`binary_warm_starts` places those markers on slice boundaries.
Checkpoint-driven simulation instead prepends a warmup prefix to each
region pinball; :func:`region_cuts_for_selection` computes the per-region
cut specifications for that.
"""

from __future__ import annotations

from bisect import bisect_right
from enum import Enum
from typing import List, Optional, Sequence

from ..clustering.simpoint import ClusterInfo
from ..errors import RegionError
from ..pinplay.region import RegionCut
from ..profiling.markers import Marker
from ..profiling.profile_result import ProfileData
from ..profiling.slicer import Slice

#: Per-thread filtered instructions a binary-driven looppoint is warmed for.
#: Measured against perfect warmup on the 23 passive 8-thread SPEC train
#: and NPB class C apps at small scale: 2**17 moves the region metrics of
#: 9 apps (627.cam4_s.1: 6.98% -> 1.71% error), 2**18 those of one
#: (603.bwaves_s.2: 6.96% -> 6.85%, its tail looppoint), 2**19 of none but
#: bounds fewer looppoints.  Caches do not scale with the input, so
#: neither does this.
BINARY_WARMUP_PER_THREAD = 2**18


class WarmupStrategy(Enum):
    """How a region pinball's microarchitectural state is warmed."""

    #: Replay a recorded warmup prefix before the region (checkpoint mode).
    CHECKPOINT_PREFIX = "checkpoint-prefix"
    #: No warmup at all (for ablation: shows cold-start error).
    NONE = "none"


def _warm_from(s: Slice, warm: int) -> int:
    """Filtered coordinate ``warm`` instructions before slice ``s``."""
    return max(0, s.start_filtered - warm)


def region_cuts_for_selection(
    profile: ProfileData,
    clusters: Sequence[ClusterInfo],
    warmup_instructions: int,
    strategy: WarmupStrategy = WarmupStrategy.CHECKPOINT_PREFIX,
) -> List[RegionCut]:
    """Build :class:`RegionCut` specs for every cluster representative.

    ``warmup_instructions`` is a global filtered-instruction budget placed
    immediately before the region start (clamped at program start).
    """
    if warmup_instructions < 0:
        raise RegionError("warmup_instructions must be >= 0")
    warm = 0 if strategy is WarmupStrategy.NONE else warmup_instructions
    cuts = []
    for cluster in clusters:
        s = profile.slices[cluster.representative]
        cuts.append(
            RegionCut(
                region_id=cluster.representative,
                start=s.start,
                end=s.end,
                warmup_filtered=_warm_from(s, warm),
            )
        )
    return cuts


def binary_warm_starts(
    profile: ProfileData, representatives: Sequence[int]
) -> List[Optional[Marker]]:
    """Warm-start markers for looppoints given as slice indices in run order.

    Each is the latest slice boundary at least
    ``BINARY_WARMUP_PER_THREAD × nthreads`` filtered instructions before its
    region.  ``None`` (warm from the previous looppoint's end, or program
    start) when that boundary is program start or falls at or before the
    previous looppoint's end: there is no gap to fast-forward over.
    """
    warm = BINARY_WARMUP_PER_THREAD * profile.nthreads
    boundaries = [s.start_filtered for s in profile.slices]
    starts: List[Optional[Marker]] = []
    prev = -1
    for rep in representatives:
        target = _warm_from(profile.slices[rep], warm)
        j = bisect_right(boundaries, target) - 1
        starts.append(
            profile.slices[j].start if target > 0 and j > prev + 1 else None
        )
        prev = rep
    return starts
