"""BarrierPoint (Carlson et al., ISPASS 2014) over our substrate.

The unit of work is the inter-barrier region: profiling cuts at every
barrier release (explicit ``omp barrier`` and the implicit barriers that end
worksharing constructs), fingerprints each region with filtered per-thread
BBVs, clusters, and simulates representatives delimited by *barrier
ordinals* — which, like loop markers, are stable across runs.

Its failure modes, reproduced here (Fig. 9 of the paper): speedup is bounded
by the largest inter-barrier region, so 638.imagick_s.1-like applications
(one giant region) gain nothing, and 657.xz_s-like applications (no barriers
until the final join) cannot be sampled at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..clustering.simpoint import (
    SimPointOptions,
    SimPointSelection,
    select_simpoints,
)
from ..config import GAINESTOWN_8CORE, SystemConfig
from ..core.extrapolation import extrapolate_metrics
from ..errors import ProfilingError
from ..exec_engine.events import SYNC_BARRIER
from ..exec_engine.observers import Observer
from ..pinplay.pinball import Pinball
from ..pinplay.recorder import record_execution
from ..pinplay.replayer import ConstrainedReplayer
from ..policy import WaitPolicy
from ..profiling.bbv import BBVCollector
from ..profiling.filters import FilterPolicy
from ..timing.mcsim import (
    MultiCoreSimulator,
    RegionOfInterest,
)
from ..workloads.base import Workload


@dataclass
class BarrierRegion:
    """One inter-barrier region: between releases ``start`` and ``end``."""

    index: int
    start_barrier: int  # 0 = program start
    end_barrier: Optional[int]  # None = program end
    bbv: np.ndarray
    filtered_instructions: int
    total_instructions: int


@dataclass
class BarrierProfile:
    regions: List[BarrierRegion]
    total_instructions: int
    filtered_instructions: int

    def bbv_matrix(self) -> np.ndarray:
        return np.vstack([r.bbv for r in self.regions])

    def counts(self) -> np.ndarray:
        return np.array(
            [r.filtered_instructions for r in self.regions], dtype=np.float64
        )

    @property
    def largest_region_instructions(self) -> int:
        return max(r.filtered_instructions for r in self.regions)


class _BarrierSlicer(Observer):
    """Cuts regions at completed barrier releases during a replay."""

    def __init__(
        self, nthreads: int, nblocks: int,
        filter_policy: Optional[FilterPolicy] = None,
    ) -> None:
        self.nthreads = nthreads
        self.bbv = BBVCollector(nthreads, nblocks, filter_policy)
        self.regions: List[BarrierRegion] = []
        self._releases_seen = 0
        self._release_parts = 0
        self._region_start = 0
        self._total = 0
        self._filtered = 0
        self._region_total = 0
        self._region_filtered = 0

    def on_block(self, tid, block, repeat) -> None:
        n = block.n_instr * repeat
        self._total += n
        self._region_total += n
        if not block.image.is_library:
            self._filtered += n
            self._region_filtered += n
        self.bbv.add(tid, block, repeat)

    def on_sync(self, tid, kind, obj_id, response, gseq) -> None:
        if kind != SYNC_BARRIER + "_rel":
            return
        self._release_parts += 1
        if self._release_parts < self.nthreads:
            return
        self._release_parts = 0
        self._releases_seen += 1
        self._close(end=self._releases_seen)

    def on_finish(self) -> None:
        if self._region_total > 0 or not self.regions:
            self._close(end=None)

    def _close(self, end: Optional[int]) -> None:
        self.regions.append(
            BarrierRegion(
                index=len(self.regions),
                start_barrier=self._region_start,
                end_barrier=end,
                bbv=self.bbv.emit(),
                filtered_instructions=self._region_filtered,
                total_instructions=self._region_total,
            )
        )
        self._region_start = end if end is not None else -1
        self._region_total = 0
        self._region_filtered = 0


class BarrierPointPipeline:
    """Profile at barriers, cluster, simulate, extrapolate."""

    def __init__(
        self,
        workload: Workload,
        system: Optional[SystemConfig] = None,
        wait_policy: WaitPolicy = WaitPolicy.PASSIVE,
        simpoint: Optional[SimPointOptions] = None,
        record_seed: int = 0,
    ) -> None:
        self.workload = workload
        self.system = system or GAINESTOWN_8CORE.with_cores(
            max(GAINESTOWN_8CORE.num_cores, workload.nthreads)
        )
        self.wait_policy = wait_policy
        self.simpoint = simpoint or SimPointOptions()
        self.record_seed = record_seed
        self._pinball: Optional[Pinball] = None
        self._profile: Optional[BarrierProfile] = None
        self._selection: Optional[SimPointSelection] = None

    def record(self) -> Pinball:
        if self._pinball is None:
            w = self.workload
            self._pinball, _ = record_execution(
                w.program, w.thread_program, w.omp, w.nthreads,
                wait_policy=self.wait_policy, seed=self.record_seed,
            )
        return self._pinball

    def profile(self) -> BarrierProfile:
        if self._profile is None:
            w = self.workload
            slicer = _BarrierSlicer(w.nthreads, w.program.num_blocks)
            ConstrainedReplayer(
                w.program, self.record(), observers=(slicer,)
            ).run()
            regions = [r for r in slicer.regions if r.filtered_instructions > 0]
            if not regions:
                raise ProfilingError(
                    f"{w.name}: no non-empty inter-barrier regions"
                )
            for i, region in enumerate(regions):
                region.index = i
            self._profile = BarrierProfile(
                regions=regions,
                total_instructions=slicer._total,
                filtered_instructions=slicer._filtered,
            )
        return self._profile

    def select(self) -> SimPointSelection:
        if self._selection is None:
            profile = self.profile()
            self._selection = select_simpoints(
                profile.bbv_matrix(), profile.counts(), self.simpoint
            )
        return self._selection

    def regions(self) -> List[RegionOfInterest]:
        profile = self.profile()
        rois = []
        for c in self.select().clusters:
            region = profile.regions[c.representative]
            rois.append(
                RegionOfInterest(
                    region_id=c.representative,
                    start_barrier=(
                        region.start_barrier if region.start_barrier > 0 else None
                    ),
                    end_barrier=region.end_barrier,
                )
            )
        rois.sort(key=lambda r: r.region_id)
        return rois

    def theoretical_speedups(self) -> tuple:
        """(serial, parallel) theoretical speedups of the selection."""
        profile = self.profile()
        reps = [
            profile.regions[c.representative].filtered_instructions
            for c in self.select().clusters
        ]
        total = float(profile.filtered_instructions)
        return total / sum(reps), total / max(reps)

    def run(self, simulate_full: bool = True):
        """Returns ``(predicted, actual)`` whole-program metrics."""
        selection = self.select()
        sim = MultiCoreSimulator(
            self.workload.program, self.system, self.workload.omp
        )
        region_results = sim.run_binary(
            self.workload.thread_program,
            self.workload.nthreads,
            self.wait_policy,
            regions=self.regions(),
        )
        predicted = extrapolate_metrics(region_results, selection.clusters)
        actual = None
        if simulate_full:
            sim2 = MultiCoreSimulator(
                self.workload.program, self.system, self.workload.omp
            )
            actual = sim2.run_binary(
                self.workload.thread_program,
                self.workload.nthreads,
                self.wait_policy,
            )[0].metrics
        return predicted, actual
