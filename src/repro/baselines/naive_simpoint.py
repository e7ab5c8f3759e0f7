"""The naive multi-threaded SimPoint adaptation (Sec. II of the paper).

Slices are fixed *raw* global-instruction-count intervals — spin and
synchronization-library instructions included — fingerprinted with one
aggregate BBV (summed over threads, unfiltered), and region boundaries are
global instruction counts.

Why it fails, per the paper (errors up to 68% with the ACTIVE wait policy):
raw instruction counts are not a unit of *work*.  The profiling run and the
simulation run execute different numbers of spin iterations, so an
instruction-count boundary lands on different application work in each run —
the regions simulated are simply not the regions that were selected.
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
from ..config import GAINESTOWN_8CORE, SystemConfig, get_scale
from ..core.extrapolation import extrapolate_metrics
from ..errors import ProfilingError
from ..exec_engine.observers import Observer
from ..pinplay.pinball import Pinball
from ..pinplay.recorder import record_execution
from ..pinplay.replayer import ConstrainedReplayer
from ..policy import WaitPolicy
from ..timing.mcsim import (
    MultiCoreSimulator,
    RegionOfInterest,
)
from ..workloads.base import Workload


@dataclass
class NaiveSlice:
    """One fixed-size raw-instruction interval."""

    index: int
    start_instr: int
    end_instr: int
    bbv: np.ndarray

    @property
    def instructions(self) -> int:
        return self.end_instr - self.start_instr


@dataclass
class NaiveProfile:
    """All slices of a naive profiling pass."""

    slices: List[NaiveSlice]
    total_instructions: int

    def bbv_matrix(self) -> np.ndarray:
        return np.vstack([s.bbv for s in self.slices])

    def counts(self) -> np.ndarray:
        return np.array([s.instructions for s in self.slices], dtype=np.float64)


class _RawSlicer(Observer):
    """Cuts raw-count slices and collects aggregate, unfiltered BBVs."""

    def __init__(self, nblocks: int, slice_size: int) -> None:
        if slice_size <= 0:
            raise ProfilingError("slice_size must be positive")
        self.slice_size = slice_size
        self._bbv = np.zeros(nblocks, dtype=np.float64)
        self._count = 0
        self._start = 0
        self.slices: List[NaiveSlice] = []

    def on_block(self, tid, block, repeat) -> None:
        n = block.n_instr * repeat
        self._bbv[block.bid] += n
        self._count += n
        if self._count - self._start >= self.slice_size:
            self._close()

    def on_finish(self) -> None:
        if self._count > self._start or not self.slices:
            self._close()

    def _close(self) -> None:
        self.slices.append(
            NaiveSlice(
                index=len(self.slices),
                start_instr=self._start,
                end_instr=self._count,
                bbv=self._bbv.copy(),
            )
        )
        self._bbv[:] = 0.0
        self._start = self._count


class NaiveSimPointPipeline:
    """Profile, cluster, simulate, extrapolate — the naive way."""

    def __init__(
        self,
        workload: Workload,
        system: Optional[SystemConfig] = None,
        wait_policy: WaitPolicy = WaitPolicy.PASSIVE,
        slice_size: Optional[int] = None,
        simpoint: Optional[SimPointOptions] = None,
        record_seed: int = 0,
    ) -> None:
        self.workload = workload
        self.system = system or GAINESTOWN_8CORE.with_cores(
            max(GAINESTOWN_8CORE.num_cores, workload.nthreads)
        )
        self.wait_policy = wait_policy
        self.slice_size = slice_size or get_scale().slice_size(workload.nthreads)
        self.simpoint = simpoint or SimPointOptions()
        self.record_seed = record_seed
        self._pinball: Optional[Pinball] = None
        self._profile: Optional[NaiveProfile] = None
        self._selection: Optional[SimPointSelection] = None

    def record(self) -> Pinball:
        if self._pinball is None:
            w = self.workload
            self._pinball, _ = record_execution(
                w.program, w.thread_program, w.omp, w.nthreads,
                wait_policy=self.wait_policy, seed=self.record_seed,
            )
        return self._pinball

    def profile(self) -> NaiveProfile:
        if self._profile is None:
            slicer = _RawSlicer(self.workload.program.num_blocks, self.slice_size)
            ConstrainedReplayer(
                self.workload.program, self.record(), observers=(slicer,)
            ).run()
            self._profile = NaiveProfile(
                slices=slicer.slices,
                total_instructions=slicer.slices[-1].end_instr,
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
        rois = [
            RegionOfInterest(
                region_id=c.representative,
                start_instr=(
                    None
                    if profile.slices[c.representative].start_instr == 0
                    else profile.slices[c.representative].start_instr
                ),
                end_instr=profile.slices[c.representative].end_instr,
            )
            for c in self.select().clusters
        ]
        rois.sort(key=lambda r: r.region_id)
        return rois

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
            clip_at_end=True,
        )
        predicted = extrapolate_metrics(
            region_results, selection.clusters, allow_missing=True
        )
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
