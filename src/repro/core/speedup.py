"""Speedup accounting (Sec. V-B of the paper).

*Theoretical* speedup is the reduction in instructions that must be
simulated in detail (spin instructions excluded): the whole application's
filtered instruction count over the representatives'.  *Actual* speedup
charges what a simulator really pays per region — all instructions including
synchronization, plus its warmup: the warm window a binary-driven sweep ran
(``SimulationResult.warm_instructions``) and any checkpointed warmup
prefix.  *Serial* sums the representatives;
*parallel* assumes enough machines to simulate them concurrently, so the
largest region bounds time-to-results.

*Measured* speedup (ISSUE 2) is none of those estimates: when region
simulations were fanned out across a process pool, the executor's
wall-clock accounting — the sum of per-region wall times over the elapsed
fan-out time — is reported alongside, so the paper's parallel-simulation
claim becomes an observed quantity of every ``jobs>1`` run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..clustering.simpoint import ClusterInfo
from ..errors import ClusteringError
from ..parallel.executor import ExecutionStats
from ..profiling.profile_result import ProfileData
from ..timing.mcsim import SimulationResult


@dataclass(frozen=True)
class SpeedupReport:
    """The four speedup flavours of Figs. 8-10, plus the measured one."""

    theoretical_serial: float
    theoretical_parallel: float
    actual_serial: Optional[float] = None
    actual_parallel: Optional[float] = None
    #: Observed wall-clock accounting of a parallel region fan-out: the
    #: serial cost (see :class:`~repro.parallel.executor.ExecutionStats`),
    #: the elapsed wall time, and their ratio.
    measured_serial_seconds: Optional[float] = None
    measured_parallel_seconds: Optional[float] = None
    measured_speedup: Optional[float] = None
    #: Worker count the measured numbers were taken with.
    measured_workers: Optional[int] = None

    def row(self) -> str:
        def fmt(x: Optional[float]) -> str:
            return f"{x:10.1f}x" if x is not None else "         --"

        return (
            f"{fmt(self.theoretical_serial)} {fmt(self.theoretical_parallel)} "
            f"{fmt(self.actual_serial)} {fmt(self.actual_parallel)} "
            f"{fmt(self.measured_speedup)}"
        )


def compute_speedups(
    profile: ProfileData,
    clusters: Sequence[ClusterInfo],
    warmup_instructions: int = 0,
    region_results: Optional[Sequence[SimulationResult]] = None,
    execution: Optional[ExecutionStats] = None,
) -> SpeedupReport:
    """Speedups of a selection over full-application simulation.

    ``region_results`` (from the detailed sweep) enable the *actual*
    speedups; without them only the theoretical ones are computed.  Each
    region is charged its instructions, its ``warm_instructions`` and
    ``warmup_instructions`` (a region pinball's warmup prefix).
    ``execution`` (a parallel fan-out's wall-clock stats) additionally
    fills the *measured* serial-vs-parallel numbers.
    """
    if not clusters:
        raise ClusteringError("no clusters; cannot compute speedup")
    total_filtered = float(profile.filtered_instructions)
    rep_filtered = [
        float(profile.slices[c.representative].filtered_instructions)
        for c in clusters
    ]
    if min(rep_filtered) <= 0:
        raise ClusteringError("representative with zero filtered instructions")
    theoretical_serial = total_filtered / sum(rep_filtered)
    theoretical_parallel = total_filtered / max(rep_filtered)

    actual_serial = actual_parallel = None
    if region_results is not None:
        total_all = float(profile.total_instructions)
        costs = [
            float(
                r.metrics.instructions + r.warm_instructions
                + warmup_instructions
            )
            for r in region_results
        ]
        if min(costs) <= 0:
            raise ClusteringError("region simulated zero instructions")
        actual_serial = total_all / sum(costs)
        actual_parallel = total_all / max(costs)
    measured_serial_s = measured_parallel_s = measured = workers = None
    if execution is not None and execution.num_jobs > 0:
        measured_serial_s = execution.serial_seconds
        measured_parallel_s = execution.elapsed_seconds
        measured = execution.measured_speedup
        workers = execution.workers
    return SpeedupReport(
        theoretical_serial=theoretical_serial,
        theoretical_parallel=theoretical_parallel,
        actual_serial=actual_serial,
        actual_parallel=actual_parallel,
        measured_serial_seconds=measured_serial_s,
        measured_parallel_seconds=measured_parallel_s,
        measured_speedup=measured,
        measured_workers=workers,
    )
