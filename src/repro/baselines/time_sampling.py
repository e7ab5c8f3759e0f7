"""Time-based sampling (ESESC/COTSon style) and Fig. 1's cost estimates.

Periodic sampling alternates short detailed windows with fast-forwarding.
Accuracy is decent, but the *whole application* must still be traversed
(functionally or faster), so simulation time scales with application length
— the paper's Fig. 1 argument for why time-based sampling cannot touch
SPEC CPU2017 ref inputs (~a year of simulation), while LoopPoint's cost
scales with application *diversity*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..config import GAINESTOWN_8CORE, SystemConfig
from ..errors import SimulationError
from ..policy import WaitPolicy
from ..timing.mcsim import MultiCoreSimulator, RegionOfInterest
from ..timing.metrics import SimMetrics
from ..workloads.base import Workload


@dataclass
class TimeSamplingResult:
    """Outcome of a periodic-sampling run."""

    predicted: SimMetrics
    actual: Optional[SimMetrics]
    num_samples: int
    detailed_instructions: int
    total_instructions: int

    @property
    def runtime_error_pct(self) -> Optional[float]:
        if self.actual is None:
            return None
        return (
            100.0
            * abs(self.predicted.cycles - self.actual.cycles)
            / self.actual.cycles
        )


def run_time_sampling(
    workload: Workload,
    wait_policy: WaitPolicy = WaitPolicy.PASSIVE,
    system: Optional[SystemConfig] = None,
    detail_instructions: int = 10_000,
    period_instructions: int = 100_000,
    simulate_full: bool = True,
) -> TimeSamplingResult:
    """Sample ``detail_instructions`` every ``period_instructions``.

    Runtime is extrapolated per sample window: each detailed window's cycles
    are scaled by ``period / detail`` — time-based extrapolation over the
    fast-forwarded gaps.
    """
    if not 0 < detail_instructions <= period_instructions:
        raise SimulationError(
            "need 0 < detail_instructions <= period_instructions"
        )
    system = system or GAINESTOWN_8CORE.with_cores(
        max(GAINESTOWN_8CORE.num_cores, workload.nthreads)
    )
    approx_total = workload.approximate_instructions()
    regions = []
    start = 0
    rid = 0
    while start < approx_total:
        regions.append(
            RegionOfInterest(
                region_id=rid,
                start_instr=start if start else None,
                end_instr=start + detail_instructions,
            )
        )
        rid += 1
        start += period_instructions
    sim = MultiCoreSimulator(workload.program, system, workload.omp)
    results = sim.run_binary(
        workload.thread_program, workload.nthreads, wait_policy,
        regions=regions,
    )
    scale = period_instructions / detail_instructions
    predicted = SimMetrics()
    detailed_instr = 0
    for r in results:
        predicted = predicted.plus(r.metrics.scaled(scale))
        detailed_instr += r.metrics.instructions

    actual = None
    total_instr = 0
    if simulate_full:
        sim2 = MultiCoreSimulator(workload.program, system, workload.omp)
        full = sim2.run_binary(
            workload.thread_program, workload.nthreads, wait_policy
        )[0]
        actual = full.metrics
        total_instr = full.metrics.instructions
    return TimeSamplingResult(
        predicted=predicted,
        actual=actual,
        num_samples=len(results),
        detailed_instructions=detailed_instr,
        total_instructions=total_instr or approx_total,
    )


#: Fig. 1 cost model: detailed simulation speed assumed in the paper.
DETAILED_KIPS = 100.0
#: Functional fast-forward / profiling speed (instructions per second).
FUNCTIONAL_MIPS = 10.0


def estimate_evaluation_days(
    total_instructions: float,
    method: str,
    representative_instructions: Optional[float] = None,
    largest_region_instructions: Optional[float] = None,
    detailed_kips: float = DETAILED_KIPS,
    functional_mips: float = FUNCTIONAL_MIPS,
) -> float:
    """Days to evaluate one benchmark under a methodology (Fig. 1).

    ``full``: simulate everything in detail.  ``time-based``: detailed
    sampling plus functional traversal of the rest.  ``barrierpoint`` /
    ``looppoint``: detailed simulation of the representatives only, in
    parallel (the longest region bounds time-to-results), plus a one-time
    functional profiling pass.
    """
    det = detailed_kips * 1e3  # instructions per second, detailed
    fun = functional_mips * 1e6
    if method == "full":
        seconds = total_instructions / det
    elif method == "time-based":
        sampled = total_instructions * 0.10
        seconds = sampled / det + (total_instructions - sampled) / fun
    elif method in ("barrierpoint", "looppoint"):
        if largest_region_instructions is None:
            raise SimulationError(f"{method} estimate needs the largest region")
        seconds = largest_region_instructions / det + total_instructions / fun
    else:
        raise SimulationError(f"unknown methodology {method!r}")
    return seconds / 86_400.0
