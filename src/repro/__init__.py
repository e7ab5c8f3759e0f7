"""LoopPoint reproduction: checkpoint-driven sampled simulation for
multi-threaded applications (Sabu, Patil, Heirman, Carlson — HPCA 2022).

Quickstart::

    from repro import get_workload, LoopPointPipeline, LoopPointOptions, WaitPolicy

    workload = get_workload("demo-matrix-1", nthreads=8)
    pipeline = LoopPointPipeline(
        workload, options=LoopPointOptions(wait_policy=WaitPolicy.PASSIVE)
    )
    result = pipeline.run()
    print(result.runtime_error_pct, result.speedup.theoretical_parallel)

Package map (see DESIGN.md for the full inventory):

* :mod:`repro.isa` / :mod:`repro.runtime` — the synthetic multi-threaded
  program model (binaries + OpenMP-like runtime).
* :mod:`repro.exec_engine` — functional execution (Pin's role).
* :mod:`repro.pinplay` — record/replay pinballs (PinPlay's role).
* :mod:`repro.dcfg` / :mod:`repro.profiling` / :mod:`repro.clustering` —
  the up-front analysis: DCFG loops, loop-aligned slices, filtered BBVs,
  SimPoint clustering.
* :mod:`repro.timing` — the multicore timing simulator (Sniper's role).
* :mod:`repro.core` — the LoopPoint pipeline itself.
* :mod:`repro.parallel` — process-pool fan-out of checkpoint-driven
  region pinballs (``LoopPointOptions.jobs`` / ``REPRO_JOBS``) + on-disk
  artifact cache (``--cache-dir``).
* :mod:`repro.baselines` — naive SimPoint, BarrierPoint, time-based sampling.
* :mod:`repro.workloads` — SPEC CPU2017-like / NPB-like workload models.
"""

from .config import (
    GAINESTOWN_8CORE,
    GAINESTOWN_16CORE,
    ReproScale,
    SystemConfig,
    get_scale,
)
from .core.looppoint import LoopPointOptions, LoopPointPipeline, LoopPointResult
from .core.speedup import SpeedupReport, compute_speedups
from .errors import ReproError
from .parallel import ArtifactCache, ExecutionStats
from .policy import WaitPolicy
from .timing.mcsim import MultiCoreSimulator, RegionOfInterest
from .timing.metrics import SimMetrics
from .workloads.registry import get_workload, list_workloads

__version__ = "1.0.0"

__all__ = [
    "GAINESTOWN_8CORE",
    "GAINESTOWN_16CORE",
    "ReproScale",
    "SystemConfig",
    "get_scale",
    "LoopPointOptions",
    "LoopPointPipeline",
    "LoopPointResult",
    "SpeedupReport",
    "compute_speedups",
    "ReproError",
    "ArtifactCache",
    "ExecutionStats",
    "WaitPolicy",
    "MultiCoreSimulator",
    "RegionOfInterest",
    "SimMetrics",
    "get_workload",
    "list_workloads",
    "__version__",
]
