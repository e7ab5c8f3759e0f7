"""Parallel region simulation and persistent artifacts.

Two cooperating subsystems turn the paper's parallel-simulation claim into
an observable quantity:

* :mod:`~repro.parallel.executor` fans independent region-pinball
  simulations out across a process pool and measures the resulting
  serial-vs-parallel wall-clock speedup;
* :mod:`~repro.parallel.artifacts` persists the record/profile/select
  stage outputs on disk, content-addressed, so repeated runs skip straight
  to simulation.
"""

from .artifacts import CACHE_VERSION, ArtifactCache, CacheError, canonical_key
from .executor import (
    DEFAULT_JOB_TIMEOUT_S,
    ExecutionOutcome,
    ExecutionStats,
    run_region_jobs,
)
from .jobs import RegionJob, WorkloadSpec, execute_region_job

__all__ = [
    "ArtifactCache",
    "CACHE_VERSION",
    "CacheError",
    "canonical_key",
    "DEFAULT_JOB_TIMEOUT_S",
    "ExecutionOutcome",
    "ExecutionStats",
    "run_region_jobs",
    "RegionJob",
    "WorkloadSpec",
    "execute_region_job",
]
