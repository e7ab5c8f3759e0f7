"""Resilience layer: fault injection, retry pacing, run manifests, health.

See :mod:`repro.resilience.faults` for the injection-site catalogue,
:mod:`repro.resilience.manifest` for the resumable run journal, and
:mod:`repro.resilience.health` for degradation policies and the
``result.health`` block.
"""

from .faults import (
    CACHE_CORRUPT,
    JOB_ERROR,
    KMEANS_DIVERGE,
    PIPELINE_ABORT,
    PROFILE_DIVERGENCE,
    REGION_EXTRACT,
    SITES,
    STORE_CRASH_REPLACE,
    STORE_TORN_WRITE,
    WORKER_CRASH,
    WORKER_ERROR,
    WORKER_HANG,
    FaultPlan,
    FaultSpec,
    active_plan,
    clear_fault_plan,
    fault_scope,
    install_fault_plan,
    maybe_inject,
    perform_worker_faults,
    should_fire,
)
from .health import (
    DegradePolicy,
    FailureRecord,
    RunHealth,
    renormalize_clusters,
)
from .manifest import RunManifest
from .retry import RetryPolicy

__all__ = [
    "CACHE_CORRUPT",
    "JOB_ERROR",
    "KMEANS_DIVERGE",
    "PIPELINE_ABORT",
    "PROFILE_DIVERGENCE",
    "REGION_EXTRACT",
    "SITES",
    "STORE_CRASH_REPLACE",
    "STORE_TORN_WRITE",
    "WORKER_CRASH",
    "WORKER_ERROR",
    "WORKER_HANG",
    "DegradePolicy",
    "FailureRecord",
    "FaultPlan",
    "FaultSpec",
    "RetryPolicy",
    "RunHealth",
    "RunManifest",
    "active_plan",
    "clear_fault_plan",
    "fault_scope",
    "install_fault_plan",
    "maybe_inject",
    "perform_worker_faults",
    "renormalize_clusters",
    "should_fire",
]
