"""Resilience layer: retry pacing, run manifests, health.

:mod:`repro.resilience.retry` paces retries of failed stages and region
jobs, :mod:`repro.resilience.manifest` is the resumable run journal, and
:mod:`repro.resilience.health` holds the degradation policies and the
``result.health`` block.
"""

from .health import (
    DegradePolicy,
    FailureRecord,
    RunHealth,
    renormalize_clusters,
)
from .manifest import RunManifest
from .retry import RetryPolicy

__all__ = [
    "DegradePolicy",
    "FailureRecord",
    "RetryPolicy",
    "RunHealth",
    "RunManifest",
    "renormalize_clusters",
]
