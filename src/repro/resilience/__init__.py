"""Resilience layer: retry pacing and health.

:mod:`repro.resilience.retry` paces retries of failed region jobs, and
:mod:`repro.resilience.health` holds the degradation policies and the
``result.health`` block.  A killed run restarts from the artifact cache
(:mod:`repro.parallel.artifacts`): rerun the same command against the
same cache directory.
"""

from .health import (
    DegradePolicy,
    FailureRecord,
    RunHealth,
    renormalize_clusters,
)
from .retry import RetryPolicy

__all__ = [
    "DegradePolicy",
    "FailureRecord",
    "RetryPolicy",
    "RunHealth",
    "renormalize_clusters",
]
