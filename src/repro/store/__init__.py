"""Multi-process safety for the artifact cache.

The :class:`~repro.store.locks.KeyLock` primitive behind
:meth:`repro.parallel.artifacts.ArtifactCache.get_or_compute`'s
single-flight, and the hygiene scanner behind the ``CACHE001`` lint rule.
"""

from .hygiene import StoreHygieneReport, scan_store
from .locks import DEFAULT_LOCK_POLICY, KeyLock, flock_supported, probe_stale_lock

__all__ = [
    "DEFAULT_LOCK_POLICY",
    "KeyLock",
    "StoreHygieneReport",
    "flock_supported",
    "probe_stale_lock",
    "scan_store",
]
