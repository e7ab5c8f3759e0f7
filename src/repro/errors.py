"""Exception hierarchy for the repro package.

Every error raised on purpose by this library derives from :class:`ReproError`
so callers can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ProgramStructureError(ReproError):
    """A static program (images, routines, blocks) is malformed."""


class ExecutionError(ReproError):
    """The functional execution engine hit an inconsistent state."""


class DeadlockError(ExecutionError):
    """All runnable threads are blocked on synchronization."""


class ReplayError(ReproError):
    """A pinball could not be replayed (corrupt log or divergence)."""


class ReplayDivergenceError(ReplayError):
    """Replayed execution diverged from the recorded one."""


class ProfilingError(ReproError):
    """Profiling/slicing failed (e.g. no valid loop boundary found)."""


class ClusteringError(ReproError):
    """Clustering could not produce a valid set of representatives."""


class SimulationError(ReproError):
    """The timing simulator hit an inconsistent state."""


class RegionError(ReproError):
    """A (PC, count) region specification is invalid or was never reached."""


class WorkloadError(ReproError):
    """An unknown workload, input class, or configuration was requested."""


class CacheError(ReproError):
    """The artifact cache directory is unusable or a key is malformed.

    Cache *misses* are never errors — a miss just recomputes the stage.
    """


class ResumeError(ReproError):
    """A run manifest cannot be resumed against the current options."""
