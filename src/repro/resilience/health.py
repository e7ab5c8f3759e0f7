"""Structured failure accounting and the graceful-degradation policies.

When a region still fails after the executor's retries *and* its serial
fallback, the pipeline consults a :class:`DegradePolicy`:

* ``FAIL`` — raise, the pre-resilience behavior;
* ``FALLBACK`` — in checkpoint-driven (constrained) mode, re-simulate the
  region binary-driven in the parent (the paper's other simulation mode;
  different distortions, but a real measurement of the same region);
* ``DROP`` — discard the region and renormalize the remaining clusters'
  multipliers so the extrapolation stays an unbiased estimate over the
  retained instruction mass.

Every decision is captured as a :class:`FailureRecord` and rolled up into
the :class:`RunHealth` block attached to every
:class:`~repro.core.looppoint.LoopPointResult` — a run is never silently
degraded.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Any, Dict, List, Optional, Sequence, Set, TYPE_CHECKING, Tuple

from ..errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..clustering.simpoint import ClusterInfo


class DegradePolicy(str, Enum):
    """What to do with a region that failed retries and serial fallback."""

    FAIL = "fail"
    FALLBACK = "fallback"
    DROP = "drop"


@dataclass(frozen=True)
class FailureRecord:
    """One failure the pipeline observed and what it did about it."""

    #: Pipeline stage ("record", "profile", "select", "extract",
    #: "simulate", "manifest").
    stage: str
    #: What went wrong, e.g. "ReplayDivergenceError: ...".
    error: str
    #: The action taken: "retried", "fallback", "dropped", "recomputed",
    #: or "raised".
    action: str
    #: Region the failure belongs to, when stage == "simulate".
    region_id: Optional[int] = None
    #: How many attempts had been spent when the action was taken.
    attempts: int = 1

    def as_dict(self) -> Dict[str, Any]:
        return {
            "stage": self.stage,
            "error": self.error,
            "action": self.action,
            "region_id": self.region_id,
            "attempts": self.attempts,
        }


@dataclass
class RunHealth:
    """The ``result.health`` block: what failed, what it cost, what remains."""

    failures: List[FailureRecord] = field(default_factory=list)
    #: Retries taken — pool re-submissions plus stage-level retries.
    retries: int = 0
    #: Jobs that exhausted the pool retry budget and re-ran in the parent.
    serial_fallbacks: int = 0
    #: Regions re-simulated binary-driven after constrained simulation failed.
    fallback_regions: List[int] = field(default_factory=list)
    #: Regions dropped outright; their mass was redistributed.
    dropped_regions: List[int] = field(default_factory=list)
    #: Stages restored from the manifest + artifact cache by ``--resume``.
    resumed_stages: List[str] = field(default_factory=list)
    #: Fraction of instruction mass still represented after drops (1.0 when
    #: nothing was dropped).
    retained_coverage: float = 1.0

    @property
    def degraded(self) -> bool:
        """True when the result is *not* the one a clean run would produce."""
        return bool(self.fallback_regions or self.dropped_regions)

    @property
    def ok(self) -> bool:
        """True for a clean, uneventful run: no retries, no failures, and
        nothing restored by resume (resume is worth surfacing, not wrong)."""
        return (
            not self.failures
            and self.retries == 0
            and self.serial_fallbacks == 0
            and not self.resumed_stages
            and not self.degraded
        )

    def record(self, failure: FailureRecord) -> None:
        self.failures.append(failure)

    def summary(self) -> str:
        """One grep-able line, mirroring the cache ``stats_line`` idiom."""
        parts = [
            f"retries={self.retries}",
            f"serial_fallbacks={self.serial_fallbacks}",
            f"failures={len(self.failures)}",
        ]
        if self.fallback_regions:
            parts.append(f"fallback_regions={sorted(self.fallback_regions)}")
        if self.dropped_regions:
            parts.append(f"dropped_regions={sorted(self.dropped_regions)}")
        if self.resumed_stages:
            parts.append(f"resumed={','.join(self.resumed_stages)}")
        parts.append(f"coverage={self.retained_coverage * 100:.1f}%")
        parts.append("degraded" if self.degraded else "intact")
        return " ".join(parts)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "failures": [f.as_dict() for f in self.failures],
            "retries": self.retries,
            "serial_fallbacks": self.serial_fallbacks,
            "fallback_regions": sorted(self.fallback_regions),
            "dropped_regions": sorted(self.dropped_regions),
            "resumed_stages": list(self.resumed_stages),
            "retained_coverage": self.retained_coverage,
            "degraded": self.degraded,
        }


def renormalize_clusters(
    clusters: Sequence["ClusterInfo"], dropped: Set[int]
) -> Tuple[List["ClusterInfo"], float]:
    """Remove clusters whose representative was dropped; rescale the rest.

    Extrapolation is ``sum_i metrics_i * multiplier_i`` over the surviving
    representatives; scaling every surviving multiplier by
    ``total_mass / retained_mass`` redistributes the dropped clusters' mass
    proportionally, keeping the prediction an estimate of the *whole*
    program rather than of the surviving fraction.  Returns the new cluster
    list and the retained-coverage fraction.
    """
    kept = [c for c in clusters if c.representative not in dropped]
    if not kept:
        raise SimulationError(
            f"every region failed ({sorted(dropped)}); nothing left to "
            f"extrapolate from"
        )
    total = sum(c.instruction_mass for c in clusters)
    retained = sum(c.instruction_mass for c in kept)
    if total <= 0 or retained <= 0:
        raise SimulationError("cluster instruction mass is not positive")
    factor = total / retained
    rescaled = [replace(c, multiplier=c.multiplier * factor) for c in kept]
    return rescaled, retained / total
