"""Simulation metrics containers."""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass
class SimMetrics:
    """Counts accumulated by the timing simulator.

    ``cycles`` is the region's wall-clock in core cycles (global time), not a
    per-core sum; everything else is summed over cores.
    """

    cycles: int = 0
    instructions: int = 0
    filtered_instructions: int = 0
    branches: int = 0
    branch_mispredicts: int = 0
    l1i_misses: int = 0
    l1d_accesses: int = 0
    l1d_misses: int = 0
    l2_misses: int = 0
    l3_misses: int = 0

    # -- derived -------------------------------------------------------------

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    def _mpki(self, events: int) -> float:
        return 1000.0 * events / self.instructions if self.instructions else 0.0

    @property
    def branch_mpki(self) -> float:
        return self._mpki(self.branch_mispredicts)

    @property
    def l2_mpki(self) -> float:
        return self._mpki(self.l2_misses)

    @property
    def l3_mpki(self) -> float:
        return self._mpki(self.l3_misses)

    # -- arithmetic ------------------------------------------------------------

    def minus(self, other: "SimMetrics") -> "SimMetrics":
        """Counter-wise difference (for start/end snapshots of a region)."""
        return SimMetrics(
            **{
                f.name: getattr(self, f.name) - getattr(other, f.name)
                for f in fields(self)
            }
        )

    def plus(self, other: "SimMetrics") -> "SimMetrics":
        return SimMetrics(
            **{
                f.name: getattr(self, f.name) + getattr(other, f.name)
                for f in fields(self)
            }
        )

    def scaled(self, factor: float) -> "SimMetrics":
        """All counters scaled by ``factor`` (extrapolation weighting)."""
        return SimMetrics(
            **{
                f.name: type(getattr(self, f.name))(
                    getattr(self, f.name) * factor
                )
                for f in fields(self)
            }
        )
