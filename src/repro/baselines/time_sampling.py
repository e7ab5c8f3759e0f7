"""Fig. 1's cost estimates, time-based sampling (ESESC/COTSon style) among them.

Periodic sampling alternates short detailed windows with fast-forwarding.
Accuracy is decent, but the *whole application* must still be traversed
(functionally or faster), so simulation time scales with application length
— the paper's Fig. 1 argument for why time-based sampling cannot touch
SPEC CPU2017 ref inputs (~a year of simulation), while LoopPoint's cost
scales with application *diversity*.
"""

from __future__ import annotations

from typing import Optional

from ..errors import SimulationError


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
