"""Baseline sampling methodologies the paper compares against.

* :mod:`~repro.baselines.naive_simpoint` — the "naive adaptation of
  Simpoint" of Sec. II: fixed raw-instruction-count slices, aggregate
  (unfiltered, non-concatenated) BBVs, instruction-count region boundaries.
* :mod:`~repro.baselines.barrierpoint` — BarrierPoint (Carlson et al.,
  ISPASS 2014): inter-barrier regions as the unit of work.
* :mod:`~repro.baselines.time_sampling` — Fig. 1's cost model, which
  prices time-based sampling (ESESC-style): bounded speedup because the
  whole application must still be traversed.
"""

from .naive_simpoint import NaiveSimPointPipeline, NaiveProfile
from .barrierpoint import BarrierPointPipeline, BarrierProfile
from .time_sampling import estimate_evaluation_days

__all__ = [
    "NaiveSimPointPipeline",
    "NaiveProfile",
    "BarrierPointPipeline",
    "BarrierProfile",
    "estimate_evaluation_days",
]
