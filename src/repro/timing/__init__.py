"""Multicore timing simulation (Sniper's role in the paper).

An interval-style out-of-order core model (plus an in-order variant), a
Pentium-M-like branch predictor, and a private-L1/L2, shared-L3 LRU cache
hierarchy with invalidation-based sharing, per Table I.  The simulator runs
the same per-thread tapes as the functional engine (binary-driven
unconstrained simulation), an ELFie's tapes, or a region pinball's tapes
under the recorded sync order (checkpoint-driven constrained simulation),
all on one timed thread loop.
"""

from .metrics import SimMetrics
from .cache import Cache
from .branch import BranchPredictor
from .hierarchy import MemoryHierarchy
from .core import CoreModel
from .mcsim import MultiCoreSimulator, RegionOfInterest, SimulationResult

__all__ = [
    "SimMetrics",
    "Cache",
    "BranchPredictor",
    "MemoryHierarchy",
    "CoreModel",
    "MultiCoreSimulator",
    "RegionOfInterest",
    "SimulationResult",
]
