"""Functional execution of multi-threaded programs.

The :class:`~repro.exec_engine.engine.ExecutionEngine` plays the role Intel
Pin plays in the paper: it runs the program functionally, interleaving
threads under a seeded host scheduler, resolving synchronization, and handing
every dynamic basic-block event to observers (instruction counters, BBV
profilers, the pinball recorder).
"""

from .events import (
    BarrierWait,
    LockAcquire,
    LockRelease,
    ChunkRequest,
    SingleRequest,
)
from .engine import ExecutionEngine, EngineResult, ThreadState
from .flowcontrol import FlowControl
from .observers import Observer

__all__ = [
    "BarrierWait",
    "LockAcquire",
    "LockRelease",
    "ChunkRequest",
    "SingleRequest",
    "ExecutionEngine",
    "EngineResult",
    "ThreadState",
    "FlowControl",
    "Observer",
]
