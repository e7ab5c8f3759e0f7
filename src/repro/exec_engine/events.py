"""The event protocol between thread programs and execution drivers.

A thread's execution is a sequence of these events: block runs and sync
actions.  :func:`~repro.exec_engine.schedcore.compile_streams` compiles a
thread program into per-thread tapes whose sync ops carry the sync events
below, and both drivers run those tapes: the functional
:class:`~repro.exec_engine.engine.ExecutionEngine` (Pin's role) and the
timing :class:`~repro.timing.mcsim.MultiCoreSimulator` (Sniper's role), so
the exact same program runs under both — the paper's binary-driven setup.

Block runs are columns on the tapes (``bids``, ``repeats``), not event
objects.  A run entry may carry ``repeat > 1``: the block (an innermost
self-loop body) executes that many consecutive times.  Batching keeps Python
event counts tractable at ref-input scales without changing observable
semantics — drivers expand batches wherever per-iteration detail matters.
"""

from __future__ import annotations


class Event:
    """Base class for events."""

    __slots__ = ()


class BarrierWait(Event):
    """Arrive at barrier ``barrier_id``; resume once all threads arrived."""

    __slots__ = ("barrier_id",)

    def __init__(self, barrier_id: int) -> None:
        self.barrier_id = barrier_id

    def __repr__(self) -> str:  # pragma: no cover
        return f"BarrierWait({self.barrier_id})"


class LockAcquire(Event):
    """Acquire lock ``lock_id``; resume once owned."""

    __slots__ = ("lock_id",)

    def __init__(self, lock_id: int) -> None:
        self.lock_id = lock_id

    def __repr__(self) -> str:  # pragma: no cover
        return f"LockAcquire({self.lock_id})"


class LockRelease(Event):
    """Release lock ``lock_id`` (must be held by this thread)."""

    __slots__ = ("lock_id",)

    def __init__(self, lock_id: int) -> None:
        self.lock_id = lock_id

    def __repr__(self) -> str:  # pragma: no cover
        return f"LockRelease({self.lock_id})"


class ChunkRequest(Event):
    """Dynamic-schedule work request: driver replies with the next chunk
    start index, or -1 when the iteration space is exhausted."""

    __slots__ = ("loop_id", "chunk_size", "total_iters")

    def __init__(self, loop_id: int, chunk_size: int, total_iters: int) -> None:
        self.loop_id = loop_id
        self.chunk_size = chunk_size
        self.total_iters = total_iters

    def __repr__(self) -> str:  # pragma: no cover
        return f"ChunkRequest(loop={self.loop_id}, chunk={self.chunk_size})"


class SingleRequest(Event):
    """``omp single`` arbitration: driver replies True for exactly one
    thread per ``single_id`` instance."""

    __slots__ = ("single_id",)

    def __init__(self, single_id: int) -> None:
        self.single_id = single_id

    def __repr__(self) -> str:  # pragma: no cover
        return f"SingleRequest({self.single_id})"


class Reduce(Event):
    """OpenMP reduction combine: the driver executes the runtime's combine
    block (library code, atomic update of the shared accumulator)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover
        return "Reduce()"


#: Sync-event kind tags used by the recorder / replayer.
SYNC_BARRIER = "barrier"
#: The release half of a barrier: one per participating thread, emitted by
#: the engine when the last arrival opens the barrier.
SYNC_BARRIER_REL = SYNC_BARRIER + "_rel"
SYNC_LOCK_ACQ = "lock_acq"
SYNC_LOCK_REL = "lock_rel"
SYNC_CHUNK = "chunk"
SYNC_SINGLE = "single"
