"""Observer interface for execution drivers.

The functional engine and the constrained replayer publish the same
callbacks, so profiling tools (BBV collection, marker counting, recording)
are driver-agnostic — like pintools that work under both Pin and PinPlay.

Events arrive through three delivery methods.  Block events come one at a
time through :meth:`Observer.on_block` or as parallel numpy columns through
:meth:`Observer.on_block_batch` (see :class:`repro.perf.ring.EventBatch`);
sync events come one at a time, in gseq order, through
:meth:`Observer.on_sync`.  Both drivers deliver syncs under one rule: the
block ring is flushed before each sync unless every attached observer
cleared :attr:`Observer.needs_flush_before_sync`.  Observers that read
their block state inside ``on_sync`` keep it (the lint concurrency
analyzer, the baseline slicers); the pinball
recorder instead places each sync by ring index (see
:class:`~repro.perf.ring.EventRing`).  The base class replays
each batch through :meth:`Observer.on_block`, so an observer that only
defines the per-event methods sees identical calls under either driver;
observers on hot paths override ``on_block_batch`` with vectorized
reductions.
"""

from __future__ import annotations

from typing import List, Tuple, TYPE_CHECKING

from ..isa.blocks import BasicBlock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..perf.ring import EventBatch


class Observer:
    """Base observer; subclasses override what they need."""

    #: Whether a driver must flush buffered block events before delivering
    #: ``on_sync``.  True (the safe default) preserves the exact per-event
    #: block/sync interleaving for observers that correlate the two streams
    #: (vector clocks).  Observers whose final state does not depend on
    #: that interleaving — pure counters, pure logs, DCFG edges — set this
    #: False; when every attached observer does, the ring keeps its batches
    #: across syncs, so sync-dense programs still flush full batches.
    needs_flush_before_sync = True

    def on_block(self, tid: int, block: BasicBlock, repeat: int) -> None:
        """``block`` executed ``repeat`` times on ``tid``."""

    def on_block_batch(self, batch: "EventBatch") -> None:
        """A batch of block events in execution order.

        The default replays the batch through :meth:`on_block` per event —
        the compatibility shim that keeps per-event observers (and the lint
        concurrency passes) semantics-identical under batching drivers.
        """
        blocks = batch.blocks
        on_block = self.on_block
        tids = batch.tid.tolist()
        bids = batch.bid.tolist()
        repeats = batch.repeat.tolist()
        for i in range(batch.size):
            on_block(tids[i], blocks[bids[i]], repeats[i])

    def on_sync(
        self, tid: int, kind: str, obj_id: int, response, gseq: int
    ) -> None:
        """A synchronization action with global sequence number ``gseq``."""

    def on_finish(self) -> None:
        """Execution completed."""


class SyncEventLog(Observer):
    """Records the synchronization event stream, split per thread.

    The lint concurrency passes read its per-thread barrier sequences
    (divergence detection); the global ``gseq`` order lets tests compare
    what two drivers delivered.
    Works under both the functional engine and constrained replay, since
    both deliver every sync through :meth:`Observer.on_sync` in gseq order.
    """

    # Records only the sync stream (gseq values come from the driver), so
    # block-batch flush timing cannot affect its final state.
    needs_flush_before_sync = False

    def on_block_batch(self, batch: "EventBatch") -> None:
        """No-op: block events carry nothing this log records.

        (Without this override the base-class shim would replay every
        batch through the no-op ``on_block`` one event at a time.)
        """

    def __init__(self, nthreads: int) -> None:
        self.nthreads = nthreads
        #: Per-thread ``(kind, obj_id, gseq)`` sequences, in observed order.
        self.per_thread: List[List[Tuple[str, int, int]]] = [
            [] for _ in range(nthreads)
        ]
        #: Every gseq value in observation order.
        self.gseq_order: List[int] = []

    def on_sync(
        self, tid: int, kind: str, obj_id: int, response, gseq: int
    ) -> None:
        self.per_thread[tid].append((kind, obj_id, gseq))
        self.gseq_order.append(gseq)

    def barrier_sequence(self, tid: int, kind: str = "barrier") -> List[int]:
        """Barrier object ids thread ``tid`` arrived at, in order."""
        return [
            obj_id for (k, obj_id, _g) in self.per_thread[tid] if k == kind
        ]
