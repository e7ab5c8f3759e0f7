"""Reference observers the drivers' observer deliveries are tested against.

:class:`InstructionCounter` and :class:`TraceCollector` record what an
:class:`~repro.exec_engine.observers.Observer` sees: instruction totals
split by image and thread, and the raw block and sync streams.  Nothing
in ``src/`` attaches them; tests use them as oracles when comparing
drivers, batching modes and recordings.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, TYPE_CHECKING

import numpy as np

from repro.exec_engine.observers import Observer
from repro.isa.blocks import BasicBlock
from repro.perf.ring import FLAG_LIBRARY

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.perf.ring import EventBatch


class InstructionCounter(Observer):
    """Counts instructions, split by image and by thread.

    Batch deliveries are accepted as column references and reduced only on
    the first counter read: the ring allocates fresh column arrays per
    flush (never reused), so keeping the references is safe, and a run
    whose counters nobody inspects pays one tuple append per flush.
    """

    needs_flush_before_sync = False  # pure accumulator; order-independent

    def __init__(self, nthreads: int) -> None:
        self.nthreads = nthreads
        self._total = 0
        self._filtered = 0  # application (non-library) instructions
        self._per_thread_total = [0] * nthreads
        self._per_thread_filtered = [0] * nthreads
        self._pending: List[tuple] = []

    def on_block(self, tid: int, block: BasicBlock, repeat: int) -> None:
        if self._pending:
            self._drain()
        n = block.n_instr * repeat
        self._total += n
        self._per_thread_total[tid] += n
        if not block.image.is_library:
            self._filtered += n
            self._per_thread_filtered[tid] += n

    def on_block_batch(self, batch: "EventBatch") -> None:
        self._pending.append(
            (batch.tid, batch.repeat, batch.n_instr, batch.flags)
        )

    def _drain(self) -> None:
        nthreads = self.nthreads
        for tid, repeat, n_instr, flags in self._pending:
            n = n_instr * repeat
            self._total += int(n.sum())
            app = (flags & FLAG_LIBRARY) == 0
            self._filtered += int(n[app].sum())
            by_thread = np.bincount(tid, weights=n, minlength=nthreads)
            by_thread_app = np.bincount(
                tid[app], weights=n[app], minlength=nthreads
            )
            for t in range(nthreads):
                self._per_thread_total[t] += int(by_thread[t])
                self._per_thread_filtered[t] += int(by_thread_app[t])
        self._pending.clear()

    @property
    def total(self) -> int:
        if self._pending:
            self._drain()
        return self._total

    @property
    def filtered(self) -> int:
        """Application (non-library) instructions."""
        if self._pending:
            self._drain()
        return self._filtered

    @property
    def per_thread_total(self) -> List[int]:
        if self._pending:
            self._drain()
        return self._per_thread_total

    @property
    def per_thread_filtered(self) -> List[int]:
        if self._pending:
            self._drain()
        return self._per_thread_filtered

    @property
    def library_instructions(self) -> int:
        return self.total - self.filtered


class TraceCollector(Observer):
    """Collects the raw per-thread event stream (tests and DCFG building).

    ``limit`` bounds the memory an accidental unbounded collection can
    take.  Past the cap the collector stops recording and *flags* the
    truncation instead of raising: :attr:`truncated` flips to True and
    :attr:`dropped_blocks` / :attr:`dropped_syncs` count what was lost, so
    downstream consumers can tell a complete trace
    from a clipped one — a fingerprint built from a silently clipped trace
    would misrepresent the run.
    """

    def __init__(self, limit: Optional[int] = 5_000_000) -> None:
        # The block and sync streams are stored separately, so interleaving
        # only matters when a cap can clip them mid-run: truncation must
        # stop the sync stream at the same interleaved point per-event
        # delivery would, hence strict ordering with a finite limit.
        self.needs_flush_before_sync = limit is not None
        # The block trace is stored as ordered parts — lists of
        # ``(tid, bid, repeat)`` tuples from per-event delivery, and raw
        # column triples from batch delivery (kept as numpy arrays: far
        # cheaper to store and only materialized when someone reads
        # :attr:`blocks`).
        self._parts: List = []
        self._tail: List[Tuple[int, int, int]] = []
        self._n_blocks = 0
        self._blocks_cache: Optional[List[Tuple[int, int, int]]] = None
        self._blocks_cache_n = -1
        #: The recorded sync stream, in observed order.
        self.syncs: List[Tuple[int, str, int, object, int]] = []
        self.limit = limit
        #: True once any event was dropped because the cap was reached.
        self.truncated = False
        self.dropped_blocks = 0
        self.dropped_syncs = 0

    @property
    def blocks(self) -> List[Tuple[int, int, int]]:
        """The recorded ``(tid, bid, repeat)`` stream, in observed order."""
        if self._blocks_cache_n != self._n_blocks:
            out: List[Tuple[int, int, int]] = []
            for part in self._parts:
                if isinstance(part, list):
                    out.extend(part)
                else:
                    tids, bids, repeats = part
                    out.extend(
                        zip(tids.tolist(), bids.tolist(), repeats.tolist())
                    )
            out.extend(self._tail)
            self._blocks_cache = out
            self._blocks_cache_n = self._n_blocks
        return self._blocks_cache

    def on_block(self, tid: int, block: BasicBlock, repeat: int) -> None:
        if self.limit is not None and self._n_blocks >= self.limit:
            self.truncated = True
            self.dropped_blocks += 1
            return
        self._tail.append((tid, block.bid, repeat))
        self._n_blocks += 1

    def on_block_batch(self, batch: "EventBatch") -> None:
        take = batch.size
        if self.limit is not None:
            room = self.limit - self._n_blocks
            if room < take:
                take = max(room, 0)
                self.truncated = True
                self.dropped_blocks += batch.size - take
        if take:
            if self._tail:
                self._parts.append(self._tail)
                self._tail = []
            self._parts.append(
                (batch.tid[:take], batch.bid[:take], batch.repeat[:take])
            )
            self._n_blocks += take

    def on_sync(
        self, tid: int, kind: str, obj_id: int, response, gseq: int
    ) -> None:
        if self.truncated:
            # A clipped block stream makes the sync stream past the cut
            # meaningless for replay alignment; stop recording both.
            self.dropped_syncs += 1
            return
        self.syncs.append((tid, kind, obj_id, response, gseq))
