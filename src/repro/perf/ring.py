"""The batched event hot path: a fixed-capacity block-event ring.

Per-event observer dispatch is the wall-clock bottleneck of every
functional execution and constrained replay: each ``BlockExec`` used to be
routed one at a time through a Python ``for ob in observers`` loop, costing
several function calls and attribute chases per event.  The
:class:`EventRing` instead accumulates block events into a fixed-capacity
ring and flushes them to observers as an :class:`EventBatch` — six parallel
numpy columns ``(tid, bid, repeat, n_instr, flags, start_index)`` — so
observers can reduce whole batches with ``np.add.at``/``np.bincount``
instead of doing per-event Python work.

Ordering contract: the ring holds block events only; sync events go to
``on_sync`` one at a time.  When any attached observer sets
``needs_flush_before_sync`` (the :class:`~repro.exec_engine.observers.
Observer` base default — correct for third-party observers of unknown
ordering sensitivity), the driver calls :meth:`EventRing.flush` before
delivering each ``on_sync`` event, so observers that correlate block and
synchronization streams (recorders, the lint concurrency passes, DCFG
building) see the exact per-event execution order.  The engine and the
replayer both check :attr:`EventRing.flush_on_sync` for this.  Observers
whose final state is independent of block/sync interleaving (the built-in
counters, logs and unbounded trace collectors) clear the flag; when every
attached observer does, the ring keeps its batches across syncs —
otherwise a program with a sync every few blocks would flush near-empty
batches and numpy fixed costs would swamp the win.  ``on_finish`` always
requires a final flush.  Within a batch, events appear in execution
order.

Observers that only implement the per-event :meth:`Observer.on_block`
callback keep working unchanged: the base class's ``on_block_batch``
replays the batch through ``on_block`` one event at a time (the
compatibility shim), so third-party observers see identical calls.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

#: ``flags`` column bit: the block lives in a library image (spin or
#: synchronization code, filtered out of BBV work).
FLAG_LIBRARY = 1

#: Default ring capacity (events buffered between flushes).  Large enough
#: to amortize the numpy fixed costs, small enough that a batch's columns
#: stay cache-resident.
DEFAULT_CAPACITY = 8192

#: Batches smaller than this are delivered per-event through ``on_block``
#: instead of being materialized as numpy columns: below this size the
#: fixed cost of array construction plus the argsort-based start-index
#: reconstruction exceeds plain Python dispatch.  Only order-strict
#: observer sets (``flush_on_sync`` rings flushing at every sync) ever see
#: batches this small in steady state.
SMALL_BATCH_THRESHOLD = 48


class EventBatch:
    """One flushed batch of block events as parallel numpy columns.

    ``start_index[i]`` is thread ``tid[i]``'s execution count of block
    ``bid[i]`` *before* event ``i`` — the same value a per-event
    ``on_block`` call receives — reconstructed vectorially at flush time.
    When no attached observer declares ``needs_start_index``, the ring
    skips the reconstruction and ``start_index`` is ``None``.
    ``blocks`` is the program's block table so shims (and observers that
    need block attributes not carried by a column) can resolve ``bid``.
    """

    __slots__ = (
        "size", "tid", "bid", "repeat", "n_instr", "flags", "start_index",
        "blocks",
    )

    def __init__(
        self,
        size: int,
        tid: np.ndarray,
        bid: np.ndarray,
        repeat: np.ndarray,
        n_instr: np.ndarray,
        flags: np.ndarray,
        start_index: np.ndarray,
        blocks: Sequence,
    ) -> None:
        self.size = size
        self.tid = tid
        self.bid = bid
        self.repeat = repeat
        self.n_instr = n_instr
        self.flags = flags
        self.start_index = start_index
        self.blocks = blocks

    @property
    def instructions(self) -> np.ndarray:
        """Per-event instruction counts (``n_instr * repeat``)."""
        return self.n_instr * self.repeat

    @property
    def is_library(self) -> np.ndarray:
        """Per-event boolean mask: block lives in a library image."""
        return (self.flags & FLAG_LIBRARY) != 0


def batch_start_indices(
    tid: np.ndarray,
    bid: np.ndarray,
    repeat: np.ndarray,
    flat_counts: np.ndarray,
    nblocks: int,
) -> np.ndarray:
    """Per-event pre-execution counts for a batch; updates ``flat_counts``.

    ``flat_counts`` is the flattened ``(nthreads * nblocks)`` execution-count
    table *before* the batch; it is advanced in place to the post-batch
    state.  Within the batch, an event's start index is the table value plus
    the sum of earlier same-``(tid, bid)`` repeats — an exclusive prefix sum
    segmented by key, computed with one stable argsort.
    """
    key = tid * nblocks + bid
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    sorted_repeat = repeat[order]
    inclusive = np.cumsum(sorted_repeat)
    exclusive = inclusive - sorted_repeat
    is_group_start = np.empty(len(sorted_key), dtype=bool)
    is_group_start[0] = True
    np.not_equal(sorted_key[1:], sorted_key[:-1], out=is_group_start[1:])
    group_id = np.cumsum(is_group_start) - 1
    group_base = exclusive[is_group_start]
    within_group = exclusive - group_base[group_id]
    start_sorted = flat_counts[sorted_key] + within_group
    start = np.empty_like(start_sorted)
    start[order] = start_sorted
    # Advance the table by each key's total batch repeat: the group's last
    # inclusive sum minus its base.
    group_start_pos = np.flatnonzero(is_group_start)
    group_end_pos = np.append(group_start_pos[1:], len(sorted_key)) - 1
    flat_counts[sorted_key[group_start_pos]] += (
        inclusive[group_end_pos] - group_base
    )
    return start


class EventRing:
    """Fixed-capacity block-event ring shared by the engine and replayer.

    :meth:`append` is the per-event hot path and does the minimum possible
    work (one interning lookup, one list append and a capacity check); the
    per-event columns — ``tid``/``bid``/``repeat`` decoded through per-code
    tables, ``n_instr``/``flags`` from per-block tables, ``start_index``
    from the running execution-count table — materialize vectorially at
    flush.

    The ring owns the authoritative execution-count table while batching is
    active: drivers read it back through :meth:`exec_counts` after the final
    flush instead of maintaining per-event nested-list counts.
    """

    def __init__(
        self,
        blocks: Sequence,
        nthreads: int,
        observers: Sequence,
        capacity: int = DEFAULT_CAPACITY,
        initial_exec_counts=None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"ring capacity must be >= 1, got {capacity}")
        self.blocks = blocks
        self.nthreads = nthreads
        self.capacity = capacity
        self.observers = list(observers)
        #: Whether the driver must flush before delivering ``on_sync``.
        #: True if any observer wants strict block/sync ordering (the
        #: conservative default for observers that do not say otherwise).
        self.flush_on_sync = any(
            getattr(ob, "needs_flush_before_sync", True)
            for ob in self.observers
        )
        #: Whether any observer reads ``EventBatch.start_index``.  When
        #: none does (every built-in batch consumer stores or reduces the
        #: raw columns), flush skips the argsort-based reconstruction and
        #: advances the count table with a scatter-add; the batch then
        #: carries ``start_index=None``.
        self.need_start_index = any(
            getattr(ob, "needs_start_index", True)
            for ob in self.observers
        )
        nblocks = len(blocks)
        self._nblocks = nblocks
        self._n_instr_by_bid = np.array(
            [b.n_instr for b in blocks], dtype=np.int64
        )
        self._flags_by_bid = np.array(
            [FLAG_LIBRARY if b.image.is_library else 0 for b in blocks],
            dtype=np.int64,
        )
        if initial_exec_counts is not None:
            self._flat_counts = np.asarray(
                initial_exec_counts, dtype=np.int64
            ).reshape(-1).copy()
            if self._flat_counts.shape[0] != nthreads * nblocks:
                raise ValueError("initial_exec_counts shape mismatch")
        else:
            self._flat_counts = np.zeros(nthreads * nblocks, dtype=np.int64)
        # Row interning: the event stream is massively repetitive (a
        # handful of distinct ``(tid, bid, repeat)`` rows cover a whole
        # run), so the buffer holds small integer *codes* instead of
        # tuples and the per-event columns decode at flush time through
        # tiny per-code lookup tables — one ``np.fromiter`` over the
        # codes instead of three over raw columns.
        self._codes: List[int] = []
        self._code_of: dict = {}
        self._code_rows: List[tuple] = []
        self._tab_len = 0
        self._tab_tid = self._tab_bid = self._tab_rep = None
        self._tab_key = self._tab_ninstr = self._tab_flags = None
        # Flush accounting (plain ints: incremented once per *flush*, never
        # per event, so the per-event path pays nothing for them).
        # Drivers report these to repro.obs's active registry at end of run.
        self.flushes = 0
        self.small_flushes = 0
        self.events_flushed = 0

    def encode(self, tid: int, bid: int, repeat: int) -> int:
        """The interning code for one ``(tid, bid, repeat)`` row.

        Codes are assigned densely in first-seen order; the decode
        tables grow lazily and the cached numpy views are rebuilt at
        the next flush that observes growth.
        """
        key = (tid, bid, repeat)
        code = self._code_of.get(key)
        if code is None:
            code = len(self._code_rows)
            self._code_of[key] = code
            self._code_rows.append(key)
        return code

    def append(self, tid: int, bid: int, repeat: int) -> None:
        """Buffer one block event; flushes automatically at capacity."""
        self._codes.append(self.encode(tid, bid, repeat))
        if len(self._codes) >= self.capacity:
            self.flush()

    def buffers(self):
        """The event buffer: one interned row *code* per event.

        Hot loops (the engine's inner quantum loop, the replayer) bind
        this list's ``append``/``extend`` directly and check
        ``len() >= capacity`` themselves, skipping the :meth:`append`
        call overhead per event.  Codes come from :meth:`encode`; the
        tape scheduler interns a whole pattern's code list once per
        ``(pattern, tid)`` and emits a consume window with a single
        ``extend`` — one C call per window, and flush decodes columns
        through per-code tables instead of converting three raw
        columns event by event.  The list is cleared in place by
        :meth:`flush`, so bound methods stay valid across flushes.
        """
        return self._codes

    def _rebuild_tables(self) -> None:
        rows = self._code_rows
        n = len(rows)
        tids, bids, reps = zip(*rows)
        self._tab_tid = np.fromiter(tids, np.int64, n)
        self._tab_bid = np.fromiter(bids, np.int64, n)
        self._tab_rep = np.fromiter(reps, np.int64, n)
        self._tab_key = self._tab_tid * self._nblocks + self._tab_bid
        self._tab_ninstr = self._n_instr_by_bid[self._tab_bid]
        self._tab_flags = self._flags_by_bid[self._tab_bid]
        self._tab_len = n

    def flush(self) -> None:
        """Deliver all buffered events to the observers as one batch."""
        codes = self._codes
        size = len(codes)
        if size == 0:
            return
        if size < SMALL_BATCH_THRESHOLD:
            self._flush_small(size)
            return
        self.flushes += 1
        self.events_flushed += size
        if self._tab_len != len(self._code_rows):
            self._rebuild_tables()
        arr = np.fromiter(codes, np.int64, size)
        codes.clear()
        tid = self._tab_tid[arr]
        bid = self._tab_bid[arr]
        repeat = self._tab_rep[arr]
        if self.need_start_index:
            start = batch_start_indices(
                tid, bid, repeat, self._flat_counts, self._nblocks
            )
        else:
            # No attached observer reads per-event start indices: advance
            # the count table directly (bit-identical post-batch counts).
            # Per-code histogram first: the scatter-add then runs over
            # the handful of distinct codes, not the whole batch.
            hist = np.bincount(arr, minlength=self._tab_len)
            np.add.at(
                self._flat_counts, self._tab_key, hist * self._tab_rep
            )
            start = None
        batch = EventBatch(
            size=size,
            tid=tid,
            bid=bid,
            repeat=repeat,
            n_instr=self._tab_ninstr[arr],
            flags=self._tab_flags[arr],
            start_index=start,
            blocks=self.blocks,
        )
        for ob in self.observers:
            ob.on_block_batch(batch)

    def _flush_small(self, size: int) -> None:
        """Per-event delivery for batches too small to amortize numpy.

        Semantically identical to the batched flush (same ``on_block``
        calls the base-class shim would make, same count-table advance),
        just cheaper below :data:`SMALL_BATCH_THRESHOLD`.
        """
        self.small_flushes += 1
        self.events_flushed += size
        codes = self._codes
        rows = self._code_rows
        blocks = self.blocks
        counts = self._flat_counts
        nblocks = self._nblocks
        observers = self.observers
        for c in codes:
            t, b, r = rows[c]
            idx = t * nblocks + b
            start = int(counts[idx])
            counts[idx] = start + r
            block = blocks[b]
            for ob in observers:
                ob.on_block(t, block, r, start)
        codes.clear()

    def exec_counts(self) -> List[List[int]]:
        """The execution-count table as nested lists (flushes first)."""
        self.flush()
        return self._flat_counts.reshape(
            self.nthreads, self._nblocks
        ).tolist()
