"""Loop-aligned slicing of an execution into candidate regions.

Section III-B of the paper: slices target ``N x slice_size`` global filtered
instructions for an ``N``-thread run; "the end of a region specified by a BBV
is the next loop entry once the instruction-count target is achieved", where
eligible loop entries are worker loops in the main image.  Each boundary is
a :class:`~repro.profiling.markers.Marker` — a ``(PC, count)`` pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..errors import ProfilingError
from ..exec_engine.observers import Observer
from ..isa.blocks import BasicBlock
from .bbv import BBVCollector
from .filters import FilterPolicy
from .markers import Marker, MarkerTracker


@dataclass
class Slice:
    """One profiled interval.

    ``start``/``end`` of ``None`` mean program start/end.  ``start_filtered``
    is the global filtered-instruction coordinate where the slice begins
    (used later to place warmup for region checkpoints).
    """

    index: int
    start: Optional[Marker]
    end: Optional[Marker]
    bbv: np.ndarray
    filtered_instructions: int
    total_instructions: int
    per_thread_filtered: List[int]
    start_filtered: int
    #: Live mode only: the replay fast-forwarded over this slice's tail,
    #: so ``bbv`` holds just the probe prefix while the instruction
    #: counters are exact (skip accounting is lossless for counts).
    extrapolated: bool = False

    @property
    def imbalance(self) -> float:
        """Max/mean ratio of per-thread filtered work (Fig. 3's quantity)."""
        mean = np.mean(self.per_thread_filtered)
        if mean == 0:
            return 0.0
        return float(np.max(self.per_thread_filtered) / mean)


class LoopAlignedSlicer(Observer):
    """Observer that cuts slices at worker-loop entries.

    Attach to a :class:`~repro.pinplay.replayer.ConstrainedReplayer` (the
    reproducible analysis run); after :meth:`on_finish`, ``slices`` holds the
    full partition of the execution.
    """

    def __init__(
        self,
        nthreads: int,
        nblocks: int,
        marker_blocks: Sequence[BasicBlock],
        slice_size: int,
        filter_policy: Optional[FilterPolicy] = None,
        phase_aligned: bool = False,
        min_slice_fraction: float = 0.4,
    ) -> None:
        """``phase_aligned`` enables variable-length intervals (Sec. III-B:
        "the methodology can also be used with varying length intervals"):
        a slice may close *early* — once it holds at least
        ``min_slice_fraction`` of the target — when execution enters a loop
        whose routine differs from the slice's dominant routine, i.e. at a
        software phase marker in the sense of Lau et al. [19]."""
        if slice_size <= 0:
            raise ProfilingError(f"slice_size must be positive, got {slice_size}")
        if not 0.0 < min_slice_fraction <= 1.0:
            raise ProfilingError("min_slice_fraction must be in (0, 1]")
        policy = filter_policy or FilterPolicy()
        for block in marker_blocks:
            if not policy.marker_eligible(block):
                raise ProfilingError(
                    f"block {block.name!r} is not marker-eligible "
                    f"(library or not a loop header)"
                )
        self.slice_size = slice_size
        self.filter_policy = policy
        self.phase_aligned = phase_aligned
        self.min_slice_size = int(slice_size * min_slice_fraction)
        self.tracker = MarkerTracker(marker_blocks)
        self.bbv = BBVCollector(nthreads, nblocks, policy)
        self.slices: List[Slice] = []
        self._slice_start: Optional[Marker] = None
        self._slice_filtered = 0
        self._slice_total = 0
        self._global_filtered = 0
        self._finished = False
        # Phase tracking: instruction mass per routine within the slice.
        self._routine_mass: dict = {}
        # The slicer never consumes sync events, so batches need not be cut
        # at sync boundaries (see EventRing's ordering contract); marker
        # ordering within the block stream is preserved by segmentation.
        self.needs_flush_before_sync = False
        self._marker_by_bid: Optional[np.ndarray] = None

    # -- observer interface ---------------------------------------------------

    def on_block(self, tid: int, block, repeat: int) -> None:
        # A marker execution closes the current slice if the target was met
        # (or, in phase-aligned mode, if this marker is a phase change and
        # the slice is big enough); the marker execution itself belongs to
        # the *next* slice.
        before = self.tracker.record(block.bid, repeat)
        if before is not None:
            if self._slice_filtered >= self.slice_size or (
                self.phase_aligned
                and self._slice_filtered >= self.min_slice_size
                and self._is_phase_change(block)
            ):
                self._close_slice(Marker(block.pc, before))
        n = block.n_instr * repeat
        self._slice_total += n
        if self.filter_policy.counts_as_work(block):
            self._slice_filtered += n
            self._global_filtered += n
            if self.phase_aligned and block.routine is not None:
                key = block.routine.name
                self._routine_mass[key] = self._routine_mass.get(key, 0) + n
        self.bbv.add(tid, block, repeat)

    def on_block_batch(self, batch) -> None:
        """Batched :meth:`on_block`: one vectorised pass per slice closed.

        Only a marker execution can close a slice, and it closes one
        when the open slice's filtered count *before* the event has
        reached ``slice_size``.  So the batch's per-event filtered
        instructions and their exclusive cumulative sum locate every
        close up front: the first close is the first marker event whose
        pre-event count reaches ``slice_size - open``, each later one
        the first marker event at least ``slice_size`` past the previous
        close — a ``searchsorted`` over the marker events' pre-event
        sums, which never decrease.  The integer sums are exact, so the
        closes are exactly those :meth:`on_block` finds.  Each run
        between closes (the closing marker event opens the next run)
        then reduces in one pass: BBV scatter-add, totals, and the
        tracker's marker counts, which after the run are the closing
        marker's pre-event count.  Phase-aligned mode tracks
        per-routine mass on every countable event, so it keeps the
        per-event shim.
        """
        if self.phase_aligned:
            super().on_block_batch(batch)
            return
        blocks = batch.blocks
        n_instr, countable = self.bbv.work_tables(blocks)
        if self._marker_by_bid is None:
            self._marker_by_bid = np.array(
                [self.tracker.is_marker_bid(b.bid) for b in blocks],
                dtype=bool,
            )
        bids = batch.bid
        work = n_instr[bids] * batch.repeat
        filtered = np.where(countable[bids], work, 0)
        # Inclusive sums with a leading 0: entry i is the sum before event i.
        work_sums = np.concatenate(([0], np.cumsum(work)))
        filtered_sums = np.concatenate(([0], np.cumsum(filtered)))
        marks = np.flatnonzero(self._marker_by_bid[bids])
        marks_before = filtered_sums[marks]
        prev = first = 0
        target = self.slice_size - self._slice_filtered
        while True:
            j = int(np.searchsorted(marks_before, target))
            if j == marks.size:
                break
            at = int(marks[j])
            self._consume_run(
                batch, work_sums, filtered_sums, prev, at, marks[first:j]
            )
            pc = blocks[int(bids[at])].pc
            self._close_slice(Marker(pc, self.tracker.count(pc)))
            prev, first = at, j
            target = int(marks_before[j]) + self.slice_size
        self._consume_run(
            batch, work_sums, filtered_sums, prev, batch.size, marks[first:]
        )

    def _consume_run(
        self, batch, work_sums, filtered_sums, lo, hi, run_marks
    ) -> None:
        """Accumulate events ``[lo, hi)`` of a batch into the open slice.

        No slice closes inside the run, so its events reduce in any
        order: totals come from the batch's running sums, the BBV
        scatter-adds, and the marker events ``run_marks`` advance the
        tracker.
        """
        if hi <= lo:
            return
        self._slice_total += int(work_sums[hi] - work_sums[lo])
        n = int(filtered_sums[hi] - filtered_sums[lo])
        self._slice_filtered += n
        self._global_filtered += n
        run = slice(lo, hi)
        self.bbv.add_batch(
            batch.tid[run], batch.bid[run], batch.repeat[run], batch.blocks
        )
        if run_marks.size:
            self.tracker.record_batch(
                batch.bid[run_marks], batch.repeat[run_marks]
            )

    def _is_phase_change(self, block) -> bool:
        """True when this loop entry belongs to a routine other than the
        slice's dominant routine — a software phase marker."""
        if not self._routine_mass or block.routine is None:
            return False
        dominant = max(self._routine_mass, key=self._routine_mass.get)
        return block.routine.name != dominant

    def on_finish(self) -> None:
        if self._finished:
            raise ProfilingError("slicer finished twice")
        self._finished = True
        if self._slice_total > 0 or not self.slices:
            self._close_slice(None)

    # -- live-mode hooks --------------------------------------------------------

    def live_peek_bbv(self) -> np.ndarray:
        """The open slice's BBV so far, without closing or resetting.

        Live classification reads the probe prefix here; a novel verdict
        keeps replaying into the same accumulator, so the peek must not
        consume it.
        """
        return self.bbv.peek()

    def live_close_at(self, end: Marker) -> Slice:
        """Close the open slice at a marker cut the replay stopped at.

        The marker execution itself has not been delivered (an ``until``
        stop lands just before it) and belongs to the next slice — the
        exact arrangement :meth:`on_block` produces when the marker event
        arrives, so closing here instead is bit-identical.
        """
        if self._finished:
            raise ProfilingError("slicer already finished")
        self._close_slice(end)
        return self.slices[-1]

    def live_close_skipped(
        self,
        end: Optional[Marker],
        *,
        filtered_instructions: int,
        total_instructions: int,
        per_thread_filtered: List[int],
        marker_counts: dict,
    ) -> Slice:
        """Close the open slice whose tail the replay fast-forwarded over.

        The skip delivered no events, so the accumulator holds only the
        probe prefix; the exact instruction counters come from the skip
        accounting, and the tracker jumps to the end cut's global marker
        counts (the skipped executions happened, they just went unseen).
        """
        if self._finished:
            raise ProfilingError("slicer already finished")
        self._global_filtered += (
            filtered_instructions - self._slice_filtered
        )
        self._slice_filtered = filtered_instructions
        self._slice_total = total_instructions
        self.tracker.sync(marker_counts)
        self._close_slice(
            end, per_thread=per_thread_filtered, extrapolated=True
        )
        return self.slices[-1]

    # -- internals --------------------------------------------------------------

    def _close_slice(
        self,
        end: Optional[Marker],
        per_thread: Optional[List[int]] = None,
        extrapolated: bool = False,
    ) -> None:
        if per_thread is None:
            per_thread = self.bbv.per_thread_instructions
        vector = self.bbv.emit()
        start_coordinate = (
            self._global_filtered - self._slice_filtered
        )
        self.slices.append(
            Slice(
                index=len(self.slices),
                start=self._slice_start,
                end=end,
                bbv=vector,
                filtered_instructions=self._slice_filtered,
                total_instructions=self._slice_total,
                per_thread_filtered=per_thread,
                start_filtered=start_coordinate,
                extrapolated=extrapolated,
            )
        )
        self._slice_start = end
        self._slice_filtered = 0
        self._slice_total = 0
        self._routine_mass = {}
