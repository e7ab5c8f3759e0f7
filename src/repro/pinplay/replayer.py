"""Constrained (deterministic) replay of pinballs.

Replay re-executes the recorded per-thread logs while enforcing the recorded
global order over synchronization actions (``gseq``), like PinPlay enforcing
recorded shared-memory access order.  Scheduling between sync points is
deterministic: always advance the thread with the least filtered progress —
the flow-controlled balance the profile was recorded with.

Every analysis pass of the LoopPoint pipeline (BBV profiling, DCFG
construction, slicing) runs on a replay, so analysis is reproducible no
matter how noisy the original host was — requirement (1a) of the paper.

Block events go to observers through an
:class:`~repro.perf.ring.EventRing` (same contract as the engine: the ring
flushes before each sync event unless every observer opts out, and a
capacity-1 ring delivers every event on its own).

Marker-to-marker replay: :meth:`ConstrainedReplayer.fast_forward_to`
jumps the replay to a ``(PC, count)`` marker's cut without delivering
any event — the functional analogue of restoring a gem5 checkpoint at a
region boundary instead of simulating up to it — and
``run(until=end_marker)`` stops exactly at the end boundary.  The skip
reproduces the deterministic schedule bit-exactly, so observers attached
for the region see precisely the events a full replay delivers between
the two markers.  :meth:`ConstrainedReplayer.skip` is the general form:
it stops at whichever of several pending marker cuts or a filtered
coordinate comes first, which is how region extraction finds every cut
of every region in one forward pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple,
    TYPE_CHECKING,
)

import numpy as np

from ..dcfg.graph import ENTRY as DCFG_ENTRY
from ..errors import ReplayError
from ..exec_engine.engine import QUANTUM_INSTRUCTIONS, EngineResult
from ..obs.tracer import active_metrics
from ..exec_engine.observers import Observer
from ..isa.image import Program
from ..perf.ring import DEFAULT_CAPACITY, EventRing
from ..policy import WaitPolicy
from .pinball import Pinball

if TYPE_CHECKING:  # pragma: no cover - profiling imports pinplay at runtime
    from ..profiling.markers import Marker


@dataclass
class ReplayCursor:
    """A replay's scalar scheduling state at one cut.

    Everything :meth:`ConstrainedReplayer.scout_filtered_cut` needs to
    re-run the deterministic schedule from a past cut — per-thread log
    positions, instruction counters, the sync-order cursor, the
    in-flight quantum and the tracked global marker counts.  Execution
    counts are deliberately *not* here (they are the heavy part); the
    live sampler reconstructs them in bulk via
    :meth:`ConstrainedReplayer.advance_exec_counts`.
    """

    positions: List[int]
    per_thread_total: List[int]
    per_thread_filtered: List[int]
    next_gseq: int
    quantum_resume: Optional[tuple]
    marker_counts: Dict[int, int]


@dataclass
class RegionScout:
    """What one boundary scout learned about the next region.

    ``end is None`` means the logs ran out first: the region is the
    program's tail and has no closing marker.  ``probe`` is the first
    marker execution at/after the probe target (it may equal ``end``).
    All counters are absolute (from program start) at the end cut.
    """

    probe: Optional["Marker"]
    end: Optional["Marker"]
    filtered: int
    total: int
    per_thread_total: List[int]
    per_thread_filtered: List[int]
    counts_at_end: Dict[int, int]
    end_positions: List[int]


@dataclass
class CutPoint:
    """A replay cut: per-thread log positions and the global instruction
    counters reached there."""

    positions: List[int]
    total: int
    filtered: int


class _WalkState:
    """Mutable scalar state threaded through :func:`_walk`."""

    __slots__ = ("pos", "ptt", "ptf", "next_gseq", "counts",
                 "quantum_resume")

    def __init__(self, pos, ptt, ptf, next_gseq, counts, quantum_resume):
        self.pos = pos
        self.ptt = ptt
        self.ptf = ptf
        self.next_gseq = next_gseq
        self.counts = counts
        self.quantum_resume = quantum_resume


class _SkipIndex:
    """Per-thread skip tables for one (pinball, stop-bid set).

    Instruction prefix sums over each log (sync entries contribute
    zero), the sorted positions that must be handled individually
    (syncs and stop-set marker blocks, with an end-of-log sentinel),
    and the block entries' (index, bid, repeat) columns for bulk
    execution-count updates.  Built once and cached on the replayer:
    live sampling fast-forwards and scouts the same pinball once per
    region, and rebuilding these tables per jump would be quadratic.
    """

    def __init__(self, program: Program, pinball: Pinball,
                 stop_bids: FrozenSet[int]) -> None:
        blocks = program.blocks
        n_by_bid = [b.n_instr for b in blocks]
        f_by_bid = [0 if b.image.is_library else b.n_instr for b in blocks]
        self.pc_of = {bid: blocks[bid].pc for bid in stop_bids}
        self.cum_t: List[np.ndarray] = []
        self.cum_f: List[np.ndarray] = []
        self.stops: List[np.ndarray] = []
        self.blk_idx: List[np.ndarray] = []
        self.blk_bid: List[np.ndarray] = []
        self.blk_rep: List[np.ndarray] = []
        self.ends: List[int] = []
        for log in pinball.logs:
            n = len(log)
            ent_t = [0] * n
            ent_f = [0] * n
            s_list: List[int] = []
            b_idx: List[int] = []
            b_bid: List[int] = []
            b_rep: List[int] = []
            for i, entry in enumerate(log):
                if entry[0] == "b":
                    bid = entry[1]
                    rep = entry[2]
                    ent_t[i] = n_by_bid[bid] * rep
                    ent_f[i] = f_by_bid[bid] * rep
                    b_idx.append(i)
                    b_bid.append(bid)
                    b_rep.append(rep)
                    if bid in stop_bids:
                        s_list.append(i)
                else:
                    s_list.append(i)
            s_list.append(n)
            self.cum_t.append(np.cumsum(np.array(ent_t, dtype=np.int64)))
            self.cum_f.append(np.cumsum(np.array(ent_f, dtype=np.int64)))
            self.stops.append(np.array(s_list, dtype=np.int64))
            self.blk_idx.append(np.array(b_idx, dtype=np.int64))
            self.blk_bid.append(np.array(b_bid, dtype=np.int64))
            self.blk_rep.append(np.array(b_rep, dtype=np.int64))
            self.ends.append(n)

    def add_counts(self, flat: np.ndarray, start_pos: Sequence[int],
                   end_pos: Sequence[int], nblocks: int) -> int:
        """Bulk-add the block executions in ``[start_pos, end_pos)`` into
        a flattened ``nthreads x nblocks`` count array; returns the number
        of log entries spanned."""
        spanned = 0
        for tid in range(len(self.blk_idx)):
            lo = int(np.searchsorted(self.blk_idx[tid], start_pos[tid]))
            hi = int(np.searchsorted(self.blk_idx[tid], end_pos[tid]))
            np.add.at(
                flat,
                self.blk_bid[tid][lo:hi] + tid * nblocks,
                self.blk_rep[tid][lo:hi],
            )
            spanned += end_pos[tid] - start_pos[tid]
        return spanned


def _walk(
    logs,
    index: _SkipIndex,
    state: _WalkState,
    *,
    targets: Optional[Dict[int, int]] = None,
    boundary_abs: Optional[int] = None,
    probe_abs: Optional[int] = None,
    filtered_abs: Optional[int] = None,
) -> Tuple[bool, Optional[Tuple[int, int]], Optional[Tuple[int, int]]]:
    """Advance ``state`` along the deterministic schedule until a stop.

    Stop modes:

    - *marker targets* (``targets``, block id -> pending global count):
      stop just before the first execution of a target block whose
      repeat run reaches its pending count.  The returned boundary is
      that execution's pre-entry ``(pc, count)``; it differs from the
      target when the target falls inside a batched entry, which the
      caller rejects.
    - *region boundary* (``boundary_abs``): stop at the first marker
      execution whose pre-entry global filtered count reaches the
      target; additionally records the first marker execution at/after
      ``probe_abs`` without stopping.  This is exactly the slicer's
      close-slice rule, so the scout's boundary is the boundary the
      offline :class:`~repro.profiling.slicer.LoopAlignedSlicer` cuts.
    - *filtered coordinate* (``filtered_abs``): stop at the first entry
      whose pre-entry global filtered count reaches the target — the
      warmup-cut rule of region extraction.  Combines with marker
      targets: the walk stops at whichever comes first.

    Plain block runs between stops are consumed whole by bisecting the
    prefix sums; scheduling (least-filtered-first, quantum boundaries,
    the gseq gate, mid-quantum resume) matches :meth:`run` bit-exactly.
    Returns ``(found, probe, boundary)`` with markers as (pc, count).
    """
    pos = state.pos
    ptt = state.ptt
    ptf = state.ptf
    counts = state.counts
    next_gseq = state.next_gseq
    quantum = QUANTUM_INSTRUCTIONS
    pc_of = index.pc_of
    targets = targets or {}
    ends = index.ends
    nthreads = len(logs)
    gf = sum(ptf)
    live = set(t for t in range(nthreads) if pos[t] < ends[t])
    found = False
    probe: Optional[Tuple[int, int]] = None
    boundary: Optional[Tuple[int, int]] = None
    resume = state.quantum_resume
    state.quantum_resume = None
    if filtered_abs is not None and gf >= filtered_abs:
        state.next_gseq = next_gseq
        state.quantum_resume = resume
        return True, None, None

    while live and not found:
        if resume is not None and resume[0] in live:
            candidates = [resume[0]]
            resume_round = True
        else:
            resume = None
            candidates = sorted(live, key=lambda t: (ptf[t], t))
            resume_round = False
        progressed = False
        for tid in candidates:
            log = logs[tid]
            p = pos[tid]
            end = ends[tid]
            t_cum = index.cum_t[tid]
            f_cum = index.cum_f[tid]
            t_stops = index.stops[tid]
            tt = ptt[tid]
            tf = ptf[tid]
            if resume is not None:
                stop_at = tt + resume[1]
                resume = None
            else:
                stop_at = tt + quantum
            while tt < stop_at and p < end:
                if filtered_abs is not None and gf >= filtered_abs:
                    found = True
                    state.quantum_resume = (tid, stop_at - tt)
                    break
                s = int(t_stops[t_stops.searchsorted(p)])
                if s > p:
                    # Plain block entries up to the next stop: the
                    # quantum admits every entry whose pre-entry
                    # total is below ``stop_at`` (the per-event
                    # loop's exact rule), found by one bisect.
                    base = int(t_cum[p - 1]) if p else 0
                    f_base = int(f_cum[p - 1]) if p else 0
                    j = int(t_cum.searchsorted(stop_at - tt + base))
                    new_p = j + 1
                    if new_p > s:
                        new_p = s
                    if filtered_abs is not None:
                        # Truncate the run so the entry that first sees
                        # the filtered target is the next to consume.
                        jj = int(f_cum.searchsorted(
                            f_base + (filtered_abs - gf)
                        ))
                        if jj + 1 < new_p:
                            new_p = jj + 1
                    df = int(f_cum[new_p - 1]) - f_base
                    tt += int(t_cum[new_p - 1]) - base
                    tf += df
                    gf += df
                    p = new_p
                    progressed = True
                    continue
                entry = log[p]
                if entry[0] == "b":
                    bid = entry[1]
                    rep = entry[2]
                    pc = pc_of[bid]
                    c = counts.get(pc, 0)
                    if boundary_abs is not None:
                        if (probe is None and probe_abs is not None
                                and gf >= probe_abs):
                            probe = (pc, c)
                        if gf >= boundary_abs:
                            boundary = (pc, c)
                            found = True
                            state.quantum_resume = (tid, stop_at - tt)
                            break
                    target = targets.get(bid)
                    if target is not None and c + rep > target:
                        boundary = (pc, c)
                        found = True
                        state.quantum_resume = (tid, stop_at - tt)
                        break
                    counts[pc] = c + rep
                    base = int(t_cum[p - 1]) if p else 0
                    f_base = int(f_cum[p - 1]) if p else 0
                    df = int(f_cum[p]) - f_base
                    tt += int(t_cum[p]) - base
                    tf += df
                    gf += df
                    p += 1
                    progressed = True
                else:
                    gseq = entry[4]
                    if gseq != next_gseq:
                        break  # not this thread's turn at the order
                    next_gseq += 1
                    p += 1
                    progressed = True
            pos[tid] = p
            ptt[tid] = tt
            ptf[tid] = tf
            if p >= end:
                live.discard(tid)
            if found or progressed:
                break
        if not progressed and not found and live:
            if resume_round:
                continue  # blocked mid-quantum: fall back to the sort
            waiting = {
                t: logs[t][pos[t]][4] for t in live
                if logs[t][pos[t]][0] == "s"
            }
            raise ReplayError(
                f"replay stuck during fast-forward: "
                f"next_gseq={next_gseq}, thread sync heads "
                f"{waiting} — corrupt or truncated pinball"
            )
    state.next_gseq = next_gseq
    return found, probe, boundary


class ConstrainedReplayer:
    """Replays a :class:`Pinball` deterministically."""

    def __init__(
        self,
        program: Program,
        pinball: Pinball,
        *,
        observers: Sequence[Observer] = (),
        initial_exec_counts: Optional[List[List[int]]] = None,
        batch_capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        if pinball.program_name != program.name:
            raise ReplayError(
                f"pinball was recorded for {pinball.program_name!r}, "
                f"not {program.name!r}"
            )
        self.program = program
        self.pinball = pinball
        self.observers = list(observers)
        self._batch_capacity = batch_capacity
        #: Per-thread index of the next unprocessed log entry.
        self.positions: List[int] = [0] * pinball.nthreads
        nthreads = pinball.nthreads
        nblocks = program.num_blocks
        if initial_exec_counts is not None:
            if len(initial_exec_counts) != nthreads:
                raise ReplayError("initial_exec_counts thread-count mismatch")
            self.exec_counts = [list(row) for row in initial_exec_counts]
        else:
            self.exec_counts = [[0] * nblocks for _ in range(nthreads)]
        self.total_instructions = 0
        self.filtered_instructions = 0
        self.per_thread_total = [0] * nthreads
        self.per_thread_filtered = [0] * nthreads
        self.num_events = 0
        #: Global sync-order cursor; persistent so :meth:`run` continues
        #: exactly where :meth:`fast_forward_to` left the recorded order.
        self._next_gseq = 0
        #: Global ``pc -> execution count`` for marker PCs this replay
        #: has tracked (the ``count`` coordinate of ``(PC, count)``
        #: markers is global, so a post-fast-forward ``run(until=...)``
        #: must start from the prefix's counts, not from zero).
        self._marker_counts: Dict[int, int] = {}
        self._fast_forwarded = False
        #: Cached per-thread skip tables, keyed by stop-bid set: live
        #: sampling jumps the same pinball once per region.
        self._skip_indexes: Dict[FrozenSet[int], _SkipIndex] = {}
        #: ``(tid, remaining_instructions)`` of the scheduling quantum
        #: that was in flight when a marker cut stopped the replay.  A
        #: cut generally lands mid-quantum; resuming must finish that
        #: thread's quantum (not grant a fresh one) or the interleaving
        #: diverges from an uninterrupted replay's.
        self._quantum_resume: Optional[tuple] = None

    def fast_forward_to(
        self,
        marker: Marker,
        *,
        dcfg=None,
        track_pcs: Iterable[int] = (),
    ) -> int:
        """Fast-forward to ``marker``'s cut without re-executing blocks.

        The moral analogue of a gem5 checkpoint restore: replay state —
        per-thread log positions, execution counts, instruction
        counters, the recorded sync-order cursor — advances to the
        exact cut a full replay reaches just before the ``count``-th
        execution of ``marker.pc``, but no block or sync event is
        delivered to the attached observers and runs of block entries
        between stops are consumed whole by bisecting per-thread
        instruction prefix sums instead of being walked one entry at a
        time.  Scheduling decisions (least-filtered-first, quantum
        boundaries, the ``gseq`` gate) are reproduced exactly, so the
        cut is bit-identical to the one :meth:`run` would reach.

        ``track_pcs`` names additional marker PCs whose global
        execution counts must stay known across the skip — pass the end
        marker's PC here when the plan is ``fast_forward_to(start)``
        followed by ``run(until=end)``, because ``until`` counts are
        global from program start.

        ``dcfg``, when given, validates the jump against the dynamic
        control-flow graph first: a marker block the DCFG cannot reach
        from its entry can never trigger, and failing fast beats
        silently replaying to the end of the logs.

        Returns the number of log entries skipped.  Raises
        :class:`ReplayError` if the marker never triggers, falls inside
        a batched entry, or is unreachable per the DCFG.
        """
        program = self.program
        if dcfg is not None:
            reachable = dcfg.reachable_from(DCFG_ENTRY)
            for pc in (marker.pc, *track_pcs):
                bid = program.block_at(pc).bid
                if bid not in reachable:
                    raise ReplayError(
                        f"marker pc {pc:#x} (bid {bid}) is unreachable "
                        f"in the DCFG: the fast-forward target would "
                        f"never trigger"
                    )
        events_before = self.num_events
        found, hit = self.skip({marker.pc: marker.count}, track_pcs=track_pcs)
        if not found:
            raise ReplayError(
                f"fast-forward target {marker} never reached "
                f"(global count stopped at {self._marker_counts[marker.pc]})"
            )
        if hit.count != marker.count:
            raise ReplayError(
                f"fast-forward marker {marker} falls inside a batched "
                f"entry (the entry starts at count {hit.count})"
            )
        skipped = self.num_events - events_before
        reg = active_metrics()
        if reg is not None:
            reg.inc("replay.fast_forward.runs")
            reg.inc("replay.fast_forward.entries", skipped)
        return skipped

    def skip(
        self,
        targets: Dict[int, int],
        *,
        filtered: Optional[int] = None,
        track_pcs: Iterable[int] = (),
    ) -> Tuple[bool, Optional["Marker"]]:
        """Advance to the next pending cut without delivering any event.

        ``targets`` maps marker PCs to pending global execution counts.
        The replay stops just before the first execution of a target PC
        whose repeat run reaches its pending count, or — with
        ``filtered`` — at the first entry whose pre-entry global filtered
        count reaches that coordinate, whichever comes first.
        ``track_pcs`` names further marker PCs whose global counts must
        stay known across the skip.  State advances exactly as in
        :meth:`fast_forward_to`.

        Returns ``(stopped, hit)``.  ``stopped`` is False when the logs
        ran out first.  ``hit`` is the marker execution the replay
        stopped before, with its pre-entry global count, or ``None`` for
        a filtered stop.  A ``hit.count`` other than the target's means
        the target falls inside a batched entry or was already passed.
        """
        from ..profiling.markers import Marker

        program = self.program
        bid_of = {
            pc: program.block_at(pc).bid for pc in (*targets, *track_pcs)
        }
        counts = self._marker_counts
        for pc in bid_of:
            counts.setdefault(pc, 0)
        self._fast_forwarded = True

        nthreads = self.pinball.nthreads
        nblocks = program.num_blocks
        index = self._skip_index(frozenset(bid_of.values()))
        state = _WalkState(
            pos=list(self.positions),
            ptt=list(self.per_thread_total),
            ptf=list(self.per_thread_filtered),
            next_gseq=self._next_gseq,
            counts=counts,
            quantum_resume=self._quantum_resume,
        )
        self._quantum_resume = None
        found, _, hit = _walk(
            self.pinball.logs, index, state,
            targets={bid_of[pc]: n for pc, n in targets.items()},
            filtered_abs=filtered,
        )

        flat = np.asarray(self.exec_counts, dtype=np.int64).reshape(-1)
        skipped = index.add_counts(flat, self.positions, state.pos, nblocks)
        self.exec_counts = flat.reshape(nthreads, nblocks).tolist()
        self.positions = state.pos
        self.total_instructions += (
            sum(state.ptt) - sum(self.per_thread_total)
        )
        self.filtered_instructions += (
            sum(state.ptf) - sum(self.per_thread_filtered)
        )
        self.per_thread_total = state.ptt
        self.per_thread_filtered = state.ptf
        self.num_events += skipped
        self._next_gseq = state.next_gseq
        self._quantum_resume = state.quantum_resume
        return found, None if hit is None else Marker(*hit)

    def cut_point(self) -> CutPoint:
        """The current cut's positions and global counters."""
        return CutPoint(
            positions=list(self.positions),
            total=self.total_instructions,
            filtered=self.filtered_instructions,
        )

    def _skip_index(self, stop_bids: FrozenSet[int]) -> _SkipIndex:
        """The per-thread skip tables for this stop set, built once."""
        index = self._skip_indexes.get(stop_bids)
        if index is None:
            index = _SkipIndex(self.program, self.pinball, stop_bids)
            self._skip_indexes[stop_bids] = index
        return index

    def _stop_bids(self, marker_pcs: Iterable[int]) -> FrozenSet[int]:
        return frozenset(
            self.program.block_at(pc).bid for pc in marker_pcs
        )

    def cursor(self) -> ReplayCursor:
        """Snapshot the scalar scheduling state at the current cut."""
        return ReplayCursor(
            positions=list(self.positions),
            per_thread_total=list(self.per_thread_total),
            per_thread_filtered=list(self.per_thread_filtered),
            next_gseq=self._next_gseq,
            quantum_resume=self._quantum_resume,
            marker_counts=dict(self._marker_counts),
        )

    def sync_marker_counts(self, counts: Dict[int, int]) -> None:
        """Overwrite tracked global marker counts.

        Live sampling interleaves observed segments (where the slicer's
        tracker counts executions) with fast-forwards (where this
        replayer does); whichever side went dark resyncs from the other
        through this before the next ``until``/fast-forward target.
        """
        self._marker_counts.update(counts)

    def scout_region(
        self,
        marker_pcs: Iterable[int],
        *,
        slice_target: int,
        probe_target: int,
        counts: Optional[Dict[int, int]] = None,
    ) -> RegionScout:
        """Look ahead from the current cut to the next region boundary.

        Pure lookahead on copied scalar state: the replay does not
        advance, no event is delivered.  The boundary rule is the
        slicer's — first marker execution whose accumulated filtered
        work since this cut reaches ``slice_target`` — so the scouted
        end marker is exactly where the offline slicer would close the
        slice.  ``probe_target`` likewise locates the first marker at
        or beyond the probe prefix (classification point).  ``counts``
        supplies the true global marker counts at this cut (defaults
        to this replayer's tracked counts).
        """
        index = self._skip_index(self._stop_bids(marker_pcs))
        state = _WalkState(
            pos=list(self.positions),
            ptt=list(self.per_thread_total),
            ptf=list(self.per_thread_filtered),
            next_gseq=self._next_gseq,
            counts=dict(self._marker_counts if counts is None else counts),
            quantum_resume=self._quantum_resume,
        )
        gf0 = sum(state.ptf)
        gt0 = sum(state.ptt)
        found, probe, end = _walk(
            self.pinball.logs, index, state,
            boundary_abs=gf0 + slice_target,
            probe_abs=gf0 + probe_target,
        )
        from ..profiling.markers import Marker
        return RegionScout(
            probe=None if probe is None else Marker(*probe),
            end=None if not found else Marker(*end),
            filtered=sum(state.ptf) - gf0,
            total=sum(state.ptt) - gt0,
            per_thread_total=state.ptt,
            per_thread_filtered=state.ptf,
            counts_at_end=state.counts,
            end_positions=state.pos,
        )

    def scout_filtered_cut(
        self,
        marker_pcs: Iterable[int],
        *,
        cursor: ReplayCursor,
        target_filtered: int,
    ) -> CutPoint:
        """Locate the first entry at/after ``cursor`` whose pre-entry
        global filtered count reaches ``target_filtered``.

        This is region extraction's warmup-cut rule, walked on copied
        scalar state without advancing this replayer.
        """
        index = self._skip_index(self._stop_bids(marker_pcs))
        state = _WalkState(
            pos=list(cursor.positions),
            ptt=list(cursor.per_thread_total),
            ptf=list(cursor.per_thread_filtered),
            next_gseq=cursor.next_gseq,
            counts=dict(cursor.marker_counts),
            quantum_resume=cursor.quantum_resume,
        )
        found, _, _ = _walk(
            self.pinball.logs, index, state,
            filtered_abs=target_filtered,
        )
        if not found:
            raise ReplayError(
                f"filtered coordinate {target_filtered} beyond end of "
                f"execution (stopped at {sum(state.ptf)})"
            )
        return CutPoint(
            positions=state.pos,
            total=sum(state.ptt),
            filtered=sum(state.ptf),
        )

    def advance_exec_counts(
        self,
        base_counts: Sequence[Sequence[int]],
        start_positions: Sequence[int],
        end_positions: Sequence[int],
        marker_pcs: Iterable[int] = (),
    ) -> List[List[int]]:
        """Execution counts at a later cut, from a snapshot plus the log
        entries between the two cuts (one bulk scatter-add, no walk)."""
        nthreads = self.pinball.nthreads
        nblocks = self.program.num_blocks
        index = self._skip_index(self._stop_bids(marker_pcs))
        flat = np.asarray(base_counts, dtype=np.int64).reshape(-1).copy()
        index.add_counts(flat, start_positions, end_positions, nblocks)
        return flat.reshape(nthreads, nblocks).tolist()

    def run(
        self, until: Optional[Marker] = None, *, finish: bool = True
    ) -> EngineResult:
        """Replay, feeding observers; returns the summary.

        With ``until`` the replay stops exactly at the end marker's cut
        — just before the ``count``-th global execution of ``until.pc``
        — instead of at the end of the logs; combined with
        :meth:`fast_forward_to` this is marker-to-marker replay.  The
        ``count`` coordinate is global from program start, so after a
        fast-forward the PC must have been named in ``track_pcs``.

        ``finish=False`` suppresses the observers' ``on_finish`` —
        live sampling replays one execution as many ``until`` segments
        interleaved with fast-forwards, and only the last segment may
        finalize observers (the slicer treats a second finish as a
        hard error for exactly this reason).  Counters, positions and
        the EventRing flush behave identically either way, so a
        segmented replay's final :class:`EngineResult` is bit-identical
        to an unsegmented one's.
        """
        logs = self.pinball.logs
        nthreads = self.pinball.nthreads
        pos = self.positions
        blocks = self.program.blocks
        until_bid = -1
        until_count = -1
        until_c = 0
        if until is not None:
            until_bid = self.program.block_at(until.pc).bid
            base = self._marker_counts.get(until.pc)
            if base is None:
                if self._fast_forwarded:
                    raise ReplayError(
                        f"until marker pc {until.pc:#x} was not tracked "
                        f"across fast_forward_to (pass it via track_pcs): "
                        f"its global count at the cut is unknown"
                    )
                base = 0
            if base > until.count:
                raise ReplayError(
                    f"until marker {until} already passed: global count "
                    f"is {base} at the start of this run"
                )
            until_count = until.count
            until_c = base
        ring = EventRing(
            blocks, nthreads, self.observers,
            capacity=self._batch_capacity,
            initial_exec_counts=self.exec_counts,
        )
        ring_rows = ring.buffers()
        ring_append_row = ring_rows.append
        ring_encode = ring.encode
        ring_capacity = ring.capacity
        ring_flush = ring.flush
        flush_on_sync = ring.flush_on_sync
        ends = [len(log) for log in logs]
        next_gseq = self._next_gseq
        live = set(tid for tid in range(nthreads) if pos[tid] < ends[tid])
        stopped = False
        resume = self._quantum_resume
        self._quantum_resume = None

        while live and not stopped:
            if resume is not None and resume[0] in live:
                # A marker cut interrupted this thread mid-quantum:
                # finish that quantum first, exactly as an uninterrupted
                # replay would have.
                candidates = [resume[0]]
                resume_round = True
            else:
                resume = None
                # Deterministic balance: least filtered progress first.
                candidates = sorted(
                    live, key=lambda t: (self.per_thread_filtered[t], t)
                )
                resume_round = False
            progressed = False
            for tid in candidates:
                log = logs[tid]
                if resume is not None:
                    stop_at = self.per_thread_total[tid] + resume[1]
                    resume = None
                else:
                    stop_at = self.per_thread_total[tid] + QUANTUM_INSTRUCTIONS
                ptt = self.per_thread_total[tid]
                ptf = self.per_thread_filtered[tid]
                while ptt < stop_at and pos[tid] < ends[tid]:
                    entry = log[pos[tid]]
                    if entry[0] == "b":
                        bid = entry[1]
                        repeat = entry[2]
                        if bid == until_bid:
                            if until_c + repeat > until_count:
                                if until_c != until_count:
                                    raise ReplayError(
                                        f"until marker {until} falls "
                                        f"inside a batched entry"
                                    )
                                stopped = True
                                self._quantum_resume = (tid, stop_at - ptt)
                                break
                            until_c += repeat
                        block = blocks[bid]
                        n = block.n_instr * repeat
                        ptt += n
                        if not block.image.is_library:
                            ptf += n
                            self.filtered_instructions += n
                        self.total_instructions += n
                        ring_append_row(ring_encode(tid, bid, repeat))
                        if len(ring_rows) >= ring_capacity:
                            ring_flush()
                    else:
                        _, kind, obj_id, response, gseq = entry
                        if gseq != next_gseq:
                            break  # not this thread's turn at the order
                        next_gseq += 1
                        if flush_on_sync:
                            ring_flush()
                        for ob in self.observers:
                            ob.on_sync(tid, kind, obj_id, response, gseq)
                    pos[tid] += 1
                    self.num_events += 1
                    progressed = True
                self.per_thread_total[tid] = ptt
                self.per_thread_filtered[tid] = ptf
                if pos[tid] >= ends[tid]:
                    live.discard(tid)
                if stopped or progressed:
                    break
            if not progressed and not stopped and live:
                if resume_round:
                    continue  # blocked mid-quantum: fall back to the sort
                waiting = {
                    t: logs[t][pos[t]][4] for t in live
                    if logs[t][pos[t]][0] == "s"
                }
                raise ReplayError(
                    f"replay stuck: next_gseq={next_gseq}, thread sync heads "
                    f"{waiting} — corrupt or truncated pinball"
                )

        self._next_gseq = next_gseq
        if until is not None:
            self._marker_counts[until.pc] = until_c
        self.exec_counts = ring.exec_counts()  # flushes the ring
        if finish:
            for ob in self.observers:
                ob.on_finish()
        reg = active_metrics()
        if reg is not None:  # once per replay, never per event
            reg.inc("replay.runs")
            reg.inc("replay.events", self.num_events)
            reg.inc("replay.ring.flushes", ring.flushes)
            reg.inc("replay.ring.small_flushes", ring.small_flushes)
            reg.inc("replay.ring.events_flushed", ring.events_flushed)
        return EngineResult(
            total_instructions=self.total_instructions,
            filtered_instructions=self.filtered_instructions,
            per_thread_total=list(self.per_thread_total),
            per_thread_filtered=list(self.per_thread_filtered),
            exec_counts=[list(row) for row in self.exec_counts],
            num_events=self.num_events,
            wait_policy=WaitPolicy(self.pinball.wait_policy),
            seed=self.pinball.seed,
        )
