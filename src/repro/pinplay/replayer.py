"""Constrained (deterministic) replay of pinballs.

Replay re-executes the recorded per-thread logs while enforcing the recorded
global order over synchronization actions (``gseq``), like PinPlay enforcing
recorded shared-memory access order.  Scheduling between sync points is
deterministic: always advance the thread with the least filtered progress —
the flow-controlled balance the profile was recorded with.

Every analysis pass of the LoopPoint pipeline (BBV profiling, DCFG
construction, slicing) runs on a replay, so analysis is reproducible no
matter how noisy the original host was — requirement (1a) of the paper.

One loop, :meth:`ConstrainedReplayer._walk`, implements the schedule
(least-filtered-first, the quantum, the ``gseq`` gate, mid-quantum
resume) one log entry at a time.  Every entry point is that loop with a
different stop rule, with or without event delivery:

- :meth:`~ConstrainedReplayer.run` delivers block events to observers
  through an :class:`~repro.perf.ring.EventRing` (same contract as the
  engine: the ring flushes before each sync event unless every observer
  opts out, and a capacity-1 ring delivers every event on its own), and
  with ``until`` stops exactly at an end marker's cut.
- :meth:`~ConstrainedReplayer.fast_forward_to` jumps to a ``(PC, count)``
  marker's cut without delivering any event — the functional analogue of
  restoring a gem5 checkpoint at a region boundary instead of simulating
  up to it.  :meth:`~ConstrainedReplayer.skip` is its general form: it
  stops at whichever of several pending marker cuts or a filtered
  coordinate comes first, which is how region extraction finds every cut
  of every region in one forward pass.
- :meth:`~ConstrainedReplayer.scout_region` and
  :meth:`~ConstrainedReplayer.scout_filtered_cut` walk a copy of the
  state to look ahead without moving the replay.

Because the stops share the schedule, observers attached for a region see
precisely the events a full replay delivers between its two markers.  The
walk counts the global executions of every PC the replay tracks, in every
mode; a PC it has not tracked since program start has no known count, so
naming it as a stop raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple,
    TYPE_CHECKING,
)

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

#: A filtered coordinate no replay reaches: the walk's "no such stop".
_NEVER = 1 << 62


@dataclass
class ReplayCursor:
    """A replay's scalar scheduling state at one cut.

    Everything :meth:`ConstrainedReplayer.scout_filtered_cut` needs to
    re-run the deterministic schedule from a past cut — per-thread log
    positions, instruction counters, the sync-order cursor, the
    in-flight quantum and the tracked global marker counts.  Execution
    counts are deliberately *not* here (they are the heavy part); the
    live sampler reconstructs them from the log entries between two cuts
    via :meth:`ConstrainedReplayer.advance_exec_counts`.
    """

    positions: List[int]
    per_thread_total: List[int]
    per_thread_filtered: List[int]
    next_gseq: int
    quantum_resume: Optional[tuple]
    marker_counts: Dict[int, int]

    def copy(self) -> "ReplayCursor":
        """An independent copy: a walk advances its cursor in place."""
        return ReplayCursor(
            positions=list(self.positions),
            per_thread_total=list(self.per_thread_total),
            per_thread_filtered=list(self.per_thread_filtered),
            next_gseq=self.next_gseq,
            quantum_resume=self.quantum_resume,
            marker_counts=dict(self.marker_counts),
        )


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
        #: Global ``pc -> execution count`` for every marker PC this
        #: replay tracks.  The ``count`` coordinate of ``(PC, count)``
        #: markers is global from program start, so a PC must be tracked
        #: from program start on to be usable as a stop later.
        self._marker_counts: Dict[int, int] = {}
        #: ``(tid, remaining_instructions)`` of the scheduling quantum
        #: that was in flight when a marker cut stopped the replay.  A
        #: cut generally lands mid-quantum; resuming must finish that
        #: thread's quantum (not grant a fresh one) or the interleaving
        #: diverges from an uninterrupted replay's.
        self._quantum_resume: Optional[tuple] = None
        blocks = program.blocks
        self._n_instr = [b.n_instr for b in blocks]
        self._n_filtered = [
            0 if b.image.is_library else b.n_instr for b in blocks
        ]

    def fast_forward_to(
        self,
        marker: Marker,
        *,
        dcfg=None,
        track_pcs: Iterable[int] = (),
    ) -> int:
        """Fast-forward to ``marker``'s cut without delivering events.

        The moral analogue of a gem5 checkpoint restore: replay state —
        per-thread log positions, execution counts, instruction
        counters, the recorded sync-order cursor, the tracked marker
        counts — advances to the exact cut a full replay reaches just
        before the ``count``-th execution of ``marker.pc``, but no block
        or sync event is delivered to the attached observers.  The walk
        is :meth:`run`'s own loop without the ring, so the cut is
        bit-identical to the one :meth:`run` would reach.

        ``track_pcs`` names further marker PCs whose global execution
        counts this replay should keep from now on — pass the end
        marker's PC here when the plan is ``fast_forward_to(start)``
        followed by ``run(until=end)``, because ``until`` counts are
        global from program start.  A PC can only start being tracked at
        program start; naming an untracked PC, as the target or in
        ``track_pcs``, once the replay has moved raises.

        ``dcfg``, when given, validates the jump against the dynamic
        control-flow graph first: a marker block the DCFG cannot reach
        from its entry can never trigger, and failing fast beats
        silently replaying to the end of the logs.

        Returns the number of log entries skipped.  Raises
        :class:`ReplayError`, before moving, if the marker is untracked,
        already passed or unreachable per the DCFG, and after moving if
        it never triggers or falls inside a batched entry.
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
        ``track_pcs`` names further marker PCs to track from now on.
        Tracking, the checks made before moving and the state advance
        are those of :meth:`fast_forward_to`.

        Returns ``(stopped, hit)``.  ``stopped`` is False when the logs
        ran out first.  ``hit`` is the marker execution the replay
        stopped before, with its pre-entry global count, or ``None`` for
        a filtered stop.  A ``hit.count`` other than the target's means
        the target falls inside a batched entry.
        """
        from ..profiling.markers import Marker

        bid_targets = self._pending(targets, track_pcs)
        before = list(self.positions)
        found, hit = self._advance(targets=bid_targets, filtered=filtered)
        self.exec_counts = self.advance_exec_counts(
            self.exec_counts, before, self.positions
        )
        return found, None if hit is None else Marker(*hit)

    def cut_point(self) -> CutPoint:
        """The current cut's positions and global counters."""
        return CutPoint(
            positions=list(self.positions),
            total=self.total_instructions,
            filtered=self.filtered_instructions,
        )

    def cursor(self) -> ReplayCursor:
        """Snapshot the scalar scheduling state at the current cut."""
        return self._state().copy()

    def sync_marker_counts(self, counts: Dict[int, int]) -> None:
        """Set tracked global marker counts, tracking any new PC.

        Live sampling registers its marker PCs here at program start,
        so every later segment, observed or skipped, counts them.
        Counts set after the replay has moved must be the true global
        counts at the current cut.
        """
        self._marker_counts.update(counts)

    def scout_region(
        self,
        marker_pcs: Iterable[int],
        *,
        slice_target: int,
        probe_target: int,
    ) -> RegionScout:
        """Look ahead from the current cut to the next region boundary.

        Pure lookahead on copied scalar state: the replay does not
        advance, no event is delivered.  The boundary rule is the
        slicer's — first marker execution whose accumulated filtered
        work since this cut reaches ``slice_target`` — so the scouted
        end marker is exactly where the offline slicer would close the
        slice.  ``probe_target`` likewise locates the first marker at
        or beyond the probe prefix (classification point).  Marker
        counts start from this replayer's tracked counts.
        """
        from ..profiling.markers import Marker

        state = self.cursor()
        marker_pcs = tuple(marker_pcs)
        self._track(state.marker_counts, marker_pcs)
        gf0 = sum(state.per_thread_filtered)
        gt0 = sum(state.per_thread_total)
        found, probe, end = self._walk(
            state,
            boundary_bids=frozenset(
                self.program.block_at(pc).bid for pc in marker_pcs
            ),
            boundary=gf0 + slice_target,
            probe=gf0 + probe_target,
        )
        return RegionScout(
            probe=None if probe is None else Marker(*probe),
            end=None if not found else Marker(*end),
            filtered=sum(state.per_thread_filtered) - gf0,
            total=sum(state.per_thread_total) - gt0,
            per_thread_total=state.per_thread_total,
            per_thread_filtered=state.per_thread_filtered,
            counts_at_end=state.marker_counts,
            end_positions=state.positions,
        )

    def scout_filtered_cut(
        self, *, cursor: ReplayCursor, target_filtered: int
    ) -> CutPoint:
        """Locate the first entry at/after ``cursor`` whose pre-entry
        global filtered count reaches ``target_filtered``.

        This is region extraction's warmup-cut rule, walked on copied
        scalar state without advancing this replayer.
        """
        state = cursor.copy()
        found, _, _ = self._walk(state, filtered=target_filtered)
        if not found:
            raise ReplayError(
                f"filtered coordinate {target_filtered} beyond end of "
                f"execution (stopped at {sum(state.per_thread_filtered)})"
            )
        return CutPoint(
            positions=state.positions,
            total=sum(state.per_thread_total),
            filtered=sum(state.per_thread_filtered),
        )

    def advance_exec_counts(
        self,
        base_counts: Sequence[Sequence[int]],
        start_positions: Sequence[int],
        end_positions: Sequence[int],
    ) -> List[List[int]]:
        """Execution counts at a later cut: a snapshot plus the block
        entries between the two cuts."""
        counts = [list(row) for row in base_counts]
        for tid, log in enumerate(self.pinball.logs):
            row = counts[tid]
            for entry in log[start_positions[tid]:end_positions[tid]]:
                if entry[0] == "b":
                    row[entry[1]] += entry[2]
        return counts

    def run(
        self, until: Optional[Marker] = None, *, finish: bool = True
    ) -> EngineResult:
        """Replay, feeding observers; returns the summary.

        With ``until`` the replay stops exactly at the end marker's cut
        — just before the ``count``-th global execution of ``until.pc``
        — instead of at the end of the logs; combined with
        :meth:`fast_forward_to` this is marker-to-marker replay.  The
        ``count`` coordinate is global from program start, so once the
        replay has moved the PC must already be tracked (named in an
        earlier ``track_pcs``, ``until`` or target).  The walk counts
        every tracked PC, so segments of any kind chain without losing
        a count.

        ``finish=False`` suppresses the observers' ``on_finish`` —
        live sampling replays one execution as many ``until`` segments
        interleaved with fast-forwards, and only the last segment may
        finalize observers (the slicer treats a second finish as a
        hard error for exactly this reason).  Counters, positions and
        the EventRing flush behave identically either way, so a
        segmented replay's final :class:`EngineResult` is bit-identical
        to an unsegmented one's.
        """
        targets: Dict[int, int] = {}
        if until is not None:
            targets = self._pending({until.pc: until.count})
        ring = EventRing(
            self.program.blocks, self.pinball.nthreads, self.observers,
            capacity=self._batch_capacity,
            initial_exec_counts=self.exec_counts,
        )
        _, hit = self._advance(targets=targets, ring=ring)
        if until is not None and hit is not None and hit[1] != until.count:
            raise ReplayError(
                f"until marker {until} falls inside a batched entry"
            )
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

    # -- the walk ------------------------------------------------------------

    def _state(self) -> ReplayCursor:
        """This replay's own scheduling state (shared, not copied)."""
        return ReplayCursor(
            positions=self.positions,
            per_thread_total=self.per_thread_total,
            per_thread_filtered=self.per_thread_filtered,
            next_gseq=self._next_gseq,
            quantum_resume=self._quantum_resume,
            marker_counts=self._marker_counts,
        )

    def _track(self, counts: Dict[int, int], pcs: Iterable[int]) -> None:
        """Make every PC in ``pcs`` a tracked key of ``counts``.

        At program start an untracked PC's global count is 0.  Later it
        is unknown: the executions before this cut were never counted.
        """
        at_start = not any(self.positions)
        for pc in pcs:
            if pc not in counts:
                if not at_start:
                    raise ReplayError(
                        f"marker pc {pc:#x} was not tracked since program "
                        f"start (pass it via track_pcs): its global count "
                        f"at this cut is unknown"
                    )
                counts[pc] = 0

    def _pending(
        self, targets: Dict[int, int], track_pcs: Iterable[int] = ()
    ) -> Dict[int, int]:
        """Check marker targets before moving; key them by block id."""
        counts = self._marker_counts
        self._track(counts, (*targets, *track_pcs))
        for pc, count in targets.items():
            if counts[pc] > count:
                raise ReplayError(
                    f"marker ({pc:#x}, {count}) already passed: global "
                    f"count is {counts[pc]} at this cut"
                )
        block_at = self.program.block_at
        return {block_at(pc).bid: count for pc, count in targets.items()}

    def _advance(self, **stops) -> Tuple[bool, Optional[Tuple[int, int]]]:
        """Walk this replay's own state to the next stop."""
        events_before = sum(self.positions)
        state = self._state()
        found, _, hit = self._walk(state, **stops)
        self._next_gseq = state.next_gseq
        self._quantum_resume = state.quantum_resume
        self.total_instructions = sum(self.per_thread_total)
        self.filtered_instructions = sum(self.per_thread_filtered)
        self.num_events += sum(self.positions) - events_before
        return found, hit

    def _walk(
        self,
        state: ReplayCursor,
        *,
        targets: Optional[Dict[int, int]] = None,
        boundary_bids: FrozenSet[int] = frozenset(),
        boundary: Optional[int] = None,
        probe: Optional[int] = None,
        filtered: Optional[int] = None,
        ring: Optional[EventRing] = None,
    ) -> Tuple[bool, Optional[Tuple[int, int]], Optional[Tuple[int, int]]]:
        """Advance ``state`` along the deterministic schedule to a stop.

        The one scheduling loop: least filtered progress first, ties to
        the lower tid (the live threads stay in ascending tid order, so
        a stable sort keyed on progress alone yields ``(ptf, tid)``
        order), a :data:`QUANTUM_INSTRUCTIONS` quantum that admits every
        entry whose pre-entry thread total is below its end, the
        ``gseq`` gate on sync entries, and the in-flight quantum
        finished first after a cut.  It walks one log entry at a time, counts every PC in
        ``state.marker_counts`` and stops at whichever comes first:

        - *marker targets* (``targets``, block id -> pending global
          count): just before the first execution of a target block
          whose repeat run reaches its pending count.  The returned hit
          is that execution's pre-entry ``(pc, count)``; it differs from
          the target when the target falls inside a batched entry, which
          the caller rejects.
        - *region boundary* (``boundary``): the first execution of a
          ``boundary_bids`` block whose pre-entry global filtered count
          reaches it; the first such execution at/after ``probe`` is
          recorded without stopping.  This is exactly the slicer's
          close-slice rule, so the scout's boundary is the boundary the
          offline :class:`~repro.profiling.slicer.LoopAlignedSlicer`
          cuts.
        - *filtered coordinate* (``filtered``): the first entry whose
          pre-entry global filtered count reaches it — the warmup-cut
          rule of region extraction.

        With ``ring`` every consumed entry is delivered: block entries
        are appended to the ring, which flushes at capacity, and sync
        entries flush first when the ring asks for it, then go to each
        observer's ``on_sync``.

        Returns ``(found, probe, hit)`` with markers as ``(pc, count)``.
        """
        logs = self.pinball.logs
        n_instr = self._n_instr
        n_filtered = self._n_filtered
        pos = state.positions
        ptt = state.per_thread_total
        ptf = state.per_thread_filtered
        counts = state.marker_counts
        block_at = self.program.block_at
        pc_of = {block_at(pc).bid: pc for pc in counts}
        targets = targets or {}
        boundary_at = _NEVER if boundary is None else boundary
        probe_at = _NEVER if probe is None else probe
        filtered_at = _NEVER if filtered is None else filtered
        deliver = ring is not None
        if ring is not None:
            rows = ring.buffers()
            append_row = rows.append
            encode = ring.encode
            code_of = ring.row_codes()
            capacity = ring.capacity
            flush = ring.flush
            flush_on_sync = ring.flush_on_sync
            observers = self.observers
        quantum = QUANTUM_INSTRUCTIONS
        ends = [len(log) for log in logs]
        next_gseq = state.next_gseq
        gf = sum(ptf)
        # Ascending tids: a stable sort on filtered progress alone then
        # breaks ties by tid, the (ptf, tid) order, with a C-level key.
        live = [t for t in range(len(logs)) if pos[t] < ends[t]]
        by_progress = ptf.__getitem__
        found = False
        probe_hit: Optional[Tuple[int, int]] = None
        hit: Optional[Tuple[int, int]] = None
        resume = state.quantum_resume
        if gf >= filtered_at:
            return True, None, None
        state.quantum_resume = None

        while live and not found:
            if resume is not None and resume[0] in live:
                # A cut interrupted this thread mid-quantum: finish that
                # quantum first, exactly as an uninterrupted replay would.
                candidates = [resume[0]]
                resume_round = True
            else:
                resume = None
                candidates = sorted(live, key=by_progress)
                resume_round = False
            progressed = False
            for tid in candidates:
                log = logs[tid]
                p = pos[tid]
                end = ends[tid]
                tt = ptt[tid]
                tf = ptf[tid]
                if resume is not None:
                    stop_at = tt + resume[1]
                    resume = None
                else:
                    stop_at = tt + quantum
                while tt < stop_at and p < end:
                    if gf >= filtered_at:
                        found = True
                        state.quantum_resume = (tid, stop_at - tt)
                        break
                    entry = log[p]
                    if entry[0] == "b":
                        bid = entry[1]
                        rep = entry[2]
                        if bid in pc_of:
                            pc = pc_of[bid]
                            c = counts[pc]
                            if bid in boundary_bids:
                                if probe_hit is None and gf >= probe_at:
                                    probe_hit = (pc, c)
                                if gf >= boundary_at:
                                    hit = (pc, c)
                                    found = True
                                    state.quantum_resume = (tid, stop_at - tt)
                                    break
                            target = targets.get(bid)
                            if target is not None and c + rep > target:
                                hit = (pc, c)
                                found = True
                                state.quantum_resume = (tid, stop_at - tt)
                                break
                            counts[pc] = c + rep
                        tt += n_instr[bid] * rep
                        df = n_filtered[bid] * rep
                        tf += df
                        gf += df
                        if deliver:
                            code = code_of.get((tid, bid, rep))
                            if code is None:
                                code = encode(tid, bid, rep)
                            append_row(code)
                            if len(rows) >= capacity:
                                flush()
                    else:
                        _, kind, obj_id, response, gseq = entry
                        if gseq != next_gseq:
                            break  # not this thread's turn at the order
                        next_gseq += 1
                        if deliver:
                            if flush_on_sync:
                                flush()
                            for ob in observers:
                                ob.on_sync(tid, kind, obj_id, response, gseq)
                    p += 1
                    progressed = True
                pos[tid] = p
                ptt[tid] = tt
                ptf[tid] = tf
                if p >= end:
                    live.remove(tid)
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
                    f"replay stuck: next_gseq={next_gseq}, thread sync heads "
                    f"{waiting} — corrupt or truncated pinball"
                )
        state.next_gseq = next_gseq
        return found, probe_hit, hit
