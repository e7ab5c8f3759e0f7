"""The multicore simulator: one timed thread loop, three routes.

Every route runs per-thread tapes (see
:mod:`~repro.exec_engine.schedcore`) on one loop,
:meth:`MultiCoreSimulator._run_threads`: the runnable thread with the
lowest core clock, ties to the lowest tid, takes the next event.  Block
events move only their own core's clock; sync events resolve at simulated
cycles.  The routes differ only in where their tapes come from and what
their sync ops do.

**Binary-driven unconstrained** (:meth:`MultiCoreSimulator.run_binary`): the
timing model owns thread progress.  Barriers, locks, and dynamic
scheduling are resolved at simulated time, so spin-loop instruction counts
and chunk assignments follow the *target* microarchitecture — the paper's
preferred mode (Sec. II "How to simulate").  The threads run the tapes
that :func:`~repro.exec_engine.schedcore.compile_streams` compiles for the
functional engine too, so a construct's semantics are defined once; chunk
and single grants resolve in the timed loop.  Regions of interest are
delimited by ``(PC, count)`` markers (LoopPoint), global instruction
counts (the naive SimPoint baseline), or barrier ordinals
(BarrierPoint).  Disjoint regions are measured in one sweep.  Before a
region the simulator warms caches and predictor with the full cost model,
by default all the way from the previous region's end or program start:
the paper's "perfect warmup".  A region may instead name a ``warm_start``
marker.  The sweep then fast-forwards functionally up to it (exact
execution and marker counts and predictor state, clocks advanced by the
non-memory cost terms, no cache probes) and warms only from there.

**ELFies** (:meth:`MultiCoreSimulator.run_elfie`), the other unconstrained
route of Sec. II, run with passive waits: an ELFie's thread code compiles
to block runs plus barrier and lock ops
(:meth:`~repro.pinplay.elfie.ELFie.tapes`) that the timing model resolves
live.

**Checkpoint-driven constrained** (:meth:`MultiCoreSimulator.run_pinball`):
replays a (region) pinball's logs while *enforcing the recorded sync
order*.  A log compiles to block runs plus one ``OP_GSEQ`` op per
recorded sync action (:meth:`~repro.pinplay.pinball.Pinball.tapes`).  A
thread that reaches such an op before its ``gseq`` turn blocks until the
thread of the turn before wakes it; at its turn its core stalls to the
object's last sync cycle.  Recorded spin iterations are re-executed
verbatim, so this reproduces the distortions the paper measures in
Sec. V-A.1.

ELFie and pinball runs measure their detail portion with one
:class:`_DetailWindow`: per-thread warmup/detail crossings, each core
snapshotted when its own thread crosses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..config import SystemConfig
from ..errors import DeadlockError, RegionError, SimulationError
from ..exec_engine.events import (
    BarrierWait,
    LockAcquire,
    LockRelease,
    Reduce,
)
from ..exec_engine.schedcore import (
    OP_CHUNK,
    OP_DONE,
    OP_GSEQ,
    OP_RET,
    OP_RUN,
    OP_SYNC,
    compile_streams,
)
from ..isa.blocks import BasicBlock
from ..isa.image import Program
from ..pinplay.pinball import Pinball
from ..policy import SpinParams, WaitPolicy
from ..profiling.markers import Marker, MarkerTracker
from ..runtime.omp import OmpRuntime
from ..runtime.thread import ThreadProgram
from .core import CoreModel
from .hierarchy import MemoryHierarchy
from .metrics import SimMetrics

_RUNNABLE = 0
_BLOCKED = 1
_DONE = 2


@dataclass(frozen=True)
class RegionOfInterest:
    """One simulation region, delimited in one of three coordinate systems.

    Exactly one family of boundaries should be used per region:

    * ``start``/``end`` — LoopPoint ``(PC, count)`` markers;
    * ``start_instr``/``end_instr`` — global instruction counts (the naive
      SimPoint adaptation of Sec. II);
    * ``start_barrier``/``end_barrier`` — global barrier-release ordinals
      (BarrierPoint).

    A missing start means "program start"; a missing end means "program
    end".

    ``warm_start`` (marker-started regions only) bounds the warmup: a sweep
    fast-forwards functionally up to that marker, then warms with the full
    cost model until ``start``.  ``None`` warms from the previous region's
    end, or from program start — perfect warmup.
    """

    region_id: int
    start: Optional[Marker] = None
    end: Optional[Marker] = None
    start_instr: Optional[int] = None
    end_instr: Optional[int] = None
    start_barrier: Optional[int] = None
    end_barrier: Optional[int] = None
    warm_start: Optional[Marker] = None

    @property
    def starts_at_origin(self) -> bool:
        return (
            self.start is None
            and self.start_instr is None
            and self.start_barrier is None
        )

    @property
    def open_ended(self) -> bool:
        return (
            self.end is None
            and self.end_instr is None
            and self.end_barrier is None
        )


@dataclass
class SimulationResult:
    """Detailed metrics of one region (or the whole run)."""

    region_id: int
    metrics: SimMetrics
    start_cycle: int
    end_cycle: int
    #: Instructions a binary-driven sweep ran with the full cost model
    #: just before this region, outside any region: its warm window.
    warm_instructions: int = 0


class _SimThread:
    """A thread's state and its place in its tape.

    ``tape[op]`` is the next op; ``ret`` is the stream op a sub-tape's
    ``OP_RET`` returns to.  The current block run is entries ``[i, end)``
    of the columns ``bids``/``reps``/``pre`` (instruction prefix sums),
    with ``left`` passes over the pattern to go, this one included.
    """

    __slots__ = (
        "tid", "state", "tape", "op", "ret",
        "bids", "reps", "pre", "i", "end", "left",
    )

    def __init__(self, tid: int, tape: List[tuple]) -> None:
        self.tid = tid
        self.state = _RUNNABLE
        self.tape = tape
        self.op = 0
        self.ret = 0
        self.bids = self.reps = self.pre = ()
        self.i = self.end = 0
        self.left = 0


class _SimLock:
    __slots__ = ("owner", "waiters")

    def __init__(self) -> None:
        self.owner: Optional[int] = None
        self.waiters: List[Tuple[int, int]] = []  # (request_cycle, tid)


class _RegionController:
    """Tracks region transitions during a binary-driven sweep.

    The simulator reports marker executions, instruction progress, and
    barrier releases; the controller snapshots metrics at each region
    boundary and owns the simulator's ``fast_forward`` switch: on while a
    pending region's ``warm_start`` marker has not been reached, off
    everywhere else.  A sweep in which every live thread blocks is a
    deadlock.
    """

    stop_when_blocked = False

    def __init__(
        self,
        sim: "MultiCoreSimulator",
        rois: Sequence[RegionOfInterest],
        nthreads: int,
    ):
        self._sim = sim
        self._nthreads = nthreads
        self.rois = list(rois)
        for i, roi in enumerate(self.rois[1:], start=1):
            if roi.starts_at_origin:
                raise RegionError(
                    f"region {roi.region_id} (position {i}) may not start at "
                    f"program origin"
                )
        marker_blocks = []
        for roi in self.rois:
            if roi.warm_start is not None and roi.start is None:
                raise RegionError(
                    f"region {roi.region_id}: a warm_start needs a start "
                    f"marker"
                )
            for marker in (roi.warm_start, roi.start, roi.end):
                if marker is not None:
                    marker_blocks.append(sim.program.block_at(marker.pc))
        self.tracker = MarkerTracker(marker_blocks) if marker_blocks else None
        self.global_instructions = 0
        self.barrier_releases = 0
        self.results: List[SimulationResult] = []
        self._idx = 0
        self.detailed = self.rois[0].starts_at_origin
        self._start_snapshot = sim._snapshot() if self.detailed else None
        self._start_cycle = 0
        self._warm_from = 0
        self._warm_instructions = 0
        if not self.detailed:
            self._arm()

    @property
    def finished(self) -> bool:
        return self._idx >= len(self.rois)

    # -- boundary events --------------------------------------------------------
    #
    # Region time is read from the *global* clock: the maximum core cycle.
    # It is monotone at every boundary, so adjacent regions telescope exactly
    # and the sum of all slices equals the whole run — a per-core clock would
    # leak inter-core drift (which, at reproduction scale, is not negligible
    # relative to a slice) into every region measurement.

    def _global_cycle(self) -> int:
        return max(
            core.cycle for core in self._sim.cores[: self._nthreads]
        )

    def _instructions(self) -> int:
        return sum(core.instructions for core in self._sim.cores)

    def _arm(self) -> None:
        """Between regions: fast-forward until the next region's warm
        start, unless it is ``None`` or already passed."""
        warm = self.rois[self._idx].warm_start
        self._sim.fast_forward = (
            warm is not None
            and self.tracker is not None
            and self.tracker.count(warm.pc) <= warm.count
        )
        self._warm_from = self._instructions()

    def _warm(self) -> None:
        self._sim.fast_forward = False
        self._warm_from = self._instructions()

    def _begin(self) -> None:
        # Racing threads can reach a start before its warm start; the
        # region is then simulated in detail with an empty warm window.
        if self._sim.fast_forward:
            self._warm()
        self.detailed = True
        self._warm_instructions = self._instructions() - self._warm_from
        self._start_snapshot = self._sim._snapshot()
        self._start_cycle = self._global_cycle()

    def _finish(self) -> None:
        roi = self.rois[self._idx]
        end_cycle = self._global_cycle()
        metrics = self._sim._snapshot().minus(self._start_snapshot)
        metrics.cycles = max(1, end_cycle - self._start_cycle)
        self.results.append(
            SimulationResult(
                region_id=roi.region_id,
                metrics=metrics,
                start_cycle=self._start_cycle,
                end_cycle=end_cycle,
                warm_instructions=self._warm_instructions,
            )
        )
        self.detailed = False
        self._idx += 1
        if not self.finished:
            self._arm()

    def pre_block(self, block: BasicBlock, repeat: int) -> None:
        """Called before every block execution."""
        before = None
        if self.tracker is not None:
            before = self.tracker.record(block.bid, repeat)
        while not self.finished:
            roi = self.rois[self._idx]
            if not self.detailed:
                if roi.start is not None:
                    if before is None:
                        return
                    # The warm start ends fast-forward; the same block may
                    # also start the region.
                    w = roi.warm_start
                    if (
                        self._sim.fast_forward
                        and w is not None
                        and w.pc == block.pc
                        and before + repeat > w.count
                    ):
                        self._warm()
                    m = roi.start
                    # Trigger when the marker count is reached *or passed*:
                    # under racing threads the global counts of different
                    # marker PCs may cross in a different order than during
                    # profiling (the paper's region-stability caveat), so a
                    # strict equality could wait forever.
                    if m.pc == block.pc and before + repeat > m.count:
                        self._begin()
                    else:
                        return
                elif roi.start_instr is not None:
                    if self.global_instructions >= roi.start_instr:
                        self._begin()
                    else:
                        return
                elif roi.start_barrier is not None:
                    return  # barrier starts handled in post_barrier
                else:
                    return
            # Detailed: check whether this same point ends the region.
            roi = self.rois[self._idx]
            if roi.end is not None:
                if before is None:
                    return
                m = roi.end
                if m.pc == block.pc and before + repeat > m.count:
                    self._finish()
                    continue  # same marker may open the next region
                return
            if roi.end_instr is not None:
                if self.global_instructions >= roi.end_instr:
                    self._finish()
                    continue
                return
            return  # barrier-delimited or open end

    def post_block(self, n_instructions: int) -> None:
        self.global_instructions += n_instructions

    def post_event(self, tid: int) -> None:
        pass

    def post_barrier_release(self) -> None:
        """Called after every barrier release (all threads through)."""
        self.barrier_releases += 1
        while not self.finished:
            roi = self.rois[self._idx]
            if (
                self.detailed
                and roi.end_barrier is not None
                and self.barrier_releases >= roi.end_barrier
            ):
                self._finish()
                continue
            if (
                not self.detailed
                and roi.start_barrier is not None
                and self.barrier_releases >= roi.start_barrier
            ):
                self._begin()
                continue
            return

    def finalize(self, whole_run: bool, clip_at_end: bool = False) -> None:
        if self.finished:
            return
        roi = self.rois[self._idx]
        if self.detailed and (roi.open_ended or clip_at_end):
            self._finish()
            return
        if self.detailed or not roi.open_ended:
            if clip_at_end:
                return
            raise RegionError(
                f"region {roi.region_id}: boundaries never reached "
                f"(detailed={self.detailed})"
            )
        if whole_run:
            raise RegionError("whole-run simulation never started detail")


class _DetailWindow:
    """The detail portion of a checkpoint (region pinball or ELFie) run.

    ``detail_at[t]`` is the number of thread ``t``'s log or code entries
    that run as warmup.  Threads drift apart during a checkpoint run, so a
    single global snapshot would misattribute work near the boundary:
    instead each core's counters are snapshotted when *its* thread crosses
    into the detail portion, and the shared L3 at the first crossing.  The
    region's clock starts once every thread has crossed.

    The window is also the thread loop's controller for both checkpoint
    routes.  ``stop_when_blocked`` says what a run whose live threads all
    block means.  For an ELFie it is the end: a barrier clipped at the
    region edge leaves threads waiting that no arrival will release.  For
    a pinball it is a :class:`DeadlockError`: a recorded order no thread
    can meet.
    """

    finished = False

    def __init__(
        self,
        sim: "MultiCoreSimulator",
        detail_at: List[int],
        stop_when_blocked: bool,
    ):
        self._sim = sim
        self._detail_at = detail_at
        self.stop_when_blocked = stop_when_blocked
        self._progress = [0] * len(detail_at)
        self._snaps: List[Optional[Dict[str, int]]] = [
            sim._core_snapshot(t) if at <= 0 else None
            for t, at in enumerate(detail_at)
        ]
        self._pending = self._snaps.count(None)
        self._l3 = (
            sim.hierarchy.l3_misses if self._pending < len(detail_at)
            else None
        )
        self.start_cycle = 0

    def _global_cycle(self) -> int:
        return max(
            core.cycle for core in self._sim.cores[: len(self._detail_at)]
        )

    def pre_block(self, block: BasicBlock, repeat: int) -> None:
        pass

    def post_block(self, n_instructions: int) -> None:
        pass

    def post_barrier_release(self) -> None:
        pass

    def post_event(self, tid: int) -> None:
        """Called after each of thread ``tid``'s log or code entries."""
        self._progress[tid] += 1
        if (
            self._snaps[tid] is None
            and self._progress[tid] >= self._detail_at[tid]
        ):
            self._snaps[tid] = self._sim._core_snapshot(tid)
            if self._l3 is None:
                self._l3 = self._sim.hierarchy.l3_misses
            self._pending -= 1
            if not self._pending:
                self.start_cycle = self._global_cycle()

    def result(self, region_id: int, what: str) -> SimulationResult:
        if self._pending:
            raise RegionError(f"{what} never reached its detail portion")
        end_cycle = self._global_cycle()
        metrics = SimMetrics()
        for t, snap in enumerate(self._snaps):
            for key, value in self._sim._core_snapshot(t).items():
                setattr(metrics, key, getattr(metrics, key) + value - snap[key])
        metrics.l3_misses = self._sim.hierarchy.l3_misses - (self._l3 or 0)
        metrics.cycles = max(1, end_cycle - self.start_cycle)
        return SimulationResult(
            region_id=region_id,
            metrics=metrics,
            start_cycle=self.start_cycle,
            end_cycle=end_cycle,
        )


class MultiCoreSimulator:
    """A Sniper-like multicore simulator over the repro program model."""

    def __init__(
        self,
        program: Program,
        system: SystemConfig,
        omp: OmpRuntime,
        spin: Optional[SpinParams] = None,
    ) -> None:
        self.program = program
        self.system = system
        self.omp = omp
        self.spin = spin or SpinParams()
        #: Functional fast-forward: blocks skip the memory model.  Only the
        #: binary-driven region controller turns it on.
        self.fast_forward = False
        self.hierarchy = MemoryHierarchy(system)
        self.cores = [
            CoreModel(i, system.core, self.hierarchy)
            for i in range(system.num_cores)
        ]
        self.exec_counts = [
            [0] * program.num_blocks for _ in range(system.num_cores)
        ]

    # -- shared helpers -----------------------------------------------------

    def _snapshot(self) -> SimMetrics:
        m = SimMetrics()
        for tid in range(len(self.cores)):
            for key, value in self._core_snapshot(tid).items():
                setattr(m, key, getattr(m, key) + value)
        m.l3_misses = self.hierarchy.l3_misses
        return m

    def _core_snapshot(self, tid: int) -> Dict[str, int]:
        """One core's contribution to the (per-core) SimMetrics counters."""
        core = self.cores[tid]
        stats = self.hierarchy.core_stats(tid)
        return {
            "instructions": core.instructions,
            "filtered_instructions": core.filtered_instructions,
            "branches": core.predictor.branches,
            "branch_mispredicts": core.predictor.mispredicts,
            "l1d_accesses": core.l1d_accesses,
            "l1i_misses": stats["l1i_misses"],
            "l1d_misses": stats["l1d_misses"],
            "l2_misses": stats["l2_misses"],
        }

    def _exec(self, tid: int, block: BasicBlock, repeat: int) -> int:
        start = self.exec_counts[tid][block.bid]
        self.exec_counts[tid][block.bid] = start + repeat
        if self.fast_forward:
            return self.cores[tid].fast_forward_block(block, repeat)
        return self.cores[tid].execute_block(block, start, repeat)

    def _spin_fill(self, tid: int, duration: int) -> None:
        """Fill a wait of ``duration`` cycles with spin-loop iterations."""
        iters = max(1, duration // self.spin.cycles_per_iteration)
        self._exec(tid, self.omp.spin_block, iters)

    # ======================================================================
    # Binary-driven unconstrained simulation
    # ======================================================================

    def run_binary(
        self,
        thread_program: ThreadProgram,
        nthreads: int,
        wait_policy: WaitPolicy,
        regions: Optional[Sequence[RegionOfInterest]] = None,
        max_events: Optional[int] = None,
        clip_at_end: bool = False,
    ) -> List[SimulationResult]:
        """Simulate the program, measuring each region (whole run if None).

        Regions must be disjoint and given in execution order; the simulator
        performs one sweep.  Before each region it warms with the full cost
        model, from the region's ``warm_start`` marker if it has one (after
        a functional fast-forward to it), else from the previous region's
        end or program start.

        ``clip_at_end`` tolerates region boundaries the execution never
        reaches (regions past program end are dropped; an open detailed
        region is closed at termination).  The naive instruction-count
        baseline needs this: its profiled coordinates routinely overrun the
        simulated execution, which is precisely its failure mode.
        """
        if nthreads > self.system.num_cores:
            raise SimulationError(
                f"{nthreads} threads need {nthreads} cores, system has "
                f"{self.system.num_cores}"
            )
        whole_run = not regions
        if whole_run:
            regions = [RegionOfInterest(region_id=-1)]
        ctl = _RegionController(self, regions, nthreads)
        streams = compile_streams(thread_program, nthreads)
        try:
            self._run_threads(
                ctl, streams, wait_policy is WaitPolicy.ACTIVE, max_events
            )
            ctl.finalize(whole_run, clip_at_end)
        finally:
            self.fast_forward = False
        if len(ctl.results) != len(ctl.rois) and not clip_at_end:
            raise RegionError(
                f"{len(ctl.rois) - len(ctl.results)} region(s) never reached"
            )
        return ctl.results

    def _run_threads(
        self,
        ctl,
        streams: Sequence[List[tuple]],
        active: bool,
        max_events: Optional[int] = None,
    ) -> None:
        """Run one tape per thread in simulated-time order.

        ``streams[tid]`` is thread ``tid``'s tape (see
        :mod:`~repro.exec_engine.schedcore`).  The runnable thread with the
        lowest core clock, ties to the lowest tid, takes the next event:
        one block run entry or one sync op.  Sync events are resolved at
        simulated cycles; chunk and single grants are decided here, when
        the request runs.  An ``OP_GSEQ`` op (pinball tapes) runs only at
        its ``gseq`` turn: a thread that reaches it early blocks there,
        without an event, until the op of the turn before wakes it.
        ``ctl`` is a :class:`_RegionController` or a
        :class:`_DetailWindow`: the loop reports blocks, events and barrier
        releases to it, stops once it is ``finished``, and, when every live
        thread is blocked, ends the run if its ``stop_when_blocked`` is set
        and raises :class:`DeadlockError` otherwise.
        """
        threads = [_SimThread(tid, tape) for tid, tape in enumerate(streams)]
        cores = self.cores
        blocks = self.program.blocks
        chunk_fetch = self.omp.chunk_fetch
        exec_block = self._exec
        pre_block = ctl.pre_block
        post_block = ctl.post_block
        post_event = ctl.post_event

        barriers: Dict[int, List[Tuple[int, int]]] = {}
        locks: Dict[int, _SimLock] = {}
        chunks: Dict[int, int] = {}
        singles: set = set()
        # The recorded order: the next gseq due, the thread blocked at each
        # later one, and each sync object's last sync cycle.  PinPlay
        # enforces the recorded order of *conflicting* accesses, not one
        # global total order, so the time coupling is per object while the
        # gseq gate fixes the global interleaving of sync actions.
        next_gseq = 0
        gated: Dict[int, _SimThread] = {}
        last_sync: Dict[tuple, int] = {}
        num_events = 0
        maxev = max_events if max_events is not None else 1 << 62

        while not ctl.finished:
            # The lowest (clock, tid) runnable thread, and the runner-up.
            best = second = None
            best_cycle = second_cycle = 0
            for t in threads:
                if t.state == _RUNNABLE:
                    c = cores[t.tid].cycle
                    if best is None or c < best_cycle:
                        second, second_cycle = best, best_cycle
                        best, best_cycle = t, c
                    elif second is None or c < second_cycle:
                        second, second_cycle = t, c
            if best is None:
                blocked = [t.tid for t in threads if t.state == _BLOCKED]
                if blocked and not ctl.stop_when_blocked:
                    raise DeadlockError(
                        f"timing sim: all live threads blocked {blocked}"
                    )
                return

            thread = best
            tid = thread.tid
            core = cores[tid]
            # Turns are single events, which keeps inter-core drift at one
            # block batch and so bounds region-boundary jitter on the
            # global clock.  A block event moves only its own core's clock
            # and thread states change only at sync events, so after a
            # block event the scan would pick this thread again exactly
            # while its (clock, tid) stays below the runner-up's.
            limit = (
                second_cycle + (tid < second.tid) if second is not None
                else float("inf")
            )
            bids = thread.bids
            reps = thread.reps
            pre = thread.pre
            i = thread.i
            end = thread.end
            while True:
                if i < end:
                    block = blocks[bids[i]]
                    repeat = reps[i]
                    num_events += 1
                    pre_block(block, repeat)
                    if ctl.finished:
                        return
                    exec_block(tid, block, repeat)
                    post_block(pre[i + 1] - pre[i])
                    i += 1
                    post_event(tid)
                    if num_events > maxev:
                        raise SimulationError(
                            f"exceeded max_events={max_events}"
                        )
                    if core.cycle < limit:
                        continue
                    break
                if thread.left > 1:
                    # The next pass over the run's pattern.
                    thread.left -= 1
                    i = 0
                    continue
                op = thread.tape[thread.op]
                code = op[0]
                if code == OP_RUN:
                    thread.op += 1
                    bids, reps, pre = op[1], op[2], op[3]
                    i, end, thread.left = 0, len(bids), op[5]
                    continue
                if code == OP_RET:
                    # End of a sub-tape: back to the stream.  Not an event.
                    thread.tape = streams[tid]
                    thread.op = thread.ret
                    continue
                if code == OP_DONE:
                    thread.state = _DONE
                    break

                if code == OP_GSEQ and op[1] != next_gseq:
                    # Not this thread's turn: wait at the op.
                    thread.state = _BLOCKED
                    gated[op[1]] = thread
                    break

                # A sync op: one event, then a fresh scan.
                thread.op += 1
                num_events += 1
                event = op[1]
                if code == OP_SYNC:
                    etype = type(event)
                    if etype is BarrierWait:
                        if self._handle_barrier_timed(
                            thread, event.barrier_id, barriers, threads,
                            active,
                        ):
                            ctl.post_barrier_release()
                    elif etype is LockAcquire:
                        self._handle_lock_acquire_timed(
                            thread, event.lock_id, locks, active
                        )
                    elif etype is LockRelease:
                        self._handle_lock_release_timed(
                            thread, event.lock_id, locks, threads, active
                        )
                    elif etype is Reduce:
                        exec_block(tid, self.omp.reduce_combine, 1)
                    else:
                        raise SimulationError(f"unknown event {event!r}")
                elif code == OP_GSEQ:
                    # The artificial stall: this thread may have been ready
                    # long before its turn at this object.
                    key = op[2]
                    if core.cycle < last_sync.get(key, 0):
                        core.cycle = last_sync[key]
                    last_sync[key] = core.cycle
                    next_gseq += 1
                    waiter = gated.pop(next_gseq, None)
                    if waiter is not None:
                        waiter.state = _RUNNABLE
                else:  # OP_CHUNK / OP_SINGLE: a grant runs its sub-tape
                    sub = None
                    if code == OP_CHUNK:
                        start = chunks.get(event.loop_id, 0)
                        exec_block(tid, chunk_fetch, 1)
                        if start < event.total_iters:
                            chunks[event.loop_id] = start + event.chunk_size
                            sub = op[2][start // event.chunk_size]
                            # Run the chunk, then request again.
                            thread.op -= 1
                    elif event.single_id not in singles:
                        singles.add(event.single_id)
                        sub = op[2]
                    if sub is not None:
                        thread.ret = thread.op
                        thread.tape = sub
                        thread.op = 0
                post_event(tid)
                if num_events > maxev:
                    raise SimulationError(f"exceeded max_events={max_events}")
                break
            thread.bids = bids
            thread.reps = reps
            thread.pre = pre
            thread.i = i
            thread.end = end

    # -- timed synchronization (binary-driven) ------------------------------

    def _handle_barrier_timed(
        self,
        thread: _SimThread,
        barrier_id: int,
        barriers: Dict[int, List[Tuple[int, int]]],
        threads: List[_SimThread],
        active: bool,
    ) -> bool:
        """Arrive at a barrier; True when this arrival released it."""
        tid = thread.tid
        cores = self.cores
        self._exec(tid, self.omp.barrier_enter, 1)
        arrivals = barriers.setdefault(barrier_id, [])
        arrivals.append((cores[tid].cycle, tid))
        if len(arrivals) < len(threads):
            thread.state = _BLOCKED
            if not active:
                self._exec(tid, self.omp.futex_wait, 1)
            return False
        # Last arrival releases everyone.
        release = max(cycle for cycle, _t in arrivals)
        for arrive_cycle, other_tid in arrivals:
            other = threads[other_tid]
            if other_tid != tid:
                wait = release - arrive_cycle
                if active:
                    if wait > 0:
                        self._spin_fill(other_tid, wait)
                    cores[other_tid].cycle = release + self.spin.spin_resume_cycles
                else:
                    self._exec(other_tid, self.omp.futex_wake, 1)
                    cores[other_tid].cycle = release + self.spin.futex_wake_cycles
                other.state = _RUNNABLE
            self._exec(other_tid, self.omp.barrier_exit, 1)
        del barriers[barrier_id]
        return True

    def _handle_lock_acquire_timed(
        self,
        thread: _SimThread,
        lock_id: int,
        locks: Dict[int, _SimLock],
        active: bool,
    ) -> None:
        tid = thread.tid
        lock = locks.setdefault(lock_id, _SimLock())
        if lock.owner is None:
            lock.owner = tid
            self._exec(tid, self.omp.lock_acquire, 1)
            return
        lock.waiters.append((self.cores[tid].cycle, tid))
        thread.state = _BLOCKED
        if not active:
            self._exec(tid, self.omp.futex_wait, 1)

    def _handle_lock_release_timed(
        self,
        thread: _SimThread,
        lock_id: int,
        locks: Dict[int, _SimLock],
        threads: List[_SimThread],
        active: bool,
    ) -> None:
        tid = thread.tid
        lock = locks.get(lock_id)
        if lock is None or lock.owner != tid:
            raise SimulationError(
                f"thread {tid} released lock {lock_id} it does not own"
            )
        self._exec(tid, self.omp.lock_release, 1)
        release = self.cores[tid].cycle
        if not lock.waiters:
            lock.owner = None
            return
        lock.waiters.sort()
        request_cycle, next_tid = lock.waiters.pop(0)
        lock.owner = next_tid
        waiter = threads[next_tid]
        wait = max(0, release - request_cycle)
        if active:
            if wait > 0:
                self._spin_fill(next_tid, wait)
            self.cores[next_tid].cycle = (
                max(release, request_cycle) + self.spin.spin_resume_cycles
            )
        else:
            self._exec(next_tid, self.omp.futex_wake, 1)
            self.cores[next_tid].cycle = release + self.spin.futex_wake_cycles
        self._exec(next_tid, self.omp.lock_acquire, 1)
        waiter.state = _RUNNABLE

    # ======================================================================
    # ELFie execution (unconstrained executable checkpoints)
    # ======================================================================

    def run_elfie(self, elfie) -> SimulationResult:
        """Execute an :class:`~repro.pinplay.elfie.ELFie` unconstrained.

        The ELFie's reconstructed thread code runs on the thread loop with
        passive waits (barriers and locks re-resolved by the timing
        model), starting from the checkpointed execution counters.  Warmup
        entries run with the full cost model; a :class:`_DetailWindow`
        measures the detail portion.  A barrier clipped at the region edge
        may leave threads waiting at the end; the run then simply stops.
        """
        return self._run_checkpoint("ELFie", elfie, stop_when_blocked=True)

    # ======================================================================
    # Checkpoint-driven constrained simulation
    # ======================================================================

    def run_pinball(self, pinball: Pinball) -> SimulationResult:
        """Constrained simulation of a (region) pinball.

        The recorded sync order is enforced exactly: a thread whose next
        sync action is not yet due stalls (its recorded spin iterations, if
        any, were already captured in the logs), and a recorded order no
        thread can meet raises :class:`DeadlockError`.  For a
        :class:`~repro.pinplay.pinball.RegionPinball`, warmup entries run
        with the full cost model and a :class:`_DetailWindow`, shared with
        :meth:`run_elfie`, measures only the detail portion.
        """
        return self._run_checkpoint(
            "pinball", pinball, stop_when_blocked=False
        )

    def _run_checkpoint(
        self, what: str, checkpoint, stop_when_blocked: bool
    ) -> SimulationResult:
        """Run an ELFie's or a pinball's tapes with passive waits.

        A region checkpoint starts from its execution counters and measures
        its detail portion; a whole-program pinball has neither and is
        measured whole.
        """
        nthreads = checkpoint.nthreads
        if nthreads > self.system.num_cores:
            raise SimulationError(
                f"{what} has {nthreads} threads, system has "
                f"{self.system.num_cores} cores"
            )
        for tid, counts in enumerate(
            getattr(checkpoint, "start_exec_counts", ())
        ):
            self.exec_counts[tid] = list(counts)
        window = _DetailWindow(
            self,
            list(getattr(checkpoint, "detail_positions", ())) or [0] * nthreads,
            stop_when_blocked,
        )
        self._run_threads(window, checkpoint.tapes(self.program), active=False)
        return window.result(getattr(checkpoint, "region_id", -1), what)
