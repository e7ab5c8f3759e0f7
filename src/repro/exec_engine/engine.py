"""The functional execution engine (Pin's role in the paper).

Runs a :class:`~repro.runtime.thread.ThreadProgram` against its static
:class:`~repro.isa.image.Program` under a seeded host scheduler.  The seed
models run-to-run host nondeterminism: different seeds interleave threads
differently, which changes spin-loop instruction counts (ACTIVE wait policy)
and dynamic-schedule chunk assignments — while the application's *work*
(worker-loop trip counts, hence ``(PC, count)`` markers) stays invariant.

Synchronization library code (:class:`~repro.runtime.omp.OmpRuntime` blocks)
is executed here on behalf of threads: barrier entry/exit, spin iterations
while blocked (ACTIVE), futex paths (PASSIVE), lock handoffs, chunk fetches.

Block events reach observers through an
:class:`~repro.perf.ring.EventRing` as numpy column batches; sync events
go to ``Observer.on_sync`` one at a time, in gseq order.  The ring is
flushed before every sync event, so block/sync ordering is exact, unless
every attached observer clears ``needs_flush_before_sync`` (then batches
run across syncs; a recording's recorder and DCFG builder both do).  The
constrained replayer delivers syncs under the same rule.  A ring of
capacity 1 delivers every block event on its own, which is the per-event
reference the equivalence tests compare against.

One scheduling loop, :meth:`ExecutionEngine.run`, drives every program: the
constructor compiles the thread program into per-thread tapes
(:func:`~.schedcore.compile_streams`), and each scheduling round consumes
a jittered quantum of the chosen thread's tape.  A construct type the
tape compiler does not know is rejected at construction.  The timing
simulator runs the same tapes.  The test suite checks the tapes against
a generator-driven reference engine that reuses this class's sync
handlers.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from typing import Any, Dict, List, Optional, Sequence, TYPE_CHECKING

from ..errors import DeadlockError, ExecutionError
from ..obs.tracer import active_metrics
from ..isa.blocks import BasicBlock
from ..isa.image import Program
from ..perf.ring import DEFAULT_CAPACITY, EventRing
from ..policy import WaitPolicy
from .events import (
    BarrierWait,
    ChunkRequest,
    LockAcquire,
    LockRelease,
    Reduce,
    SingleRequest,
    SYNC_BARRIER,
    SYNC_BARRIER_REL,
    SYNC_CHUNK,
    SYNC_LOCK_ACQ,
    SYNC_LOCK_REL,
    SYNC_SINGLE,
)
from .flowcontrol import FlowControl
from .observers import Observer
from .schedcore import (
    OP_CHUNK,
    OP_DONE,
    OP_RET,
    OP_RUN,
    OP_SYNC,
    compile_streams,
)

#: Scheduling quantum in *instructions*: an engine round runs a jittered
#: 1.0-1.5x of it, a replay round exactly it.  Batched block events make an
#: event-count quantum far too coarse for balanced interleavings.
QUANTUM_INSTRUCTIONS = 600

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..runtime.omp import OmpRuntime
    from ..runtime.thread import ThreadProgram


class ThreadState(Enum):
    RUNNABLE = "runnable"
    BLOCKED = "blocked"
    DONE = "done"


class _Thread:
    __slots__ = ("tid", "state", "response")

    def __init__(self, tid: int) -> None:
        self.tid = tid
        self.state = ThreadState.RUNNABLE
        self.response: Any = None


class _Lock:
    __slots__ = ("owner", "waiters")

    def __init__(self) -> None:
        self.owner: Optional[int] = None
        self.waiters: List[int] = []


@dataclass
class EngineResult:
    """Summary of one functional execution."""

    total_instructions: int
    filtered_instructions: int
    per_thread_total: List[int]
    per_thread_filtered: List[int]
    exec_counts: List[List[int]]
    num_events: int
    wait_policy: WaitPolicy
    seed: int

    @property
    def library_instructions(self) -> int:
        return self.total_instructions - self.filtered_instructions


class ExecutionEngine:
    """Interleaves thread tapes and resolves synchronization."""

    def __init__(
        self,
        program: Program,
        thread_program: "ThreadProgram",
        omp: "OmpRuntime",
        nthreads: int,
        *,
        wait_policy: WaitPolicy = WaitPolicy.PASSIVE,
        seed: int = 0,
        observers: Sequence[Observer] = (),
        flow_control: Optional[FlowControl] = None,
        max_events: Optional[int] = None,
        batch_capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        if nthreads < 1:
            raise ExecutionError(f"need at least one thread, got {nthreads}")
        self.program = program
        self.thread_program = thread_program
        self.omp = omp
        self.nthreads = nthreads
        self.wait_policy = wait_policy
        self.seed = seed
        self.observers = list(observers)
        self.flow_control = flow_control
        self.max_events = max_events

        self._threads = [_Thread(tid) for tid in range(nthreads)]
        #: The block-event ring owns the execution-count table.
        self._ring = EventRing(
            program.blocks, nthreads, self.observers, capacity=batch_capacity
        )
        self.total_instructions = 0
        self.filtered_instructions = 0
        self.per_thread_total = [0] * nthreads
        self.per_thread_filtered = [0] * nthreads
        self.num_events = 0
        self._gseq = 0
        self._barriers: Dict[int, List[int]] = {}
        self._locks: Dict[int, _Lock] = {}
        self._chunks: Dict[int, int] = {}
        self._singles: set = set()
        self._rng = random.Random(seed)
        #: Set whenever a sync handler changes a thread's state; the
        #: scheduler resyncs its run-queue after any dispatch that set it.
        self._sched_dirty = True
        #: Observers that actually override ``on_sync``: sync delivery
        #: skips base-class no-ops.
        self._sync_obs = [
            ob for ob in self.observers
            if type(ob).on_sync is not Observer.on_sync
        ]
        #: Per-thread scheduler tapes (see repro.exec_engine.schedcore).
        self._streams = compile_streams(thread_program, nthreads)

    # -- shared bookkeeping -------------------------------------------------

    def _exec_block(self, tid: int, block: BasicBlock, repeat: int) -> None:
        n = block.n_instr * repeat
        self.total_instructions += n
        self.per_thread_total[tid] += n
        if not block.image.is_library:
            self.filtered_instructions += n
            self.per_thread_filtered[tid] += n
        self._ring.append(tid, block.bid, repeat)

    def _sync(self, tid: int, kind: str, obj_id: int, response) -> None:
        g = self._gseq
        self._gseq = g + 1
        # When some attached observer needs every earlier block event in
        # hand at a sync (the lint concurrency analyzer, for one), every
        # buffered block event must be delivered before this sync action.
        if self._ring.flush_on_sync:
            self._ring.flush()
        for ob in self._sync_obs:
            ob.on_sync(tid, kind, obj_id, response, g)

    # -- synchronization handling --------------------------------------------

    def _block_thread(self, thread: _Thread) -> None:
        thread.state = ThreadState.BLOCKED
        self._sched_dirty = True
        if self.wait_policy is WaitPolicy.PASSIVE:
            self._exec_block(thread.tid, self.omp.futex_wait, 1)

    def _wake_thread(self, thread: _Thread) -> None:
        thread.state = ThreadState.RUNNABLE
        self._sched_dirty = True
        if self.wait_policy is WaitPolicy.PASSIVE:
            self._exec_block(thread.tid, self.omp.futex_wake, 1)

    def _handle_barrier(self, thread: _Thread, event: BarrierWait) -> None:
        bid = event.barrier_id
        arrived = self._barriers.setdefault(bid, [])
        self._exec_block(thread.tid, self.omp.barrier_enter, 1)
        self._sync(thread.tid, SYNC_BARRIER, bid, None)
        arrived.append(thread.tid)
        if len(arrived) == self.nthreads:
            for tid2 in arrived:
                self._sync(tid2, SYNC_BARRIER_REL, bid, None)
                other = self._threads[tid2]
                if other is not thread:
                    self._wake_thread(other)
                self._exec_block(tid2, self.omp.barrier_exit, 1)
            del self._barriers[bid]
        else:
            self._block_thread(thread)

    def _handle_lock_acquire(self, thread: _Thread, event: LockAcquire) -> None:
        lock = self._locks.setdefault(event.lock_id, _Lock())
        if lock.owner is None:
            lock.owner = thread.tid
            self._exec_block(thread.tid, self.omp.lock_acquire, 1)
            self._sync(thread.tid, SYNC_LOCK_ACQ, event.lock_id, None)
        else:
            lock.waiters.append(thread.tid)
            self._block_thread(thread)

    def _handle_lock_release(self, thread: _Thread, event: LockRelease) -> None:
        lock = self._locks.get(event.lock_id)
        if lock is None or lock.owner != thread.tid:
            raise ExecutionError(
                f"thread {thread.tid} released lock {event.lock_id} it does "
                f"not own"
            )
        self._exec_block(thread.tid, self.omp.lock_release, 1)
        self._sync(thread.tid, SYNC_LOCK_REL, event.lock_id, None)
        if lock.waiters:
            next_tid = lock.waiters.pop(0)
            lock.owner = next_tid
            waiter = self._threads[next_tid]
            self._wake_thread(waiter)
            self._exec_block(next_tid, self.omp.lock_acquire, 1)
            self._sync(next_tid, SYNC_LOCK_ACQ, event.lock_id, None)
        else:
            lock.owner = None

    def _handle_chunk(self, thread: _Thread, event: ChunkRequest) -> None:
        cursor = self._chunks.get(event.loop_id, 0)
        self._exec_block(thread.tid, self.omp.chunk_fetch, 1)
        if cursor >= event.total_iters:
            response = -1
        else:
            response = cursor
            self._chunks[event.loop_id] = cursor + event.chunk_size
        self._sync(thread.tid, SYNC_CHUNK, event.loop_id, response)
        thread.response = response

    def _handle_single(self, thread: _Thread, event: SingleRequest) -> None:
        granted = event.single_id not in self._singles
        if granted:
            self._singles.add(event.single_id)
        self._sync(thread.tid, SYNC_SINGLE, event.single_id, granted)
        thread.response = granted

    def _dispatch(self, thread: _Thread, event) -> None:
        """Handle one ``OP_SYNC`` event (chunk and single requests have
        their own ops)."""
        if type(event) is BarrierWait:
            self._handle_barrier(thread, event)
        elif type(event) is LockAcquire:
            self._handle_lock_acquire(thread, event)
        elif type(event) is LockRelease:
            self._handle_lock_release(thread, event)
        elif type(event) is Reduce:
            self._exec_block(thread.tid, self.omp.reduce_combine, 1)
        else:
            raise ExecutionError(f"unknown event {event!r}")

    # -- main loop ------------------------------------------------------------

    def _finish_run(self, num_events: int) -> EngineResult:
        """Common end-of-run tail: counts, observer finish, metrics."""
        self.num_events = num_events
        ring = self._ring
        exec_counts = ring.exec_counts()  # flushes the ring
        for ob in self.observers:
            ob.on_finish()
        reg = active_metrics()
        if reg is not None:  # once per run, never per event
            reg.inc("engine.runs")
            reg.inc("engine.events", num_events)
            reg.inc("engine.ring.flushes", ring.flushes)
            reg.inc("engine.ring.small_flushes", ring.small_flushes)
            reg.inc("engine.ring.events_flushed", ring.events_flushed)
        return EngineResult(
            total_instructions=self.total_instructions,
            filtered_instructions=self.filtered_instructions,
            per_thread_total=list(self.per_thread_total),
            per_thread_filtered=list(self.per_thread_filtered),
            exec_counts=exec_counts,
            num_events=self.num_events,
            wait_policy=self.wait_policy,
            seed=self.seed,
        )

    def run(self) -> EngineResult:
        """Execute the program to completion and return the summary.

        Each round picks a runnable thread (flow control may narrow the
        choice) with the seeded rng and runs a jittered quantum of its
        tape (see :mod:`.schedcore`): block runs are consumed with one
        ``bisect_left`` over a cumulative-instruction list and C-speed
        slice ``extend``s into the ring buffers; sync ops go through the
        handlers one event at a time.  The run-queue is kept in ascending
        tid order, maintained in place at each transition.
        """
        streams = self._streams
        threads = self._threads
        omp = self.omp
        spin_block = omp.spin_block
        spin_iters = omp.spin.iterations_per_visit
        active = self.wait_policy is WaitPolicy.ACTIVE
        rng = self._rng
        ring = self._ring
        nthreads = self.nthreads

        per_thread_total = self.per_thread_total
        per_thread_filtered = self.per_thread_filtered
        runnable_state = ThreadState.RUNNABLE
        blocked_state = ThreadState.BLOCKED
        done_state = ThreadState.DONE
        getrandbits = rng.getrandbits
        rng_random = rng.random
        quantum = QUANTUM_INSTRUCTIONS
        flow = self.flow_control
        max_events = self.max_events
        dispatch = self._dispatch
        bisect = bisect_left
        num_events = 0

        ring_rows = ring.buffers()
        append_row = ring_rows.append
        extend_rows = ring_rows.extend
        ring_capacity = ring.capacity
        ring_flush = ring.flush
        encode = ring.encode

        # Interned row-code lists, one cache per tid keyed by ``id()`` of a
        # run op's bid column (alive in the tapes for the whole run).
        # Structurally identical constructs share pattern columns, so a
        # workload's few distinct patterns encode once per tid; every
        # consume window then costs a single slice + ``extend`` (or one
        # ``append`` of a small int) and flush decodes through the ring's
        # per-code tables.
        row_caches: List[Dict[int, List[int]]] = [{} for _ in range(nthreads)]

        # The run-queue: ascending tids, maintained incrementally.
        # Out-of-line handlers signal their state changes via
        # ``_sched_dirty``; the queue is resynced right after dispatch.
        runnable = [t.tid for t in threads if t.state is runnable_state]
        self._sched_dirty = False
        n_done = sum(1 for t in threads if t.state is done_state)
        # ``nbuf`` mirrors ``len(ring_rows)``; it is maintained at every
        # mutation site so the hot loop never calls ``len``, and resynced
        # after any out-of-line call that may append to (or flush) the ring.
        nbuf = len(ring_rows)

        # ``i.bit_length()`` memoized for every eligible-set size the inlined
        # ``randrange`` can see (identical values, one index instead of a
        # method call per round).
        bl = tuple(i.bit_length() for i in range(nthreads + 1))

        # Per-thread tape cursors.  Layout (list, not attributes — indexed
        # access is the fastest Python offers here):
        #   [0] op index            [1] in a run (0/1)
        #   [2] run row codes (interned via ring.encode)
        #   [3] current tape: the thread's stream, or a sub-tape
        #   [4] run pre_t  [5] run pre_f
        #   [6] event index in the pattern  [7] pattern length
        #   [8] off_t  [9] off_f  (ptt/ptf = off + pre[idx])
        #   [10] passes left  [11] pass total  [12] pass filtered
        #   [13] stream op index a sub-tape's OP_RET returns to
        cursors: List[list] = [
            [0, 0, None, streams[tid], None, None, 0, 0, 0, 0, 0, 0, 0, 0]
            for tid in range(nthreads)
        ]

        # ``total_instructions == sum(per_thread_total)`` (likewise
        # filtered) is an engine-wide invariant: every counter mutation —
        # handlers and quantum consumption — advances a per-thread counter.
        # The globals are therefore recomputed as sums at every loop exit
        # instead of being carried round by round.
        maxev = max_events if max_events is not None else (1 << 62)

        while True:
            if not runnable:
                self.total_instructions = sum(per_thread_total)
                self.filtered_instructions = sum(per_thread_filtered)
                if n_done == nthreads:
                    break
                blocked = [
                    t.tid for t in threads if t.state is blocked_state
                ]
                raise DeadlockError(
                    f"all live threads blocked: {blocked} "
                    f"(barriers={dict(self._barriers)!r})"
                )

            if active:
                for t in threads:
                    if t.state is blocked_state:
                        self._exec_block(t.tid, spin_block, spin_iters)
                nbuf = len(ring_rows)

            if flow is not None:
                eligible = flow.eligible(per_thread_filtered, runnable)
            else:
                eligible = runnable
            n_el = len(eligible)
            # Inlined ``rng.randrange(len(eligible))`` — the exact
            # ``Random._randbelow_with_getrandbits`` algorithm, consuming
            # the identical generator stream (interleavings depend on it).
            k = bl[n_el]
            r = getrandbits(k)
            while r >= n_el:
                r = getrandbits(k)
            tid = eligible[r]

            ptt = per_thread_total[tid]
            ptf = per_thread_filtered[tid]
            stop_at = ptt + int(quantum * (1.0 + rng_random() * 0.5))
            cur = cursors[tid]
            in_run = cur[1]

            while ptt < stop_at:
                if in_run:
                    # Block run: consume within the current pass over the
                    # pattern, then roll the per-pass offsets.
                    pre_t = cur[4]
                    e = cur[6]
                    m = cur[7]
                    off_t = cur[8]
                    if e == 0:
                        # At a pass boundary: every pass whose last event
                        # still starts inside the quantum is consumed
                        # whole — emit all of them as one ``pattern * q``
                        # extend instead of a bisect and three extends per
                        # pass.  These are exactly the events the bisect
                        # rule admits, with the same counters and rng use;
                        # only the ring's flush boundaries may shift
                        # (observer state is boundary-independent by the
                        # batching contract).
                        budget = stop_at - off_t - pre_t[m - 1]
                        if budget > 0:
                            pass_t = cur[11]
                            q = (budget - 1) // pass_t + 1
                            left = cur[10]
                            if q > left:
                                q = left
                            n = m * q
                            num_events += n
                            if n == 1:
                                append_row(cur[2][0])
                            elif q == 1:
                                extend_rows(cur[2])
                            else:
                                extend_rows(cur[2] * q)
                            nbuf += n
                            if nbuf >= ring_capacity:
                                ring_flush()
                                nbuf = 0
                            off_t += pass_t * q
                            cur[8] = off_t
                            cur[9] += cur[12] * q
                            ptt = off_t
                            ptf = cur[9]
                            left -= q
                            if left:
                                cur[10] = left
                                continue
                            in_run = 0
                            cur[1] = 0
                            continue
                    j = bisect(pre_t, stop_at - off_t, e, m)
                    if j > e:
                        n = j - e
                        num_events += n
                        if n == 1:
                            append_row(cur[2][e])
                        else:
                            extend_rows(cur[2][e:j])
                        nbuf += n
                        if nbuf >= ring_capacity:
                            ring_flush()
                            nbuf = 0
                        ptt = off_t + pre_t[j]
                        ptf = cur[9] + cur[5][j]
                    if j < m:
                        cur[6] = j
                        break
                    left = cur[10] - 1
                    if left:
                        cur[10] = left
                        cur[6] = 0
                        cur[8] = off_t + cur[11]
                        cur[9] += cur[12]
                        continue
                    in_run = 0
                    cur[1] = 0
                    continue

                # No active run: start the next op.  The op index lives in
                # the cursor and is loaded only here — most rounds extend an
                # in-progress run and never touch it.  Every op consumption
                # writes it back immediately, because any of these branches
                # may leave the quantum loop.
                op_idx = cur[0]
                op = cur[3][op_idx]
                code = op[0]
                if code == OP_RUN:
                    bids = op[1]
                    cache = row_caches[tid]
                    rows_l = cache.get(id(bids))
                    if rows_l is None:
                        rows_l = cache[id(bids)] = [
                            encode(tid, b, r) for b, r in zip(bids, op[2])
                        ]
                    m = len(bids)
                    cur[0] = op_idx + 1
                    cur[2] = rows_l
                    cur[4] = op[3]
                    cur[5] = op[4]
                    cur[6] = 0
                    cur[7] = m
                    cur[8] = ptt
                    cur[9] = ptf
                    cur[10] = op[5]
                    cur[11] = op[3][m]
                    cur[12] = op[4][m]
                    in_run = 1
                    cur[1] = 1
                    continue
                if code == OP_DONE:
                    # End-of-tape sentinel: the cursor stays parked on it.
                    threads[tid].state = done_state
                    runnable.remove(tid)
                    n_done += 1
                    break
                if code == OP_RET:
                    # End of a sub-tape: back to the stream.  Not an event.
                    cur[3] = streams[tid]
                    cur[0] = cur[13]
                    continue

                # Sync op: sync engine state, dispatch through the
                # shared handlers (which may execute blocks for this and
                # other threads, and block/wake threads), reload.
                thread = threads[tid]
                per_thread_total[tid] = ptt
                per_thread_filtered[tid] = ptf
                ev = op[1]
                num_events += 1
                if code == OP_SYNC:
                    dispatch(thread, ev)
                    cur[0] = op_idx + 1
                    nbuf = len(ring_rows)
                    ptt = per_thread_total[tid]
                    ptf = per_thread_filtered[tid]
                    if self._sched_dirty:
                        runnable[:] = [
                            t.tid for t in threads
                            if t.state is runnable_state
                        ]
                        self._sched_dirty = False
                    if thread.state is not runnable_state:
                        break
                else:
                    # A chunk or single request.  A grant runs its
                    # sub-tape, whose lock syncs may block the thread
                    # partway; the cursor keeps its place in that tape
                    # across block and wake.  A chunk's OP_RET comes back
                    # to this op for the next request, until the loop's
                    # iterations run out.
                    if code == OP_CHUNK:
                        self._handle_chunk(thread, ev)
                        start = thread.response
                        sub = (op[2][start // ev.chunk_size] if start >= 0
                               else None)
                        ret = op_idx
                    else:  # OP_SINGLE
                        self._handle_single(thread, ev)
                        sub = op[2] if thread.response else None
                        ret = op_idx + 1
                    thread.response = None
                    nbuf = len(ring_rows)
                    ptt = per_thread_total[tid]
                    ptf = per_thread_filtered[tid]
                    if sub is None:
                        cur[0] = op_idx + 1
                    else:
                        cur[13] = ret
                        cur[3] = sub
                        cur[0] = 0

            per_thread_total[tid] = ptt
            per_thread_filtered[tid] = ptf

            if num_events > maxev:
                self.total_instructions = sum(per_thread_total)
                self.filtered_instructions = sum(per_thread_filtered)
                self.num_events = num_events
                raise ExecutionError(
                    f"exceeded max_events={max_events}; likely runaway "
                    f"program"
                )

        return self._finish_run(num_events)
