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
:class:`~repro.perf.ring.EventRing` as numpy column batches.  The ring is
flushed before every sync event, so block/sync ordering is exact, unless
every attached observer declares its state independent of that
interleaving; then sync events are buffered too and delivered as row runs
through ``Observer.on_sync_rows``.  A ring of capacity 1 delivers every
event on its own, which is the per-event reference the equivalence tests
compare against.

Programs :func:`~.schedcore.compile_streams` can tape run on the scheduler
kernel (:mod:`repro.perf.kernels`); the rest (dynamic schedules with
criticals, custom constructs) run the generator loop in
:meth:`ExecutionEngine.run`.  Both produce bit-identical results.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence, TYPE_CHECKING

import numpy as np

from ..errors import DeadlockError, ExecutionError
from ..obs.tracer import active_metrics
from ..isa.blocks import BasicBlock
from ..isa.image import Program
from ..perf.kernels import VALID_TIERS, get_kernel
from ..perf.ring import DEFAULT_CAPACITY, EventRing
from ..policy import WaitPolicy
from .events import (
    BarrierWait,
    BlockExec,
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
    OP_BARRIER,
    OP_CHUNK,
    OP_DONE,
    OP_SINGLE,
    OP_SYNC,
    OP_TABLE,
    OP_TILED,
    compile_streams,
)

#: Buffered sync events are flushed to observers in runs of at most this
#: many (matches the block ring's default capacity; bounds buffer memory).
SYNC_BUFFER_LIMIT = 8192

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..runtime.omp import OmpRuntime
    from ..runtime.thread import ThreadProgram


class ThreadState(Enum):
    RUNNABLE = "runnable"
    BLOCKED = "blocked"
    DONE = "done"


class _Thread:
    __slots__ = ("tid", "gen", "state", "response")

    def __init__(self, tid: int, gen) -> None:
        self.tid = tid
        self.gen = gen
        self.state = ThreadState.RUNNABLE
        self.response = None


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
    """Interleaves thread generators and resolves synchronization."""

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
        quantum_instructions: int = 600,
        max_events: Optional[int] = None,
        batch_capacity: int = DEFAULT_CAPACITY,
        kernel_tier: str = "compiled",
    ) -> None:
        if nthreads < 1:
            raise ExecutionError(f"need at least one thread, got {nthreads}")
        if kernel_tier not in VALID_TIERS:
            raise ValueError(
                f"kernel_tier must be one of {VALID_TIERS}, "
                f"got {kernel_tier!r}"
            )
        #: Scheduler-kernel tier (see :mod:`repro.perf.kernels`):
        #: ``reference`` keeps every configuration test as a runtime
        #: branch; ``compiled`` folds this run's configuration out
        #: of the hot loop's bytecode.  Bit-identical by construction.
        self.kernel_tier = kernel_tier
        self.program = program
        self.thread_program = thread_program
        self.omp = omp
        self.nthreads = nthreads
        self.wait_policy = wait_policy
        self.seed = seed
        self.observers = list(observers)
        self.flow_control = flow_control
        #: Scheduling quantum in *instructions* — batched block events make an
        #: event-count quantum far too coarse for balanced interleavings.
        self.quantum_instructions = quantum_instructions
        self.max_events = max_events

        self._threads = [
            _Thread(tid, thread_program.thread_main(tid, nthreads))
            for tid in range(nthreads)
        ]
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
        #: Set whenever any thread's state changes; the scheduler only
        #: rebuilds its runnable list (and re-checks completion/deadlock)
        #: on dirty rounds.  The cached run-queue (and its numpy mirror for
        #: columnar flow control, see :meth:`_rebuild_runnable`) is keyed
        #: off this flag.
        self._sched_dirty = True
        self._runnable: List[int] = []
        self._runnable_arr = None
        #: Observers that actually override ``on_sync``/``on_sync_rows``:
        #: sync delivery skips base-class no-ops.
        self._sync_obs = [
            ob for ob in self.observers
            if type(ob).on_sync is not Observer.on_sync
            or type(ob).on_sync_rows is not Observer.on_sync_rows
        ]
        #: Sync-event buffer of ``(tid, kind, obj_id, response, gseq)``
        #: rows.  Active only when every observer declared its final state
        #: independent of block/sync interleaving (the ring's
        #: ``flush_on_sync`` is False): syncs then reach observers through
        #: ``on_sync_rows`` in gseq-ordered runs instead of one Python call
        #: per observer per sync.  ``None`` means per-event delivery.
        self._sync_buf = None if self._ring.flush_on_sync else []
        #: Per-thread scheduler tapes (see repro.exec_engine.schedcore);
        #: ``None`` when some construct cannot be taped, which selects the
        #: generator loop.
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
        buf = self._sync_buf
        if buf is not None:
            buf.append((tid, kind, obj_id, response, g))
            if len(buf) >= SYNC_BUFFER_LIMIT:
                self._flush_syncs()
            return
        # Some attached observer correlates the block and sync streams
        # (lint concurrency passes, DCFG building): every buffered block
        # event must precede this sync action.
        self._ring.flush()
        for ob in self._sync_obs:
            ob.on_sync(tid, kind, obj_id, response, g)

    def _flush_syncs(self) -> None:
        """Deliver the buffered sync rows in one call per observer.

        Observers copy the rows; the list is cleared and reused here.
        """
        buf = self._sync_buf
        if not buf:
            return
        for ob in self._sync_obs:
            ob.on_sync_rows(buf)
        buf.clear()

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
        """Handle one non-block event (block events never reach here)."""
        if type(event) is BarrierWait:
            self._handle_barrier(thread, event)
        elif type(event) is LockAcquire:
            self._handle_lock_acquire(thread, event)
        elif type(event) is LockRelease:
            self._handle_lock_release(thread, event)
        elif type(event) is ChunkRequest:
            self._handle_chunk(thread, event)
        elif type(event) is SingleRequest:
            self._handle_single(thread, event)
        elif type(event) is Reduce:
            self._exec_block(thread.tid, self.omp.reduce_combine, 1)
        else:
            raise ExecutionError(f"unknown event {event!r}")

    # -- main loop ------------------------------------------------------------

    def _rebuild_runnable(self) -> Optional[List[int]]:
        """Recompute the cached run-queue; called on dirty rounds only.

        Returns the runnable tid list, or ``None`` when every thread is
        done.  Raises :class:`DeadlockError` when live threads are all
        blocked.  With flow control attached, the queue's numpy mirror is
        rebuilt too — the columnar eligible-selection path reuses it every
        round until the next invalidation.
        """
        threads = self._threads
        runnable = [
            t.tid for t in threads if t.state is ThreadState.RUNNABLE
        ]
        self._runnable = runnable
        self._sched_dirty = False
        if not runnable:
            if all(t.state is ThreadState.DONE for t in threads):
                return None
            blocked = [
                t.tid for t in threads if t.state is ThreadState.BLOCKED
            ]
            raise DeadlockError(
                f"all live threads blocked: {blocked} "
                f"(barriers={dict(self._barriers)!r})"
            )
        if self.flow_control is not None:
            self._runnable_arr = np.array(runnable, dtype=np.int64)
        return runnable

    def _finish_run(self, num_events: int) -> EngineResult:
        """Common end-of-run tail: counts, observer finish, metrics."""
        self.num_events = num_events
        ring = self._ring
        exec_counts = ring.exec_counts()  # flushes the ring
        if self._sync_buf is not None:
            self._flush_syncs()
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
        """Execute the program to completion and return the summary."""
        if self._streams is not None:
            return self._run_compiled()
        threads = self._threads
        spin_block = self.omp.spin_block
        spin_iters = self.omp.spin.iterations_per_visit
        active = self.wait_policy is WaitPolicy.ACTIVE
        rng = self._rng
        ring = self._ring

        # Hot-loop locals.  The inner loop inlines the BlockExec case
        # around direct ring-buffer appends; every other event goes
        # through ``_dispatch``.
        per_thread_total = self.per_thread_total
        per_thread_filtered = self.per_thread_filtered
        runnable_state = ThreadState.RUNNABLE
        getrandbits = rng.getrandbits
        rng_random = rng.random
        quantum = self.quantum_instructions
        flow = self.flow_control
        max_events = self.max_events
        runnable: List[int] = []
        num_events = 0
        self._sched_dirty = True
        ring_rows = ring.buffers()
        append_row = ring_rows.append
        ring_encode = ring.encode
        ring_capacity = ring.capacity
        ring_flush = ring.flush

        while True:
            # Thread states change only at sync blocking/waking and thread
            # exit — the runnable list (and the completion/deadlock check)
            # is recomputed only on rounds after such a change.
            if self._sched_dirty:
                runnable = self._rebuild_runnable()
                if runnable is None:
                    break

            # Blocked threads under the ACTIVE policy burn spin iterations
            # every scheduling round — host-schedule-dependent instruction
            # counts, the noise source naive SimPoint trips over.
            if active:
                for t in threads:
                    if t.state is ThreadState.BLOCKED:
                        self._exec_block(t.tid, spin_block, spin_iters)

            if flow is not None:
                eligible = flow.eligible(
                    per_thread_filtered, runnable, self._runnable_arr
                )
            else:
                eligible = runnable
            # Inlined ``rng.randrange(len(eligible))``: the exact
            # ``Random._randbelow_with_getrandbits`` algorithm, consuming
            # the identical generator stream (interleavings depend on it).
            n_el = len(eligible)
            k = n_el.bit_length()
            r = getrandbits(k)
            while r >= n_el:
                r = getrandbits(k)
            tid = eligible[r]
            thread = threads[tid]

            jitter = 1.0 + rng_random() * 0.5
            stop_at = per_thread_total[tid] + int(quantum * jitter)
            # The BlockExec case is inlined reading the event's
            # precomputed slots; this thread's totals live in locals and
            # sync back to engine state around any non-block event (whose
            # handlers read/write that state).
            send = thread.gen.send
            response = thread.response
            thread.response = None
            total_acc = 0
            filtered_acc = 0
            ptt = per_thread_total[tid]
            ptf = per_thread_filtered[tid]
            while ptt < stop_at:
                try:
                    event = send(response)
                except StopIteration:
                    thread.state = ThreadState.DONE
                    self._sched_dirty = True
                    break
                response = None
                num_events += 1
                if type(event) is BlockExec:
                    n = event.n_total
                    total_acc += n
                    ptt += n
                    if not event.is_library:
                        filtered_acc += n
                        ptf += n
                    append_row(ring_encode(tid, event.bid, event.repeat))
                    if len(ring_rows) >= ring_capacity:
                        ring_flush()
                else:
                    per_thread_total[tid] = ptt
                    per_thread_filtered[tid] = ptf
                    self.total_instructions += total_acc
                    self.filtered_instructions += filtered_acc
                    total_acc = 0
                    filtered_acc = 0
                    self._dispatch(thread, event)
                    response = thread.response
                    thread.response = None
                    ptt = per_thread_total[tid]
                    ptf = per_thread_filtered[tid]
                    if thread.state is not runnable_state:
                        break
            per_thread_total[tid] = ptt
            per_thread_filtered[tid] = ptf
            self.total_instructions += total_acc
            self.filtered_instructions += filtered_acc
            thread.response = response
            if max_events is not None and num_events > max_events:
                self.num_events = num_events
                raise ExecutionError(
                    f"exceeded max_events={max_events}; likely runaway "
                    f"program"
                )

        return self._finish_run(num_events)

    def _run_compiled(self) -> EngineResult:
        """The tape-driven hot loop (see :mod:`.schedcore`).

        Bit-identical to :meth:`run`'s generator loop: identical event
        order, rng-stream consumption, observer state and result.  The
        differences are purely mechanical — block runs are consumed with
        one ``bisect_left`` over a cumulative-instruction list per quantum
        and C-speed slice ``extend``s into the ring buffers; barrier ops
        are handled inline (columnar sync buffering, direct ring appends)
        instead of through the per-event handler chain; and the run-queue
        is maintained incrementally with sorted inserts/removes instead of
        being rebuilt from thread states on every invalidation.

        The loop itself lives in :mod:`repro.perf.kernels` as a source
        template rendered per :attr:`kernel_tier`: the ``reference`` tier
        keeps every configuration test as a runtime branch, the
        ``compiled`` tier folds this run's configuration (wait policy,
        flow control, event bounding) out of the bytecode.  Both renders
        share one statement of the semantics, so they are bit-identical
        by construction.
        """
        kernel = get_kernel(
            self.kernel_tier,
            active=self.wait_policy is WaitPolicy.ACTIVE,
            flow=self.flow_control is not None,
            bounded=self.max_events is not None,
            namespace=_KERNEL_NAMESPACE,
        )
        return kernel(self)

#: Globals for the rendered scheduler kernels (see
#: :func:`repro.perf.kernels.get_kernel`): everything the template
#: references that is not reachable from the engine instance.  Passed in
#: by the engine so the kernels module never imports this one.
_KERNEL_NAMESPACE = {
    "np": np,
    "bisect_left": bisect_left,
    "ThreadState": ThreadState,
    "WaitPolicy": WaitPolicy,
    "DeadlockError": DeadlockError,
    "ExecutionError": ExecutionError,
    "SYNC_BARRIER": SYNC_BARRIER,
    "SYNC_BARRIER_REL": SYNC_BARRIER_REL,
    "SYNC_BUFFER_LIMIT": SYNC_BUFFER_LIMIT,
    "OP_TILED": OP_TILED,
    "OP_TABLE": OP_TABLE,
    "OP_SYNC": OP_SYNC,
    "OP_CHUNK": OP_CHUNK,
    "OP_SINGLE": OP_SINGLE,
    "OP_BARRIER": OP_BARRIER,
    "OP_DONE": OP_DONE,
}
