"""Generator-driven references the tape drivers are tested against.

The tape compiler (:mod:`repro.exec_engine.schedcore`) is the only place
in ``src/`` that says what a construct executes.  This module says it a
second way, as one Python generator per thread that yields every
construct's events in order (:func:`thread_main`): :class:`BlockExec`
block events and the sync events of :mod:`~repro.exec_engine.events`.
It runs those generators under both drivers' own sync handlers:

* :class:`ReferenceEngine` resumes them once per event under the
  functional engine's seeded scheduler;
* :class:`ReferenceSimulator` resumes them once per event in
  simulated-time order, on the timing simulator's timed handlers,
  region controller and detail window.  ELFies run from
  :func:`elfie_thread_main`; pinballs replay by a walk of the logs that
  filters the threads by the recorded order before every entry, where
  the tape loop gates them.

Each shares nothing with its tape loop but those handlers and the
bookkeeping, so a tape that drifts from the constructs' semantics shows
up as a different :class:`~repro.exec_engine.engine.EngineResult`,
observer log or :class:`~repro.timing.mcsim.SimulationResult`.  The
references also run test-only constructs the tape compiler rejects (a
:class:`~repro.runtime.constructs.Construct` subclass with its own
``run`` generator), which is how the handlers' own error paths are
tested.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Iterator, List, Optional

from repro.errors import (
    DeadlockError,
    ExecutionError,
    ProgramStructureError,
    SimulationError,
)
from repro.exec_engine.engine import (
    QUANTUM_INSTRUCTIONS,
    EngineResult,
    ExecutionEngine,
    ThreadState,
)
from repro.exec_engine.events import (
    SYNC_BARRIER,
    SYNC_LOCK_ACQ,
    SYNC_LOCK_REL,
    BarrierWait,
    ChunkRequest,
    Event,
    LockAcquire,
    LockRelease,
    Reduce,
    SingleRequest,
)
from repro.pinplay.pinball import RegionPinball
from repro.policy import WaitPolicy
from repro.runtime.constructs import (
    BATCH_LIMIT,
    SCHEDULE_STATIC,
    Barrier,
    Master,
    ParallelFor,
    Serial,
    Single,
    static_chunk,
)
from repro.timing.mcsim import (
    _BLOCKED,
    _DONE,
    _RUNNABLE,
    MultiCoreSimulator,
    _DetailWindow,
)

#: What the base constructors tape: no constructs, so they accept any
#: program the reference is given.
_NO_CONSTRUCTS = SimpleNamespace(constructs=())


# -- the constructs' events, as generators -------------------------------------


class BlockExec(Event):
    """Execute ``block`` ``repeat`` consecutive times: one block run entry
    as an event object, with the derived values the drivers read."""

    __slots__ = ("block", "repeat", "bid", "n_total", "is_library")

    def __init__(self, block, repeat: int = 1) -> None:
        self.block = block
        self.repeat = repeat
        self.bid = block.bid
        self.n_total = block.n_instr * repeat
        self.is_library = block.image.is_library

    def __repr__(self) -> str:
        return f"BlockExec({self.block.name}, x{self.repeat})"


def emit(work, start: int, stop: int) -> Iterator[Event]:
    """The events of a :class:`LoopWork`'s outer iterations
    ``[start, stop)``: the header once, then each body block for its trip
    count as batched self-loop runs of at most ``BATCH_LIMIT``."""
    for i in range(start, stop):
        yield BlockExec(work.header, 1)
        for block, trip in work.body:
            n = trip(i) if callable(trip) else trip
            while n > BATCH_LIMIT:
                yield BlockExec(block, BATCH_LIMIT)
                n -= BATCH_LIMIT
            if n > 0:
                yield BlockExec(block, n)


def _iteration_events(pf: ParallelFor, start: int, stop: int):
    """Iterations ``[start, stop)`` of a loop: each iteration's work, then
    its critical section and its atomic update when due."""
    crit, atom = pf.critical, pf.atomic
    for i in range(start, stop):
        yield from emit(pf.work, i, i + 1)
        if crit is not None and i % crit.every == 0:
            yield LockAcquire(crit.lock_id)
            yield BlockExec(crit.block, 1)
            yield LockRelease(crit.lock_id)
        if atom is not None and i % atom.every == 0:
            yield BlockExec(atom.block, 1)


def _parallel_for(pf: ParallelFor, tid: int, nthreads: int):
    if pf.schedule == SCHEDULE_STATIC:
        start, stop = static_chunk(pf.total_iters, nthreads, tid)
        yield from _iteration_events(pf, start, stop)
    else:
        request = ChunkRequest(pf.loop_id, pf.chunk, pf.total_iters)
        while True:
            start = yield request
            if start is None or start < 0:
                break
            stop = min(start + pf.chunk, pf.total_iters)
            yield from _iteration_events(pf, start, stop)
    if pf.reduction:
        yield Reduce()
    if not pf.nowait:
        yield BarrierWait(pf.implicit_barrier_id)


def _serial(c: Serial, tid: int, nthreads: int):
    if tid == 0:
        yield from emit(c.work, 0, c.iters)
    yield BarrierWait(c.implicit_barrier_id)


def _barrier(c: Barrier, tid: int, nthreads: int):
    yield BarrierWait(c.implicit_barrier_id)


def _single(c: Single, tid: int, nthreads: int):
    granted = yield SingleRequest(c.single_id)
    if granted:
        yield from emit(c.work, 0, c.iters)
    yield BarrierWait(c.implicit_barrier_id)


def _master(c: Master, tid: int, nthreads: int):
    if tid == 0:
        yield from emit(c.work, 0, c.iters)


_GENERATORS = {
    ParallelFor: _parallel_for,
    Serial: _serial,
    Barrier: _barrier,
    Single: _single,
    Master: _master,
}


def construct_events(construct, tid: int, nthreads: int) -> Iterator[Event]:
    """The events ``construct`` yields for thread ``tid``.  Chunk requests
    take the granted start (or -1) as their response, single requests
    whether the thread won."""
    make = _GENERATORS.get(type(construct))
    if make is None:
        # A test-only construct spells out its own events.
        return construct.run(tid, nthreads)
    return make(construct, tid, nthreads)


def thread_main(thread_program, tid: int, nthreads: int) -> Iterator[Event]:
    """The generator one thread runs: every construct, in order."""
    if not 0 <= tid < nthreads:
        raise ProgramStructureError(
            f"tid {tid} out of range 0..{nthreads - 1}"
        )
    for construct in thread_program.constructs:
        yield from construct_events(construct, tid, nthreads)


_ELFIE_SYNCS = {
    SYNC_BARRIER: BarrierWait,
    SYNC_LOCK_ACQ: LockAcquire,
    SYNC_LOCK_REL: LockRelease,
}


def elfie_thread_main(elfie, program, tid: int) -> Iterator[Event]:
    """The generator thread ``tid`` of an ELFie runs: one event per code
    entry."""
    for entry in elfie.thread_codes[tid]:
        if entry[0] == "b":
            yield BlockExec(program.blocks[entry[1]], entry[2])
        else:
            _tag, kind, obj_id = entry
            yield _ELFIE_SYNCS[kind](obj_id)


# -- the functional reference --------------------------------------------------


class ReferenceEngine(ExecutionEngine):
    """Runs the constructs' generators; same constructor and result."""

    def __init__(self, program, thread_program, omp, nthreads, **kwargs):
        super().__init__(program, _NO_CONSTRUCTS, omp, nthreads, **kwargs)
        self.thread_program = thread_program
        self._gens = [
            thread_main(thread_program, tid, nthreads)
            for tid in range(nthreads)
        ]
        self._runnable: List[int] = []

    def _dispatch(self, thread, event) -> None:
        if type(event) is ChunkRequest:
            self._handle_chunk(thread, event)
        elif type(event) is SingleRequest:
            self._handle_single(thread, event)
        else:
            super()._dispatch(thread, event)

    def _rebuild_runnable(self) -> Optional[List[int]]:
        """Recompute the run-queue from thread states; called on dirty
        rounds only.

        Returns the runnable tid list, or ``None`` when every thread is
        done.  Raises :class:`DeadlockError` when live threads are all
        blocked.
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
        return runnable

    def run(self) -> EngineResult:
        threads = self._threads
        gens = self._gens
        spin_block = self.omp.spin_block
        spin_iters = self.omp.spin.iterations_per_visit
        active = self.wait_policy is WaitPolicy.ACTIVE
        rng = self._rng
        ring = self._ring
        per_thread_total = self.per_thread_total
        per_thread_filtered = self.per_thread_filtered
        flow = self.flow_control
        num_events = 0
        self._sched_dirty = True
        ring_rows = ring.buffers()

        while True:
            if self._sched_dirty:
                runnable = self._rebuild_runnable()
                if runnable is None:
                    break

            # Blocked threads under the ACTIVE policy burn spin iterations
            # every scheduling round.
            if active:
                for t in threads:
                    if t.state is ThreadState.BLOCKED:
                        self._exec_block(t.tid, spin_block, spin_iters)

            if flow is not None:
                eligible = flow.eligible(per_thread_filtered, runnable)
            else:
                eligible = runnable
            # ``rng.randrange(len(eligible))`` as the engine computes it,
            # independent of how a Python version implements randrange.
            n_el = len(eligible)
            r = rng.getrandbits(n_el.bit_length())
            while r >= n_el:
                r = rng.getrandbits(n_el.bit_length())
            tid = eligible[r]
            thread = threads[tid]

            stop_at = per_thread_total[tid] + int(
                QUANTUM_INSTRUCTIONS * (1.0 + rng.random() * 0.5)
            )
            response = thread.response
            thread.response = None
            while per_thread_total[tid] < stop_at:
                try:
                    event = gens[tid].send(response)
                except StopIteration:
                    thread.state = ThreadState.DONE
                    self._sched_dirty = True
                    break
                response = None
                num_events += 1
                if type(event) is BlockExec:
                    n = event.n_total
                    self.total_instructions += n
                    per_thread_total[tid] += n
                    if not event.is_library:
                        self.filtered_instructions += n
                        per_thread_filtered[tid] += n
                    ring_rows.append(ring.encode(tid, event.bid, event.repeat))
                    if len(ring_rows) >= ring.capacity:
                        ring.flush()
                else:
                    self._dispatch(thread, event)
                    response = thread.response
                    thread.response = None
                    if thread.state is not ThreadState.RUNNABLE:
                        break
            thread.response = response
            if self.max_events is not None and num_events > self.max_events:
                self.num_events = num_events
                raise ExecutionError(
                    f"exceeded max_events={self.max_events}; likely runaway "
                    f"program"
                )

        return self._finish_run(num_events)


# -- the timed reference -------------------------------------------------------


class _GenThread:
    __slots__ = ("tid", "gen", "state", "response")

    def __init__(self, tid: int, gen) -> None:
        self.tid = tid
        self.gen = gen
        self.state = _RUNNABLE
        self.response = None


class ReferenceSimulator(MultiCoreSimulator):
    """Runs the generators on the timed handlers; same API and results.

    ``run_binary`` and ``run_elfie`` are the simulator's own (checks,
    region controller, detail window, finalization); only the thread loop
    differs: it resumes one generator per event, rescanning the threads
    before every event.  ``run_pinball`` walks the logs entry by entry
    with the recorded order as an eligibility filter, on the same detail
    window.
    """

    def run_binary(self, thread_program, nthreads, *args, **kwargs):
        self._gens = [
            thread_main(thread_program, tid, nthreads)
            for tid in range(nthreads)
        ]
        return super().run_binary(_NO_CONSTRUCTS, nthreads, *args, **kwargs)

    def run_elfie(self, elfie):
        self._gens = [
            elfie_thread_main(elfie, self.program, tid)
            for tid in range(elfie.nthreads)
        ]
        return super().run_elfie(elfie)

    def run_pinball(self, pinball):
        """The constrained replay as its own walk of the logs: before every
        entry, the eligible thread with the lowest clock, ties to the
        lowest tid, takes it; a thread whose next entry is a sync action
        is eligible only at that action's ``gseq`` turn."""
        nthreads = pinball.nthreads
        if nthreads > self.system.num_cores:
            raise SimulationError(
                f"pinball has {nthreads} threads, system has "
                f"{self.system.num_cores} cores"
            )
        logs = pinball.logs
        is_region = isinstance(pinball, RegionPinball)
        if is_region and pinball.start_exec_counts:
            for tid in range(nthreads):
                self.exec_counts[tid] = list(pinball.start_exec_counts[tid])
        window = _DetailWindow(
            self,
            list(pinball.detail_positions) if is_region and
            pinball.detail_positions else [0] * nthreads,
            stop_when_blocked=False,
        )

        pos = [0] * nthreads
        ends = [len(log) for log in logs]
        next_gseq = 0
        last_sync_cycle: dict = {}
        cores = self.cores
        live = set(t for t in range(nthreads) if pos[t] < ends[t])
        while live:
            best = None
            best_cycle = None
            for t in sorted(live):
                entry = logs[t][pos[t]]
                if entry[0] == "s" and entry[4] != next_gseq:
                    continue
                c = cores[t].cycle
                if best_cycle is None or c < best_cycle:
                    best, best_cycle = t, c
            if best is None:
                raise DeadlockError(
                    f"constrained sim stuck at gseq {next_gseq}"
                )
            t = best
            entry = logs[t][pos[t]]
            if entry[0] == "b":
                self._exec(t, self.program.blocks[entry[1]], entry[2])
            else:
                # The artificial stall.
                key = (entry[1], entry[2])
                due = last_sync_cycle.get(key, 0)
                if cores[t].cycle < due:
                    cores[t].cycle = due
                next_gseq += 1
                last_sync_cycle[key] = cores[t].cycle
            pos[t] += 1
            window.post_event(t)
            if pos[t] >= ends[t]:
                live.discard(t)

        return window.result(getattr(pinball, "region_id", -1), "pinball")

    def _run_threads(self, ctl, streams, active, max_events=None) -> None:
        threads = [_GenThread(tid, gen) for tid, gen in enumerate(self._gens)]
        cores = self.cores
        barriers: dict = {}
        locks: dict = {}
        chunks: dict = {}
        singles: set = set()
        num_events = 0

        while not ctl.finished:
            best = None
            best_cycle = None
            for t in threads:
                if t.state == _RUNNABLE:
                    c = cores[t.tid].cycle
                    if best_cycle is None or c < best_cycle:
                        best, best_cycle = t, c
            if best is None:
                blocked = [t.tid for t in threads if t.state == _BLOCKED]
                if blocked and not ctl.stop_when_blocked:
                    raise DeadlockError(
                        f"timing sim: all live threads blocked {blocked}"
                    )
                return

            thread = best
            tid = thread.tid
            try:
                event = thread.gen.send(thread.response)
            except StopIteration:
                thread.state = _DONE
                continue
            thread.response = None
            num_events += 1
            etype = type(event)
            if etype is BlockExec:
                ctl.pre_block(event.block, event.repeat)
                if ctl.finished:
                    continue
                self._exec(tid, event.block, event.repeat)
                ctl.post_block(event.block.n_instr * event.repeat)
            elif etype is BarrierWait:
                if self._handle_barrier_timed(
                    thread, event.barrier_id, barriers, threads, active
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
            elif etype is ChunkRequest:
                cursor = chunks.get(event.loop_id, 0)
                self._exec(tid, self.omp.chunk_fetch, 1)
                if cursor >= event.total_iters:
                    thread.response = -1
                else:
                    thread.response = cursor
                    chunks[event.loop_id] = cursor + event.chunk_size
            elif etype is SingleRequest:
                granted = event.single_id not in singles
                if granted:
                    singles.add(event.single_id)
                thread.response = granted
            elif etype is Reduce:
                self._exec(tid, self.omp.reduce_combine, 1)
            else:
                raise SimulationError(f"unknown event {event!r}")
            ctl.post_event(tid)
            if max_events is not None and num_events > max_events:
                raise SimulationError(f"exceeded max_events={max_events}")
