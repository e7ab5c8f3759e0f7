"""The generator-driven reference engine the tape loop is tested against.

:class:`ReferenceEngine` runs every thread's
:meth:`~repro.runtime.thread.ThreadProgram.thread_main` generator,
resuming it once per event, and resolves each sync event through
:class:`~repro.exec_engine.engine.ExecutionEngine`'s own handlers.  It
shares nothing with the tape loop but those handlers, the ring and the
bookkeeping, so a tape that drifts from what the constructs yield shows
up as a different :class:`~repro.exec_engine.engine.EngineResult` or
observer log.  It also runs constructs the tape compiler rejects, which
is how the handlers' own error paths are tested.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import List, Optional

from repro.errors import DeadlockError, ExecutionError
from repro.exec_engine.engine import (
    QUANTUM_INSTRUCTIONS,
    EngineResult,
    ExecutionEngine,
    ThreadState,
)
from repro.exec_engine.events import BlockExec, ChunkRequest, SingleRequest
from repro.policy import WaitPolicy

#: What the base constructor tapes: no constructs, so it accepts any
#: program the reference is given.
_NO_CONSTRUCTS = SimpleNamespace(constructs=())


class ReferenceEngine(ExecutionEngine):
    """Runs the constructs' generators; same constructor and result."""

    def __init__(self, program, thread_program, omp, nthreads, **kwargs):
        super().__init__(program, _NO_CONSTRUCTS, omp, nthreads, **kwargs)
        self.thread_program = thread_program
        self._gens = [
            thread_program.thread_main(tid, nthreads)
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
