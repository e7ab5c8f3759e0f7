"""Recording executions into pinballs."""

from __future__ import annotations

from itertools import repeat as _repeat
from typing import List, Optional, Tuple, TYPE_CHECKING

import numpy as np

from ..exec_engine.engine import EngineResult, ExecutionEngine
from ..exec_engine.flowcontrol import FlowControl
from ..exec_engine.observers import Observer
from ..isa.image import Program
from ..perf.ring import FLAG_LIBRARY
from ..policy import WaitPolicy
from ..runtime.omp import OmpRuntime
from ..runtime.thread import ThreadProgram
from .pinball import Pinball, append_block

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..perf.ring import EventBatch, EventRing


class Recorder(Observer):
    """Observer that captures per-thread logs suitable for a pinball.

    Block events are appended per batch: each thread's events in a batch
    are grouped, runs of one library block merge (into the log tail too),
    and worker entries keep their emitted granularity so replay
    interleaves exactly as finely as the original run did.

    Syncs need no ring flush.  ``on_sync`` reads the ring's
    :attr:`~repro.perf.ring.EventRing.events_appended` and queues the
    entry; it is placed in its thread's log after exactly that thread's
    events with a lower ring index, and it ends any library run, as if
    it had been delivered between the two events.
    """

    needs_flush_before_sync = False

    def __init__(self, nthreads: int) -> None:
        self.logs = [[] for _ in range(nthreads)]
        self._ring: Optional["EventRing"] = None
        #: Block events delivered from the bound ring so far.
        self._seen = 0
        #: Syncs waiting for their preceding events:
        #: ``(ring index, tid, entry)`` in delivery order.
        self._queued: List[tuple] = []

    def bind_ring(self, ring: "EventRing") -> None:
        """Take sync positions from ``ring`` (called by the ring).

        A driver flushes its ring at the end of a run, which places
        every queued sync, before it builds the next one.
        """
        self._ring = ring
        self._seen = ring.events_appended

    def _place(self, upto: int) -> None:
        """Append the queued syncs whose ring index is at most ``upto``."""
        queued = self._queued
        logs = self.logs
        n = 0
        for pos, tid, entry in queued:
            if pos > upto:
                break
            logs[tid].append(entry)
            n += 1
        del queued[:n]

    def on_block(self, tid, block, repeat) -> None:
        # Only library blocks (spin runs, sync paths) are merged.
        append_block(self.logs[tid], block.bid, repeat,
                     mergeable=block.image.is_library)
        self._seen += 1
        # A queued sync is placed as soon as every event before it is.
        if self._queued and self._queued[0][0] <= self._seen:
            self._place(self._seen)

    def on_block_batch(self, batch: "EventBatch") -> None:
        n = batch.size
        base = self._seen
        self._seen = base + n
        queued = self._queued
        k = 0
        while k < len(queued) and queued[k][0] <= base + n:
            k += 1
        syncs = queued[:k]
        del queued[:k]

        # Events grouped by thread, execution order kept within a group.
        order = np.argsort(batch.tid, kind="stable")
        s_tid = batch.tid[order]
        s_bid = batch.bid[order]
        s_lib = (batch.flags[order] & FLAG_LIBRARY) != 0
        # An event joins the previous run if it is the same library
        # block on the same thread with no sync of that thread between.
        joins = np.zeros(n, dtype=bool)
        joins[1:] = (
            (s_tid[1:] == s_tid[:-1]) & (s_bid[1:] == s_bid[:-1]) & s_lib[1:]
        )
        if syncs:
            # Each sync goes before its thread's first event whose batch
            # index is not lower: ``at`` is that event's grouped position
            # (a thread boundary, or n, when there is none).
            sync_tid = np.array([t for _, t, _ in syncs], dtype=np.int64)
            span = n + 1
            at = np.searchsorted(
                s_tid * span + order,
                sync_tid * span
                + np.array([pos for pos, _, _ in syncs]) - base,
            )
            joins[at[at < n]] = False
        starts = np.flatnonzero(~joins)
        run_tid = s_tid[starts]
        run_bid = s_bid[starts].tolist()
        run_rep = np.add.reduceat(batch.repeat[order], starts).tolist()
        run_lib = s_lib[starts].tolist()
        # Every new entry, runs first then syncs, and each thread's
        # sequence of them as indices into that pool.
        pool = list(zip(_repeat("b"), run_bid, run_rep))
        nruns = len(pool)
        if syncs:
            pool.extend(entry for _, _, entry in syncs)
            # A sync's key sorts it before the run at its position and
            # after its thread's earlier runs.  Syncs go in by key, so
            # two threads' syncs at one thread boundary stay in tid order.
            span = 2 * (n + 1)
            sync_key = sync_tid * span + 2 * at
            by_key = np.argsort(sync_key, kind="stable")
            slots = np.searchsorted(
                run_tid * span + 2 * starts + 1, sync_key[by_key]
            )
            seq = np.insert(
                np.arange(nruns), slots, nruns + by_key
            ).tolist()
            seq_tid = np.insert(run_tid, slots, sync_tid[by_key])
        else:
            seq = None
            seq_tid = run_tid
        logs = self.logs
        cuts = np.searchsorted(seq_tid, np.arange(len(logs) + 1)).tolist()
        for t, log in enumerate(logs):
            lo = cuts[t]
            hi = cuts[t + 1]
            if lo == hi:
                continue
            first = lo if seq is None else seq[lo]
            if first < nruns and run_lib[first] and log:
                tail = log[-1]
                if tail[0] == "b" and tail[1] == run_bid[first]:
                    log[-1] = ("b", tail[1], tail[2] + run_rep[first])
                    lo += 1
            if seq is None:
                log.extend(pool[lo:hi])
            else:
                log.extend(map(pool.__getitem__, seq[lo:hi]))

    def on_sync(self, tid, kind, obj_id, response, gseq) -> None:
        entry = ("s", kind, obj_id, response, gseq)
        ring = self._ring
        pos = self._seen if ring is None else ring.events_appended
        if not self._queued and pos <= self._seen:
            self.logs[tid].append(entry)
        else:
            self._queued.append((pos, tid, entry))


def record_execution(
    program: Program,
    thread_program: ThreadProgram,
    omp: OmpRuntime,
    nthreads: int,
    *,
    wait_policy: WaitPolicy = WaitPolicy.PASSIVE,
    seed: int = 0,
    flow_control: Optional[FlowControl] = FlowControl(),
    extra_observers: Tuple[Observer, ...] = (),
) -> Tuple[Pinball, EngineResult]:
    """Run the program once under the functional engine and record it.

    Flow control is on by default, as in the paper's profiling runs: the
    recorded execution is balanced so the profile is stable against host
    scheduling noise.
    """
    recorder = Recorder(nthreads)
    engine = ExecutionEngine(
        program,
        thread_program,
        omp,
        nthreads,
        wait_policy=wait_policy,
        seed=seed,
        observers=(recorder, *extra_observers),
        flow_control=flow_control,
    )
    result = engine.run()
    pinball = Pinball(
        program_name=program.name,
        nthreads=nthreads,
        wait_policy=wait_policy.value,
        seed=seed,
        logs=recorder.logs,
        total_instructions=result.total_instructions,
        filtered_instructions=result.filtered_instructions,
        metadata={"num_events": result.num_events},
    )
    return pinball, result
