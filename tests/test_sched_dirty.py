"""Run-queue invalidation: every runnable/unrunnable transition is dirty.

The engine's tape loop maintains its run-queue in-line at its own
transition sites and resyncs it after any handler call that raised
``_sched_dirty``; the reference engine (``reference_engine.py``) rebuilds
it from thread states on every dirty round.  A transition that forgets to
invalidate silently schedules from a stale queue — threads run after
blocking, or stay invisible after waking — which corrupts the recorded
interleaving without crashing.  These tests pin every transition:
barrier arrival/release, lock contention handoff, and thread completion,
both as direct flag assertions and as schedule bit-identity between the
tape loop and the reference engine.
"""

import pytest

from repro.errors import ExecutionError
from repro.exec_engine.engine import ExecutionEngine, ThreadState
from repro.exec_engine.events import BarrierWait, LockAcquire, LockRelease
from repro.exec_engine.flowcontrol import FlowControl
from repro.exec_engine.observers import (
    InstructionCounter,
    Observer,
    SyncEventLog,
    TraceCollector,
)
from repro.pinplay.recorder import Recorder
from repro.policy import WaitPolicy

from conftest import build_toy
from reference_engine import ReferenceEngine


def _engine(engine_cls=ExecutionEngine):
    program, tp, omp = build_toy()
    return engine_cls(program, tp, omp, 4)


class TestDirtyFlagPerTransition:
    """Each transition helper must raise the flag, observed directly."""

    def test_block_thread_sets_dirty(self):
        eng = _engine()
        eng._sched_dirty = False
        eng._block_thread(eng._threads[1])
        assert eng._sched_dirty
        assert eng._threads[1].state is ThreadState.BLOCKED

    def test_wake_thread_sets_dirty(self):
        eng = _engine()
        eng._block_thread(eng._threads[1])
        eng._sched_dirty = False
        eng._wake_thread(eng._threads[1])
        assert eng._sched_dirty
        assert eng._threads[1].state is ThreadState.RUNNABLE

    def test_barrier_arrival_blocks_and_sets_dirty(self):
        eng = _engine()
        eng._sched_dirty = False
        eng._handle_barrier(eng._threads[0], BarrierWait(9))
        assert eng._sched_dirty
        assert eng._threads[0].state is ThreadState.BLOCKED

    def test_barrier_release_wakes_all_and_sets_dirty(self):
        eng = _engine()
        for tid in range(3):
            eng._handle_barrier(eng._threads[tid], BarrierWait(9))
        eng._sched_dirty = False
        eng._handle_barrier(eng._threads[3], BarrierWait(9))  # release
        assert eng._sched_dirty
        for tid in range(4):
            assert eng._threads[tid].state is ThreadState.RUNNABLE
        assert 9 not in eng._barriers

    def test_contended_lock_acquire_blocks_and_sets_dirty(self):
        eng = _engine()
        eng._handle_lock_acquire(eng._threads[0], LockAcquire(5))
        assert eng._threads[0].state is ThreadState.RUNNABLE  # uncontended
        eng._sched_dirty = False
        eng._handle_lock_acquire(eng._threads[1], LockAcquire(5))
        assert eng._sched_dirty
        assert eng._threads[1].state is ThreadState.BLOCKED

    def test_lock_handoff_wakes_waiter_and_sets_dirty(self):
        eng = _engine()
        eng._handle_lock_acquire(eng._threads[0], LockAcquire(5))
        eng._handle_lock_acquire(eng._threads[1], LockAcquire(5))
        eng._sched_dirty = False
        eng._handle_lock_release(eng._threads[0], LockRelease(5))
        assert eng._sched_dirty
        assert eng._threads[1].state is ThreadState.RUNNABLE
        assert eng._locks[5].owner == 1  # direct handoff

    def test_rebuild_clears_flag_and_reflects_states(self):
        eng = _engine(ReferenceEngine)
        eng._block_thread(eng._threads[2])
        assert eng._sched_dirty
        runnable = eng._rebuild_runnable()
        assert not eng._sched_dirty
        assert runnable == [0, 1, 3]

    def test_thread_completion_drops_from_queue(self):
        """The degrade path: a finished thread must leave the queue on
        the very next rebuild, or the scheduler spins on a dead
        generator."""
        eng = _engine(ReferenceEngine)
        result = eng.run()
        assert result.num_events > 0
        assert all(t.state is ThreadState.DONE for t in eng._threads)
        assert eng._rebuild_runnable() is None  # all done: clean finish


class _StrictOrderLog(Observer):
    """Keeps the default ``needs_flush_before_sync``, so the ring flushes
    before each sync; logs blocks and syncs as one interleaved stream."""

    def __init__(self, nthreads):
        self.events = []

    def on_block(self, tid, block, repeat):
        self.events.append((tid, block.bid, repeat))

    def on_sync(self, tid, kind, obj_id, response, gseq):
        self.events.append((tid, kind, obj_id, gseq))


#: Observer sets the two loops are compared under.  Order-independent
#: observers let the ring keep its batches across syncs.  A strict
#: observer makes the ring flush before each sync; the Recorder, which
#: every recording attaches, needs no such flush and runs under both.
OBSERVER_SETS = {
    "order_independent": lambda n: (
        InstructionCounter(n), SyncEventLog(n), TraceCollector(limit=None),
        Recorder(n),
    ),
    "order_strict": lambda n: (
        Recorder(n), SyncEventLog(n), _StrictOrderLog(n),
    ),
}


def _observed(ob):
    """What one observer recorded, comparable across runs."""
    if isinstance(ob, InstructionCounter):
        return ob.per_thread_total
    if isinstance(ob, SyncEventLog):
        return ob.per_thread, ob.gseq_order
    if isinstance(ob, TraceCollector):
        return ob.blocks, ob.syncs
    if isinstance(ob, _StrictOrderLog):
        return ob.events
    return ob.logs


class TestScheduleIdentityAcrossPaths:
    """A missed invalidation shows up as schedule divergence between the
    tape loop (which maintains its run-queue in-line) and the reference
    engine (which rebuilds it from thread states).  Lock-handoff traffic
    (criticals) exercises the out-of-line dirty resync inside the tape
    loop.  The cube covers every per-round configuration test of the
    tape loop: wait policy, flow control and the event bound, under both
    ring flush modes."""

    def _run(self, *, taped, policy, flow, max_events, observers,
             nthreads=4):
        program, tp, omp = build_toy(
            nthreads_hint=nthreads, with_critical=True
        )
        obs = OBSERVER_SETS[observers](nthreads)
        engine_cls = ExecutionEngine if taped else ReferenceEngine
        engine = engine_cls(
            program, tp, omp, nthreads, wait_policy=policy, seed=11,
            observers=obs, flow_control=flow, max_events=max_events,
        )
        assert engine._ring.flush_on_sync == (observers == "order_strict")
        try:
            return engine.run(), [_observed(ob) for ob in obs]
        except ExecutionError as exc:
            # A bounded run stops mid-run: compare where it stopped.
            return (str(exc), engine.num_events, engine.total_instructions,
                    engine.filtered_instructions, engine.per_thread_total,
                    engine.per_thread_filtered), None

    @pytest.mark.parametrize("observers", sorted(OBSERVER_SETS))
    @pytest.mark.parametrize("max_events", [None, 25, 500])
    @pytest.mark.parametrize("flow", [False, True], ids=["noflow", "flow"])
    @pytest.mark.parametrize("policy", [WaitPolicy.PASSIVE, WaitPolicy.ACTIVE])
    def test_lock_handoff_schedule_identical(
        self, policy, flow, max_events, observers
    ):
        kwargs = dict(
            policy=policy,
            flow=FlowControl(window=100) if flow else None,
            max_events=max_events,
            observers=observers,
        )
        result_l, obs_l = self._run(taped=False, **kwargs)
        result_b, obs_b = self._run(taped=True, **kwargs)
        assert result_l == result_b
        if max_events is not None:  # both bounds stop the run early
            assert obs_l is None and obs_b is None
            return
        assert obs_l == obs_b

    @pytest.mark.parametrize("policy", [WaitPolicy.PASSIVE, WaitPolicy.ACTIVE])
    def test_wide_run_queue_schedule_identical(self, policy):
        """32 threads under flow control: all 32 are runnable on about
        half the rounds, and the window narrows the run-queue on most."""
        kwargs = dict(
            policy=policy, flow=FlowControl(window=100), max_events=None,
            observers="order_strict", nthreads=32,
        )
        result_l, obs_l = self._run(taped=False, **kwargs)
        result_b, obs_b = self._run(taped=True, **kwargs)
        assert result_l == result_b
        assert obs_l == obs_b
