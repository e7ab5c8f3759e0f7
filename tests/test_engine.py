"""Tests for the functional execution engine: scheduling, sync, policies."""

import pytest

from repro.errors import DeadlockError, ExecutionError
from repro.exec_engine import ExecutionEngine, FlowControl
from repro.exec_engine.events import BarrierWait, LockRelease
from repro.policy import WaitPolicy
from repro.runtime import ThreadProgram
from repro.runtime.constructs import Construct

from conftest import build_toy
from reference_engine import ReferenceEngine
from reference_observers import InstructionCounter, TraceCollector


def run_toy(policy=WaitPolicy.PASSIVE, seed=0, nthreads=4, observers=(),
            flow_control=None, steps=12):
    program, tp, omp = build_toy(nthreads_hint=nthreads, steps=steps)
    engine = ExecutionEngine(
        program, tp, omp, nthreads, wait_policy=policy, seed=seed,
        observers=observers, flow_control=flow_control,
    )
    return program, engine.run()


class TestBasicExecution:
    def test_completes(self):
        _, result = run_toy()
        assert result.total_instructions > 0
        assert result.num_events > 0

    def test_filtered_matches_static_estimate(self):
        program, tp, omp = build_toy()
        engine = ExecutionEngine(program, tp, omp, 4)
        result = engine.run()
        assert result.filtered_instructions == tp.total_instructions(4)

    def test_filtered_excludes_library(self):
        _, result = run_toy(policy=WaitPolicy.ACTIVE)
        assert result.library_instructions > 0
        assert result.filtered_instructions < result.total_instructions

    def test_per_thread_sums(self):
        _, result = run_toy()
        assert sum(result.per_thread_total) == result.total_instructions
        assert sum(result.per_thread_filtered) == result.filtered_instructions

    def test_single_thread_runs(self):
        _, result = run_toy(nthreads=1)
        assert result.total_instructions > 0

    def test_invalid_thread_count(self):
        program, tp, omp = build_toy()
        with pytest.raises(ExecutionError):
            ExecutionEngine(program, tp, omp, 0)

    def test_max_events_guard(self):
        program, tp, omp = build_toy()
        engine = ExecutionEngine(program, tp, omp, 4, max_events=10)
        with pytest.raises(ExecutionError):
            engine.run()


class TestDeterminismAndVariation:
    def test_same_seed_same_execution(self):
        _, a = run_toy(seed=3)
        _, b = run_toy(seed=3)
        assert a.total_instructions == b.total_instructions
        assert a.exec_counts == b.exec_counts

    def test_filtered_work_invariant_across_seeds(self):
        """The application's *work* does not depend on the host schedule."""
        _, a = run_toy(seed=1)
        _, b = run_toy(seed=2)
        assert a.filtered_instructions == b.filtered_instructions

    def test_active_spin_counts_vary_with_seed(self):
        """Raw instruction counts DO vary run to run under ACTIVE waiting —
        the nondeterminism LoopPoint's (PC, count) markers are immune to."""
        totals = {
            run_toy(policy=WaitPolicy.ACTIVE, seed=s)[1].total_instructions
            for s in range(4)
        }
        assert len(totals) > 1

    def test_active_executes_more_than_passive(self):
        _, active = run_toy(policy=WaitPolicy.ACTIVE)
        _, passive = run_toy(policy=WaitPolicy.PASSIVE)
        assert active.total_instructions > passive.total_instructions
        assert active.filtered_instructions == passive.filtered_instructions


class TestFlowControl:
    def test_eligibility_window(self):
        fc = FlowControl(window=100)
        assert fc.eligible([0, 50, 200], [0, 1, 2]) == [0, 1]

    def test_slowest_always_eligible(self):
        fc = FlowControl(window=1)
        assert 2 in fc.eligible([500, 400, 10], [0, 1, 2])

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            FlowControl(0)

    def test_balanced_progress_under_flow_control(self):
        _, result = run_toy(flow_control=FlowControl(2000))
        # Serial phases make thread 0 do more, but workers stay mutually even.
        workers = result.per_thread_filtered[1:]
        assert max(workers) - min(workers) < 10_000


class TestSynchronization:
    """The handlers' error paths, driven by constructs the tape compiler
    rejects, so these run on the generator-driven reference engine."""

    def test_lock_release_without_ownership(self):
        program, tp, omp = build_toy()

        class BadConstruct(Construct):
            def run(self, tid, nthreads):
                yield LockRelease(5)

            def total_instructions(self, nthreads):
                return 0

        bad_tp = ThreadProgram([BadConstruct()])
        engine = ReferenceEngine(program, bad_tp, omp, 2)
        with pytest.raises(ExecutionError, match="does not own"):
            engine.run()

    def test_partial_barrier_deadlocks(self):
        program, tp, omp = build_toy()

        class HalfBarrier(Construct):
            def run(self, tid, nthreads):
                if tid == 0:
                    yield BarrierWait(self.implicit_barrier_id)

            def total_instructions(self, nthreads):
                return 0

        engine = ReferenceEngine(
            program, ThreadProgram([HalfBarrier()]), omp, 2
        )
        with pytest.raises(DeadlockError, match=r"blocked: \[0\]"):
            engine.run()

    def test_lock_mutual_exclusion_order(self, toy_with_critical):
        program, tp, omp = toy_with_critical
        trace = TraceCollector()
        engine = ExecutionEngine(program, tp, omp, 4, observers=(trace,),
                                 seed=5)
        engine.run()
        # Acquire/release alternate strictly for the critical lock.
        sequence = [
            (kind, tid) for tid, kind, oid, _r, _g in trace.syncs
            if kind in ("lock_acq", "lock_rel") and oid == 1
        ]
        held_by = None
        for kind, tid in sequence:
            if kind == "lock_acq":
                assert held_by is None, "lock granted while held"
                held_by = tid
            else:
                assert held_by == tid, "released by non-owner"
                held_by = None
        assert held_by is None

    def test_gseq_dense_and_increasing(self):
        program, tp, omp = build_toy()
        trace = TraceCollector()
        ExecutionEngine(program, tp, omp, 4, observers=(trace,)).run()
        gseqs = [g for *_x, g in trace.syncs]
        assert gseqs == list(range(len(gseqs)))


class TestObservers:
    def test_instruction_counter_matches_engine(self):
        program, tp, omp = build_toy()
        counter = InstructionCounter(4)
        engine = ExecutionEngine(program, tp, omp, 4, observers=(counter,))
        result = engine.run()
        assert counter.total == result.total_instructions
        assert counter.filtered == result.filtered_instructions
        assert counter.per_thread_total == result.per_thread_total

    def test_trace_collector_limit_truncates(self):
        program, tp, omp = build_toy()
        trace = TraceCollector(limit=10)
        engine = ExecutionEngine(program, tp, omp, 4, observers=(trace,))
        engine.run()
        assert trace.truncated
        assert len(trace.blocks) == 10
        assert trace.dropped_blocks > 0
        # Once clipped, the sync stream stops too (alignment is broken).
        assert trace.dropped_syncs > 0

    def test_trace_collector_complete_run_not_truncated(self):
        program, tp, omp = build_toy()
        trace = TraceCollector()
        engine = ExecutionEngine(program, tp, omp, 4, observers=(trace,))
        engine.run()
        assert not trace.truncated
        assert trace.dropped_blocks == 0
        assert trace.dropped_syncs == 0

    def test_exec_counts_consistent_with_trace(self):
        program, tp, omp = build_toy()
        trace = TraceCollector()
        engine = ExecutionEngine(program, tp, omp, 4, observers=(trace,))
        result = engine.run()
        from collections import Counter
        counted = Counter()
        for tid, bid, repeat in trace.blocks:
            counted[(tid, bid)] += repeat
        for tid in range(4):
            for bid in range(program.num_blocks):
                assert counted.get((tid, bid), 0) == result.exec_counts[tid][bid]
