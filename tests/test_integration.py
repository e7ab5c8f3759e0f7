"""Cross-cutting integration tests: the paper's key invariants exercised
end to end on real workload models."""

import pytest

from repro.core import LoopPointOptions, LoopPointPipeline
from repro.exec_engine import ExecutionEngine
from repro.pinplay import ConstrainedReplayer, record_execution
from repro.policy import WaitPolicy
from repro.profiling import profile_pinball
from repro.workloads import get_workload

from conftest import TEST_SCALE


class TestReproducibleAnalysis:
    """Requirement (1a): repeatable, up-front application analysis."""

    def test_profiles_identical_across_recordings(self):
        w = get_workload("npb-is", scale=TEST_SCALE)
        slices = []
        for seed in (5, 55):
            pinball, _ = record_execution(
                w.program, w.thread_program, w.omp, w.nthreads,
                wait_policy=WaitPolicy.ACTIVE, seed=seed,
            )
            profile = profile_pinball(
                w.program, pinball, TEST_SCALE.slice_size(w.nthreads)
            )
            slices.append(
                [(s.end, s.filtered_instructions) for s in profile.slices]
            )
        assert slices[0] == slices[1]

    def test_replay_of_replay_identical(self):
        w = get_workload("demo-matrix-2", nthreads=4, scale=TEST_SCALE)
        pinball, _ = record_execution(
            w.program, w.thread_program, w.omp, 4,
            wait_policy=WaitPolicy.ACTIVE,
        )
        a = ConstrainedReplayer(w.program, pinball).run()
        b = ConstrainedReplayer(w.program, pinball).run()
        assert a.exec_counts == b.exec_counts
        assert a.num_events == b.num_events


class TestWorkInvariance:
    """The unit of work (loop iterations) is execution invariant."""

    @pytest.mark.parametrize("name", ["npb-cg", "657.xz_s.2"])
    def test_filtered_work_equal_across_policies(self, name):
        w = get_workload(name, scale=TEST_SCALE)
        totals = {}
        for policy in (WaitPolicy.ACTIVE, WaitPolicy.PASSIVE):
            engine = ExecutionEngine(
                w.program, w.thread_program, w.omp, w.nthreads,
                wait_policy=policy, seed=3,
            )
            result = engine.run()
            totals[policy] = (
                result.filtered_instructions, result.total_instructions
            )
        active, passive = totals[WaitPolicy.ACTIVE], totals[WaitPolicy.PASSIVE]
        assert active[0] == passive[0]          # identical work
        assert active[1] > passive[1]           # spin inflation

    def test_marker_execution_counts_functional_vs_timing(self):
        """Marker totals agree between the functional engine (profiling) and
        the timing simulator (where regions are located during simulation)."""
        from repro.config import GAINESTOWN_8CORE
        from repro.timing import MultiCoreSimulator
        from repro.profiling import MarkerTracker
        from repro.exec_engine.observers import Observer

        w = get_workload("demo-matrix-1", nthreads=4, scale=TEST_SCALE)
        headers = w.program.loop_headers(main_only=True)

        class Counting(Observer):
            def __init__(self):
                self.tracker = MarkerTracker(headers)

            def on_block(self, tid, block, repeat):
                self.tracker.record(block.bid, repeat)

        functional = Counting()
        ExecutionEngine(
            w.program, w.thread_program, w.omp, 4,
            wait_policy=WaitPolicy.ACTIVE, observers=(functional,),
        ).run()

        sim = MultiCoreSimulator(
            w.program, GAINESTOWN_8CORE.with_cores(4), w.omp
        )
        sim.run_binary(w.thread_program, 4, WaitPolicy.ACTIVE)
        timing_counts = {
            header.pc: sum(
                sim.exec_counts[tid][header.bid] for tid in range(4)
            )
            for header in headers
        }
        assert functional.tracker.snapshot() == timing_counts


class TestEndToEndAccuracy:
    @pytest.mark.parametrize("name", ["demo-matrix-3", "npb-mg"])
    def test_small_pipelines_accurate(self, name):
        w = get_workload(name, nthreads=4, scale=TEST_SCALE)
        pipeline = LoopPointPipeline(
            w, options=LoopPointOptions(
                wait_policy=WaitPolicy.PASSIVE, scale=TEST_SCALE
            ),
        )
        result = pipeline.run()
        assert result.runtime_error_pct < 15.0
        assert result.speedup.theoretical_parallel > 2.0

    def test_prediction_uses_fewer_instructions(self):
        w = get_workload("demo-matrix-1", nthreads=4, scale=TEST_SCALE)
        pipeline = LoopPointPipeline(
            w, options=LoopPointOptions(scale=TEST_SCALE)
        )
        result = pipeline.run()
        simulated = sum(
            r.metrics.instructions for r in result.region_results
        )
        assert simulated < result.actual.instructions
