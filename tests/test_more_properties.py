"""Additional hypothesis property tests: slicing partitions, pinball
round-trips, BIC sanity, and projection geometry."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.clustering.bic import bic_score
from repro.clustering.kmeans import kmeans
from repro.clustering.projection import project
from repro.exec_engine import ExecutionEngine
from repro.isa import ProgramBuilder
from repro.isa.blocks import BRANCH_LOOP, BranchSpec
from repro.pinplay import ConstrainedReplayer, record_execution
from repro.policy import WaitPolicy
from repro.profiling import profile_pinball
from repro.runtime import Barrier, LoopWork, OmpRuntime, ParallelFor, ThreadProgram


def _program(steps, iters, trips):
    pb = ProgramBuilder("prop")
    omp = OmpRuntime(pb)
    rt = pb.routine("w")
    hdr = rt.block("hdr", ialu=2, branch=BranchSpec(BRANCH_LOOP),
                   loop_header=True)
    body = rt.block("body", ialu=5, branch=BranchSpec(BRANCH_LOOP),
                    loop_header=True)
    program = pb.finalize()
    constructs = []
    for _ in range(steps):
        constructs.append(ParallelFor(LoopWork(hdr, [(body, trips)]), iters))
        constructs.append(Barrier())
    return program, ThreadProgram(constructs), omp


class TestExecutionProperties:
    @given(
        steps=st.integers(1, 6),
        iters=st.integers(1, 24),
        trips=st.integers(1, 80),
        nthreads=st.integers(1, 6),
        seed=st.integers(0, 50),
        policy=st.sampled_from([WaitPolicy.ACTIVE, WaitPolicy.PASSIVE]),
    )
    @settings(max_examples=25, deadline=None)
    def test_filtered_work_matches_static_count(
        self, steps, iters, trips, nthreads, seed, policy
    ):
        program, tp, omp = _program(steps, iters, trips)
        engine = ExecutionEngine(
            program, tp, omp, nthreads, wait_policy=policy, seed=seed
        )
        result = engine.run()
        assert result.filtered_instructions == tp.total_instructions(nthreads)
        assert result.total_instructions >= result.filtered_instructions

    @given(
        steps=st.integers(1, 4),
        iters=st.integers(2, 16),
        trips=st.integers(1, 60),
        seed=st.integers(0, 50),
    )
    @settings(max_examples=15, deadline=None)
    def test_record_replay_roundtrip(self, steps, iters, trips, seed):
        program, tp, omp = _program(steps, iters, trips)
        pinball, result = record_execution(
            program, tp, omp, 3, wait_policy=WaitPolicy.ACTIVE, seed=seed
        )
        replayed = ConstrainedReplayer(program, pinball).run()
        assert replayed.exec_counts == result.exec_counts
        assert replayed.total_instructions == result.total_instructions

    @given(
        steps=st.integers(2, 5),
        slice_size=st.integers(500, 5000),
    )
    @settings(max_examples=12, deadline=None)
    def test_slices_partition_any_slice_size(self, steps, slice_size):
        program, tp, omp = _program(steps, 16, 40)
        pinball, _ = record_execution(
            program, tp, omp, 2, wait_policy=WaitPolicy.PASSIVE
        )
        profile = profile_pinball(program, pinball, slice_size)
        assert sum(s.filtered_instructions for s in profile.slices) == \
            profile.filtered_instructions
        for s in profile.slices[:-1]:
            assert s.filtered_instructions >= slice_size


class TestClusteringGeometry:
    @given(
        n=st.integers(5, 30),
        d=st.integers(110, 400),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=20, deadline=None)
    def test_projection_preserves_identical_points(self, n, d, seed):
        rng = np.random.default_rng(seed)
        row = rng.uniform(0, 1, d)
        pts = np.vstack([row] * n)
        out = project(pts, 100, seed=seed)
        assert np.allclose(out, out[0])

    @given(seed=st.integers(0, 200))
    @settings(max_examples=20, deadline=None)
    def test_bic_finite_on_random_data(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0, 1, (20, 6))
        for k in (1, 2, 4):
            assert np.isfinite(bic_score(pts, kmeans(pts, k, seed=seed)))
