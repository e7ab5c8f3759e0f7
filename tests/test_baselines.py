"""Tests for the baseline methodologies and their documented failure modes."""

import pytest

from repro.baselines import (
    BarrierPointPipeline,
    NaiveSimPointPipeline,
    estimate_evaluation_days,
)
from repro.baselines.time_sampling import DETAILED_KIPS
from repro.core import LoopPointOptions, LoopPointPipeline
from repro.core.extrapolation import prediction_error
from repro.errors import SimulationError
from repro.policy import WaitPolicy
from repro.workloads.demo import build_demo_matrix

from conftest import TEST_SCALE


@pytest.fixture(scope="module")
def demo():
    return build_demo_matrix(1, nthreads=4, scale=TEST_SCALE)


class TestNaiveSimPoint:
    def test_profile_counts_library_instructions(self, demo):
        pipe = NaiveSimPointPipeline(
            demo, wait_policy=WaitPolicy.ACTIVE,
            slice_size=TEST_SCALE.slice_size(4),
        )
        total_naive = pipe.profile().total_instructions
        lp = LoopPointPipeline(
            demo, options=LoopPointOptions(
                wait_policy=WaitPolicy.ACTIVE, scale=TEST_SCALE
            ),
        )
        assert total_naive > lp.profile().filtered_instructions

    def test_runs_and_predicts(self, demo):
        pipe = NaiveSimPointPipeline(
            demo, slice_size=TEST_SCALE.slice_size(4)
        )
        predicted, actual = pipe.run()
        assert predicted.cycles > 0 and actual.cycles > 0

    def test_regions_use_instruction_coordinates(self, demo):
        pipe = NaiveSimPointPipeline(demo, slice_size=TEST_SCALE.slice_size(4))
        for roi in pipe.regions():
            assert roi.end_instr is not None
            assert roi.start is None and roi.start_barrier is None


class TestBarrierPoint:
    def test_regions_partition_at_barriers(self, demo):
        pipe = BarrierPointPipeline(demo)
        profile = pipe.profile()
        assert len(profile.regions) > 1
        assert profile.regions[0].start_barrier == 0
        for a, b in zip(profile.regions, profile.regions[1:]):
            assert a.end_barrier == b.start_barrier
        assert sum(r.filtered_instructions for r in profile.regions) == \
            profile.filtered_instructions

    def test_accuracy_on_barrier_dense_app(self, demo):
        pipe = BarrierPointPipeline(demo)
        predicted, actual = pipe.run()
        assert prediction_error(predicted.cycles, actual.cycles) < 15.0

    def test_theoretical_speedups(self, demo):
        pipe = BarrierPointPipeline(demo)
        serial, parallel = pipe.theoretical_speedups()
        assert parallel >= serial >= 1.0

    def test_bounded_by_largest_region_no_barriers(self):
        """An xz-like app without barriers defeats BarrierPoint: one region
        covers (nearly) the whole run, so speedup collapses to ~1."""
        from repro.workloads.registry import get_workload

        xz = get_workload("657.xz_s.2", scale=TEST_SCALE)
        pipe = BarrierPointPipeline(xz)
        profile = pipe.profile()
        assert profile.largest_region_instructions >= \
            0.9 * profile.filtered_instructions
        serial, parallel = pipe.theoretical_speedups()
        assert parallel < 1.5


class TestFig1Estimator:
    def test_full_slowest(self):
        full = estimate_evaluation_days(1e11, "full")
        tb = estimate_evaluation_days(1e11, "time-based")
        lp = estimate_evaluation_days(
            1e11, "looppoint", largest_region_instructions=1e9
        )
        assert full > tb > lp

    def test_looppoint_scales_with_region_not_length(self):
        short = estimate_evaluation_days(
            1e10, "looppoint", largest_region_instructions=1e8
        )
        long = estimate_evaluation_days(
            1e12, "looppoint", largest_region_instructions=1e8
        )
        # Total length only contributes the (fast) profiling pass.
        assert long < 100 * short

    def test_paper_magnitude_full_ref(self):
        # ~10^13 instructions (8-thread ref runs) at 100 KIPS is years of
        # simulation (Fig. 1).
        days = estimate_evaluation_days(1e13, "full")
        assert days > 365

    def test_full_runs_at_the_detailed_speed(self):
        # One day of instructions at DETAILED_KIPS is one day of "full".
        day = DETAILED_KIPS * 1e3 * 86_400
        assert estimate_evaluation_days(day, "full") == pytest.approx(1.0)

    def test_unknown_method(self):
        with pytest.raises(SimulationError):
            estimate_evaluation_days(1e9, "magic")

    def test_barrierpoint_needs_region(self):
        with pytest.raises(SimulationError):
            estimate_evaluation_days(1e9, "barrierpoint")
