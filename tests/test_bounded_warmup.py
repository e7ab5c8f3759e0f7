"""Bounded warmup for binary-driven looppoints.

A region's ``warm_start`` marker makes ``run_binary`` fast-forward
functionally up to it and warm with the full cost model from there.  These
tests cover where the pipeline places warm starts, the region controller's
edge cases, what fast-forward keeps exact, and that ``jobs>1`` leaves the
serial sweep alone where bounded warmup does not converge.
"""

from dataclasses import replace

import pytest

from repro.config import GAINESTOWN_8CORE, get_scale
from repro.core import warmup
from repro.core.looppoint import LoopPointOptions, LoopPointPipeline
from repro.core.warmup import binary_warm_starts
from repro.errors import RegionError, SimulationError
from repro.pinplay import extract_region_pinballs, record_execution
from repro.pinplay.region import RegionCut
from repro.policy import WaitPolicy
from repro.profiling import Marker, profile_pinball
from repro.timing import MultiCoreSimulator, RegionOfInterest
from repro.workloads.registry import get_workload

from conftest import TEST_SCALE, build_toy

SYS4 = GAINESTOWN_8CORE.with_cores(4)


@pytest.fixture(scope="module")
def toy_parts():
    return build_toy()


@pytest.fixture(scope="module")
def toy_profile(toy_parts):
    """37 slices of about 6k filtered instructions each."""
    program, tp, omp = toy_parts
    pinball, _ = record_execution(program, tp, omp, 4,
                                  wait_policy=WaitPolicy.PASSIVE, seed=1)
    return pinball, profile_pinball(program, pinball, slice_size=6000)


def _roi(profile, index, warm_start=None):
    s = profile.slices[index]
    return RegionOfInterest(index, s.start, s.end, warm_start=warm_start)


def _sweep(toy_parts, rois, policy=WaitPolicy.PASSIVE):
    program, tp, omp = toy_parts
    sim = MultiCoreSimulator(program, SYS4, omp)
    return sim, sim.run_binary(tp, 4, policy, regions=rois)


# ---------------------------------------------------------------------------
# Placement: the latest slice boundary a budget before each looppoint.
# ---------------------------------------------------------------------------


class TestPlacement:
    #: 4 threads x 3000 = a 12k filtered-instruction window, two slices.
    PER_THREAD = 3000

    @pytest.fixture(autouse=True)
    def _small_budget(self, monkeypatch):
        monkeypatch.setattr(
            warmup, "BINARY_WARMUP_PER_THREAD", self.PER_THREAD
        )

    def test_latest_boundary_at_least_budget_before(self, toy_profile):
        _, profile = toy_profile
        slices = profile.slices
        warm = self.PER_THREAD * profile.nthreads
        reps = [10, 30]
        starts = binary_warm_starts(profile, reps)
        for rep, marker in zip(reps, starts):
            j = next(s.index for s in slices if s.start == marker)
            target = slices[rep].start_filtered - warm
            assert slices[j].start_filtered <= target
            assert slices[j + 1].start_filtered > target
        assert starts == [slices[8].start, slices[28].start]

    def test_none_at_or_before_slice_zero(self, toy_profile):
        _, profile = toy_profile
        # Slice 1's window clamps at program start; slice 2's lands in
        # slice 0, whose boundary is program start.
        assert binary_warm_starts(profile, [1]) == [None]
        assert binary_warm_starts(profile, [2]) == [None]
        assert binary_warm_starts(profile, [3]) == [profile.slices[1].start]

    def test_none_when_window_reaches_previous_looppoint(self, toy_profile):
        _, profile = toy_profile
        slices = profile.slices
        # Slice 10's boundary is slice 8: inside looppoint 8.
        assert binary_warm_starts(profile, [8, 10]) == [
            slices[6].start, None
        ]
        # Slice 11's boundary is slice 9: looppoint 8's end.
        assert binary_warm_starts(profile, [8, 11])[1] is None
        assert binary_warm_starts(profile, [7, 11])[1] == slices[9].start

    def test_pipeline_regions_carry_placement(self, demo_workload):
        pipe = LoopPointPipeline(
            demo_workload, options=LoopPointOptions(scale=TEST_SCALE)
        )
        rois = pipe.regions()
        ids = [r.region_id for r in rois]
        assert [r.warm_start for r in rois] == binary_warm_starts(
            pipe.profile(), ids
        )


# ---------------------------------------------------------------------------
# The region controller's edge cases.
# ---------------------------------------------------------------------------


class TestController:
    def test_warm_marker_at_previous_end_is_perfect(
        self, toy_parts, toy_profile
    ):
        _, profile = toy_profile
        perfect = [_roi(profile, 5), _roi(profile, 9)]
        bounded = [
            _roi(profile, 5),
            _roi(profile, 9, warm_start=profile.slices[5].end),
        ]
        _, a = _sweep(toy_parts, perfect)
        _, b = _sweep(toy_parts, bounded)
        assert a == b

    def test_warm_marker_before_first_execution(
        self, toy_parts, toy_profile
    ):
        _, profile = toy_profile
        first = Marker(profile.slices[1].start.pc, 0)
        _, a = _sweep(toy_parts, [_roi(profile, 20)])
        _, b = _sweep(toy_parts, [_roi(profile, 20, warm_start=first)])
        assert a == b

    def test_first_region_at_origin(self, toy_parts, toy_profile):
        _, profile = toy_profile
        origin = RegionOfInterest(0, None, profile.slices[0].end)
        _, a = _sweep(toy_parts, [origin, _roi(profile, 20)])
        _, b = _sweep(toy_parts, [
            origin, _roi(profile, 20, warm_start=profile.slices[15].start),
        ])
        assert a[0] == b[0]
        assert a[1].metrics == b[1].metrics
        # The skipped stretch ran without memory stalls and is not charged.
        assert b[1].start_cycle < a[1].start_cycle
        assert b[1].warm_instructions < a[1].warm_instructions

    def test_warm_start_needs_start_marker(self, toy_parts, toy_profile):
        _, profile = toy_profile
        bad = RegionOfInterest(
            0, None, profile.slices[3].end,
            warm_start=profile.slices[1].start,
        )
        with pytest.raises(RegionError):
            _sweep(toy_parts, [bad])

    def test_switch_cleared_on_raise(self, toy_parts, toy_profile):
        program, tp, omp = toy_parts
        _, profile = toy_profile
        sim = MultiCoreSimulator(program, SYS4, omp)
        with pytest.raises(SimulationError):
            sim.run_binary(
                tp, 4, WaitPolicy.PASSIVE,
                regions=[_roi(profile, 30, profile.slices[25].start)],
                max_events=50,
            )
        assert sim.fast_forward is False

    def test_pinball_after_bounded_sweep_probes_caches(
        self, toy_parts, toy_profile
    ):
        program, _, _ = toy_parts
        pinball, profile = toy_profile
        sim, _ = _sweep(toy_parts, [
            _roi(profile, 20, warm_start=profile.slices[15].start),
        ])
        assert sim.fast_forward is False
        s = profile.slices[22]
        (region,) = extract_region_pinballs(program, pinball, [
            RegionCut(22, s.start, s.end, s.start_filtered - 3000),
        ])
        probes = sum(c.hits + c.misses for c in sim.hierarchy.l1d)
        result = sim.run_pinball(region)
        assert result.metrics.l1d_accesses > 0
        assert sum(c.hits + c.misses for c in sim.hierarchy.l1d) > probes


# ---------------------------------------------------------------------------
# What fast-forward keeps exact.
# ---------------------------------------------------------------------------


class TestFastForwardState:
    def test_static_passive_sweep_matches_perfect(
        self, toy_parts, toy_profile
    ):
        _, profile = toy_profile
        perfect = [_roi(profile, i) for i in (5, 20, 30)]
        bounded = [
            perfect[0],
            _roi(profile, 20, warm_start=profile.slices[12].start),
            _roi(profile, 30, warm_start=profile.slices[27].start),
        ]
        sim_a, a = _sweep(toy_parts, perfect)
        sim_b, b = _sweep(toy_parts, bounded)
        assert [r.metrics for r in a] == [r.metrics for r in b]
        assert sim_a.exec_counts == sim_b.exec_counts
        for core_a, core_b in zip(sim_a.cores, sim_b.cores):
            assert core_a.instructions == core_b.instructions
            assert core_a.filtered_instructions == core_b.filtered_instructions
            assert core_a.l1d_accesses == core_b.l1d_accesses
            assert core_a.predictor.branches == core_b.predictor.branches
            assert (core_a.predictor.mispredicts
                    == core_b.predictor.mispredicts)
            assert core_a.predictor._counters == core_b.predictor._counters


# ---------------------------------------------------------------------------
# The binary sweep is serial whatever jobs says, so jobs=N is the serial
# result.
# ---------------------------------------------------------------------------


class TestParallelBounded:
    def test_jobs2_matches_jobs1_where_bounded_differs(self):
        scale = get_scale("tiny")
        workload = get_workload("npb-is", "C", 4, scale=scale)

        def pipeline(jobs):
            return LoopPointPipeline(workload, options=LoopPointOptions(
                wait_policy=WaitPolicy.ACTIVE, scale=scale, jobs=jobs,
            ))

        serial_pipe = pipeline(1)
        serial = serial_pipe.simulate_regions()
        rois = serial_pipe.regions()
        perfect = serial_pipe._fresh_simulator().run_binary(
            workload.thread_program, workload.nthreads, WaitPolicy.ACTIVE,
            regions=[replace(r, warm_start=None) for r in rois],
        )
        # The configuration matters: bounded warmup moves some regions.
        assert any(
            a.metrics != b.metrics for a, b in zip(serial, perfect)
        )
        parallel_pipe = pipeline(2)
        assert parallel_pipe.simulate_regions() == serial
        assert parallel_pipe.last_execution is None
