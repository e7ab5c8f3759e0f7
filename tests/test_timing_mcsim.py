"""Tests for the multicore simulator: determinism, regions, sync timing,
constrained (checkpoint-driven) mode."""

import pytest

from repro.config import GAINESTOWN_8CORE
from repro.core.warmup import region_cuts_for_selection
from repro.errors import DeadlockError, RegionError, SimulationError
from repro.exec_engine.events import SYNC_LOCK_ACQ
from repro.pinplay import Pinball, extract_region_pinballs, record_execution
from repro.policy import WaitPolicy
from repro.profiling import Marker, profile_pinball
from repro.timing import MultiCoreSimulator, RegionOfInterest

from conftest import build_toy

SYS4 = GAINESTOWN_8CORE.with_cores(4)


@pytest.fixture(scope="module")
def toy_parts():
    return build_toy()


def fresh_sim(program, omp, system=SYS4):
    return MultiCoreSimulator(program, system, omp)


@pytest.fixture(scope="module")
def full_run(toy_parts):
    program, tp, omp = toy_parts
    sim = fresh_sim(program, omp)
    return sim.run_binary(tp, 4, WaitPolicy.PASSIVE)[0]


@pytest.fixture(scope="module")
def toy_profile(toy_parts):
    program, tp, omp = toy_parts
    pinball, _ = record_execution(program, tp, omp, 4,
                                  wait_policy=WaitPolicy.PASSIVE, seed=1)
    return pinball, profile_pinball(program, pinball, slice_size=6000)


class TestWholeRun:
    def test_metrics_populated(self, full_run):
        m = full_run.metrics
        assert m.cycles > 0
        assert m.instructions > 0
        assert 0 < m.ipc < 4 * 4  # at most width x cores
        assert m.branches > 0
        assert m.l1d_misses > 0

    def test_deterministic(self, toy_parts, full_run):
        program, tp, omp = toy_parts
        again = fresh_sim(program, omp).run_binary(tp, 4, WaitPolicy.PASSIVE)[0]
        assert again.metrics.cycles == full_run.metrics.cycles
        assert again.metrics.instructions == full_run.metrics.instructions

    def test_active_executes_spin_instructions(self, toy_parts, full_run):
        program, tp, omp = toy_parts
        active = fresh_sim(program, omp).run_binary(tp, 4, WaitPolicy.ACTIVE)[0]
        assert active.metrics.instructions > full_run.metrics.instructions
        assert (active.metrics.filtered_instructions
                == full_run.metrics.filtered_instructions)

    def test_too_many_threads_rejected(self, toy_parts):
        program, tp, omp = toy_parts
        with pytest.raises(SimulationError):
            fresh_sim(program, omp).run_binary(tp, 8, WaitPolicy.PASSIVE)

    def test_inorder_slower(self, toy_parts, full_run):
        program, tp, omp = toy_parts
        inorder = fresh_sim(program, omp, SYS4.as_inorder()).run_binary(
            tp, 4, WaitPolicy.PASSIVE
        )[0]
        assert inorder.metrics.cycles > full_run.metrics.cycles


class TestMarkerRegions:
    def test_slice_sweep_telescopes(self, toy_parts, toy_profile, full_run):
        """Simulating every slice back to back reproduces the full run."""
        program, tp, omp = toy_parts
        _pinball, profile = toy_profile
        rois = [
            RegionOfInterest(s.index, s.start, s.end) for s in profile.slices
        ]
        results = fresh_sim(program, omp).run_binary(
            tp, 4, WaitPolicy.PASSIVE, regions=rois
        )
        assert len(results) == len(profile.slices)
        assert sum(r.metrics.cycles for r in results) == full_run.metrics.cycles
        assert (sum(r.metrics.instructions for r in results)
                == full_run.metrics.instructions)

    def test_sweep_regions_are_contiguous_in_time(self, toy_parts, toy_profile):
        program, tp, omp = toy_parts
        _pinball, profile = toy_profile
        rois = [
            RegionOfInterest(s.index, s.start, s.end)
            for s in profile.slices[:6]
        ]
        results = fresh_sim(program, omp).run_binary(
            tp, 4, WaitPolicy.PASSIVE, regions=rois
        )
        for a, b in zip(results, results[1:]):
            assert a.end_cycle == b.start_cycle

    def test_subset_of_regions(self, toy_parts, toy_profile):
        program, tp, omp = toy_parts
        _pinball, profile = toy_profile
        picks = profile.slices[2:8:2]
        rois = [RegionOfInterest(s.index, s.start, s.end) for s in picks]
        results = fresh_sim(program, omp).run_binary(
            tp, 4, WaitPolicy.PASSIVE, regions=rois
        )
        assert [r.region_id for r in results] == [s.index for s in picks]
        for r, s in zip(results, picks):
            # Boundary-crossing order may shift a few batches at this scale.
            assert r.metrics.filtered_instructions == pytest.approx(
                s.filtered_instructions, rel=0.25
            )

    def test_unreachable_region_rejected(self, toy_parts):
        program, tp, omp = toy_parts
        hdr = program.routine("compute").entry
        rois = [RegionOfInterest(0, Marker(hdr.pc, 10**9), None)]
        with pytest.raises(RegionError):
            fresh_sim(program, omp).run_binary(
                tp, 4, WaitPolicy.PASSIVE, regions=rois
            )

    def test_clip_at_end_tolerates_overrun(self, toy_parts):
        program, tp, omp = toy_parts
        rois = [
            RegionOfInterest(0, start_instr=1000, end_instr=2000),
            RegionOfInterest(1, start_instr=10**9, end_instr=10**9 + 100),
        ]
        results = fresh_sim(program, omp).run_binary(
            tp, 4, WaitPolicy.PASSIVE, regions=rois, clip_at_end=True
        )
        assert [r.region_id for r in results] == [0]

    def test_misordered_origin_region_rejected(self, toy_parts):
        program, tp, omp = toy_parts
        rois = [
            RegionOfInterest(0, start_instr=100, end_instr=200),
            RegionOfInterest(1),  # origin start not allowed later
        ]
        with pytest.raises(RegionError):
            fresh_sim(program, omp).run_binary(
                tp, 4, WaitPolicy.PASSIVE, regions=rois
            )


class TestInstructionAndBarrierRegions:
    def test_instruction_region(self, toy_parts):
        program, tp, omp = toy_parts
        rois = [RegionOfInterest(7, start_instr=5000, end_instr=15000)]
        (result,) = fresh_sim(program, omp).run_binary(
            tp, 4, WaitPolicy.PASSIVE, regions=rois
        )
        assert result.metrics.instructions == pytest.approx(10000, rel=0.25)

    def test_barrier_region(self, toy_parts):
        program, tp, omp = toy_parts
        rois = [RegionOfInterest(3, start_barrier=2, end_barrier=4)]
        (result,) = fresh_sim(program, omp).run_binary(
            tp, 4, WaitPolicy.PASSIVE, regions=rois
        )
        assert result.metrics.instructions > 0

    def test_barrier_region_stable_across_policies(self, toy_parts):
        """Barrier ordinals, like loop markers, are schedule invariants."""
        program, tp, omp = toy_parts
        rois = [RegionOfInterest(3, start_barrier=2, end_barrier=4)]
        results = {}
        for policy in (WaitPolicy.PASSIVE, WaitPolicy.ACTIVE):
            (r,) = fresh_sim(program, omp).run_binary(
                tp, 4, policy, regions=rois
            )
            results[policy] = r.metrics.filtered_instructions
        assert results[WaitPolicy.PASSIVE] == results[WaitPolicy.ACTIVE]


class TestCheckpointDriven:
    @pytest.fixture(scope="class")
    def region_pinballs(self, toy_parts, toy_profile):
        program, _tp, _omp = toy_parts
        pinball, profile = toy_profile
        cuts = region_cuts_for_selection(
            profile,
            # fake single-slice clusters for slices 3..5
            [
                type("C", (), {"representative": i})
                for i in (3, 4, 5)
            ],
            warmup_instructions=3000,
        )
        return extract_region_pinballs(program, pinball, cuts)

    def test_constrained_region_simulation(self, toy_parts, region_pinballs):
        program, _tp, omp = toy_parts
        for rp in region_pinballs:
            result = fresh_sim(program, omp).run_pinball(rp)
            assert result.metrics.cycles > 0
            assert result.metrics.instructions == pytest.approx(
                rp.metadata["detail_total"], rel=0.05
            )

    def test_whole_pinball_constrained(self, toy_parts, toy_profile):
        program, _tp, omp = toy_parts
        pinball, _profile = toy_profile
        result = fresh_sim(program, omp).run_pinball(pinball)
        assert result.metrics.instructions == pinball.total_instructions

    def test_constrained_deterministic(self, toy_parts, toy_profile):
        program, _tp, omp = toy_parts
        pinball, _profile = toy_profile
        a = fresh_sim(program, omp).run_pinball(pinball)
        b = fresh_sim(program, omp).run_pinball(pinball)
        assert a.metrics.cycles == b.metrics.cycles

    def test_unmeetable_recorded_order_deadlocks(self, toy_parts):
        """Sync heads that skip gseq 1: thread 1 waits for a turn that
        never comes, after thread 0 has run out of entries."""
        program, _tp, omp = toy_parts
        bid = program.blocks[0].bid
        pinball = Pinball(
            program_name=program.name, nthreads=2, wait_policy="passive",
            seed=0, total_instructions=0, filtered_instructions=0,
            logs=[
                [("b", bid, 3), ("s", SYNC_LOCK_ACQ, 1, None, 0),
                 ("b", bid, 2)],
                [("b", bid, 1), ("s", SYNC_LOCK_ACQ, 1, None, 2)],
            ],
        )
        sim = fresh_sim(program, omp)
        with pytest.raises(DeadlockError):
            sim.run_pinball(pinball)
        assert sim.exec_counts[0][bid] == 5
        assert sim.exec_counts[1][bid] == 1

    def test_constrained_differs_from_unconstrained(self, toy_parts,
                                                    toy_profile, full_run):
        """Enforcing the recorded order inserts artificial stalls: the
        constrained runtime differs from binary-driven unconstrained."""
        program, _tp, omp = toy_parts
        pinball, _profile = toy_profile
        constrained = fresh_sim(program, omp).run_pinball(pinball)
        assert constrained.metrics.cycles != full_run.metrics.cycles
