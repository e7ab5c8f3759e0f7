"""Tests for markers, filtering, BBV collection, and loop-aligned slicing."""

import pytest

from repro.errors import ProfilingError, RegionError
from repro.isa.blocks import BasicBlock
from repro.pinplay import record_execution
from repro.policy import WaitPolicy
from repro.profiling import (
    BBVCollector,
    FilterPolicy,
    LoopAlignedSlicer,
    Marker,
    MarkerTracker,
    profile_pinball,
)

from conftest import build_toy


@pytest.fixture(scope="module")
def toy_profile():
    program, tp, omp = build_toy()
    pinball, _ = record_execution(program, tp, omp, 4,
                                  wait_policy=WaitPolicy.ACTIVE, seed=2)
    profile = profile_pinball(program, pinball, slice_size=6000)
    return program, pinball, profile


class TestMarker:
    def test_negative_count_rejected(self):
        with pytest.raises(RegionError):
            Marker(0x400000, -1)

    def test_str(self):
        assert str(Marker(0x400000, 5)) == "(0x400000, 5)"


class TestMarkerTracker:
    def test_counts_accumulate(self, toy_profile):
        program, *_ = toy_profile
        hdr = program.routine("compute").entry
        tracker = MarkerTracker([hdr])
        assert tracker.record(hdr.bid) == 0
        assert tracker.record(hdr.bid, 3) == 1
        assert tracker.count(hdr.pc) == 4

    def test_non_marker_returns_none(self, toy_profile):
        program, *_ = toy_profile
        hdr = program.routine("compute").entry
        tracker = MarkerTracker([hdr])
        assert tracker.record(hdr.bid + 1) is None

    def test_unknown_pc_rejected(self):
        tracker = MarkerTracker([])
        with pytest.raises(RegionError):
            tracker.count(0x1234)

    def test_duplicate_pc_rejected(self):
        # Two distinct blocks (different bids) sharing a PC must not merge
        # their counts into one slot.
        from repro.isa.instructions import Instruction, InstrKind

        def block(name, bid, pc):
            b = BasicBlock(name, [Instruction(InstrKind.IALU)],
                           is_loop_header=True)
            b.bid = bid
            b.pc = pc
            return b

        first = block("loop_a", 7, 0x400100)
        clone = block("loop_b", 8, 0x400100)
        with pytest.raises(RegionError, match="share pc"):
            MarkerTracker([first, clone])
        # Passing the same block twice stays harmless.
        tracker = MarkerTracker([first, first])
        assert tracker.count(0x400100) == 0


class TestFilterPolicy:
    def test_library_excluded(self, toy_profile):
        program, *_ = toy_profile
        policy = FilterPolicy()
        lib_blocks = [b for b in program.blocks if b.image.is_library]
        assert lib_blocks
        assert all(not policy.counts_as_work(b) for b in lib_blocks)

    def test_routine_exclusion(self, toy_profile):
        program, *_ = toy_profile
        policy = FilterPolicy(exclude_routines=("compute",))
        hdr = program.routine("compute").entry
        assert not policy.counts_as_work(hdr)
        assert not policy.marker_eligible(hdr)

    def test_marker_eligibility(self, toy_profile):
        program, *_ = toy_profile
        policy = FilterPolicy()
        hdr = program.routine("compute").entry
        assert policy.marker_eligible(hdr)


class TestBBVCollector:
    def test_filters_library(self, toy_profile):
        program, *_ = toy_profile
        collector = BBVCollector(2, program.num_blocks)
        lib = next(b for b in program.blocks if b.image.is_library)
        app = program.routine("compute").entry
        collector.add(0, lib, 10)
        collector.add(0, app, 2)
        vec = collector.emit()
        assert vec[lib.bid] == 0
        assert vec[app.bid] == 2 * app.n_instr

    def test_concatenation_per_thread(self, toy_profile):
        program, *_ = toy_profile
        collector = BBVCollector(3, program.num_blocks)
        app = program.routine("compute").entry
        collector.add(2, app, 1)
        vec = collector.emit()
        assert vec[2 * program.num_blocks + app.bid] == app.n_instr
        assert vec[app.bid] == 0

    def test_emit_resets(self, toy_profile):
        program, *_ = toy_profile
        collector = BBVCollector(2, program.num_blocks)
        app = program.routine("compute").entry
        collector.add(0, app, 1)
        collector.emit()
        assert collector.total_instructions == 0
        assert not collector.emit().any()

    def test_invalid_dims(self):
        with pytest.raises(ProfilingError):
            BBVCollector(0, 5)


class TestSlicing:
    def test_slices_partition_execution(self, toy_profile):
        _program, pinball, profile = toy_profile
        total = sum(s.total_instructions for s in profile.slices)
        assert total == profile.total_instructions
        filtered = sum(s.filtered_instructions for s in profile.slices)
        assert filtered == profile.filtered_instructions

    def test_boundaries_chain(self, toy_profile):
        *_x, profile = toy_profile
        assert profile.slices[0].start is None
        assert profile.slices[-1].end is None
        for a, b in zip(profile.slices, profile.slices[1:]):
            assert a.end == b.start

    def test_slices_meet_target(self, toy_profile):
        *_x, profile = toy_profile
        for s in profile.slices[:-1]:
            assert s.filtered_instructions >= profile.slice_size

    def test_boundaries_are_main_image_loop_headers(self, toy_profile):
        program, _pinball, profile = toy_profile
        for s in profile.slices:
            if s.end is None:
                continue
            block = program.block_at(s.end.pc)
            assert block.is_loop_header
            assert not block.image.is_library

    def test_start_filtered_coordinates(self, toy_profile):
        *_x, profile = toy_profile
        acc = 0
        for s in profile.slices:
            assert s.start_filtered == acc
            acc += s.filtered_instructions

    def test_bbv_matrix_shape(self, toy_profile):
        program, _pinball, profile = toy_profile
        mat = profile.bbv_matrix()
        assert mat.shape == (profile.num_slices, 4 * program.num_blocks)
        assert (mat.sum(axis=1) > 0).all()

    def test_library_marker_rejected(self, toy_profile):
        program, *_ = toy_profile
        lib_header = next(
            b for b in program.blocks
            if b.image.is_library and b.is_loop_header
        )
        with pytest.raises(ProfilingError):
            LoopAlignedSlicer(4, program.num_blocks, [lib_header], 1000)

    def test_marker_counts_invariant_across_seeds(self):
        """(PC, count) boundaries are execution invariants (Sec. III-C):
        profiles of two *different* recordings agree on every boundary."""
        program, tp, omp = build_toy()
        profiles = []
        for seed in (1, 99):
            pinball, _ = record_execution(
                program, tp, omp, 4, wait_policy=WaitPolicy.ACTIVE, seed=seed
            )
            profiles.append(profile_pinball(program, pinball, slice_size=6000))
        a, b = profiles
        assert a.num_slices == b.num_slices
        for sa, sb in zip(a.slices, b.slices):
            assert sa.end == sb.end
            assert sa.filtered_instructions == sb.filtered_instructions

    def test_marker_counts_invariant_across_policies(self):
        """Spin-loops inflate ACTIVE instruction counts but leave worker-loop
        markers untouched."""
        program, tp, omp = build_toy()
        boundaries = []
        for policy in (WaitPolicy.ACTIVE, WaitPolicy.PASSIVE):
            pinball, _ = record_execution(program, tp, omp, 4,
                                          wait_policy=policy, seed=5)
            profile = profile_pinball(program, pinball, slice_size=6000)
            boundaries.append([s.end for s in profile.slices])
        assert boundaries[0] == boundaries[1]

    def test_imbalance_metric(self, toy_profile):
        *_x, profile = toy_profile
        # Serial phases make some slices imbalanced.
        imbalances = [s.imbalance for s in profile.slices]
        assert max(imbalances) > 1.2
        assert min(imbalances) >= 0.99
