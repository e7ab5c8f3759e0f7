"""Tests for the extension features: CLI, ELFies and stability
analysis."""

import pytest

from repro.cli import build_parser, main
from repro.config import GAINESTOWN_8CORE
from repro.errors import ReplayError
from repro.pinplay import (
    extract_region_pinballs,
    pinball_to_elfie,
    record_execution,
)
from repro.pinplay.region import RegionCut
from repro.policy import WaitPolicy
from repro.profiling import analyze_stability, profile_pinball
from repro.timing import MultiCoreSimulator

from conftest import build_toy


class TestCLI:
    def test_parser_defaults(self):
        args = build_parser().parse_args([])
        assert args.program == "demo-matrix-1"
        assert args.ncores == 8
        assert args.wait_policy == "passive"

    def test_artifact_flags_accepted(self):
        args = build_parser().parse_args(
            ["-p", "demo-matrix-2,demo-matrix-3", "-w", "active",
             "-i", "test", "--force", "--reuse-profile"]
        )
        assert args.program == "demo-matrix-2,demo-matrix-3"
        assert args.wait_policy == "active"
        assert args.force

    def test_list_option(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "demo-matrix-1" in out
        assert "619.lbm_s.1" in out

    def test_end_to_end(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        code = main(["-p", "demo-matrix-1", "-n", "4", "--force"])
        out = capsys.readouterr().out
        assert code == 0
        assert "LoopPoint end-to-end results" in out
        assert "demo-matrix-1" in out

    def test_unknown_program_fails(self, capsys):
        assert main(["-p", "not-a-benchmark"]) == 1


@pytest.fixture(scope="module")
def region_setup():
    program, tp, omp = build_toy()
    pinball, _ = record_execution(
        program, tp, omp, 4, wait_policy=WaitPolicy.ACTIVE, seed=3
    )
    profile = profile_pinball(program, pinball, 6000)
    s = profile.slices[4]
    cuts = [RegionCut(4, s.start, s.end, max(0, s.start_filtered - 3000))]
    (region,) = extract_region_pinballs(program, pinball, cuts)
    return program, omp, profile, region


class TestELFie:
    def test_conversion_strips_library_code(self, region_setup):
        program, omp, _profile, region = region_setup
        elfie = pinball_to_elfie(program, omp, region)
        lib_bids = {
            b.bid for b in program.blocks if b.image.is_library
        }
        for code in elfie.thread_codes:
            for entry in code:
                if entry[0] == "b":
                    assert entry[1] not in lib_bids

    def test_preserves_application_work(self, region_setup):
        program, omp, _profile, region = region_setup
        elfie = pinball_to_elfie(program, omp, region)
        lib_bids = {b.bid for b in program.blocks if b.image.is_library}
        expected = sum(
            program.blocks[e[1]].n_instr * e[2]
            for log in region.logs for e in log
            if e[0] == "b" and e[1] not in lib_bids
        )
        actual = sum(
            program.blocks[e[1]].n_instr * e[2]
            for code in elfie.thread_codes for e in code if e[0] == "b"
        )
        assert actual == expected

    def test_executes_unconstrained(self, region_setup):
        program, omp, _profile, region = region_setup
        elfie = pinball_to_elfie(program, omp, region)
        sim = MultiCoreSimulator(
            program, GAINESTOWN_8CORE.with_cores(4), omp
        )
        result = sim.run_elfie(elfie)
        assert result.metrics.cycles > 0
        assert result.metrics.instructions == pytest.approx(
            region.metadata["detail_filtered"], rel=0.15
        )

    def test_rejects_whole_program_pinball(self, region_setup):
        program, omp, *_ = region_setup
        pinball, _ = record_execution(
            program, build_toy()[1], omp, 4, wait_policy=WaitPolicy.PASSIVE
        )
        with pytest.raises(ReplayError):
            pinball_to_elfie(program, omp, pinball)

    def test_carries_checkpoint_state(self, region_setup):
        program, omp, _profile, region = region_setup
        elfie = pinball_to_elfie(program, omp, region)
        assert elfie.start_exec_counts == region.start_exec_counts
        assert len(elfie.detail_positions) == region.nthreads


class TestStabilityAnalysis:
    @pytest.fixture(scope="class")
    def report(self):
        program, tp, omp = build_toy()
        return analyze_stability(
            program, tp, omp, 4, slice_size=6000, seeds=(0, 7),
        )

    def test_statically_scheduled_app_is_stable(self, report):
        # The toy app is statically scheduled: every boundary reproduces.
        assert all(r.reproducible for r in report.regions)

    def test_fraction_and_counts(self, report):
        assert 0.0 <= report.stable_fraction <= 1.0
        assert report.executions == 2

    def test_margins_computed(self, report):
        markered = [r for r in report.regions if r.marker_pc is not None]
        assert markered
        assert all(r.crossing_margin > 0 for r in markered)

    def test_unstable_slice_listing(self, report):
        unstable = set(report.unstable_slices())
        for r in report.regions:
            assert (r.slice_index in unstable) == (
                not r.is_stable(report.drift_bound)
            )
