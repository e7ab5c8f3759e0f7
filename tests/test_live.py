"""Live sampling pipeline: offline equivalence, accounting, lint, rerun.

The anchor claim (see ``repro.analysis.online``): with a non-positive
novelty threshold the streaming pass is *bit-identical* to the offline
profile replay — same slices, same BBVs, same final engine state, same
region pinballs.  With a real threshold it must still reconcile its
Eq. (2) masses with the profile, keep the error estimate monotone, and
land its extrapolated prediction within tolerance of the forced-novel
run.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from conftest import TEST_SCALE
from repro.analysis.online import LiveOptions, LiveSampler
from repro.config import GAINESTOWN_8CORE
from repro.core.looppoint import LoopPointOptions, LoopPointPipeline
from repro.dcfg.graph import build_dcfg_from_pinball
from repro.dcfg.loops import loop_header_blocks
from repro.errors import ProfilingError
from repro.lint.runner import lint_pipeline
from repro.obs import read_trace, render_diff, render_report
from repro.pinplay.recorder import record_execution
from repro.pinplay.region import RegionCut, extract_region_pinballs
from repro.pinplay.replayer import ConstrainedReplayer
from repro.policy import WaitPolicy
from repro.profiling.filters import FilterPolicy
from repro.profiling.profile_result import profile_pinball
from repro.timing.mcsim import MultiCoreSimulator, SimulationResult
from repro.timing.metrics import SimMetrics
from repro.workloads.demo import build_demo_matrix
from repro.workloads.registry import get_workload

#: Predicted-cycles tolerance for the extrapolating run vs forced-novel
#: (the issue's acceptance bar).
ACCURACY_RTOL = 0.05


def _marker_blocks(workload, pinball):
    policy = FilterPolicy()
    dcfg = build_dcfg_from_pinball(workload.program, pinball)
    return [
        b for b in loop_header_blocks(dcfg, workload.program, main_only=True)
        if policy.marker_eligible(b)
    ]


def _stub_simulate(rp):
    """Deterministic stand-in timing for equivalence-only tests."""
    cycles = max(1, rp.filtered_instructions // 2)
    return SimulationResult(
        region_id=rp.region_id,
        metrics=SimMetrics(
            cycles=cycles,
            instructions=rp.total_instructions,
            filtered_instructions=rp.filtered_instructions,
        ),
        start_cycle=0,
        end_cycle=cycles,
    )


@pytest.fixture(scope="module")
def demo_setup():
    """Recorded demo pinball plus its offline profile (the reference)."""
    workload = build_demo_matrix(1, nthreads=4, scale=TEST_SCALE)
    pinball, _ = record_execution(
        workload.program, workload.thread_program, workload.omp,
        workload.nthreads, wait_policy=WaitPolicy.PASSIVE, seed=0,
    )
    slice_size = TEST_SCALE.slice_size(workload.nthreads)
    offline = profile_pinball(workload.program, pinball, slice_size)
    system = GAINESTOWN_8CORE.with_cores(max(8, workload.nthreads))

    def simulate(rp):
        return MultiCoreSimulator(
            workload.program, system, workload.omp
        ).run_pinball(rp)

    return {
        "workload": workload,
        "pinball": pinball,
        "slice_size": slice_size,
        "offline": offline,
        "markers": _marker_blocks(workload, pinball),
        "simulate": simulate,
    }


@pytest.fixture(scope="module")
def forced_novel(demo_setup):
    """Threshold <= 0: every region novel, nothing ever skipped."""
    sampler = LiveSampler(
        demo_setup["workload"].program,
        demo_setup["pinball"],
        demo_setup["markers"],
        demo_setup["slice_size"],
        TEST_SCALE.warmup_instructions,
        demo_setup["simulate"],
        options=LiveOptions(threshold=0.0, max_topups=0),
    )
    return sampler, sampler.run()


@pytest.fixture(scope="module")
def live_extrap(demo_setup):
    """A genuinely extrapolating run (loose threshold, top-ups on)."""
    sampler = LiveSampler(
        demo_setup["workload"].program,
        demo_setup["pinball"],
        demo_setup["markers"],
        demo_setup["slice_size"],
        TEST_SCALE.warmup_instructions,
        demo_setup["simulate"],
        options=LiveOptions(threshold=0.3, max_topups=4, error_target=0.0),
    )
    return sampler, sampler.run()


# Forced-novel equivalence: the streaming replay vs the offline stages.
# ---------------------------------------------------------------------------


class TestForcedNovelEquivalence:
    def test_profile_bit_identical(self, demo_setup, forced_novel):
        offline = demo_setup["offline"]
        _, live = forced_novel
        assert live.profile.num_slices == offline.num_slices
        for a, b in zip(offline.slices, live.profile.slices):
            assert a.start == b.start and a.end == b.end
            assert np.array_equal(a.bbv, b.bbv)
            assert a.filtered_instructions == b.filtered_instructions
            assert a.total_instructions == b.total_instructions
            assert a.per_thread_filtered == b.per_thread_filtered
            assert a.start_filtered == b.start_filtered
        assert live.profile.total_instructions == offline.total_instructions
        assert (
            live.profile.filtered_instructions
            == offline.filtered_instructions
        )
        assert live.profile.marker_pcs == offline.marker_pcs

    def test_engine_matches_plain_replay(self, demo_setup, forced_novel):
        _, live = forced_novel
        plain = ConstrainedReplayer(
            demo_setup["workload"].program, demo_setup["pinball"]
        ).run()
        assert live.engine == plain

    def test_nothing_skipped(self, forced_novel):
        _, live = forced_novel
        r = live.report
        assert r.num_skipped == 0
        assert r.num_simulated == r.num_regions
        assert r.num_clusters == r.num_regions
        assert r.extrapolated_filtered == 0
        assert all(rec.novel and not rec.skipped for rec in r.records)

    def test_region_pinballs_byte_identical(self, demo_setup, forced_novel):
        """The snapshot-based cuts match a full extraction replay."""
        sampler, _ = forced_novel
        offline = demo_setup["offline"]
        cuts = [
            RegionCut(
                region_id=s.index, start=s.start, end=s.end,
                warmup_filtered=max(
                    0, s.start_filtered - TEST_SCALE.warmup_instructions
                ),
            )
            for s in offline.slices
        ]
        refs = extract_region_pinballs(
            demo_setup["workload"].program, demo_setup["pinball"], cuts
        )
        for ref in refs:
            mine = sampler.region_pinball(ref.region_id)
            assert mine.logs == ref.logs
            assert mine.total_instructions == ref.total_instructions
            assert mine.filtered_instructions == ref.filtered_instructions
            assert mine.metadata == ref.metadata
            assert mine.start_exec_counts == ref.start_exec_counts
            assert mine.detail_positions == ref.detail_positions

    def test_npb_forced_novel_bit_identical(self):
        """The equivalence holds on a real NPB kernel, not just the demo."""
        workload = get_workload("npb-is", None, 4, scale=TEST_SCALE)
        pinball, _ = record_execution(
            workload.program, workload.thread_program, workload.omp,
            workload.nthreads, wait_policy=WaitPolicy.PASSIVE, seed=0,
        )
        slice_size = TEST_SCALE.slice_size(workload.nthreads)
        offline = profile_pinball(workload.program, pinball, slice_size)
        live = LiveSampler(
            workload.program, pinball, _marker_blocks(workload, pinball),
            slice_size, TEST_SCALE.warmup_instructions, _stub_simulate,
            options=LiveOptions(threshold=0.0, max_topups=0),
        ).run()
        assert live.profile.num_slices == offline.num_slices
        for a, b in zip(offline.slices, live.profile.slices):
            assert a.start == b.start and a.end == b.end
            assert np.array_equal(a.bbv, b.bbv)
            assert a.filtered_instructions == b.filtered_instructions
        assert live.engine == ConstrainedReplayer(
            workload.program, pinball
        ).run()


# The extrapolating pass: coverage, accuracy, accounting.
# ---------------------------------------------------------------------------


class TestLiveExtrapolation:
    def test_regions_are_skipped(self, live_extrap):
        _, live = live_extrap
        r = live.report
        assert r.num_skipped > 0
        assert r.num_clusters < r.num_regions
        assert r.num_simulated + sum(
            1 for rec in r.records if not rec.simulated
        ) == r.num_regions
        assert r.extrapolated_filtered > 0
        assert 0.0 < r.extrapolated_fraction < 1.0

    def test_accuracy_within_tolerance(self, forced_novel, live_extrap):
        _, full = forced_novel
        _, live = live_extrap
        err = abs(live.predicted.cycles - full.predicted.cycles) / (
            full.predicted.cycles
        )
        assert err <= ACCURACY_RTOL, f"extrapolation error {err:.1%}"

    def test_error_estimates_monotone(self, live_extrap):
        _, live = live_extrap
        est = live.report.error_estimates
        assert est, "no error estimate recorded"
        assert all(b <= a + 1e-12 for a, b in zip(est, est[1:]))
        assert live.report.final_error_estimate == est[-1]

    def test_mass_reconciliation(self, live_extrap):
        _, live = live_extrap
        total = sum(c.instruction_mass for c in live.clusters)
        assert total == pytest.approx(
            live.profile.filtered_instructions, rel=1e-9
        )
        by_cluster = {}
        for info in live.clusters:
            by_cluster.setdefault(info.cluster_id, 0.0)
            by_cluster[info.cluster_id] += info.instruction_mass
        for rep in live.report.clusters:
            assert by_cluster.get(rep.cluster_id, 0.0) == pytest.approx(
                float(rep.mass), rel=1e-9
            )

    def test_extrapolated_regions_have_simulated_rep(self, live_extrap):
        _, live = live_extrap
        r = live.report
        simulated = {rec.index for rec in r.records if rec.simulated}
        clusters = {c.cluster_id: c for c in r.clusters}
        for rec in r.records:
            if rec.simulated:
                continue
            cluster = clusters[rec.cluster_id]
            assert rec.index in cluster.members
            assert cluster.representative in simulated

    def test_topups_add_detailed_samples(self, live_extrap):
        _, live = live_extrap
        r = live.report
        assert r.topups == len(r.error_estimates) - 1
        sampled = sum(len(c.samples) for c in r.clusters)
        assert sampled == r.num_clusters + r.topups == r.num_simulated

    def test_rejects_routine_excluding_filter(self, demo_setup):
        with pytest.raises(ProfilingError, match="image-based"):
            LiveSampler(
                demo_setup["workload"].program, demo_setup["pinball"],
                demo_setup["markers"], demo_setup["slice_size"],
                TEST_SCALE.warmup_instructions, _stub_simulate,
                filter_policy=FilterPolicy(
                    exclude_routines=frozenset({"compute"})
                ),
            )


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_live_options_reject_non_finite_threshold(bad):
    with pytest.raises(ProfilingError, match="finite"):
        LiveOptions(threshold=bad)


# Pipeline integration: run_live, lint wiring, rerun, observability.
# ---------------------------------------------------------------------------


def _pipeline_options(**kw):
    kw.setdefault("scale", TEST_SCALE)
    return LoopPointOptions(**kw)


@pytest.fixture(scope="module")
def pipeline_run():
    """One full ``run_live`` with tracing on, then lint over it."""
    import tempfile

    workload = build_demo_matrix(1, nthreads=4, scale=TEST_SCALE)
    trace_path = tempfile.mktemp(suffix=".trace.jsonl")
    pipeline = LoopPointPipeline(
        workload,
        options=_pipeline_options(trace_path=trace_path),
    )
    result = pipeline.run_live(simulate_full=False)
    return pipeline, result, trace_path, lint_pipeline(pipeline)


class TestPipelineLive:
    def test_result_shape(self, pipeline_run):
        _, result, _, _ = pipeline_run
        assert result.live_report is not None
        assert result.num_looppoints == result.live_report.num_clusters
        assert result.num_slices == result.live_report.num_regions
        assert result.predicted.cycles > 0
        assert len(result.region_results) == result.live_report.num_simulated

    def test_lint_checks_the_streamed_profile_and_skips_dominance(
        self, pipeline_run
    ):
        pipeline, _, _, report = pipeline_run
        assert report is not None
        # Markers and concurrency are checked against the live pass's
        # own profile and recording.
        assert report.family_sources["markers"] == "computed"
        assert report.family_sources["concurrency"] == "computed"
        # The offline select never ran, so MARK006 must be skipped, not
        # silently recomputed from a forced offline selection.
        assert report.family_sources["dominance"] == "skipped"
        assert pipeline._selection is None
        assert report.exit_code == 0

    def test_live_rerun_loads_from_store(self, tmp_path):
        workload = build_demo_matrix(1, nthreads=4, scale=TEST_SCALE)
        options = dict(cache_dir=str(tmp_path / "cache"))
        first = LoopPointPipeline(
            workload, options=_pipeline_options(**options)
        ).run_live(simulate_full=False)
        pipeline = LoopPointPipeline(
            workload, options=_pipeline_options(**options)
        )
        rerun = pipeline.run_live(simulate_full=False)
        # The live pass loads whole; record and dcfg are never needed.
        assert pipeline.artifacts.stats_line().startswith(
            "live=hit | hits=1 misses=0 stores=0"
        )
        assert rerun.predicted == first.predicted
        a, b = first.live_report, rerun.live_report
        assert (a.num_regions, a.num_simulated, a.num_skipped) == (
            b.num_regions, b.num_simulated, b.num_skipped
        )
        assert a.error_estimates == b.error_estimates

    def test_trace_has_live_coverage_section(self, pipeline_run):
        _, result, trace_path, _ = pipeline_run
        data = read_trace(trace_path)
        counters = data.counters()
        assert counters["live.regions"] == result.live_report.num_regions
        assert counters["live.skipped"] == result.live_report.num_skipped
        assert "live.final_error_estimate" in data.gauges()
        report = render_report(data)
        assert "live coverage" in report
        assert "fast-forwarded and extrapolated" in report

    def test_diff_reports_live_determinism(self, pipeline_run):
        _, _, trace_path, _ = pipeline_run
        data = read_trace(trace_path)
        diff = render_diff(data, data)
        assert "live determinism OK" in diff

    def test_diff_flags_diverged_live_counters(self, pipeline_run, tmp_path):
        _, _, trace_path, _ = pipeline_run
        data = read_trace(trace_path)
        other = copy.deepcopy(data)
        for record in other.metrics:
            counters = record.get("metrics", {}).get("counters", {})
            if "live.skipped" in counters:
                counters["live.skipped"] += 1
        diff = render_diff(data, other)
        assert "live determinism BROKEN" in diff
        assert "live.skipped" in diff


# CLI surface.
# ---------------------------------------------------------------------------


class TestCliLive:
    def test_live_threshold_requires_live_flag(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["-p", "demo-matrix-1", "--live-threshold", "0.2"])

    def test_cli_rejects_nan_threshold(self, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv("REPRO_SCALE", "tiny")
        rc = main(["-p", "demo-matrix-1", "-n", "4", "--no-fullsim",
                   "--jobs", "1", "--live", "--live-threshold", "nan"])
        assert rc == 1
        assert "threshold must be finite" in capsys.readouterr().err

    def test_cli_live_prints_coverage_line(self, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv("REPRO_SCALE", "tiny")
        rc = main(["-p", "demo-matrix-1", "-n", "4", "--no-fullsim",
                   "--jobs", "1", "--live"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "[live]" in out
        line = next(l for l in out.splitlines() if l.startswith("[live]"))
        assert "regions=" in line and "extrapolated=" in line
        assert "error_estimate=" in line

    def test_cli_forced_novel_extrapolates_nothing(
        self, monkeypatch, capsys
    ):
        from repro.cli import main

        monkeypatch.setenv("REPRO_SCALE", "tiny")
        rc = main(["-p", "demo-matrix-1", "-n", "4", "--no-fullsim",
                   "--jobs", "1", "--live", "--live-threshold", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if l.startswith("[live]"))
        assert "extrapolated=0 " in line
        assert "coverage=0%" in line
