"""Parallel region simulation, artifact cache, and extrapolation fixes.

Covers the PR's tentpole (process-pool fan-out + persistent artifact
cache) and its satellites: ordering invariance of extrapolation,
bit-identical parallel-vs-serial results, runtime-vs-cycles error
separation, the all-slices-ineligible guard, and the EvaluationCache
``simulate_full`` toggle.
"""

from __future__ import annotations

import os
import pickle
import random

import pytest

from conftest import TEST_SCALE
from repro.analysis.experiments import EvaluationCache
from repro.config import default_jobs
from repro.core.extrapolation import extrapolate_metrics
from repro.core.looppoint import (
    LoopPointOptions,
    LoopPointPipeline,
    LoopPointResult,
)
from repro.core.speedup import SpeedupReport
from repro.errors import ClusteringError, SimulationError, WorkloadError
from repro.parallel import (
    ArtifactCache,
    CacheError,
    ExecutionStats,
    RegionJob,
    WorkloadSpec,
    canonical_key,
    run_region_jobs,
)
from repro.timing.metrics import SimMetrics
from repro.workloads.demo import build_demo_matrix


def _options(**kw):
    kw.setdefault("scale", TEST_SCALE)
    return LoopPointOptions(**kw)


@pytest.fixture(scope="module")
def serial_run():
    """One serial end-to-end run shared by the equivalence tests."""
    workload = build_demo_matrix(1, nthreads=4, scale=TEST_SCALE)
    pipeline = LoopPointPipeline(workload, options=_options(jobs=1))
    result = pipeline.run(simulate_full=False)
    return workload, pipeline, result


# ---------------------------------------------------------------------------
# Satellite: extrapolation is invariant to region-result ordering.
# ---------------------------------------------------------------------------


class TestExtrapolationOrdering:
    def test_shuffled_region_results_same_prediction(self, serial_run):
        _, pipeline, result = serial_run
        selection = pipeline.select()
        baseline = extrapolate_metrics(
            result.region_results, selection.clusters
        )
        shuffled = list(result.region_results)
        for seed in (1, 7, 42):
            random.Random(seed).shuffle(shuffled)
            assert extrapolate_metrics(
                shuffled, selection.clusters
            ) == baseline

    def test_duplicate_region_rejected(self, serial_run):
        _, pipeline, result = serial_run
        selection = pipeline.select()
        doubled = list(result.region_results) + [result.region_results[0]]
        with pytest.raises(ClusteringError):
            extrapolate_metrics(doubled, selection.clusters)


# ---------------------------------------------------------------------------
# Tentpole: parallel dispatch is bit-identical to serial.
# ---------------------------------------------------------------------------


class TestParallelEquivalence:
    def test_jobs4_matches_jobs1(self, serial_run):
        workload, _, serial = serial_run
        parallel = LoopPointPipeline(
            workload, options=_options(jobs=4)
        ).run(simulate_full=False)
        assert parallel.predicted == serial.predicted
        assert len(parallel.region_results) == len(serial.region_results)
        for a, b in zip(parallel.region_results, serial.region_results):
            assert a.region_id == b.region_id
            assert a.metrics == b.metrics
            assert a.start_cycle == b.start_cycle
            assert a.end_cycle == b.end_cycle

    def test_parallel_run_reports_measured_speedup(self, serial_run):
        workload, _, serial = serial_run
        pipeline = LoopPointPipeline(workload, options=_options(jobs=2))
        result = pipeline.run(simulate_full=False)
        assert serial.speedup.measured_speedup is None
        sp = result.speedup
        assert sp.measured_workers == 2
        assert sp.measured_speedup is not None and sp.measured_speedup > 0
        assert sp.measured_serial_seconds > 0
        assert sp.measured_parallel_seconds > 0
        stats = pipeline.last_execution
        assert stats is not None
        assert stats.num_jobs == len(result.region_results)

    def test_binary_fanout_serial_cost_is_the_longest_sweep(self, serial_run):
        # Job i re-sweeps regions 0..i, so the last job is the serial
        # sweep; summing the walls would count the prefix once per region.
        workload, _, _ = serial_run
        pipeline = LoopPointPipeline(workload, options=_options(jobs=2))
        sp = pipeline.run(simulate_full=False).speedup
        per_job = pipeline.last_execution.per_job_seconds
        assert len(per_job) >= 2
        assert sp.measured_serial_seconds == max(per_job.values())

    def test_checkpoint_fanout_serial_cost_is_the_sum(self, serial_run):
        workload, _, _ = serial_run
        pipeline = LoopPointPipeline(workload, options=_options(jobs=2))
        sp = pipeline.run(simulate_full=False, constrained=True).speedup
        per_job = pipeline.last_execution.per_job_seconds
        assert len(per_job) >= 2
        assert sp.measured_serial_seconds == sum(per_job.values())

    def test_constrained_parallel_matches_serial(self, serial_run):
        workload, _, _ = serial_run
        serial_pipe = LoopPointPipeline(workload, options=_options(jobs=1))
        parallel_pipe = LoopPointPipeline(workload, options=_options(jobs=3))
        a = serial_pipe.simulate_regions_constrained()
        b = parallel_pipe.simulate_regions_constrained()
        assert [r.metrics for r in a] == [r.metrics for r in b]
        assert [r.region_id for r in a] == [r.region_id for r in b]


# ---------------------------------------------------------------------------
# Tentpole: job specs and the executor.
# ---------------------------------------------------------------------------


class TestJobSpecs:
    def test_workload_spec_roundtrip(self, serial_run):
        workload, _, _ = serial_run
        spec = WorkloadSpec.from_workload(workload, TEST_SCALE)
        rebuilt = spec.build()
        assert rebuilt.full_name == workload.full_name
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_workload_spec_unknown_name(self, serial_run):
        workload, _, _ = serial_run
        spec = WorkloadSpec.from_workload(workload, TEST_SCALE)
        with pytest.raises(WorkloadError):
            WorkloadSpec(
                name="no-such-workload",
                input_class=spec.input_class,
                nthreads=spec.nthreads,
                scale=spec.scale,
            ).build()

    def test_region_job_needs_exactly_one_region(self, serial_run):
        workload, pipeline, _ = serial_run
        spec = WorkloadSpec.from_workload(workload, TEST_SCALE)
        with pytest.raises(SimulationError):
            RegionJob(
                job_id=0, workload=spec, system=pipeline.system,
                wait_policy="passive",
            )

    def test_run_region_jobs_serial_path(self, serial_run):
        workload, pipeline, serial = serial_run
        spec = WorkloadSpec.from_workload(workload, TEST_SCALE)
        jobs = [
            RegionJob(
                job_id=roi.region_id, workload=spec, system=pipeline.system,
                wait_policy="passive", roi=roi,
            )
            for roi in pipeline.regions()[:2]
        ]
        outcome = run_region_jobs(jobs, workers=1)
        assert outcome.stats.workers == 1
        assert outcome.stats.measured_speedup is None
        by_id = {r.region_id: r for r in serial.region_results}
        for res in outcome.results:
            assert res.metrics == by_id[res.region_id].metrics

    def test_execution_stats_speedup(self):
        stats = ExecutionStats(
            num_jobs=4, workers=2, serial_seconds=8.0, elapsed_seconds=4.0
        )
        assert stats.measured_speedup == pytest.approx(2.0)
        solo = ExecutionStats(
            num_jobs=4, workers=1, serial_seconds=8.0, elapsed_seconds=8.0
        )
        assert solo.measured_speedup is None


# ---------------------------------------------------------------------------
# Tentpole: the content-addressed artifact cache.
# ---------------------------------------------------------------------------


class TestArtifactCache:
    def test_roundtrip_and_counters(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        material = {"stage": "profile", "x": 1}
        assert cache.load("profile", material) is None
        cache.store("profile", material, {"payload": [1, 2, 3]})
        assert cache.load("profile", material) == {"payload": [1, 2, 3]}
        assert cache.hits["profile"] == 1
        assert cache.misses["profile"] == 1
        assert cache.stores["profile"] == 1

    def test_material_change_misses(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.store("select", {"k": 1}, "a")
        assert cache.load("select", {"k": 2}) is None

    def test_corrupt_file_is_evicted(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        material = {"k": 1}
        cache.store("record", material, "good")
        path = cache._path("record", canonical_key(material))
        path.write_bytes(b"not a gzip pickle")
        assert cache.load("record", material) is None
        assert not path.exists()

    def test_invalidate_stage_and_all(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.store("record", {"k": 1}, "a")
        cache.store("profile", {"k": 1}, "b")
        cache.invalidate("record")
        assert cache.load("record", {"k": 1}) is None
        assert cache.load("profile", {"k": 1}) == "b"
        cache.invalidate()
        assert cache.load("profile", {"k": 1}) is None

    def test_unjsonable_material_rejected(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        with pytest.raises(CacheError):
            cache.store("record", {"bad": object()}, "a")

    def test_canonical_key_order_independent(self):
        assert canonical_key({"a": 1, "b": 2}) == canonical_key(
            {"b": 2, "a": 1}
        )


class TestPipelineCacheIntegration:
    def test_second_pipeline_hits_and_matches(self, tmp_path, serial_run):
        workload, _, serial = serial_run
        first = LoopPointPipeline(
            workload, options=_options(cache_dir=str(tmp_path))
        )
        r1 = first.run(simulate_full=False)
        assert first.artifacts is not None
        assert sum(first.artifacts.stores.values()) == 3
        assert sum(first.artifacts.hits.values()) == 0

        second = LoopPointPipeline(
            workload, options=_options(cache_dir=str(tmp_path))
        )
        r2 = second.run(simulate_full=False)
        # A select hit short-circuits record/profile entirely.
        assert second.artifacts.last_outcome["select"] == "hit"
        assert sum(second.artifacts.stores.values()) == 0
        assert r1.predicted == r2.predicted == serial.predicted

    def test_option_change_invalidates(self, tmp_path, serial_run):
        workload, _, _ = serial_run
        LoopPointPipeline(
            workload, options=_options(cache_dir=str(tmp_path))
        ).run(simulate_full=False)
        other = LoopPointPipeline(
            workload,
            options=_options(cache_dir=str(tmp_path), startup_fraction=0.10),
        )
        other.select()
        # startup_fraction is select-key material: profile still hits,
        # select misses and stores a fresh artifact.
        assert other.artifacts.last_outcome["select"] == "miss"
        assert other.artifacts.stores["select"] == 1

    def test_stats_line_format(self, tmp_path, serial_run):
        workload, _, _ = serial_run
        pipe = LoopPointPipeline(
            workload, options=_options(cache_dir=str(tmp_path))
        )
        pipe.run(simulate_full=False)
        line = pipe.artifacts.stats_line()
        assert "record=miss" in line and "select=miss" in line
        assert "stores=3" in line


# ---------------------------------------------------------------------------
# Satellite: runtime error uses time, not cycles.
# ---------------------------------------------------------------------------


def _result_with(predicted_cycles, actual_cycles, freq, ref_freq):
    instrs = 1000
    return LoopPointResult(
        workload="w", wait_policy="passive", num_slices=1, num_looppoints=1,
        predicted=SimMetrics(cycles=predicted_cycles, instructions=instrs,
                             filtered_instructions=instrs),
        actual=SimMetrics(cycles=actual_cycles, instructions=instrs,
                          filtered_instructions=instrs),
        region_results=[],
        speedup=SpeedupReport(theoretical_serial=1.0,
                              theoretical_parallel=1.0),
        frequency_ghz=freq, reference_frequency_ghz=ref_freq,
    )


class TestRuntimeErrorMetric:
    def test_same_clock_runtime_equals_cycles_error(self):
        r = _result_with(1100, 1000, freq=2.66, ref_freq=2.66)
        errs = r.metric_errors()
        assert errs["runtime_error_pct"] == pytest.approx(
            errs["cycles_error_pct"]
        )
        assert errs["runtime_error_pct"] == pytest.approx(10.0)

    def test_different_clock_separates_runtime_from_cycles(self):
        # Same cycle count at double the clock = half the runtime: the
        # cycles error is 0 but the runtime error is 50%.
        r = _result_with(1000, 1000, freq=4.0, ref_freq=2.0)
        errs = r.metric_errors()
        assert errs["cycles_error_pct"] == pytest.approx(0.0)
        assert errs["runtime_error_pct"] == pytest.approx(50.0)
        assert r.runtime_error_pct == pytest.approx(50.0)

    def test_unknown_frequency_falls_back_to_cycles(self):
        r = _result_with(1100, 1000, freq=None, ref_freq=None)
        errs = r.metric_errors()
        assert errs["runtime_error_pct"] == pytest.approx(
            errs["cycles_error_pct"]
        )


# ---------------------------------------------------------------------------
# Satellite: all-slices-ineligible guard in select().
# ---------------------------------------------------------------------------


class TestStartupFractionGuard:
    def test_all_ineligible_raises_clear_error(self, serial_run):
        workload, _, _ = serial_run
        pipeline = LoopPointPipeline(
            workload, options=_options(startup_fraction=1.0)
        )
        with pytest.raises(ClusteringError, match="startup_fraction"):
            pipeline.select()


# ---------------------------------------------------------------------------
# Satellite: EvaluationCache simulate_full toggle never re-simulates.
# ---------------------------------------------------------------------------


class TestEvaluationCacheToggle:
    def test_toggle_runs_regions_once(self, monkeypatch):
        cache = EvaluationCache(scale=TEST_SCALE)
        pipeline = cache.pipeline("demo-matrix-1", nthreads=4)
        calls = {"regions": 0, "full": 0}
        real_regions = pipeline.simulate_regions
        real_full = pipeline.simulate_full

        def counting_regions(*a, **kw):
            calls["regions"] += 1
            return real_regions(*a, **kw)

        def counting_full(*a, **kw):
            calls["full"] += 1
            return real_full(*a, **kw)

        monkeypatch.setattr(pipeline, "simulate_regions", counting_regions)
        monkeypatch.setattr(pipeline, "simulate_full", counting_full)

        sampled = cache.looppoint_result(
            "demo-matrix-1", nthreads=4, simulate_full=False
        )
        full = cache.looppoint_result(
            "demo-matrix-1", nthreads=4, simulate_full=True
        )
        again = cache.looppoint_result(
            "demo-matrix-1", nthreads=4, simulate_full=False
        )
        full2 = cache.looppoint_result(
            "demo-matrix-1", nthreads=4, simulate_full=True
        )
        assert calls == {"regions": 1, "full": 1}
        assert sampled.actual is None and again is sampled
        assert full.actual is not None and full2 is full
        assert full.predicted == sampled.predicted

    def test_cache_dir_and_jobs_forwarded(self, tmp_path):
        cache = EvaluationCache(
            scale=TEST_SCALE, cache_dir=str(tmp_path), jobs=1
        )
        pipeline = cache.pipeline("demo-matrix-1", nthreads=4)
        assert pipeline.artifacts is not None
        assert pipeline.options.resolved_jobs() == 1


# ---------------------------------------------------------------------------
# Config: REPRO_JOBS.
# ---------------------------------------------------------------------------


class TestDefaultJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert default_jobs() == 1

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert default_jobs() == 3

    def test_zero_means_cpu_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert default_jobs() >= 1

    def test_bad_values_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "nope")
        with pytest.raises(WorkloadError):
            default_jobs()
        monkeypatch.setenv("REPRO_JOBS", "-2")
        with pytest.raises(WorkloadError):
            default_jobs()

    def test_options_zero_means_cpu_count(self):
        assert LoopPointOptions(jobs=0).resolved_jobs() == (
            os.cpu_count() or 1
        )

    def test_options_negative_rejected(self):
        with pytest.raises(WorkloadError, match="jobs must be >= 0"):
            LoopPointOptions(jobs=-1)

    def test_cli_negative_jobs_exits_before_recording(
        self, monkeypatch, capsys
    ):
        import repro.cli as cli

        def no_run(*args, **kwargs):
            raise AssertionError("run_one reached with --jobs -1")

        monkeypatch.setattr(cli, "run_one", no_run)
        with pytest.raises(SystemExit) as exc:
            cli.main(["-p", "demo-matrix-1", "-n", "4", "--jobs", "-1"])
        assert exc.value.code == 2
        assert "--jobs must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("timeout", [0.0, -1.0, float("inf"), float("nan")])
    def test_options_reject_bad_job_timeout(self, timeout):
        with pytest.raises(WorkloadError, match="job_timeout_s"):
            LoopPointOptions(job_timeout_s=timeout)

    @pytest.mark.parametrize("flags, message", [
        (["--job-timeout", "0"], "--job-timeout must be finite and > 0"),
        (["--job-timeout", "inf"], "--job-timeout must be finite and > 0"),
    ])
    def test_cli_bad_job_budget_exits_before_recording(
        self, monkeypatch, capsys, flags, message
    ):
        import repro.cli as cli

        def no_run(*args, **kwargs):
            raise AssertionError(f"run_one reached with {flags}")

        monkeypatch.setattr(cli, "run_one", no_run)
        with pytest.raises(SystemExit) as exc:
            cli.main(["-p", "demo-matrix-1", "-n", "4", *flags])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
