"""Resilience: the parent's re-run of failed region jobs, and restarts
from the artifact cache.

Every recovery path of the pipeline is reached from here, with the fault
caused by the test itself: a patched pool-worker entry point crashes,
hangs or raises in a forked worker; a patched job or stage function
raises; a cached file is damaged on disk; ``ci/run_faulted.py`` SIGKILLs
a CLI run once the artifact cache publishes a stage.  Each test also
asserts the call, fallback, eviction or cache count its fault causes,
so a patch that stopped reaching its target would fail the test rather
than pass it vacuously.

The region fan-out is one pool round, then the parent, then raise: a job
that does not finish in the pool re-runs once in the parent, and a job
that fails there too fails the run with an error naming its region.

The two acceptance scenarios:

* a run SIGKILLed right after profiling, then rerun with the same
  command and ``--cache-dir``, reproduces the extrapolated metrics
  bit-identically without re-running record or profile (through the CLI
  in a subprocess, so the SIGKILL takes out that process and not
  pytest);
* crashing every pool worker at ``jobs=4`` produces results
  bit-identical to the serial run, with the parent's re-runs counted in
  ``result.serial_fallbacks``.
"""

from __future__ import annotations

import functools
import gzip
import os
import pickle
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import TEST_SCALE
from repro.core import looppoint
from repro.core.looppoint import LoopPointOptions, LoopPointPipeline
from repro.core.report import format_result_table
from repro.errors import (
    ClusteringError,
    ProfilingError,
    RegionError,
    ReplayError,
    SimulationError,
)
from repro.obs import Tracer, obs_scope, read_trace
from repro.parallel import (
    ArtifactCache,
    RegionJob,
    WorkloadSpec,
    canonical_key,
    run_region_jobs,
)
from repro.parallel import artifacts as artifacts_module
from repro.parallel import executor
from repro.workloads.demo import build_demo_matrix

ROOT = Path(__file__).resolve().parent.parent


def _options(**kw):
    kw.setdefault("scale", TEST_SCALE)
    return LoopPointOptions(**kw)


@pytest.fixture(scope="module")
def reference():
    """One clean serial run shared by every bit-identity comparison."""
    workload = build_demo_matrix(1, nthreads=4, scale=TEST_SCALE)
    pipeline = LoopPointPipeline(workload, options=_options(jobs=1))
    result = pipeline.run(simulate_full=False)
    return workload, pipeline, result


@pytest.fixture(scope="module")
def region_jobs(reference):
    """Picklable jobs for every looppoint, for executor-level tests."""
    workload, pipeline, _ = reference
    spec = WorkloadSpec.from_workload(workload, TEST_SCALE)
    jobs = [
        RegionJob(
            job_id=roi.region_id, workload=spec, system=pipeline.system,
            wait_policy="passive", roi=roi,
        )
        for roi in pipeline.regions()
    ]
    return jobs


def _metrics_by_id(result):
    return {r.region_id: r.metrics for r in result.region_results}


# ---------------------------------------------------------------------------
# Causing faults: patched worker entry points, jobs and stages.
# ---------------------------------------------------------------------------


def _patch_worker_entry(monkeypatch, fault):
    """Run ``fault(job)`` in every pool worker before its job.

    ``functools.wraps`` keeps the entry point's name and module, so the
    pool still pickles it by reference and the forked workers resolve it
    to this wrapper.  The parent's re-run calls ``_timed_job`` directly
    and never sees the fault.
    """
    real_entry = executor._pool_timed_job

    @functools.wraps(real_entry)
    def entry(job, *args, **kwargs):
        fault(job)
        return real_entry(job, *args, **kwargs)

    monkeypatch.setattr(executor, "_pool_timed_job", entry)


def _log_pool_call(path, job):
    """Append ``job``'s id to ``path``.  Workers are separate processes:
    count their calls in a file (one short O_APPEND write per call is
    atomic)."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    try:
        os.write(fd, f"{job.job_id}\n".encode())
    finally:
        os.close(fd)


def _pool_calls(path):
    return sorted(map(int, path.read_text().split())) if path.exists() else []


def _crash(job):
    os._exit(3)


def _hang(job):
    time.sleep(30.0)


def _count_parent_runs(monkeypatch):
    """Count the parent's ``_timed_job`` calls per job id (pool workers
    run in forked processes, so their calls never reach this list)."""
    real_timed = executor._timed_job
    calls = []

    def timed(job):
        calls.append(job.job_id)
        return real_timed(job)

    monkeypatch.setattr(executor, "_timed_job", timed)
    return calls


def _fail_everywhere(monkeypatch, region_ids):
    """Make these regions' jobs raise in workers and in the parent."""
    real_timed = executor._timed_job

    def timed(job):
        if job.job_id in region_ids:
            raise SimulationError(f"region {job.job_id} lost")
        return real_timed(job)

    monkeypatch.setattr(executor, "_timed_job", timed)


def _raise_first_calls(monkeypatch, target, name, exc, times=1):
    """Make ``target.name`` raise ``exc`` on its first ``times`` calls;
    returns the list of calls made, one entry per call."""
    real = getattr(target, name)
    calls = []

    def flaky(*args, **kwargs):
        calls.append(name)
        if len(calls) <= times:
            raise exc
        return real(*args, **kwargs)

    monkeypatch.setattr(target, name, flaky)
    return calls


# ---------------------------------------------------------------------------
# Executor: one pool round, then the parent, then raise.
# ---------------------------------------------------------------------------


class TestExecutorRecovery:
    def test_worker_error_runs_once_in_pool_then_in_parent(
        self, reference, region_jobs, monkeypatch, tmp_path
    ):
        _, _, serial = reference
        jobs = region_jobs[:3]
        pool_log = tmp_path / "pool-calls"

        def raise_in_worker(job):
            _log_pool_call(pool_log, job)
            raise SimulationError(f"worker error, job {job.job_id}")

        _patch_worker_entry(monkeypatch, raise_in_worker)
        parent_calls = _count_parent_runs(monkeypatch)
        outcome = run_region_jobs(jobs, workers=2)
        ids = sorted(j.job_id for j in jobs)
        assert _pool_calls(pool_log) == ids
        assert parent_calls == [j.job_id for j in jobs]
        assert outcome.stats.serial_fallbacks == len(jobs)
        ref = _metrics_by_id(serial)
        assert {r.region_id: r.metrics for r in outcome.results} == {
            job_id: ref[job_id] for job_id in ids
        }

    def test_worker_crash_falls_back_to_the_parent(
        self, reference, region_jobs, monkeypatch
    ):
        _, _, serial = reference
        jobs = region_jobs[:3]
        # Every worker dies, which breaks the pool; the parent's re-run
        # does not enter through the worker entry point and finishes all.
        _patch_worker_entry(monkeypatch, _crash)
        parent_calls = _count_parent_runs(monkeypatch)
        outcome = run_region_jobs(jobs, workers=2)
        assert outcome.stats.serial_fallbacks == len(jobs)
        assert parent_calls == [j.job_id for j in jobs]
        ref = _metrics_by_id(serial)
        assert [r.region_id for r in outcome.results] == [
            j.job_id for j in jobs
        ]
        for res in outcome.results:
            assert res.metrics == ref[res.region_id]

    def test_hung_worker_costs_one_round_budget(
        self, reference, region_jobs, monkeypatch
    ):
        _, _, serial = reference
        jobs = region_jobs[:2]
        _patch_worker_entry(monkeypatch, _hang)
        timeout_s = 1.0
        outcome = run_region_jobs(jobs, workers=2, timeout_s=timeout_s)
        # Both jobs hang, share the round's single deadline
        # (ceil(2/2) = 1 budget), get terminated, and re-run in the parent
        # in a few hundredths of a second.  A budget per job would cost two.
        assert outcome.stats.serial_fallbacks == len(jobs)
        assert outcome.stats.elapsed_seconds < 2 * timeout_s
        ref = _metrics_by_id(serial)
        for res in outcome.results:
            assert res.metrics == ref[res.region_id]

    def test_clean_round_needs_no_fallback(
        self, reference, region_jobs, monkeypatch
    ):
        _, _, serial = reference
        jobs = region_jobs[:3]
        parent_calls = _count_parent_runs(monkeypatch)
        outcome = run_region_jobs(jobs, workers=2)
        assert outcome.stats.serial_fallbacks == 0
        assert parent_calls == []
        ref = _metrics_by_id(serial)
        assert {r.region_id: r.metrics for r in outcome.results} == {
            j.job_id: ref[j.job_id] for j in jobs
        }

    def test_one_failed_job_keeps_the_others(
        self, reference, region_jobs, monkeypatch
    ):
        _, _, serial = reference
        jobs = region_jobs[:3]
        doomed = jobs[1].job_id

        def raise_for_one(job):
            if job.job_id == doomed:
                raise SimulationError(f"worker error, job {job.job_id}")

        # A raising job leaves the pool intact: only it re-runs.
        _patch_worker_entry(monkeypatch, raise_for_one)
        parent_calls = _count_parent_runs(monkeypatch)
        outcome = run_region_jobs(jobs, workers=2)
        assert parent_calls == [doomed]
        assert outcome.stats.serial_fallbacks == 1
        ref = _metrics_by_id(serial)
        assert {r.region_id: r.metrics for r in outcome.results} == {
            j.job_id: ref[j.job_id] for j in jobs
        }

    def test_one_hung_job_keeps_the_others(
        self, reference, region_jobs, monkeypatch
    ):
        _, _, serial = reference
        jobs = region_jobs[:3]
        stuck = jobs[0].job_id

        def hang_one(job):
            if job.job_id == stuck:
                _hang(job)

        _patch_worker_entry(monkeypatch, hang_one)
        parent_calls = _count_parent_runs(monkeypatch)
        timeout_s = 1.0
        outcome = run_region_jobs(jobs, workers=2, timeout_s=timeout_s)
        # The other worker finishes both remaining jobs within the
        # round's deadline (ceil(3/2) = 2 budgets); only the hung one
        # re-runs in the parent.
        assert parent_calls == [stuck]
        assert outcome.stats.serial_fallbacks == 1
        assert outcome.stats.elapsed_seconds < 3 * timeout_s
        ref = _metrics_by_id(serial)
        for res in outcome.results:
            assert res.metrics == ref[res.region_id]

    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_pool_runs_each_job_exactly_once(
        self, region_jobs, monkeypatch, tmp_path, workers
    ):
        jobs = region_jobs[:4]
        pool_log = tmp_path / "pool-calls"
        _patch_worker_entry(
            monkeypatch, functools.partial(_log_pool_call, pool_log)
        )
        parent_calls = _count_parent_runs(monkeypatch)
        outcome = run_region_jobs(jobs, workers=workers)
        assert _pool_calls(pool_log) == sorted(j.job_id for j in jobs)
        assert parent_calls == []
        assert outcome.stats.workers == min(workers, len(jobs))
        assert outcome.stats.serial_fallbacks == 0

    def test_results_follow_submission_order(self, reference, region_jobs):
        _, _, serial = reference
        jobs = list(reversed(region_jobs[:4]))
        outcome = run_region_jobs(jobs, workers=2)
        assert [r.region_id for r in outcome.results] == [
            j.job_id for j in jobs
        ]
        ref = _metrics_by_id(serial)
        for res in outcome.results:
            assert res.metrics == ref[res.region_id]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_stats_account_per_job_wall_time(self, region_jobs, workers):
        jobs = region_jobs[:3]
        stats = run_region_jobs(jobs, workers=workers).stats
        assert stats.num_jobs == len(jobs)
        assert sorted(stats.per_job_seconds) == sorted(j.job_id for j in jobs)
        assert all(s > 0 for s in stats.per_job_seconds.values())
        assert stats.serial_seconds == pytest.approx(
            sum(stats.per_job_seconds.values())
        )
        if workers == 1:
            assert stats.measured_speedup is None
        else:
            assert stats.measured_speedup == pytest.approx(
                stats.serial_seconds / stats.elapsed_seconds
            )

    @pytest.mark.parametrize("exc", [
        ValueError("bad input"), KeyError("missing"),
        SimulationError("sim broke"),
    ], ids=["ValueError", "KeyError", "SimulationError"])
    def test_parent_failure_names_region_and_keeps_cause(
        self, region_jobs, monkeypatch, exc
    ):
        jobs = region_jobs[:2]
        doomed = jobs[0].job_id

        def timed(job):
            raise exc

        monkeypatch.setattr(executor, "_timed_job", timed)
        with pytest.raises(
            SimulationError,
            match=rf"^region {doomed} failed: {type(exc).__name__}: ",
        ) as raised:
            run_region_jobs(jobs, workers=1)
        assert raised.value.__cause__ is exc

    @pytest.mark.parametrize("crash", [False, True], ids=["clean", "crash"])
    def test_trace_records_fallbacks(
        self, region_jobs, monkeypatch, tmp_path, crash
    ):
        jobs = region_jobs[:3]
        if crash:
            _patch_worker_entry(monkeypatch, _crash)
        path = str(tmp_path / "t.jsonl")
        tracer = Tracer(path)
        with obs_scope(tracer):
            outcome = run_region_jobs(jobs, workers=2)
        tracer.finish()
        data = read_trace(path)
        expected = len(jobs) if crash else 0
        assert outcome.stats.serial_fallbacks == expected
        assert data.counters()["fanout.serial_fallbacks"] == expected
        (fanout,) = [s for s in data.spans if s.name == "fanout"]
        assert fanout.attrs["serial_fallbacks"] == expected
        assert fanout.attrs["mode"] == "pool"
        regions = [s for s in data.spans if s.name.startswith("region:")]
        # Crashed workers leave no span; the parent's re-runs carry the
        # fallback attribute, and clean worker spans do not.
        assert len(regions) == len(jobs)
        assert all(s.parent == fanout.span_id for s in regions)
        assert [bool(s.attrs.get("fallback")) for s in regions] == (
            [crash] * len(jobs)
        )
        assert all((s.pid == data.root_pid) == crash for s in regions)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_job_failing_everywhere_raises_naming_its_region(
        self, region_jobs, monkeypatch, workers
    ):
        jobs = region_jobs[:3]
        doomed = jobs[1].job_id
        _fail_everywhere(monkeypatch, {doomed})
        with pytest.raises(
            SimulationError, match=rf"^region {doomed} failed: .* lost$"
        ) as exc:
            run_region_jobs(jobs, workers=workers)
        assert isinstance(exc.value.__cause__, SimulationError)

    def test_serial_mode_runs_each_job_once(self, region_jobs, monkeypatch):
        jobs = region_jobs[:3]
        calls = []
        real_timed = executor._timed_job

        def timed(job):
            calls.append(job.job_id)
            if job.job_id == jobs[0].job_id:
                raise SimulationError("first job fails")
            return real_timed(job)

        monkeypatch.setattr(executor, "_timed_job", timed)
        with pytest.raises(SimulationError, match=f"region {jobs[0].job_id}"):
            run_region_jobs(jobs, workers=1)
        # No in-process retry: the failing job ran once and stopped the run.
        assert calls == [jobs[0].job_id]

    def test_no_jobs_is_a_clean_no_op(self):
        outcome = run_region_jobs([], workers=4)
        assert outcome.results == [] and outcome.stats.num_jobs == 0

    def test_duplicate_job_ids_are_rejected(self, region_jobs):
        jobs = [region_jobs[0], region_jobs[0]]
        with pytest.raises(SimulationError, match="duplicate job ids"):
            run_region_jobs(jobs, workers=2)


# ---------------------------------------------------------------------------
# Acceptance: crashing every worker at jobs=4 is bit-identical to serial.
# ---------------------------------------------------------------------------


class TestWorkerCrashAcceptance:
    def test_pipeline_survives_crashing_every_worker(
        self, reference, monkeypatch
    ):
        workload, _, serial = reference
        _patch_worker_entry(monkeypatch, _crash)
        pipeline = LoopPointPipeline(workload, options=_options(jobs=4))
        result = pipeline.run(simulate_full=False)
        assert result.predicted == serial.predicted
        assert _metrics_by_id(result) == _metrics_by_id(serial)
        assert result.serial_fallbacks == len(serial.region_results)
        assert serial.serial_fallbacks == 0


class TestLostRegion:
    @pytest.mark.parametrize("constrained", [False, True],
                             ids=["binary", "constrained"])
    def test_region_failing_everywhere_fails_the_run(
        self, reference, monkeypatch, constrained
    ):
        workload, pipeline, _ = reference
        doomed = max(r.region_id for r in pipeline.regions())
        _fail_everywhere(monkeypatch, {doomed})
        faulted = LoopPointPipeline(workload, options=_options(jobs=2))
        with pytest.raises(SimulationError, match=rf"^region {doomed} "):
            faulted.run(simulate_full=False, constrained=constrained)

    @pytest.mark.parametrize("constrained", [False, True],
                             ids=["binary", "constrained"])
    def test_region_failing_only_in_the_pool_recovers(
        self, reference, monkeypatch, constrained
    ):
        workload, pipeline, serial = reference
        if constrained:
            serial = LoopPointPipeline(
                workload, options=_options(jobs=1)
            ).run(simulate_full=False, constrained=True)
        doomed = min(r.region_id for r in pipeline.regions())

        def raise_for_one(job):
            if job.job_id == doomed:
                raise SimulationError(f"worker error, job {job.job_id}")

        _patch_worker_entry(monkeypatch, raise_for_one)
        parent_calls = _count_parent_runs(monkeypatch)
        faulted = LoopPointPipeline(workload, options=_options(jobs=2))
        result = faulted.run(simulate_full=False, constrained=constrained)
        assert parent_calls == [doomed]
        assert result.serial_fallbacks == 1
        assert result.predicted == serial.predicted
        assert _metrics_by_id(result) == _metrics_by_id(serial)


# ---------------------------------------------------------------------------
# Satellite: cache-corruption recovery.
# ---------------------------------------------------------------------------


class TestCacheCorruptionRecovery:
    def _artifact_path(self, pipeline, stage, material):
        return pipeline.artifacts._path(stage, canonical_key(material))

    @pytest.mark.parametrize("damage", [
        # Every stage artifact damaged, each a different way.
        {"record": "truncate", "profile": "garbage", "select": "truncate"},
        # Select left intact: it still hits, and the damaged upstream
        # artifacts degrade to misses, not errors.
        {"record": "truncate", "profile": "garbage"},
    ], ids=["all-stages", "select-intact"])
    def test_damaged_artifacts_recompute_cleanly(
        self, tmp_path, reference, damage
    ):
        workload, _, serial = reference
        first = LoopPointPipeline(
            workload, options=_options(cache_dir=str(tmp_path))
        )
        first.run(simulate_full=False)
        materials = {
            "record": first._record_material(),
            "profile": first._profile_material(),
            "select": first._select_material(),
        }
        for stage, how in damage.items():
            path = self._artifact_path(first, stage, materials[stage])
            assert path.exists()
            if how == "truncate":
                path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
            else:
                path.write_bytes(b"garbage, not a gzip pickle\x00\xff")
        second = LoopPointPipeline(
            workload, options=_options(cache_dir=str(tmp_path))
        )
        result = second.run(simulate_full=False)
        assert result.predicted == serial.predicted
        assert result.serial_fallbacks == 0
        assert sum(second.artifacts.evictions.values()) == len(damage)
        assert sum(second.artifacts.stores.values()) == len(damage)
        assert second.artifacts.last_outcome["select"] == (
            "miss" if "select" in damage else "hit"
        )

    def test_version_bump_orphans_old_artifacts(
        self, tmp_path, reference, monkeypatch
    ):
        workload, _, serial = reference
        LoopPointPipeline(
            workload, options=_options(cache_dir=str(tmp_path))
        ).run(simulate_full=False)
        monkeypatch.setattr(artifacts_module, "CACHE_VERSION", 999)
        bumped = LoopPointPipeline(
            workload, options=_options(cache_dir=str(tmp_path))
        )
        result = bumped.run(simulate_full=False)
        # The old v-directory is invisible: a full recompute, same numbers.
        assert sum(bumped.artifacts.hits.values()) == 0
        assert sum(bumped.artifacts.stores.values()) == 3
        assert result.predicted == serial.predicted

    def test_version_mismatched_payload_is_evicted(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        material = {"k": 1}
        cache.store("record", material, "good")
        path = cache._path("record", canonical_key(material))
        stale = (
            artifacts_module._MAGIC,
            artifacts_module.CACHE_VERSION + 1,
            material,
            "good",
        )
        path.write_bytes(gzip.compress(pickle.dumps(stale)))
        assert cache.load("record", material) is None
        assert not path.exists()

# ---------------------------------------------------------------------------
# Restarting: rerun the same options against the same cache directory.
# ---------------------------------------------------------------------------


class TestRerunFromCache:
    def _run(self, tmp_path, workload):
        pipeline = LoopPointPipeline(workload, options=_options(
            cache_dir=str(tmp_path / "cache"),
        ))
        return pipeline, pipeline.run(simulate_full=False)

    def test_rerun_loads_finished_stages(self, tmp_path, reference):
        workload, _, serial = reference
        self._run(tmp_path, workload)
        pipeline, result = self._run(tmp_path, workload)
        assert result.predicted == serial.predicted
        # The profile and select hits leave record untouched.
        assert pipeline.artifacts.stats_line() == (
            "profile=hit select=hit | hits=2 misses=0 stores=0 evictions=0"
        )
        assert result.serial_fallbacks == 0

    @pytest.mark.parametrize("stage, outcomes", [
        ("record", "record=hit profile=miss select=miss"),
        ("profile", "profile=hit select=miss"),
        ("select", "profile=hit select=hit"),
    ])
    def test_killed_after_stage_reruns_the_rest(
        self, tmp_path, reference, monkeypatch, stage, outcomes
    ):
        workload, _, serial = reference
        with monkeypatch.context() as patch:
            _kill_after_store(patch, stage)
            with pytest.raises(_Killed):
                self._run(tmp_path, workload)
        pipeline, result = self._run(tmp_path, workload)
        assert pipeline.artifacts.stats_line().startswith(outcomes + " |")
        assert result.predicted == serial.predicted

    @pytest.mark.parametrize("stage, outcomes", [
        ("record", "record=hit dcfg=miss live=miss"),
        ("dcfg", "record=hit dcfg=hit live=miss"),
        ("live", "live=hit"),
    ])
    def test_live_killed_after_stage_reruns_the_rest(
        self, tmp_path, live_reference, monkeypatch, stage, outcomes
    ):
        workload, reference = live_reference
        with monkeypatch.context() as patch:
            _kill_after_store(patch, stage)
            with pytest.raises(_Killed):
                self._run_live(tmp_path, workload)
        pipeline, result = self._run_live(tmp_path, workload)
        assert pipeline.artifacts.stats_line().startswith(outcomes + " |")
        assert result.predicted == reference.predicted

    @pytest.mark.parametrize("mode, stage, outcomes", [
        # Profile and select hit, so the record artifact is never needed.
        ("offline", "record", "profile=hit select=hit"),
        ("offline", "profile", "record=hit profile=miss select=hit"),
        ("offline", "select", "profile=hit select=miss"),
        ("live", "record", "live=hit"),
        ("live", "dcfg", "live=hit"),
        ("live", "live", "record=hit dcfg=hit live=miss"),
    ])
    def test_wiped_stage_is_an_ordinary_miss(
        self, tmp_path, reference, live_reference, mode, stage, outcomes
    ):
        run = self._run if mode == "offline" else self._run_live
        workload = reference[0]
        expected = (
            reference[2] if mode == "offline" else live_reference[1]
        ).predicted
        first, _ = run(tmp_path, workload)
        first.artifacts.invalidate(stage)
        pipeline, result = run(tmp_path, workload)
        assert pipeline.artifacts.stats_line().startswith(outcomes + " |")
        # Only the wiped stage, when the rerun needs it, is stored again.
        assert pipeline.artifacts.stores[stage] == int(
            f"{stage}=miss" in outcomes
        )
        assert result.predicted == expected

    @pytest.mark.parametrize("changed, outcomes", [
        (dict(record_seed=1), "record=miss profile=miss select=miss"),
        (dict(slice_size=12000), "record=hit profile=miss select=miss"),
        (dict(startup_fraction=0.10), "profile=hit select=miss"),
    ], ids=["record-seed", "slice-size", "startup-fraction"])
    def test_changed_option_misses_from_its_stage_on(
        self, tmp_path, reference, changed, outcomes
    ):
        workload, _, _ = reference
        self._run(tmp_path, workload)
        pipeline = LoopPointPipeline(workload, options=_options(
            cache_dir=str(tmp_path / "cache"), **changed,
        ))
        result = pipeline.run(simulate_full=False)
        # Never a mix of old and new artifacts: the changed option is key
        # material of its stage and of every stage downstream of it.
        assert pipeline.artifacts.stats_line().startswith(outcomes + " |")
        fresh = LoopPointPipeline(workload, options=_options(**changed))
        assert result.predicted == fresh.run(simulate_full=False).predicted

    def test_changed_live_option_misses_only_live(
        self, tmp_path, live_reference
    ):
        from repro.analysis.online import LiveOptions

        workload, _ = live_reference
        self._run_live(tmp_path, workload)
        changed = LiveOptions(max_topups=1)
        pipeline = LoopPointPipeline(workload, options=_options(
            cache_dir=str(tmp_path / "cache"),
        ))
        result = pipeline.run_live(simulate_full=False, live_options=changed)
        assert pipeline.artifacts.stats_line().startswith(
            "record=hit dcfg=hit live=miss |"
        )
        fresh = LoopPointPipeline(workload, options=_options()).run_live(
            simulate_full=False, live_options=changed,
        )
        assert result.predicted == fresh.predicted

    def _run_live(self, tmp_path, workload):
        pipeline = LoopPointPipeline(workload, options=_options(
            cache_dir=str(tmp_path / "cache"),
        ))
        return pipeline, pipeline.run_live(simulate_full=False)


class _Killed(BaseException):
    """Stands in for SIGKILL in-process: no ``except Exception`` in the
    pipeline catches it, so the run stops where the kill lands."""


def _kill_after_store(patch, stage):
    """Raise :class:`_Killed` right after ``stage``'s artifact is
    published, as ``ci/run_faulted.py --kill-after`` does with SIGKILL."""
    real_store = ArtifactCache.store

    def store_then_die(self, stored_stage, material, artifact):
        real_store(self, stored_stage, material, artifact)
        if stored_stage == stage:
            raise _Killed(stage)

    patch.setattr(ArtifactCache, "store", store_then_die)


@pytest.fixture(scope="module")
def live_reference(reference):
    """One clean live run for the live rerun comparisons."""
    workload, _, _ = reference
    result = LoopPointPipeline(
        workload, options=_options(jobs=1)
    ).run_live(simulate_full=False)
    return workload, result


# ---------------------------------------------------------------------------
# Acceptance: SIGKILL after profile, then rerun, bit-identical metrics.
# Runs through the CLI in subprocesses — the SIGKILL is real.
# ---------------------------------------------------------------------------


def _cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["REPRO_SCALE"] = "tiny"
    env.pop("REPRO_JOBS", None)
    return env


def _run_cli(args, env, fault=None):
    """Run ``run-looppoint`` in a subprocess; ``fault`` lists the
    ``ci/run_faulted.py`` options that cause a fault in that run."""
    if fault is None:
        command = ["-m", "repro.cli", *args]
    else:
        command = [str(ROOT / "ci" / "run_faulted.py"), *fault, "--", *args]
    return subprocess.run(
        [sys.executable, *command],
        env=env, capture_output=True, text=True, timeout=300,
    )


def _predicted_lines(output):
    return [
        line for line in output.splitlines()
        if line.startswith("[predicted]")
    ]


def _cache_line(output):
    lines = [ln for ln in output.splitlines() if ln.startswith("[cache]")]
    assert len(lines) == 1, output
    return lines[0]


class TestSigkillRerunAcceptance:
    def test_kill_after_profile_then_rerun(self, tmp_path):
        env = _cli_env()
        base = ["-p", "demo-matrix-1", "-n", "4", "--no-fullsim"]
        clean = _run_cli(base, env)
        assert clean.returncode == 0, clean.stderr
        reference = _predicted_lines(clean.stdout)
        assert len(reference) == 1

        cache = ["--cache-dir", str(tmp_path / "cache")]
        killed = _run_cli(
            base + cache, env, fault=["--kill-after", "profile"]
        )
        assert killed.returncode == -9, (killed.returncode, killed.stderr)
        assert _predicted_lines(killed.stdout) == []

        rerun = _run_cli(base + cache, env)
        assert rerun.returncode == 0, rerun.stderr
        # Profile comes back from the cache (record is never needed);
        # only select, which the kill cut off, recomputes.
        assert _cache_line(rerun.stdout).startswith(
            "[cache] profile=hit select=miss |"
        )
        assert _predicted_lines(rerun.stdout) == reference

    def test_live_kill_after_dcfg_then_rerun(self, tmp_path):
        env = _cli_env()
        base = ["-p", "demo-matrix-1", "-n", "4", "--no-fullsim",
                "--jobs", "1", "--live"]

        def metric_lines(output):
            return [
                line for line in output.splitlines()
                if line.startswith(("[predicted]", "[live]"))
            ]

        clean = _run_cli(base, env)
        assert clean.returncode == 0, clean.stderr
        reference = metric_lines(clean.stdout)
        assert len(reference) == 2

        cache = ["--cache-dir", str(tmp_path / "cache")]
        killed = _run_cli(base + cache, env, fault=["--kill-after", "dcfg"])
        assert killed.returncode == -9, (killed.returncode, killed.stderr)
        assert metric_lines(killed.stdout) == []

        rerun = _run_cli(base + cache, env)
        assert rerun.returncode == 0, rerun.stderr
        assert _cache_line(rerun.stdout).startswith(
            "[cache] record=hit dcfg=hit live=miss |"
        )
        assert metric_lines(rerun.stdout) == reference


# ---------------------------------------------------------------------------
# ci/run_faulted.py: the helper CI uses to fault whole CLI runs.
# ---------------------------------------------------------------------------


def _health_line(output):
    lines = [ln for ln in output.splitlines() if ln.startswith("[health]")]
    assert len(lines) == 1, output
    return lines[0]


def _load_fault_helper():
    """Import ``ci/run_faulted.py`` as a module."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "run_faulted", ROOT / "ci" / "run_faulted.py"
    )
    helper = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(helper)
    return helper


class TestFaultHelper:
    BASE = ["-p", "demo-matrix-1", "-n", "4", "--no-fullsim"]

    @pytest.mark.parametrize("argv", [
        ["--kill-after", "profile", "-p", "demo-matrix-1"],
        ["--", "-p", "demo-matrix-1"],
        ["--crash-workers", "--fail-last-region", "--", "-p",
         "demo-matrix-1"],
        ["--kill-after", "simulate", "--", "-p", "demo-matrix-1"],
    ], ids=["no-separator", "no-fault", "two-faults", "uncached-stage"])
    def test_bad_usage_exits_2(self, argv, capsys):
        helper = _load_fault_helper()
        # Usage errors stop before anything is patched.
        real_store = ArtifactCache.store
        with pytest.raises(SystemExit) as exc:
            helper.main(argv)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err
        assert ArtifactCache.store is real_store

    @pytest.mark.parametrize("stage", artifacts_module.STAGES)
    def test_kill_after_wraps_store_for_every_cached_stage(
        self, tmp_path, monkeypatch, stage
    ):
        helper = _load_fault_helper()
        real_store = ArtifactCache.store
        # The helper assigns ArtifactCache.store; monkeypatch restores it.
        monkeypatch.setattr(ArtifactCache, "store", real_store)
        calls = []
        monkeypatch.setattr(
            helper.cli, "main", lambda argv: calls.append(argv) or 0
        )
        assert helper.main(["--kill-after", stage, "--", *self.BASE]) == 0
        assert calls == [self.BASE]
        assert ArtifactCache.store is not real_store
        # Every other stage publishes through the wrapper and survives.
        cache = ArtifactCache(tmp_path)
        for other in artifacts_module.STAGES:
            if other != stage:
                cache.store(other, {"k": other}, other)
                assert cache.load(other, {"k": other}) == other
        assert cache.stores[stage] == 0

    def test_crash_workers_reproduces_clean_metrics(self):
        env = _cli_env()
        args = self.BASE + ["--jobs", "4"]
        clean = _run_cli(args, env)
        assert clean.returncode == 0, clean.stderr
        assert "[health]" not in clean.stdout
        faulted = _run_cli(args, env, fault=["--crash-workers"])
        assert faulted.returncode == 0, faulted.stderr
        assert _predicted_lines(faulted.stdout) == _predicted_lines(
            clean.stdout
        )
        health = _health_line(faulted.stdout)
        assert int(re.fullmatch(
            r"\[health\] serial_fallbacks=(\d+)", health
        ).group(1)) > 0

    def test_fail_last_region_fails_the_run(self):
        env = _cli_env()
        failed = _run_cli(
            self.BASE + ["--jobs", "2"], env, fault=["--fail-last-region"]
        )
        assert failed.returncode == 1
        assert _predicted_lines(failed.stdout) == []
        lost = re.search(
            r"FAILED: region (\d+) failed: SimulationError: "
            r"region (\d+) fails everywhere",
            failed.stdout + failed.stderr,
        )
        assert lost and lost.group(1) == lost.group(2)


# ---------------------------------------------------------------------------
# Stage-level faults: no retry, the error propagates, nothing is stored.
# ---------------------------------------------------------------------------


#: stage -> (patch target, attribute, the domain error it raises, how a
#: pipeline runs the stage).  Every analysis stage.
STAGE_FAULTS = {
    "record": (LoopPointPipeline, "_compute_record",
               ReplayError("recording replay failed"),
               lambda p: p.record()),
    "profile": (LoopPointPipeline, "_compute_profile",
                ProfilingError("slicing failed"),
                lambda p: p.profile()),
    "select": (looppoint, "select_simpoints",
               ClusteringError("k-means did not converge"),
               lambda p: p.select()),
    "dcfg": (LoopPointPipeline, "_compute_marker_pcs",
             ReplayError("DCFG replay failed"),
             lambda p: p.marker_pcs()),
    "live": (LoopPointPipeline, "_compute_live",
             SimulationError("live pass failed"),
             lambda p: p.live()),
    "extract": (looppoint, "extract_region_pinballs",
                RegionError("region-pinball extraction failed"),
                lambda p: p.region_pinballs()),
}


class TestStageFaults:
    def _pipeline(self, reference, tmp_path):
        workload, _, _ = reference
        return LoopPointPipeline(workload, options=_options(
            jobs=1, cache_dir=str(tmp_path),
        ))

    @pytest.mark.parametrize("stage", sorted(STAGE_FAULTS))
    def test_error_propagates_then_rerun_matches(
        self, reference, tmp_path, monkeypatch, stage
    ):
        _, serial_pipeline, _ = reference
        target, name, exc, run_stage = STAGE_FAULTS[stage]
        with monkeypatch.context() as patch:
            calls = _raise_first_calls(patch, target, name, exc, times=99)
            faulted = self._pipeline(reference, tmp_path)
            with pytest.raises(type(exc)):
                run_stage(faulted)
        # Stages are seeded, pure functions: one attempt, no retry.
        assert len(calls) == 1
        assert faulted.artifacts.stores[stage] == 0
        assert not list(faulted.artifacts.root.glob(f"{stage}/*/*.pkl.gz"))
        # The same options against the same cache dir finish the stage.
        rerun = self._pipeline(reference, tmp_path)
        assert pickle.dumps(run_stage(rerun)) == pickle.dumps(
            run_stage(serial_pipeline)
        )
        if stage != "extract":
            assert rerun.artifacts.last_outcome[stage] == "miss"
            assert rerun.artifacts.stores[stage] == 1

    def test_non_domain_errors_propagate_unrecorded(
        self, reference, tmp_path, monkeypatch
    ):
        # A bug is not a domain fault: it escapes as itself and publishes
        # nothing for its stage.
        calls = _raise_first_calls(
            monkeypatch, LoopPointPipeline, "_compute_profile",
            KeyError("bug"), times=99,
        )
        pipeline = self._pipeline(reference, tmp_path)
        with pytest.raises(KeyError):
            pipeline.profile()
        assert len(calls) == 1
        assert pipeline.artifacts.stores["profile"] == 0

    def test_failed_run_reruns_to_the_reference(
        self, reference, tmp_path, monkeypatch
    ):
        _, _, serial = reference
        with monkeypatch.context() as patch:
            _raise_first_calls(
                patch, looppoint, "select_simpoints",
                ClusteringError("k-means did not converge"),
            )
            with pytest.raises(ClusteringError):
                self._pipeline(reference, tmp_path).run(simulate_full=False)
        rerun = self._pipeline(reference, tmp_path)
        result = rerun.run(simulate_full=False)
        assert result.predicted == serial.predicted
        assert rerun.artifacts.stats_line().startswith(
            "profile=hit select=miss | hits=1 misses=1 stores=1"
        )


# ---------------------------------------------------------------------------
# Fallback accounting on the result surfaces.
# ---------------------------------------------------------------------------


class TestFallbackReporting:
    def test_result_table_has_fallback_column(self, reference):
        _, _, serial = reference
        header = format_result_table([serial]).splitlines()[0].split()
        assert header[-1] == "fb"
        assert "retry" not in header and "cov%" not in header


class TestErrors:
    def test_every_public_error_is_a_repro_error(self):
        # Callers catch ReproError to handle library failures without
        # masking bugs; an error class outside it would slip past them.
        import importlib
        import inspect
        import pkgutil

        import repro
        from repro.errors import ReproError

        errors = [
            obj
            for info in pkgutil.walk_packages(repro.__path__, "repro.")
            for name, obj in vars(importlib.import_module(info.name)).items()
            if inspect.isclass(obj) and issubclass(obj, BaseException)
            and obj.__module__ == info.name and not name.startswith("_")
        ]
        assert len(errors) > 10
        assert [e for e in errors if not issubclass(e, ReproError)] == []


# ---------------------------------------------------------------------------
# CLI wiring.
# ---------------------------------------------------------------------------


class TestCli:
    @pytest.fixture(autouse=True)
    def _cli_defaults(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        monkeypatch.delenv("REPRO_JOBS", raising=False)

    @pytest.mark.parametrize("flag", [
        ["--fault-plan", "x"], ["--resume"], ["--manifest", "m.jsonl"],
        ["--job-retries", "1"], ["--degrade", "drop"],
    ], ids=["fault-plan", "resume", "manifest", "job-retries", "degrade"])
    def test_retired_flags_are_gone(self, capsys, flag):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["-p", "demo-matrix-1", *flag])
        assert exc.value.code == 2
        assert (
            f"unrecognized arguments: {' '.join(flag)}"
            in capsys.readouterr().err
        )

    @pytest.mark.parametrize("option", [
        "fault_plan", "manifest_path", "stage_retries", "job_retries",
        "degrade", "retry_backoff_s", "retry_backoff_max_s", "retry_jitter",
    ])
    def test_retired_options_are_gone(self, option):
        with pytest.raises(TypeError):
            LoopPointOptions(**{option: None})

    def test_run_has_no_resume_parameter(self, reference):
        _, pipeline, _ = reference
        with pytest.raises(TypeError):
            pipeline.run(simulate_full=False, resume=True)
        with pytest.raises(TypeError):
            pipeline.run_live(simulate_full=False, resume=True)

    def test_rerun_prints_identical_metrics(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        base = ["-p", "demo-matrix-1", "-n", "4", "--no-fullsim",
                "--jobs", "1", "--cache-dir", str(tmp_path)]
        assert main(base) == 0
        first = capsys.readouterr().out
        cold = _predicted_lines(first)
        assert len(cold) == 1
        assert "[cache]" in first

        assert main(base) == 0
        second = capsys.readouterr().out
        assert _predicted_lines(second) == cold
        assert _cache_line(second).startswith(
            "[cache] profile=hit select=hit |"
        )

    def test_clean_cli_run_prints_no_health_line(self, capsys):
        from repro.cli import main

        rc = main(["-p", "demo-matrix-1", "-n", "4", "--no-fullsim",
                   "--jobs", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert len(_predicted_lines(out)) == 1
        assert not any(ln.startswith("[health]") for ln in out.splitlines())

    def test_faulted_cli_run_reports_fallbacks(self, capsys, monkeypatch):
        from repro.cli import main

        _patch_worker_entry(monkeypatch, _crash)
        rc = main(["-p", "demo-matrix-1", "-n", "4", "--no-fullsim",
                   "--jobs", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        health = [ln for ln in out.splitlines()
                  if ln.startswith("[health]")]
        assert len(health) == 1
        fallbacks = int(re.fullmatch(
            r"\[health\] serial_fallbacks=(\d+)", health[0]
        ).group(1))
        assert fallbacks > 0

    def test_faulted_cli_run_records_fallbacks_in_history(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.cli import main
        from repro.obs.history import HistoryStore, history_path_for

        _patch_worker_entry(monkeypatch, _crash)
        cache = str(tmp_path / "cache")
        rc = main(["-p", "demo-matrix-1", "-n", "4", "--no-fullsim",
                   "--jobs", "4", "--cache-dir", cache])
        assert rc == 0
        out = capsys.readouterr().out
        printed = int(re.search(
            r"^\[health\] serial_fallbacks=(\d+)$", out, re.M
        ).group(1))
        records, corrupt = HistoryStore(
            history_path_for(cache, "demo-matrix-1")
        ).load()
        assert corrupt == 0 and len(records) == 1
        counters = records[0].counters
        assert counters["fallbacks"] == printed > 0
        assert "retries" not in counters
        assert "coverage_pct" not in records[0].as_dict()
