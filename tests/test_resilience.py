"""Resilience: retries, resumable runs, and graceful degradation.

Every recovery path of the pipeline is reached from here, with the fault
caused by the test itself: a patched pool-worker entry point crashes,
hangs or raises in a forked worker; a patched job or stage function
raises; a cached file is damaged on disk; ``ci/run_faulted.py`` SIGKILLs
a CLI run once the manifest journals a stage.  Each test also asserts the
retry, fallback or eviction count its fault causes, so a patch that
stopped reaching its target would fail the test rather than pass it
vacuously.

The two acceptance scenarios:

* a run SIGKILLed right after profiling, restarted with ``--resume``,
  reproduces the extrapolated metrics bit-identically without re-running
  record or profile (through the CLI in a subprocess, so the SIGKILL
  takes out that process and not pytest);
* crashing every pool worker's first attempt at ``jobs=4`` produces
  results bit-identical to the serial run, with the retries in
  ``result.health``.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import json
import os
import pickle
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import TEST_SCALE
from repro.core import looppoint
from repro.core.looppoint import LoopPointOptions, LoopPointPipeline
from repro.core.report import format_health_table, format_result_table
from repro.errors import (
    ClusteringError,
    ProfilingError,
    RegionError,
    ReplayDivergenceError,
    ReplayError,
    ReproError,
    ResumeError,
    SimulationError,
)
from repro.parallel import (
    ArtifactCache,
    RegionJob,
    WorkloadSpec,
    canonical_key,
    run_region_jobs,
)
from repro.parallel import artifacts as artifacts_module
from repro.parallel import executor
from repro.resilience import (
    DegradePolicy,
    FailureRecord,
    RetryPolicy,
    RunHealth,
    RunManifest,
    renormalize_clusters,
)
from repro.workloads.demo import build_demo_matrix

ROOT = Path(__file__).resolve().parent.parent

#: Fast backoff so retry-heavy tests don't sleep their way through CI.
FAST_BACKOFF = dict(retry_backoff_s=0.001, retry_backoff_max_s=0.002)


def _options(**kw):
    kw.setdefault("scale", TEST_SCALE)
    for key, value in FAST_BACKOFF.items():
        kw.setdefault(key, value)
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
    """Run ``fault(job, attempt)`` in every pool worker before its job.

    ``functools.wraps`` keeps the entry point's name and module, so the
    pool still pickles it by reference and the forked workers resolve it
    to this wrapper.  The parent's serial fallback calls ``_timed_job``
    directly and never sees the fault.
    """
    real_entry = executor._pool_timed_job

    @functools.wraps(real_entry)
    def entry(job, attempt, *args, **kwargs):
        fault(job, attempt)
        return real_entry(job, attempt, *args, **kwargs)

    monkeypatch.setattr(executor, "_pool_timed_job", entry)


def _crash_first_attempt(job, attempt):
    if attempt == 0:
        os._exit(3)


def _crash_every_attempt(job, attempt):
    os._exit(3)


def _hang_first_attempt(job, attempt):
    if attempt == 0:
        time.sleep(30.0)


def _raise_first_attempt(job, attempt):
    if attempt == 0:
        raise SimulationError(f"worker error, job {job.job_id}")


def _raise_every_attempt(job, attempt):
    raise SimulationError(f"worker error, job {job.job_id}")


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
# RetryPolicy: deterministic jittered exponential backoff.
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    def test_deterministic_per_key_and_attempt(self):
        policy = RetryPolicy(seed=5)
        assert policy.delay(1, key="a") == policy.delay(1, key="a")
        assert policy.delay(1, key="a") != policy.delay(1, key="b")
        assert policy.delay(1, key="a") != policy.delay(2, key="a")

    def test_exponential_growth_is_capped(self):
        policy = RetryPolicy(base_delay_s=0.1, max_delay_s=1.0, jitter=0.0)
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(10) == pytest.approx(1.0)

    def test_jitter_stays_inside_amplitude(self):
        policy = RetryPolicy(base_delay_s=0.1, max_delay_s=0.1, jitter=0.25)
        for attempt in range(1, 20):
            d = policy.delay(attempt, key="job")
            assert 0.075 <= d <= 0.125

    def test_degenerate_inputs_yield_zero(self):
        assert RetryPolicy().delay(0) == 0.0
        assert RetryPolicy(base_delay_s=0.0).delay(3) == 0.0


# ---------------------------------------------------------------------------
# Executor: recovery ladder and per-round timeout accounting.
# ---------------------------------------------------------------------------


class TestExecutorRecovery:
    def test_worker_error_first_attempt_retries_clean(
        self, reference, region_jobs, monkeypatch
    ):
        _, _, serial = reference
        _patch_worker_entry(monkeypatch, _raise_first_attempt)
        outcome = run_region_jobs(
            region_jobs, workers=4, retries=1,
            backoff=RetryPolicy(base_delay_s=0.001, seed=7),
        )
        assert outcome.stats.retries == len(region_jobs)
        assert outcome.stats.serial_fallbacks == 0
        assert outcome.stats.backoff_seconds > 0
        assert not outcome.failures
        ref = _metrics_by_id(serial)
        assert {r.region_id: r.metrics for r in outcome.results} == ref

    def test_worker_crash_breaks_pool_but_not_run(
        self, reference, region_jobs, monkeypatch
    ):
        _, _, serial = reference
        jobs = region_jobs[:4]
        _patch_worker_entry(monkeypatch, _crash_first_attempt)
        outcome = run_region_jobs(jobs, workers=2, retries=1)
        assert outcome.stats.retries == len(jobs)
        assert outcome.stats.serial_fallbacks == 0
        assert not outcome.failures
        ref = _metrics_by_id(serial)
        for res in outcome.results:
            assert res.metrics == ref[res.region_id]

    def test_exhausted_retries_fall_back_serially(
        self, reference, region_jobs, monkeypatch
    ):
        _, _, serial = reference
        jobs = region_jobs[:3]
        # Every pool attempt fails, but the parent's serial fallback does
        # not enter through the worker entry point, so every job completes.
        _patch_worker_entry(monkeypatch, _raise_every_attempt)
        outcome = run_region_jobs(jobs, workers=2, retries=1)
        assert outcome.stats.serial_fallbacks == len(jobs)
        assert outcome.stats.retries == len(jobs)
        assert not outcome.failures
        ref = _metrics_by_id(serial)
        for res in outcome.results:
            assert res.metrics == ref[res.region_id]

    def test_hung_worker_costs_one_round_budget(
        self, reference, region_jobs, monkeypatch
    ):
        _, _, serial = reference
        jobs = region_jobs[:2]
        _patch_worker_entry(monkeypatch, _hang_first_attempt)
        timeout_s = 1.0
        outcome = run_region_jobs(
            jobs, workers=2, timeout_s=timeout_s, retries=1,
        )
        # Both jobs hang in round one, share its single deadline
        # (ceil(2/2) = 1 budget), get terminated, and retry clean in a few
        # hundredths of a second.  A budget per job would cost two.
        assert outcome.stats.retries == len(jobs)
        assert outcome.stats.serial_fallbacks == 0
        assert not outcome.failures
        assert outcome.stats.elapsed_seconds < 2 * timeout_s
        ref = _metrics_by_id(serial)
        for res in outcome.results:
            assert res.metrics == ref[res.region_id]

    def test_job_error_everywhere_is_terminal(self, region_jobs, monkeypatch):
        jobs = region_jobs[:2]
        # The job itself raises wherever it runs — including the parent's
        # serial fallback — which is what makes a failure terminal.
        _fail_everywhere(monkeypatch, {j.job_id for j in jobs})
        outcome = run_region_jobs(
            jobs, workers=1, retries=1, raise_on_failure=False,
        )
        assert outcome.stats.retries == len(jobs)
        assert sorted(outcome.failures) == [j.job_id for j in jobs]
        assert outcome.results == []
        assert outcome.stats.failed_jobs == sorted(outcome.failures)
        for desc in outcome.failures.values():
            assert desc.startswith("SimulationError: region")

    def test_terminal_failure_raises_by_default(
        self, region_jobs, monkeypatch
    ):
        _fail_everywhere(monkeypatch, {region_jobs[0].job_id})
        with pytest.raises(SimulationError, match="lost"):
            run_region_jobs(region_jobs[:1], workers=1, retries=0)

    def test_no_jobs_is_a_clean_no_op(self):
        outcome = run_region_jobs([], workers=4)
        assert outcome.results == [] and outcome.stats.num_jobs == 0

    def test_crash_every_attempt_falls_back_serially(
        self, reference, region_jobs, monkeypatch
    ):
        _, _, serial = reference
        jobs = region_jobs[:3]
        # Each round's pool breaks; the retry round breaks too, and the
        # in-parent fallback finishes every job.
        _patch_worker_entry(monkeypatch, _crash_every_attempt)
        outcome = run_region_jobs(jobs, workers=2, retries=1)
        assert outcome.stats.retries == len(jobs)
        assert outcome.stats.serial_fallbacks == len(jobs)
        assert not outcome.failures
        ref = _metrics_by_id(serial)
        assert [r.region_id for r in outcome.results] == [
            j.job_id for j in jobs
        ]
        for res in outcome.results:
            assert res.metrics == ref[res.region_id]

    @pytest.mark.parametrize("retries", [0, 1, 2])
    def test_retry_budget_bounds_pool_rounds(
        self, region_jobs, monkeypatch, retries
    ):
        jobs = region_jobs[:2]
        _patch_worker_entry(monkeypatch, _raise_every_attempt)
        outcome = run_region_jobs(jobs, workers=2, retries=retries)
        # Every job is re-submitted ``retries`` times, then falls back.
        assert outcome.stats.retries == retries * len(jobs)
        assert outcome.stats.serial_fallbacks == len(jobs)
        assert not outcome.failures
        assert len(outcome.results) == len(jobs)

    def test_serial_mode_retries_in_process(
        self, reference, region_jobs, monkeypatch
    ):
        _, _, serial = reference
        jobs = region_jobs[:3]
        real_timed = executor._timed_job
        calls = []

        def timed(job):
            calls.append(job.job_id)
            if calls.count(job.job_id) == 1:
                raise SimulationError(f"first attempt of {job.job_id}")
            return real_timed(job)

        monkeypatch.setattr(executor, "_timed_job", timed)
        outcome = run_region_jobs(
            jobs, workers=1, retries=1,
            backoff=RetryPolicy(base_delay_s=0.001, seed=7),
        )
        assert len(calls) == 2 * len(jobs)
        assert outcome.stats.retries == len(jobs)
        assert outcome.stats.serial_fallbacks == 0
        assert outcome.stats.backoff_seconds > 0
        assert not outcome.failures
        ref = _metrics_by_id(serial)
        assert {r.region_id: r.metrics for r in outcome.results} == {
            j.job_id: ref[j.job_id] for j in jobs
        }

    def test_one_lost_job_keeps_the_others(
        self, reference, region_jobs, monkeypatch
    ):
        _, _, serial = reference
        jobs = region_jobs[:3]
        doomed = jobs[1].job_id
        _fail_everywhere(monkeypatch, {doomed})
        outcome = run_region_jobs(
            jobs, workers=2, retries=1, raise_on_failure=False,
        )
        assert list(outcome.failures) == [doomed]
        assert outcome.stats.failed_jobs == [doomed]
        assert outcome.stats.retries == 1
        assert outcome.stats.serial_fallbacks == 1
        ref = _metrics_by_id(serial)
        assert [r.region_id for r in outcome.results] == [
            j.job_id for j in jobs if j.job_id != doomed
        ]
        for res in outcome.results:
            assert res.metrics == ref[res.region_id]

    def test_duplicate_job_ids_are_rejected(self, region_jobs):
        jobs = [region_jobs[0], region_jobs[0]]
        with pytest.raises(SimulationError, match="duplicate job ids"):
            run_region_jobs(jobs, workers=2)


# ---------------------------------------------------------------------------
# Acceptance: worker-crash-per-round at jobs=4 is bit-identical to serial.
# ---------------------------------------------------------------------------


class TestWorkerCrashAcceptance:
    def test_pipeline_survives_crashing_every_first_attempt(
        self, reference, monkeypatch
    ):
        workload, _, serial = reference
        _patch_worker_entry(monkeypatch, _crash_first_attempt)
        pipeline = LoopPointPipeline(workload, options=_options(jobs=4))
        result = pipeline.run(simulate_full=False)
        assert result.predicted == serial.predicted
        assert _metrics_by_id(result) == _metrics_by_id(serial)
        health = result.health
        assert health.retries == len(serial.region_results)
        assert health.serial_fallbacks == 0
        assert not health.ok and not health.degraded
        assert f"retries={health.retries}" in health.summary()
        assert health.summary().endswith("intact")


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
        assert result.health.ok
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
# The run manifest: journaling and mid-write truncation tolerance.
# ---------------------------------------------------------------------------


class TestRunManifest:
    def _journaled_run(self, tmp_path, reference):
        workload, _, _ = reference
        manifest = tmp_path / "run.manifest.jsonl"
        pipeline = LoopPointPipeline(
            workload,
            options=_options(
                cache_dir=str(tmp_path / "cache"),
                manifest_path=str(manifest),
            ),
        )
        result = pipeline.run(simulate_full=False)
        return manifest, pipeline, result

    def test_event_sequence_of_a_cold_run(self, tmp_path, reference):
        manifest, pipeline, _ = self._journaled_run(tmp_path, reference)
        events, corrupt = RunManifest.load(manifest)
        assert corrupt == 0
        assert events[0]["event"] == "run-start"
        assert set(events[0]["keys"]) == {"record", "profile", "select"}
        assert events[-1]["event"] == "run-complete"
        assert events[-1]["predicted_cycles"] > 0
        assert "health" in events[-1]
        for stage in ("record", "profile", "select", "simulate"):
            kinds = [
                e["event"] for e in events if e.get("stage") == stage
            ]
            assert kinds == ["begin", "done"]
        done = RunManifest.completed_stages(events)
        assert done["record"] == events[0]["keys"]["record"]

    def test_truncated_trailing_line_is_skipped(self, tmp_path, reference):
        manifest, _, _ = self._journaled_run(tmp_path, reference)
        with open(manifest, "a", encoding="utf-8") as fh:
            fh.write('{"event": "done", "stage": "sel')  # the kill's cut
        events, corrupt = RunManifest.load(manifest)
        assert corrupt == 1
        assert events[-1]["event"] == "run-complete"
        completed, corrupt = RunManifest(manifest).read_completed()
        assert corrupt == 1 and "select" in completed

    def test_non_event_lines_count_as_corrupt(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('42\n{"no_event": 1}\n{"event": "begin", '
                        '"stage": "record", "key": "k"}\n')
        events, corrupt = RunManifest.load(path)
        assert corrupt == 2 and len(events) == 1

    def test_last_run_segments_on_run_start(self, tmp_path):
        m = RunManifest(tmp_path / "m.jsonl")
        m.start_run({"record": "a"})
        m.done("record", "a")
        m.start_run({"record": "b"})
        m.done("record", "b")
        events, _ = RunManifest.load(m.path)
        last = RunManifest.last_run(events)
        assert RunManifest.completed_stages(last) == {"record": "b"}

    def test_read_completed_requires_the_file(self, tmp_path):
        with pytest.raises(ResumeError, match="no manifest"):
            RunManifest(tmp_path / "never-written.jsonl").read_completed()

    @pytest.mark.parametrize("line", [
        '{"event": "done", "st',
        '{"event": "done", "stage": "record", "key": "k',
        "not json at all",
        '["event", "done"]',
        '"event"',
        "null",
        '{"stage": "record", "key": "k"}',
    ], ids=[
        "cut-mid-key", "cut-mid-value", "plain-text", "json-array",
        "json-string", "json-null", "stage-without-event",
    ])
    def test_undecodable_line_is_skipped(self, tmp_path, line):
        m = RunManifest(tmp_path / "m.jsonl")
        m.start_run({"record": "k"})
        with open(m.path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        m.done("record", "k")
        events, corrupt = RunManifest.load(m.path)
        assert corrupt == 1
        assert [e["event"] for e in events] == ["run-start", "done"]
        assert m.read_completed() == ({"record": "k"}, 1)

    def test_blank_lines_are_not_corrupt(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('\n{"event": "run-start", "keys": {}}\n  \n\n')
        events, corrupt = RunManifest.load(path)
        assert corrupt == 0 and len(events) == 1

    def test_failed_stage_is_not_completed(self, tmp_path):
        m = RunManifest(tmp_path / "m.jsonl")
        m.start_run({"record": "a", "profile": "b"})
        m.begin("record", "a")
        m.done("record", "a")
        m.begin("profile", "b")
        m.fail("profile", "b", "ProfilingError: slicing failed")
        completed, corrupt = m.read_completed()
        assert completed == {"record": "a"} and corrupt == 0

    def test_done_without_stage_is_ignored(self):
        events = [{"event": "done", "key": "k"},
                  {"event": "done", "stage": "select", "key": "s"}]
        assert RunManifest.completed_stages(events) == {"select": "s"}

    def test_journal_without_run_start_is_one_run(self, tmp_path):
        m = RunManifest(tmp_path / "m.jsonl")
        m.done("record", "a")
        m.done("profile", "b")
        events, _ = RunManifest.load(m.path)
        assert RunManifest.last_run(events) == events
        assert RunManifest.completed_stages(events) == {
            "record": "a", "profile": "b",
        }


# ---------------------------------------------------------------------------
# Resume semantics.
# ---------------------------------------------------------------------------


class TestResume:
    def _run_once(self, tmp_path, workload, **overrides):
        options = _options(
            cache_dir=str(tmp_path / "cache"),
            manifest_path=str(tmp_path / "run.manifest.jsonl"),
            **overrides,
        )
        pipeline = LoopPointPipeline(workload, options=options)
        return pipeline, pipeline.run(simulate_full=False)

    def test_resume_restores_stages_from_cache(self, tmp_path, reference):
        workload, _, serial = reference
        self._run_once(tmp_path, workload)
        pipeline = LoopPointPipeline(workload, options=_options(
            cache_dir=str(tmp_path / "cache"),
            manifest_path=str(tmp_path / "run.manifest.jsonl"),
        ))
        result = pipeline.run(simulate_full=False, resume=True)
        assert result.predicted == serial.predicted
        # The select hit short-circuits record entirely.
        assert "select" in result.health.resumed_stages
        assert not result.health.ok
        assert "resumed=" in result.health.summary()
        events, _ = RunManifest.load(tmp_path / "run.manifest.jsonl")
        resumes = [e for e in events if e["event"] == "resume"]
        assert resumes and "select" in resumes[-1]["stages"]

    def test_resume_with_wiped_cache_recomputes_loudly(
        self, tmp_path, reference
    ):
        workload, _, serial = reference
        self._run_once(tmp_path, workload)
        shutil.rmtree(tmp_path / "cache")
        pipeline = LoopPointPipeline(workload, options=_options(
            cache_dir=str(tmp_path / "cache"),
            manifest_path=str(tmp_path / "run.manifest.jsonl"),
        ))
        result = pipeline.run(simulate_full=False, resume=True)
        assert result.predicted == serial.predicted
        assert any(
            f.action == "recomputed" and "missing" in f.error
            for f in result.health.failures
        )

    def test_resume_requires_manifest_and_cache(self, reference, tmp_path):
        workload, _, _ = reference
        with pytest.raises(ResumeError, match="manifest_path"):
            LoopPointPipeline(workload, options=_options()).run(
                simulate_full=False, resume=True
            )
        with pytest.raises(ResumeError, match="cache_dir"):
            LoopPointPipeline(workload, options=_options(
                manifest_path=str(tmp_path / "m.jsonl"),
            )).run(simulate_full=False, resume=True)

    def test_resume_refuses_changed_options(self, tmp_path, reference):
        workload, _, _ = reference
        self._run_once(tmp_path, workload)
        changed = LoopPointPipeline(workload, options=_options(
            cache_dir=str(tmp_path / "cache"),
            manifest_path=str(tmp_path / "run.manifest.jsonl"),
            record_seed=1,  # changes every stage key
        ))
        with pytest.raises(ResumeError, match="different configurations"):
            changed.run(simulate_full=False, resume=True)

    def test_corrupt_journal_lines_are_reported(self, tmp_path, reference):
        workload, _, serial = reference
        self._run_once(tmp_path, workload)
        with open(tmp_path / "run.manifest.jsonl", "a",
                  encoding="utf-8") as fh:
            fh.write('{"event": "fail", "stage"')
        pipeline = LoopPointPipeline(workload, options=_options(
            cache_dir=str(tmp_path / "cache"),
            manifest_path=str(tmp_path / "run.manifest.jsonl"),
        ))
        result = pipeline.run(simulate_full=False, resume=True)
        assert result.predicted == serial.predicted
        assert any(
            f.stage == "manifest" and "corrupt" in f.error
            for f in result.health.failures
        )


# ---------------------------------------------------------------------------
# Acceptance: SIGKILL after profile, then --resume, bit-identical metrics.
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


class TestSigkillResumeAcceptance:
    def test_kill_after_profile_then_resume(self, tmp_path):
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

        resumed = _run_cli(base + cache + ["--resume"], env)
        assert resumed.returncode == 0, resumed.stderr
        # Record and profile come back from the cache, not a re-run.
        assert "profile=hit" in resumed.stdout
        assert any(
            line.startswith("[health]") and "resumed=" in line
            for line in resumed.stdout.splitlines()
        )
        assert _predicted_lines(resumed.stdout) == reference

    def test_live_kill_after_dcfg_then_resume(self, tmp_path):
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

        resumed = _run_cli(base + cache + ["--resume"], env)
        assert resumed.returncode == 0, resumed.stderr
        assert "record=hit" in resumed.stdout
        assert any(
            line.startswith("[health]") and "resumed=record,dcfg" in line
            for line in resumed.stdout.splitlines()
        )
        assert metric_lines(resumed.stdout) == reference


# ---------------------------------------------------------------------------
# ci/run_faulted.py: the helper CI uses to fault whole CLI runs.
# ---------------------------------------------------------------------------


def _health_line(output):
    lines = [ln for ln in output.splitlines() if ln.startswith("[health]")]
    assert len(lines) == 1, output
    return lines[0]


class TestFaultHelper:
    BASE = ["-p", "demo-matrix-1", "-n", "4", "--no-fullsim"]

    @pytest.mark.parametrize("argv", [
        ["--kill-after", "profile", "-p", "demo-matrix-1"],
        ["--", "-p", "demo-matrix-1"],
        ["--crash-workers", "--fail-last-region", "--", "-p",
         "demo-matrix-1"],
    ], ids=["no-separator", "no-fault", "two-faults"])
    def test_bad_usage_exits_2(self, argv, capsys):
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "run_faulted", ROOT / "ci" / "run_faulted.py"
        )
        helper = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(helper)
        # Usage errors stop before anything is patched.
        real_done = RunManifest.done
        with pytest.raises(SystemExit) as exc:
            helper.main(argv)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err
        assert RunManifest.done is real_done

    def test_crash_workers_reproduces_clean_metrics(self):
        env = _cli_env()
        args = self.BASE + ["--jobs", "4"]
        clean = _run_cli(args, env)
        assert clean.returncode == 0, clean.stderr
        faulted = _run_cli(args, env, fault=["--crash-workers"])
        assert faulted.returncode == 0, faulted.stderr
        assert _predicted_lines(faulted.stdout) == _predicted_lines(
            clean.stdout
        )
        health = _health_line(faulted.stdout)
        assert int(re.search(r"retries=(\d+)", health).group(1)) > 0
        assert "serial_fallbacks=0" in health
        assert health.endswith("intact")

    def test_fail_last_region_degrades_or_fails(self):
        env = _cli_env()
        args = self.BASE + ["--jobs", "2"]
        dropped = _run_cli(
            args + ["--degrade", "drop"], env, fault=["--fail-last-region"]
        )
        assert dropped.returncode == 0, dropped.stderr
        health = _health_line(dropped.stdout)
        assert re.search(r"dropped_regions=\[\d+\]", health)
        assert "retries=1 serial_fallbacks=1" in health
        assert health.endswith("degraded")
        # Under the default 'fail' policy the lost region fails the run.
        failed = _run_cli(args, env, fault=["--fail-last-region"])
        assert failed.returncode == 1
        assert _predicted_lines(failed.stdout) == []
        assert "degrade policy is 'fail'" in failed.stdout + failed.stderr


# ---------------------------------------------------------------------------
# Graceful degradation and cluster renormalization.
# ---------------------------------------------------------------------------


class TestDegradation:
    @pytest.fixture()
    def doomed_region(self, reference, monkeypatch):
        """One region whose job fails everywhere it runs (terminal)."""
        _, pipeline, _ = reference
        region_id = max(r.region_id for r in pipeline.regions())
        _fail_everywhere(monkeypatch, {region_id})
        return region_id

    @staticmethod
    def _assert_ladder_spent(health):
        # One pool retry, then the in-parent serial fallback, both failed.
        assert health.retries == 1
        assert health.serial_fallbacks == 1

    def test_fail_policy_raises_with_guidance(self, reference, doomed_region):
        workload, _, _ = reference
        pipeline = LoopPointPipeline(workload, options=_options(
            jobs=2,
        ))
        with pytest.raises(SimulationError, match="degrade"):
            pipeline.run(simulate_full=False)
        self._assert_ladder_spent(pipeline.health)
        assert any(
            f.action == "raised" and f.region_id == doomed_region
            for f in pipeline.health.failures
        )

    def test_drop_renormalizes_and_reports(self, reference, doomed_region):
        workload, _, serial = reference
        pipeline = LoopPointPipeline(workload, options=_options(
            jobs=2, degrade=DegradePolicy.DROP,
        ))
        result = pipeline.run(simulate_full=False)
        health = result.health
        self._assert_ladder_spent(health)
        assert health.dropped_regions == [doomed_region]
        assert 0.0 < health.retained_coverage < 1.0
        assert health.degraded and not health.ok
        assert "dropped_regions" in health.summary()
        assert health.summary().endswith("degraded")
        assert len(result.region_results) == len(serial.region_results) - 1
        assert result.num_looppoints == serial.num_looppoints
        assert result.predicted.instructions > 0

    def test_fallback_resimulates_binary_driven(
        self, reference, doomed_region
    ):
        workload, _, _ = reference
        pipeline = LoopPointPipeline(workload, options=_options(
            jobs=2, degrade=DegradePolicy.FALLBACK,
        ))
        result = pipeline.run(simulate_full=False, constrained=True)
        health = result.health
        self._assert_ladder_spent(health)
        assert health.fallback_regions == [doomed_region]
        assert health.dropped_regions == []
        assert health.retained_coverage == 1.0
        assert health.degraded
        assert any(
            f.action == "fallback" and f.region_id == doomed_region
            for f in health.failures
        )

    def test_fallback_in_binary_mode_degrades_to_drop(
        self, reference, doomed_region
    ):
        workload, _, _ = reference
        pipeline = LoopPointPipeline(workload, options=_options(
            jobs=2, degrade=DegradePolicy.FALLBACK,
        ))
        # Binary-driven mode has no other simulation mode to fall back to.
        result = pipeline.run(simulate_full=False)
        self._assert_ladder_spent(result.health)
        assert result.health.dropped_regions == [doomed_region]


class TestRenormalizeClusters:
    def test_mass_is_redistributed_proportionally(self, reference):
        _, pipeline, _ = reference
        clusters = list(pipeline.select().clusters)
        dropped = {clusters[0].representative}
        rescaled, coverage = renormalize_clusters(clusters, dropped)
        assert len(rescaled) == len(clusters) - 1
        total = sum(c.instruction_mass for c in clusters)
        retained = sum(
            c.instruction_mass for c in clusters
            if c.representative not in dropped
        )
        assert coverage == pytest.approx(retained / total)
        factor = total / retained
        for old, new in zip(clusters[1:], rescaled):
            assert new.multiplier == pytest.approx(old.multiplier * factor)

    def test_dropping_everything_raises(self, reference):
        _, pipeline, _ = reference
        clusters = list(pipeline.select().clusters)
        everything = {c.representative for c in clusters}
        with pytest.raises(SimulationError, match="nothing left"):
            renormalize_clusters(clusters, everything)


# ---------------------------------------------------------------------------
# Stage-level faults: retry with backoff, then give up loudly.
# ---------------------------------------------------------------------------


class TestStageFaultRetries:
    def _pipeline(self, reference, **kw):
        workload, _, _ = reference
        return LoopPointPipeline(workload, options=_options(jobs=1, **kw))

    def test_profile_divergence_is_retried(self, reference, monkeypatch):
        calls = _raise_first_calls(
            monkeypatch, LoopPointPipeline, "_compute_profile",
            ReplayDivergenceError("profiling replay diverged"),
        )
        pipeline = self._pipeline(reference)
        profile = pipeline.profile()
        assert profile.num_slices > 0
        assert len(calls) == 2
        assert pipeline.health.retries == 1
        assert any(
            f.stage == "profile" and f.action == "retried"
            for f in pipeline.health.failures
        )

    def test_kmeans_divergence_is_retried(self, reference, monkeypatch):
        calls = _raise_first_calls(
            monkeypatch, looppoint, "select_simpoints",
            ClusteringError("k-means did not converge"),
        )
        pipeline = self._pipeline(reference)
        selection = pipeline.select()
        assert selection.clusters
        assert len(calls) == 2
        assert pipeline.health.retries == 1

    def test_extraction_failure_is_retried(self, reference, monkeypatch):
        calls = _raise_first_calls(
            monkeypatch, looppoint, "extract_region_pinballs",
            RegionError("region-pinball extraction failed"),
        )
        pipeline = self._pipeline(reference)
        pinballs = pipeline.region_pinballs()
        assert pinballs
        assert len(calls) == 2
        assert any(
            f.stage == "extract" and f.action == "retried"
            for f in pipeline.health.failures
        )

    def test_persistent_stage_fault_exhausts_and_raises(
        self, reference, monkeypatch
    ):
        calls = _raise_first_calls(
            monkeypatch, LoopPointPipeline, "_compute_profile",
            ReplayDivergenceError("profiling replay diverged"), times=99,
        )
        pipeline = self._pipeline(reference, stage_retries=1)
        with pytest.raises(ReplayDivergenceError):
            pipeline.profile()
        assert len(calls) == 2
        actions = [f.action for f in pipeline.health.failures]
        assert actions == ["retried", "raised"]

    def test_retried_run_matches_reference(self, reference, monkeypatch):
        _, _, serial = reference
        _raise_first_calls(
            monkeypatch, LoopPointPipeline, "_compute_profile",
            ReplayDivergenceError("profiling replay diverged"),
        )
        _raise_first_calls(
            monkeypatch, looppoint, "select_simpoints",
            ClusteringError("k-means did not converge"),
        )
        pipeline = self._pipeline(reference)
        result = pipeline.run(simulate_full=False)
        assert result.predicted == serial.predicted
        assert result.health.retries == 2
        assert not result.health.degraded


#: stage -> (patch target, attribute, the domain error it raises, how a
#: pipeline runs the stage).  Every stage that runs under the retry budget.
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
CACHED_STAGES = ["record", "profile", "select", "dcfg", "live"]


class TestStageRetryBudget:
    def _pipeline(self, reference, **kw):
        workload, _, _ = reference
        return LoopPointPipeline(workload, options=_options(jobs=1, **kw))

    @pytest.mark.parametrize("stage", sorted(STAGE_FAULTS))
    def test_budget_bounds_attempts(
        self, reference, tmp_path, monkeypatch, stage
    ):
        target, name, exc, run_stage = STAGE_FAULTS[stage]
        calls = _raise_first_calls(monkeypatch, target, name, exc, times=99)
        manifest = tmp_path / "run.manifest.jsonl"
        pipeline = self._pipeline(
            reference, stage_retries=2, manifest_path=str(manifest),
        )
        with pytest.raises(type(exc)):
            run_stage(pipeline)
        assert len(calls) == 3
        assert pipeline.health.retries == 2
        assert [
            f.action for f in pipeline.health.failures if f.stage == stage
        ] == ["retried", "retried", "raised"]
        events, corrupt = RunManifest.load(manifest)
        assert corrupt == 0
        fails = [
            e for e in events
            if e["event"] == "fail" and e["stage"] == stage
        ]
        assert len(fails) == 3
        assert all(type(exc).__name__ in e["error"] for e in fails)
        assert stage not in RunManifest.completed_stages(events)

    @pytest.mark.parametrize("stage", CACHED_STAGES)
    def test_retried_artifact_is_stored_once(
        self, reference, tmp_path, monkeypatch, stage
    ):
        target, name, exc, run_stage = STAGE_FAULTS[stage]
        calls = _raise_first_calls(monkeypatch, target, name, exc)
        first = self._pipeline(reference, cache_dir=str(tmp_path))
        artifact = run_stage(first)
        assert len(calls) == 2
        assert first.health.retries == 1
        assert first.artifacts.stores[stage] == 1
        # A fresh pipeline finds the retried artifact and never computes.
        second = self._pipeline(reference, cache_dir=str(tmp_path))
        again = run_stage(second)
        assert len(calls) == 2
        assert second.artifacts.hits[stage] == 1
        assert second.health.ok
        assert pickle.dumps(again) == pickle.dumps(artifact)

    def test_zero_budget_raises_on_first_failure(
        self, reference, monkeypatch
    ):
        calls = _raise_first_calls(
            monkeypatch, LoopPointPipeline, "_compute_profile",
            ProfilingError("slicing failed"),
        )
        pipeline = self._pipeline(reference, stage_retries=0)
        with pytest.raises(ProfilingError):
            pipeline.profile()
        assert len(calls) == 1
        assert pipeline.health.retries == 0
        assert [f.action for f in pipeline.health.failures] == ["raised"]

    def test_non_domain_errors_are_not_retried(self, reference, monkeypatch):
        # A bug is not a transient fault: it escapes on the first attempt
        # and leaves no failure record behind.
        calls = _raise_first_calls(
            monkeypatch, LoopPointPipeline, "_compute_profile",
            KeyError("bug"),
        )
        pipeline = self._pipeline(reference, stage_retries=3)
        with pytest.raises(KeyError):
            pipeline.profile()
        assert len(calls) == 1
        assert pipeline.health.retries == 0
        assert pipeline.health.failures == []


# ---------------------------------------------------------------------------
# Health accounting and report surfaces.
# ---------------------------------------------------------------------------


class TestHealthReporting:
    def test_clean_health_is_ok_and_intact(self, reference):
        _, _, serial = reference
        assert serial.health.ok
        summary = serial.health.summary()
        assert "retries=0" in summary and summary.endswith("intact")

    def test_as_dict_round_trips_through_json(self):
        health = RunHealth(retries=2, serial_fallbacks=1)
        health.dropped_regions.append(7)
        health.retained_coverage = 0.9
        health.record(FailureRecord(
            stage="simulate", error="boom", action="dropped",
            region_id=7, attempts=3,
        ))
        data = json.loads(json.dumps(health.as_dict()))
        assert data["degraded"] is True
        assert data["failures"][0]["region_id"] == 7

    def test_result_table_has_health_columns(self, reference):
        _, _, serial = reference
        table = format_result_table([serial])
        assert "retry" in table and "cov%" in table
        assert "100.0%" in table

    def test_health_table_empty_for_clean_runs(self, reference):
        _, _, serial = reference
        assert format_health_table([serial]) == ""

    def test_health_table_lists_failure_records(self, reference):
        _, _, serial = reference
        health = RunHealth()
        health.record(FailureRecord(
            stage="simulate", error="SimulationError: boom",
            action="dropped", region_id=3, attempts=3,
        ))
        degraded = dataclasses.replace(serial, health=health)
        table = format_health_table([degraded])
        assert "dropped" in table and "boom" in table
        assert "simulate" in table


# ---------------------------------------------------------------------------
# Error taxonomy.
# ---------------------------------------------------------------------------


class TestErrors:
    def test_new_errors_are_repro_errors(self):
        assert issubclass(ResumeError, ReproError)


# ---------------------------------------------------------------------------
# CLI wiring.
# ---------------------------------------------------------------------------


class TestCli:
    @pytest.fixture(autouse=True)
    def _cli_defaults(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        monkeypatch.delenv("REPRO_JOBS", raising=False)

    def test_manifest_path_derivation(self):
        from repro.cli import _manifest_path_for

        assert _manifest_path_for(
            "w", "m.jsonl", None, multi=False, resume=False
        ) == "m.jsonl"
        assert _manifest_path_for(
            "w", "m.jsonl", None, multi=True, resume=False
        ) == "m.w.jsonl"
        assert _manifest_path_for(
            "w", None, "/c", multi=False, resume=False
        ) == os.path.join("/c", "w.manifest.jsonl")
        assert _manifest_path_for(
            "w", None, None, multi=False, resume=False
        ) is None

    def test_retired_fault_plan_surface_is_gone(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["-p", "demo-matrix-1", "--fault-plan", "x"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --fault-plan" in capsys.readouterr().err
        with pytest.raises(TypeError):
            LoopPointOptions(fault_plan=None)

    def test_resume_requires_cache_dir_flag(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["-p", "demo-matrix-1", "--resume"])

    def test_run_then_resume_prints_identical_metrics(
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

        assert main(base + ["--resume"]) == 0
        second = capsys.readouterr().out
        assert _predicted_lines(second) == cold
        assert any(
            line.startswith("[health]") and "resumed=" in line
            for line in second.splitlines()
        )

    def test_faulted_cli_run_reports_health(self, capsys, monkeypatch):
        from repro.cli import main

        _patch_worker_entry(monkeypatch, _crash_first_attempt)
        rc = main(["-p", "demo-matrix-1", "-n", "4", "--no-fullsim",
                   "--jobs", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        health = [ln for ln in out.splitlines()
                  if ln.startswith("[health]")]
        assert health and "serial_fallbacks=0" in health[0]
        retries = int(re.search(r"retries=(\d+)", health[0]).group(1))
        assert retries > 0
        assert "intact" in health[0]
