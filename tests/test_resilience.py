"""Resilience: fault injection, resumable runs, and graceful degradation.

Covers the PR's tentpole (the ``repro.resilience`` subsystem wired through
the executor, the pipeline and the CLI) and its satellites: the
per-round executor timeout accounting, cache-corruption recovery, resume
semantics of the run manifest, degrade policies with cluster-weight
renormalization, and fault-plan validation at parse time.

The two ISSUE acceptance scenarios are here verbatim:

* a run SIGKILLed right after profiling, restarted with ``--resume``,
  reproduces the extrapolated metrics bit-identically without re-running
  record or profile (exercised through the CLI in a subprocess — the
  injected SIGKILL must not take out pytest);
* a seeded worker-crash-per-round plan at ``jobs=4`` produces results
  bit-identical to the serial run, with the retries in ``result.health``.
"""

from __future__ import annotations

import dataclasses
import gzip
import json
import os
import pickle
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import TEST_SCALE
from repro.core.looppoint import LoopPointOptions, LoopPointPipeline
from repro.core.report import format_health_table, format_result_table
from repro.errors import (
    ClusteringError,
    FaultInjectionError,
    RegionError,
    ReplayDivergenceError,
    ReproError,
    ResumeError,
    SimulationError,
)
from repro.lint.runner import lint_pipeline
from repro.parallel import (
    ArtifactCache,
    RegionJob,
    WorkloadSpec,
    canonical_key,
    run_region_jobs,
)
from repro.parallel import artifacts as artifacts_module
from repro.resilience import (
    CACHE_CORRUPT,
    JOB_ERROR,
    KMEANS_DIVERGE,
    PROFILE_DIVERGENCE,
    REGION_EXTRACT,
    SITES,
    WORKER_CRASH,
    WORKER_ERROR,
    WORKER_HANG,
    DegradePolicy,
    FailureRecord,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    RunHealth,
    RunManifest,
    active_plan,
    clear_fault_plan,
    fault_scope,
    install_fault_plan,
    maybe_inject,
    renormalize_clusters,
    should_fire,
)
from repro.resilience.faults import _fraction
from repro.workloads.demo import build_demo_matrix

ROOT = Path(__file__).resolve().parent.parent

#: Fast backoff so retry-heavy tests don't sleep their way through CI.
FAST_BACKOFF = dict(retry_backoff_s=0.001, retry_backoff_max_s=0.002)


def _options(**kw):
    kw.setdefault("scale", TEST_SCALE)
    for key, value in FAST_BACKOFF.items():
        kw.setdefault(key, value)
    return LoopPointOptions(**kw)


def _plan(*specs, seed=0):
    return FaultPlan(seed=seed, faults=tuple(specs))


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    """A test that dies mid-``fault_scope`` must not poison its neighbors."""
    yield
    clear_fault_plan()


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
# FaultPlan: decisions, validation, serialization.
# ---------------------------------------------------------------------------


class TestFaultPlanDecisions:
    def test_fire_decisions_are_deterministic(self):
        keys = [f"job:{i}" for i in range(64)]
        first = [
            _plan(FaultSpec(WORKER_ERROR, probability=0.5), seed=3)
            .should_fire(WORKER_ERROR, k) is not None
            for k in keys
        ]
        second = [
            _plan(FaultSpec(WORKER_ERROR, probability=0.5), seed=3)
            .should_fire(WORKER_ERROR, k) is not None
            for k in keys
        ]
        assert first == second
        assert any(first) and not all(first)  # 0.5 really is partial

    def test_probability_extremes(self):
        always = _plan(FaultSpec(JOB_ERROR, probability=1.0))
        never = _plan(FaultSpec(JOB_ERROR, probability=0.0))
        for i in range(16):
            assert always.should_fire(JOB_ERROR, f"k{i}") is not None
            assert never.should_fire(JOB_ERROR, f"k{i}") is None

    def test_match_restricts_keys(self):
        plan = _plan(FaultSpec(JOB_ERROR, match=":attempt:0"))
        assert plan.should_fire(JOB_ERROR, "job:3:attempt:0") is not None
        assert plan.should_fire(JOB_ERROR, "job:3:attempt:1") is None
        assert plan.should_fire(JOB_ERROR, "unrelated") is None

    def test_site_mismatch_never_fires(self):
        plan = _plan(FaultSpec(WORKER_CRASH))
        assert plan.should_fire(JOB_ERROR, "job:0") is None

    def test_max_fires_lets_the_retry_through(self):
        plan = _plan(FaultSpec(PROFILE_DIVERGENCE, max_fires=1))
        assert plan.should_fire(PROFILE_DIVERGENCE, "profile:x") is not None
        # Same seam, second occurrence: the budget is spent.
        assert plan.should_fire(PROFILE_DIVERGENCE, "profile:x") is None
        assert plan.should_fire(PROFILE_DIVERGENCE, "profile:y") is None

    def test_fraction_is_pure_and_bounded(self):
        a = _fraction(1, 0, JOB_ERROR, "k", 0)
        b = _fraction(1, 0, JOB_ERROR, "k", 0)
        assert a == b and 0.0 <= a < 1.0
        assert _fraction(2, 0, JOB_ERROR, "k", 0) != a


class TestFaultPlanValidation:
    """A malformed spec raises where it is built or parsed (the former
    lint rules FLT001-FLT003), so no plan ever holds one."""

    def test_valid_plan_has_no_problems(self):
        plan = _plan(
            FaultSpec(WORKER_CRASH, match=":attempt:0"),
            FaultSpec(CACHE_CORRUPT, mode="garbage"),
        )
        install_fault_plan(plan)
        assert active_plan() is plan

    @pytest.mark.parametrize("spec,code", [
        (dict(site="worker.explode"), "unknown-site"),
        (dict(site=JOB_ERROR, probability=1.5), "bad-probability"),
        (dict(site=JOB_ERROR, probability=-0.1), "bad-probability"),
        (dict(site=WORKER_HANG, hang_s=-1.0), "bad-hang"),
        (dict(site=JOB_ERROR, mode="garbage"), "bad-mode"),
        (dict(site=CACHE_CORRUPT, mode="shred"), "bad-mode"),
    ])
    def test_problem_codes(self, spec, code, tmp_path):
        match = {
            "unknown-site": "unknown injection site",
            "bad-probability": "outside \\[0, 1\\]",
            "bad-hang": "hang_s .* is negative",
            "bad-mode": "mode .* invalid",
        }[code]
        with pytest.raises(FaultInjectionError, match=match):
            FaultSpec(**spec)
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"faults": [spec]}))
        with pytest.raises(FaultInjectionError, match=match):
            FaultPlan.from_json_file(str(path))

    def test_every_catalogued_site_round_trips(self):
        plan = _plan(*(
            FaultSpec(site, mode=mode)
            for site in sorted(SITES) for mode in SITES[site]
        ))
        loaded = FaultPlan.from_dict(json.loads(plan.to_json()))
        assert loaded.faults == plan.faults


class TestFaultPlanSerialization:
    def test_json_round_trip(self, tmp_path):
        plan = _plan(
            FaultSpec(WORKER_HANG, probability=0.25, match="job:",
                      hang_s=3.0),
            FaultSpec(CACHE_CORRUPT, mode="truncate", max_fires=2),
            seed=42,
        )
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        loaded = FaultPlan.from_json_file(str(path))
        assert loaded.seed == plan.seed
        assert loaded.faults == plan.faults

    def test_from_dict_rejects_malformed_input(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan.from_dict({"faults": "not-a-list"})
        with pytest.raises(FaultInjectionError):
            FaultPlan.from_dict({"faults": [{"probability": 1.0}]})
        with pytest.raises(FaultInjectionError):
            FaultPlan.from_dict({"faults": [{"site": JOB_ERROR,
                                             "sitee": "typo"}]})

    def test_from_json_file_missing_or_invalid(self, tmp_path):
        with pytest.raises(FaultInjectionError):
            FaultPlan.from_json_file(str(tmp_path / "absent.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(FaultInjectionError):
            FaultPlan.from_json_file(str(bad))

    def test_shipped_ci_plans_are_valid(self):
        for path in sorted((ROOT / "ci" / "fault-plans").glob("*.json")):
            assert FaultPlan.from_json_file(str(path)).faults


class TestInstallAndScope:
    def test_install_clear_active(self):
        plan = _plan(FaultSpec(JOB_ERROR))
        install_fault_plan(plan)
        assert active_plan() is plan
        clear_fault_plan()
        assert active_plan() is None

    def test_install_validates(self):
        # The malformed spec raises before a plan exists to install.
        with pytest.raises(FaultInjectionError):
            install_fault_plan(_plan(FaultSpec("nope")))
        assert active_plan() is None

    def test_scope_restores_previous_plan(self):
        outer = _plan(FaultSpec(JOB_ERROR, probability=0.0))
        inner = _plan(FaultSpec(JOB_ERROR))
        install_fault_plan(outer)
        with fault_scope(inner):
            assert active_plan() is inner
        assert active_plan() is outer
        # None is a passthrough, not an uninstall.
        with fault_scope(None):
            assert active_plan() is outer
        clear_fault_plan()

    def test_no_plan_means_no_ops(self):
        assert should_fire(JOB_ERROR, "k") is None
        maybe_inject(JOB_ERROR, "k")  # must not raise

    @pytest.mark.parametrize("site,exc", [
        (WORKER_ERROR, FaultInjectionError),
        (JOB_ERROR, FaultInjectionError),
        (PROFILE_DIVERGENCE, ReplayDivergenceError),
        (REGION_EXTRACT, RegionError),
        (KMEANS_DIVERGE, ClusteringError),
    ])
    def test_raise_sites_raise_their_domain_error(self, site, exc):
        with fault_scope(_plan(FaultSpec(site))):
            with pytest.raises(exc):
                maybe_inject(site, "key")


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
        self, reference, region_jobs
    ):
        _, _, serial = reference
        plan = _plan(FaultSpec(WORKER_ERROR, match=":attempt:0"), seed=7)
        outcome = run_region_jobs(
            region_jobs, workers=4, retries=1,
            backoff=RetryPolicy(base_delay_s=0.001, seed=7),
            fault_plan=plan,
        )
        assert outcome.stats.retries == len(region_jobs)
        assert outcome.stats.serial_fallbacks == 0
        assert outcome.stats.backoff_seconds > 0
        assert not outcome.failures
        ref = _metrics_by_id(serial)
        assert {r.region_id: r.metrics for r in outcome.results} == ref

    def test_worker_crash_breaks_pool_but_not_run(
        self, reference, region_jobs
    ):
        _, _, serial = reference
        jobs = region_jobs[:4]
        plan = _plan(FaultSpec(WORKER_CRASH, match=":attempt:0"), seed=7)
        outcome = run_region_jobs(
            jobs, workers=2, retries=1, fault_plan=plan,
        )
        assert outcome.stats.retries == len(jobs)
        assert not outcome.failures
        ref = _metrics_by_id(serial)
        for res in outcome.results:
            assert res.metrics == ref[res.region_id]

    def test_exhausted_retries_fall_back_serially(
        self, reference, region_jobs
    ):
        _, _, serial = reference
        jobs = region_jobs[:3]
        # Unconditional: every pool attempt fails, but the parent's serial
        # fallback never runs worker-site faults, so every job completes.
        plan = _plan(FaultSpec(WORKER_ERROR))
        outcome = run_region_jobs(
            jobs, workers=2, retries=1, fault_plan=plan,
        )
        assert outcome.stats.serial_fallbacks == len(jobs)
        assert outcome.stats.retries == len(jobs)
        assert not outcome.failures
        ref = _metrics_by_id(serial)
        for res in outcome.results:
            assert res.metrics == ref[res.region_id]

    def test_hung_worker_costs_one_round_budget(
        self, reference, region_jobs
    ):
        _, _, serial = reference
        jobs = region_jobs[:2]
        plan = _plan(
            FaultSpec(WORKER_HANG, match=":attempt:0", hang_s=30.0),
        )
        outcome = run_region_jobs(
            jobs, workers=2, timeout_s=0.75, retries=1, fault_plan=plan,
        )
        # Both jobs hang in round one, share its single deadline
        # (ceil(2/2) = 1 budget), get terminated, and retry clean.
        assert outcome.stats.retries == len(jobs)
        assert not outcome.failures
        assert outcome.stats.elapsed_seconds < 30.0
        ref = _metrics_by_id(serial)
        for res in outcome.results:
            assert res.metrics == ref[res.region_id]

    def test_job_error_everywhere_is_terminal(self, region_jobs):
        jobs = region_jobs[:2]
        # job.error fires wherever the job runs — including the parent's
        # serial fallback — which is what makes a failure terminal.
        plan = _plan(FaultSpec(JOB_ERROR))
        outcome = run_region_jobs(
            jobs, workers=1, retries=1, fault_plan=plan,
            raise_on_failure=False,
        )
        assert sorted(outcome.failures) == [j.job_id for j in jobs]
        assert outcome.results == []
        assert outcome.stats.failed_jobs == sorted(outcome.failures)
        for desc in outcome.failures.values():
            assert "FaultInjectionError" in desc

    def test_terminal_failure_raises_by_default(self, region_jobs):
        plan = _plan(FaultSpec(JOB_ERROR))
        with pytest.raises(FaultInjectionError):
            run_region_jobs(
                region_jobs[:1], workers=1, retries=0, fault_plan=plan,
            )

    def test_no_jobs_is_a_clean_no_op(self):
        outcome = run_region_jobs([], workers=4)
        assert outcome.results == [] and outcome.stats.num_jobs == 0


# ---------------------------------------------------------------------------
# Acceptance: worker-crash-per-round at jobs=4 is bit-identical to serial.
# ---------------------------------------------------------------------------


class TestWorkerCrashAcceptance:
    def test_pipeline_survives_crashing_every_first_attempt(self, reference):
        workload, _, serial = reference
        plan = _plan(FaultSpec(WORKER_CRASH, match=":attempt:0"), seed=7)
        pipeline = LoopPointPipeline(
            workload, options=_options(jobs=4, fault_plan=plan)
        )
        result = pipeline.run(simulate_full=False)
        assert result.predicted == serial.predicted
        assert _metrics_by_id(result) == _metrics_by_id(serial)
        health = result.health
        assert health.retries == len(serial.region_results)
        assert not health.ok and not health.degraded
        assert f"retries={health.retries}" in health.summary()
        assert health.summary().endswith("intact")


# ---------------------------------------------------------------------------
# Satellite: cache-corruption recovery.
# ---------------------------------------------------------------------------


class TestCacheCorruptionRecovery:
    def _artifact_path(self, pipeline, stage, material):
        return pipeline.artifacts._path(stage, canonical_key(material))

    def test_damaged_artifacts_recompute_cleanly(self, tmp_path, reference):
        workload, _, serial = reference
        first = LoopPointPipeline(
            workload, options=_options(cache_dir=str(tmp_path))
        )
        first.run(simulate_full=False)
        # Truncate record, garbage profile, truncate select: every stage
        # artifact is damaged a different way.
        for stage, material, damage in [
            ("record", first._record_material(), "truncate"),
            ("profile", first._profile_material(), "garbage"),
            ("select", first._select_material(), "truncate"),
        ]:
            path = self._artifact_path(first, stage, material)
            assert path.exists()
            if damage == "truncate":
                path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
            else:
                path.write_bytes(b"garbage, not a gzip pickle\x00\xff")
        second = LoopPointPipeline(
            workload, options=_options(cache_dir=str(tmp_path))
        )
        result = second.run(simulate_full=False)
        assert result.predicted == serial.predicted
        assert second.artifacts.last_outcome["select"] == "miss"
        assert sum(second.artifacts.stores.values()) == 3

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

    def test_injected_corruption_end_to_end(self, tmp_path, reference):
        workload, _, serial = reference
        plan = _plan(
            FaultSpec(CACHE_CORRUPT, mode="truncate", match="record:",
                      max_fires=1),
            FaultSpec(CACHE_CORRUPT, mode="garbage", match="profile:",
                      max_fires=1),
            seed=11,
        )
        faulted = LoopPointPipeline(
            workload,
            options=_options(cache_dir=str(tmp_path), fault_plan=plan),
        )
        result = faulted.run(simulate_full=False)
        # Corruption happens *after* the store: the run itself is clean.
        assert result.predicted == serial.predicted
        assert result.health.ok
        # The select artifact survived, so a later run still short-circuits;
        # the damaged record/profile entries degrade to misses, not errors.
        after = LoopPointPipeline(
            workload, options=_options(cache_dir=str(tmp_path))
        )
        assert after.run(simulate_full=False).predicted == serial.predicted
        assert after.artifacts.last_outcome["select"] == "hit"


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
# Runs through the CLI in subprocesses — the injected SIGKILL is real.
# ---------------------------------------------------------------------------


def _cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["REPRO_SCALE"] = "tiny"
    env.pop("REPRO_FAULT_PLAN", None)
    env.pop("REPRO_JOBS", None)
    return env


def _run_cli(args, env):
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
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
        kill_plan = str(ROOT / "ci" / "fault-plans" /
                        "kill-after-profile.json")
        killed = _run_cli(base + cache + ["--fault-plan", kill_plan], env)
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


# ---------------------------------------------------------------------------
# Graceful degradation and cluster renormalization.
# ---------------------------------------------------------------------------


def _poison_plan(region_id):
    """job.error for exactly one region, everywhere it runs (terminal)."""
    return _plan(FaultSpec(JOB_ERROR, match=f"job:{region_id}"))


class TestDegradation:
    @pytest.fixture()
    def doomed_region(self, reference):
        _, pipeline, _ = reference
        # The max id cannot be a prefix of another id, so the substring
        # match hits exactly one job key.
        return max(r.region_id for r in pipeline.regions())

    def test_fail_policy_raises_with_guidance(self, reference, doomed_region):
        workload, _, _ = reference
        pipeline = LoopPointPipeline(workload, options=_options(
            jobs=2, fault_plan=_poison_plan(doomed_region),
        ))
        with pytest.raises(SimulationError, match="degrade"):
            pipeline.run(simulate_full=False)
        assert any(
            f.action == "raised" and f.region_id == doomed_region
            for f in pipeline.health.failures
        )

    def test_drop_renormalizes_and_reports(self, reference, doomed_region):
        workload, _, serial = reference
        pipeline = LoopPointPipeline(workload, options=_options(
            jobs=2, fault_plan=_poison_plan(doomed_region),
            degrade=DegradePolicy.DROP,
        ))
        result = pipeline.run(simulate_full=False)
        health = result.health
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
            jobs=2, fault_plan=_poison_plan(doomed_region),
            degrade=DegradePolicy.FALLBACK,
        ))
        result = pipeline.run(simulate_full=False, constrained=True)
        health = result.health
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
            jobs=2, fault_plan=_poison_plan(doomed_region),
            degrade=DegradePolicy.FALLBACK,
        ))
        # Binary-driven mode has no other simulation mode to fall back to.
        result = pipeline.run(simulate_full=False)
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
    def _pipeline(self, reference, plan, **kw):
        workload, _, _ = reference
        return LoopPointPipeline(
            workload, options=_options(jobs=1, fault_plan=plan, **kw)
        )

    def test_profile_divergence_is_retried(self, reference):
        plan = _plan(FaultSpec(PROFILE_DIVERGENCE, max_fires=1))
        pipeline = self._pipeline(reference, plan)
        profile = pipeline.profile()
        assert profile.num_slices > 0
        assert pipeline.health.retries == 1
        assert any(
            f.stage == "profile" and f.action == "retried"
            for f in pipeline.health.failures
        )

    def test_kmeans_divergence_is_retried(self, reference):
        plan = _plan(FaultSpec(KMEANS_DIVERGE, max_fires=1))
        pipeline = self._pipeline(reference, plan)
        selection = pipeline.select()
        assert selection.clusters
        assert pipeline.health.retries >= 1

    def test_extraction_failure_is_retried(self, reference):
        plan = _plan(FaultSpec(REGION_EXTRACT, max_fires=1))
        pipeline = self._pipeline(reference, plan)
        pinballs = pipeline.region_pinballs()
        assert pinballs
        assert any(
            f.stage == "extract" and f.action == "retried"
            for f in pipeline.health.failures
        )

    def test_persistent_stage_fault_exhausts_and_raises(self, reference):
        plan = _plan(FaultSpec(PROFILE_DIVERGENCE))  # unbounded
        pipeline = self._pipeline(reference, plan, stage_retries=1)
        with pytest.raises(ReplayDivergenceError):
            pipeline.profile()
        actions = [f.action for f in pipeline.health.failures]
        assert actions == ["retried", "raised"]

    def test_retried_run_matches_reference(self, reference):
        _, _, serial = reference
        plan = _plan(
            FaultSpec(PROFILE_DIVERGENCE, max_fires=1),
            FaultSpec(KMEANS_DIVERGE, max_fires=1),
        )
        pipeline = self._pipeline(reference, plan)
        result = pipeline.run(simulate_full=False)
        assert result.predicted == serial.predicted
        assert result.health.retries == 2
        assert not result.health.degraded


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
# Lint: a fault plan is checked when parsed, so lint has nothing to add.
# ---------------------------------------------------------------------------


class TestLintFaultPlan:
    def test_lint_accepts_a_valid_plan(self, reference):
        workload, _, _ = reference
        pipeline = LoopPointPipeline(workload, options=_options(
            fault_plan=_plan(FaultSpec(JOB_ERROR, probability=0.0)),
        ))
        report = lint_pipeline(pipeline)
        assert "faultplan" not in report.passes_run
        assert not report.has_errors


# ---------------------------------------------------------------------------
# Error taxonomy.
# ---------------------------------------------------------------------------


class TestErrors:
    def test_new_errors_are_repro_errors(self):
        assert issubclass(FaultInjectionError, ReproError)
        assert issubclass(ResumeError, ReproError)


# ---------------------------------------------------------------------------
# CLI wiring.
# ---------------------------------------------------------------------------


class TestCli:
    @pytest.fixture(autouse=True)
    def _cli_defaults(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
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

    def test_bad_fault_plan_exits_2(self, tmp_path, capsys, monkeypatch):
        import repro.core.looppoint as looppoint
        from repro.cli import main

        def no_recording(*a, **k):
            raise AssertionError("recorded despite a malformed fault plan")

        monkeypatch.setattr(looppoint, "record_execution", no_recording)
        bad = tmp_path / "bad.json"
        bad.write_text('{"faults": [{"site": "worker.explode"}]}')
        rc = main(["-p", "demo-matrix-1", "-n", "4", "--no-fullsim",
                   "--fault-plan", str(bad)])
        assert rc == 2
        assert "bad fault plan" in capsys.readouterr().err

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

    def test_env_fault_plan_is_picked_up(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.cli import main

        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({
            "seed": 1,
            "faults": [{"site": JOB_ERROR, "probability": 0.0}],
        }))
        monkeypatch.setenv("REPRO_FAULT_PLAN", str(plan))
        rc = main(["-p", "demo-matrix-1", "-n", "4", "--no-fullsim",
                   "--jobs", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert f"fault plan {plan}" in out

    def test_faulted_cli_run_reports_health(self, tmp_path, capsys):
        from repro.cli import main

        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({
            "seed": 7,
            "faults": [{"site": "worker.crash", "match": ":attempt:0"}],
        }))
        rc = main(["-p", "demo-matrix-1", "-n", "4", "--no-fullsim",
                   "--jobs", "4", "--fault-plan", str(plan)])
        assert rc == 0
        out = capsys.readouterr().out
        health = [ln for ln in out.splitlines()
                  if ln.startswith("[health]")]
        assert health and "retries=" in health[0]
        assert "intact" in health[0]
