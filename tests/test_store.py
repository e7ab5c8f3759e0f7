"""The concurrency-safe artifact store.

Covers crash-consistent checksummed writes, orphan sweeping, the per-key
locks behind ``ArtifactCache.get_or_compute``'s single-flight (including
an 8-process same-key hammer), the ``RetryPolicy`` wall-clock deadline,
and the ``CACHE001`` hygiene lint rule.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import multiprocessing
import os
import pickle
import random
import time

import pytest

from conftest import TEST_SCALE
from repro.core.looppoint import LoopPointOptions, LoopPointPipeline
from repro.errors import StoreLockTimeout
from repro.lint.findings import Severity
from repro.lint.store_passes import run_store_passes
from repro.parallel.artifacts import (
    LOCKS_DIR,
    ORPHAN_AGE_S,
    ArtifactCache,
    canonical_key,
    pid_alive,
    tmp_file_pid,
)
from repro.resilience import (
    STORE_CRASH_REPLACE,
    STORE_TORN_WRITE,
    FaultPlan,
    FaultSpec,
    fault_scope,
    install_fault_plan,
)
from repro.resilience.retry import RetryPolicy
from repro.store import KeyLock, probe_stale_lock, scan_store
from repro.workloads.demo import build_demo_matrix

try:
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None

#: A pid that cannot exist (kernel pid_max caps at 2^22 ≈ 4.2M).
DEAD_PID = 2**22 + 7


def _options(**kw):
    kw.setdefault("scale", TEST_SCALE)
    return LoopPointOptions(**kw)


# ---------------------------------------------------------------------------
# Satellite: RetryPolicy wall-clock deadline.
# ---------------------------------------------------------------------------


class TestRetryDeadline:
    def test_unbounded_by_default(self):
        policy = RetryPolicy()
        assert policy.deadline_s is None
        assert policy.remaining(1e9) is None
        assert not policy.expired(1e9)
        assert policy.clamped_delay(3, "k", elapsed_s=1e9) == policy.delay(3, "k")

    def test_remaining_and_expired(self):
        policy = RetryPolicy(deadline_s=2.0)
        assert policy.remaining(0.5) == pytest.approx(1.5)
        assert policy.remaining(3.0) == 0.0
        assert not policy.expired(1.9)
        assert policy.expired(2.0)
        assert policy.expired(5.0)

    def test_clamped_delay_never_overshoots(self):
        policy = RetryPolicy(
            base_delay_s=1.0, max_delay_s=10.0, jitter=0.0, deadline_s=1.0
        )
        # Raw delay for attempt 3 is 4s; only 0.25s of budget remains.
        assert policy.clamped_delay(3, "k", elapsed_s=0.75) == pytest.approx(0.25)
        assert policy.clamped_delay(3, "k", elapsed_s=1.5) == 0.0

    def test_delay_schedule_unchanged_by_deadline(self):
        base = RetryPolicy(seed=7)
        bounded = RetryPolicy(seed=7, deadline_s=30.0)
        for attempt in range(1, 6):
            assert base.delay(attempt, "x") == bounded.delay(attempt, "x")


# ---------------------------------------------------------------------------
# Satellite: crash-durable ArtifactCache writes (the fsync bugfix).
# ---------------------------------------------------------------------------


class TestCrashConsistentStore:
    def test_store_fsyncs_temp_and_directory(self, tmp_path, monkeypatch):
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd))[1]
        )
        cache = ArtifactCache(tmp_path)
        cache.store("record", {"k": 1}, b"payload")
        # At least: payload temp file, sidecar temp file, parent dir.
        assert len(synced) >= 3

    def test_sidecar_published_with_payload(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        material = {"k": 1}
        cache.store("record", material, b"payload")
        path = cache._path("record", canonical_key(material))
        assert path.exists()
        sidecar = cache._sidecar(path)
        assert sidecar.exists()
        assert (
            sidecar.read_text().strip()
            == hashlib.sha256(path.read_bytes()).hexdigest()
        )

    def test_torn_write_detected_on_load(self, tmp_path):
        """Injected damage between fsync and publish reads back as a miss."""
        plan = FaultPlan(faults=(
            FaultSpec(site=STORE_TORN_WRITE, mode="truncate", max_fires=1),
        ))
        cache = ArtifactCache(tmp_path)
        with fault_scope(plan):
            cache.store("record", {"k": 1}, list(range(2000)))
        # The published payload is torn; its sidecar carries the intended
        # digest, so the next load evicts it instead of trusting it.
        assert cache.load("record", {"k": 1}) is None
        assert cache.evictions["record"] == 1
        assert not cache._path("record", canonical_key({"k": 1})).exists()

    def test_torn_write_garbage_mode(self, tmp_path):
        plan = FaultPlan(faults=(
            FaultSpec(site=STORE_TORN_WRITE, mode="garbage", max_fires=1),
        ))
        cache = ArtifactCache(tmp_path)
        with fault_scope(plan):
            cache.store("record", {"k": 2}, b"x" * 500)
        assert cache.load("record", {"k": 2}) is None

    def test_bitrot_detected_by_sidecar(self, tmp_path):
        """Damage that still decompresses is caught by the checksum."""
        cache = ArtifactCache(tmp_path)
        material = {"k": 3}
        cache.store("record", material, b"original")
        path = cache._path("record", canonical_key(material))
        # Re-gzip a *valid* payload with different content: without the
        # sidecar this would load as a (wrong) artifact for lack of any
        # other evidence; the checksum rejects it.
        from repro.parallel.artifacts import _MAGIC, CACHE_VERSION

        rotten = gzip.compress(
            pickle.dumps((_MAGIC, CACHE_VERSION, material, b"tampered"))
        )
        path.write_bytes(rotten)
        assert cache.load("record", material) is None

    def test_legacy_artifact_without_sidecar_still_loads(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        material = {"k": 4}
        cache.store("record", material, b"legacy")
        cache._sidecar(cache._path("record", canonical_key(material))).unlink()
        assert cache.load("record", material) == b"legacy"

    def test_crash_during_replace_leaves_recoverable_store(self, tmp_path):
        """A writer dying between fsync and publish loses only its write."""
        proc = multiprocessing.get_context("spawn").Process(
            target=_crash_replace_child, args=(str(tmp_path),)
        )
        proc.start()
        proc.join(60)
        assert proc.exitcode == 5  # the injected os._exit
        # The crash window left debris but no published payload...
        tmps = list(tmp_path.rglob(".tmp-*"))
        (sidecar,) = tmp_path.rglob("*.sha256")
        assert tmps
        # ...a fresh open sweeps the temp files (the writer pid is dead)
        # but keeps the young sidecar, which a live writer would replace
        # its payload under next...
        cache = ArtifactCache(tmp_path)
        assert cache.orphans_swept == len(tmps)
        assert not list(tmp_path.rglob(".tmp-*"))
        assert sidecar.exists()
        assert cache.load("record", {"k": "crash"}) is None
        # ...until it has dangled past the orphan age.
        aged = time.time() - ORPHAN_AGE_S - 60
        os.utime(sidecar, (aged, aged))
        assert ArtifactCache(tmp_path).orphans_swept == 1
        assert not sidecar.exists()


def _crash_replace_child(cache_dir: str) -> None:
    install_fault_plan(FaultPlan(faults=(
        FaultSpec(site=STORE_CRASH_REPLACE, max_fires=1),
    )))
    cache = ArtifactCache(cache_dir)
    cache.store("record", {"k": "crash"}, b"never published")


class TestOrphanSweep:
    def test_dead_pid_tmp_removed_live_kept(self, tmp_path):
        root = tmp_path / "v1" / "record" / "ab"
        root.mkdir(parents=True)
        dead = root / f".tmp-{DEAD_PID}-x.pkl.gz"
        live = root / f".tmp-{os.getpid()}-y.pkl.gz"
        dead.write_bytes(b"dead writer debris")
        live.write_bytes(b"in-flight write")
        cache = ArtifactCache(tmp_path)
        assert cache.orphans_swept == 1
        assert not dead.exists()
        assert live.exists()

    def test_dangling_sidecar_removed(self, tmp_path):
        root = tmp_path / "v1" / "record" / "cd"
        root.mkdir(parents=True)
        sidecar = root / "feed.pkl.gz.sha256"
        sidecar.write_text("abc123\n")
        aged = time.time() - ORPHAN_AGE_S - 60
        os.utime(sidecar, (aged, aged))
        cache = ArtifactCache(tmp_path)
        assert cache.orphans_swept == 1
        assert not sidecar.exists()

    def test_fresh_dangling_sidecar_kept(self, tmp_path):
        """A live writer publishes the sidecar before the payload: a
        concurrent open must not sweep it out of that window."""
        root = tmp_path / "v1" / "record" / "cd"
        root.mkdir(parents=True)
        sidecar = root / "feed.pkl.gz.sha256"
        sidecar.write_text("abc123\n")
        cache = ArtifactCache(tmp_path)
        assert cache.orphans_swept == 0
        assert sidecar.exists()

    def test_tmp_pid_parsing(self):
        assert tmp_file_pid(".tmp-1234-abc.pkl.gz") == 1234
        assert tmp_file_pid(".tmp-zz-abc") is None
        assert tmp_file_pid("regular.pkl.gz") is None
        assert pid_alive(os.getpid())
        assert not pid_alive(DEAD_PID)
        assert not pid_alive(-1)


# ---------------------------------------------------------------------------
# Tentpole: per-key locks.
# ---------------------------------------------------------------------------


@pytest.mark.skipif(fcntl is None, reason="no fcntl on this platform")
class TestKeyLock:
    def test_acquire_writes_owner_release_truncates(self, tmp_path):
        lock = KeyLock(tmp_path / "a.lock", name="record:a")
        with lock:
            assert lock.held
            owner = json.loads((tmp_path / "a.lock").read_text())
            assert owner["pid"] == os.getpid()
        assert not lock.held
        # Released: truncated to empty, never unlinked.
        assert (tmp_path / "a.lock").exists()
        assert (tmp_path / "a.lock").read_text() == ""

    def test_timeout_on_wedged_holder(self, tmp_path):
        path = tmp_path / "b.lock"
        fd = os.open(str(path), os.O_RDWR | os.O_CREAT)
        fcntl.flock(fd, fcntl.LOCK_EX)
        os.write(fd, json.dumps({"pid": os.getpid()}).encode())
        try:
            waiter = KeyLock(
                path,
                policy=RetryPolicy(
                    base_delay_s=0.01, max_delay_s=0.02, deadline_s=0.15
                ),
                name="record:b",
            )
            with pytest.raises(StoreLockTimeout) as err:
                waiter.acquire()
            # Diagnostics name the live holder (wedged, not dead).
            assert "alive" in str(err.value)
            assert str(os.getpid()) in str(err.value)
        finally:
            os.close(fd)

    def test_timeout_diagnoses_dead_holder(self, tmp_path):
        path = tmp_path / "c.lock"
        fd = os.open(str(path), os.O_RDWR | os.O_CREAT)
        fcntl.flock(fd, fcntl.LOCK_EX)
        os.write(fd, json.dumps({"pid": DEAD_PID}).encode())
        try:
            waiter = KeyLock(
                path,
                policy=RetryPolicy(
                    base_delay_s=0.01, max_delay_s=0.02, deadline_s=0.15
                ),
            )
            with pytest.raises(StoreLockTimeout) as err:
                waiter.acquire()
            assert "dead" in str(err.value)
            assert waiter.stale_holder_probes > 0
        finally:
            os.close(fd)

    def test_stale_lock_probe(self, tmp_path):
        # A crashed holder: owner record present, flock free.
        stale = tmp_path / "stale.lock"
        stale.write_text(json.dumps({"pid": DEAD_PID}))
        assert probe_stale_lock(stale) == DEAD_PID
        # A cleanly released lock: empty file.
        clean = tmp_path / "clean.lock"
        clean.write_text("")
        assert probe_stale_lock(clean) is None
        # A held lock is never reported stale.
        held = tmp_path / "held.lock"
        fd = os.open(str(held), os.O_RDWR | os.O_CREAT)
        fcntl.flock(fd, fcntl.LOCK_EX)
        os.write(fd, json.dumps({"pid": os.getpid()}).encode())
        try:
            assert probe_stale_lock(held) is None
        finally:
            os.close(fd)


# ---------------------------------------------------------------------------
# Single-flight get_or_compute.
# ---------------------------------------------------------------------------


class TestSingleFlight:
    def test_compute_once_then_hit(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        calls = []

        def compute():
            calls.append(1)
            return b"artifact bytes" * 10

        first, first_source = cache.get_or_compute("record", {"k": 1}, compute)
        second, second_source = cache.get_or_compute(
            "record", {"k": 1}, compute
        )
        assert first == second
        assert (first_source, second_source) == ("computed", "hit")
        assert len(calls) == 1
        assert sum(cache.hits.values()) == 1
        assert sum(cache.stores.values()) == 1

    def test_under_lock_recheck_not_double_counted(self, tmp_path):
        """A waiter that finds the artifact under the lock logs one miss."""
        cache = ArtifactCache(tmp_path)
        material = {"k": 2}
        other = ArtifactCache(tmp_path)
        real_load = cache.load

        def load_racing_publish(stage, material, count_miss=True):
            # Simulate the race: between this caller's first load and its
            # under-lock re-check, another process publishes the artifact.
            found = real_load(stage, material, count_miss=count_miss)
            if found is None and count_miss:
                other.store(stage, material, b"published by the winner")
            return found

        cache.load = load_racing_publish

        def compute():
            raise AssertionError("the winner already published")

        found, source = cache.get_or_compute("record", material, compute)
        assert found == b"published by the winner"
        assert source == "flight"
        assert sum(cache.misses.values()) == 1  # the first load only
        assert sum(cache.hits.values()) == 1  # hits always count

    def test_wrong_kind_is_recomputed(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.store("record", {"k": 3}, b"not a list")
        found, source = cache.get_or_compute(
            "record", {"k": 3}, lambda: [1, 2], kind=list
        )
        assert (found, source) == ([1, 2], "computed")
        assert cache.load("record", {"k": 3}) == [1, 2]


def _hammer_worker(root, keys, seed, start_at, log_path, results):
    """Open the cache, wait for the shared start time, and get_or_compute
    every key in a seeded order; each computation appends one line to
    ``log_path`` (O_APPEND lines are atomic across processes)."""
    cache = ArtifactCache(root)
    order = list(keys)
    random.Random(seed).shuffle(order)
    time.sleep(max(0.0, start_at - time.time()))
    out = []
    for key in order:
        def compute(key=key):
            with open(log_path, "a", encoding="utf-8") as fh:
                fh.write(f"{key}\n")
            time.sleep(0.05)  # widen the race window
            return hashlib.sha256(key.encode()).digest() * 64

        value, source = cache.get_or_compute("record", {"k": key}, compute)
        out.append((key, source, hashlib.sha256(value).hexdigest()))
    results.put(out)


def _hammer(tmp_path, processes, keys, rounds=1):
    ctx = multiprocessing.get_context("spawn")
    results = ctx.Queue()
    log_path = str(tmp_path / "computations.log")
    start_at = time.time() + 3.0  # past every child's interpreter start-up
    procs = [
        ctx.Process(
            target=_hammer_worker,
            args=(str(tmp_path / "store"), list(keys) * rounds, seed,
                  start_at, log_path, results),
        )
        for seed in range(processes)
    ]
    for proc in procs:
        proc.start()
    outcomes = [results.get(timeout=120) for _ in procs]
    for proc in procs:
        proc.join(60)
    assert [proc.exitcode for proc in procs] == [0] * processes
    with open(log_path, encoding="utf-8") as fh:
        computed = fh.read().split()
    return [row for rows in outcomes for row in rows], computed


class TestConcurrentWriters:
    def test_eight_processes_one_key_one_computation(self, tmp_path):
        rows, computed = _hammer(tmp_path, processes=8, keys=["only"])
        # Exactly one computation store-wide; every worker read
        # byte-identical content.
        assert computed == ["only"]
        assert sorted(source for _key, source, _digest in rows).count(
            "computed"
        ) == 1
        assert len({digest for _key, _source, digest in rows}) == 1
        assert not list((tmp_path / "store").rglob(".tmp-*"))
        assert scan_store(str(tmp_path / "store")).clean

    def test_many_keys_many_processes_clean(self, tmp_path):
        keys = [f"key{i}" for i in range(6)]
        rows, computed = _hammer(tmp_path, processes=4, keys=keys, rounds=2)
        assert sorted(computed) == keys  # one computation per key
        digests = {}
        for key, _source, digest in rows:
            assert digests.setdefault(key, digest) == digest
        assert scan_store(str(tmp_path / "store")).clean


# ---------------------------------------------------------------------------
# Pipeline integration.
# ---------------------------------------------------------------------------


class TestPipelineIntegration:
    def test_pipeline_uses_shared_store_and_stays_warm(self, tmp_path):
        workload = build_demo_matrix(1, nthreads=4, scale=TEST_SCALE)
        cold = LoopPointPipeline(
            workload, options=_options(cache_dir=str(tmp_path))
        )
        cold.run(simulate_full=False)
        assert isinstance(cold.artifacts, ArtifactCache)
        assert sum(cold.artifacts.stores.values()) == 3
        warm = LoopPointPipeline(
            build_demo_matrix(1, nthreads=4, scale=TEST_SCALE),
            options=_options(cache_dir=str(tmp_path)),
        )
        result = warm.run(simulate_full=False)
        assert sum(warm.artifacts.stores.values()) == 0
        assert warm.artifacts.last_outcome["select"] == "hit"
        assert result.health.ok


# ---------------------------------------------------------------------------
# Satellite: the CACHE001 hygiene lint rule.
# ---------------------------------------------------------------------------


class TestStoreLint:
    def test_clean_store_no_findings(self, tmp_path):
        store = ArtifactCache(tmp_path)
        store.store("record", {"k": 1}, b"healthy")
        assert run_store_passes(str(tmp_path)) == []
        assert scan_store(str(tmp_path)).clean

    def test_absent_or_unset_dir_no_findings(self, tmp_path):
        assert run_store_passes(None) == []
        assert run_store_passes(str(tmp_path / "never-created")) == []

    def test_dirty_store_findings(self, tmp_path):
        store = ArtifactCache(tmp_path)
        material = {"k": 1}
        store.store("record", material, b"artifact one")
        path = store._path("record", canonical_key(material))
        # Corruption: flip the payload bytes under the sidecar.
        path.write_bytes(b"rotted bytes")
        # Crash debris: a dead writer's temp file...
        (path.parent / f".tmp-{DEAD_PID}-x.pkl.gz").write_bytes(b"junk")
        # ...and a lock whose holder died before releasing.
        lock_dir = store.root / LOCKS_DIR / "record"
        lock_dir.mkdir(parents=True, exist_ok=True)
        (lock_dir / "feed.lock").write_text(json.dumps({"pid": DEAD_PID}))

        findings = run_store_passes(str(tmp_path))
        assert {f.rule_id for f in findings} == {"CACHE001"}
        by_message = {f.message.split(" ")[0]: f for f in findings}
        assert len(findings) == 3
        mismatch = [f for f in findings if "mismatch" in f.message]
        assert len(mismatch) == 1
        # Corruption is an error; debris is a warning.
        assert mismatch[0].severity is Severity.ERROR
        assert all(
            f.severity is Severity.WARNING
            for f in findings
            if f is not mismatch[0]
        ), by_message

    def test_lint_family_runs_with_cache_dir(self, tmp_path):
        from repro.lint import lint_workload

        workload = build_demo_matrix(1, nthreads=4, scale=TEST_SCALE)
        report = lint_workload(
            workload,
            pipeline_options=_options(cache_dir=str(tmp_path)),
        )
        assert "store" in report.passes_run
        assert report.family_sources["store"] == "computed"
        assert not [f for f in report.findings if f.rule_id == "CACHE001"]
