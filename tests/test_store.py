"""The concurrency-safe artifact store.

Covers crash-consistent checksummed writes, eviction of damaged payloads,
orphan sweeping, byte-identical publishes of one artifact, and
``ArtifactCache.get_or_compute`` (including an 8-process race on one key
and a 4-process race over six keys).
"""

from __future__ import annotations

import gzip
import hashlib
import multiprocessing
import os
import pickle
import random
import time

import pytest

from conftest import TEST_SCALE
from repro.core.looppoint import LoopPointOptions, LoopPointPipeline
from repro.parallel.artifacts import (
    ORPHAN_AGE_S,
    ArtifactCache,
    canonical_key,
    pid_alive,
    tmp_file_pid,
)
from repro.workloads.demo import build_demo_matrix

#: A pid that cannot exist (kernel pid_max caps at 2^22 ≈ 4.2M).
DEAD_PID = 2**22 + 7


def _options(**kw):
    kw.setdefault("scale", TEST_SCALE)
    return LoopPointOptions(**kw)


def _tear_payload_before_publish(monkeypatch, mode):
    """Damage the payload temp file after its fsync, just before the
    ``os.replace`` that publishes it: ``truncate`` halves it, ``garbage``
    overwrites it.  Returns the list of payloads torn."""
    real_replace = os.replace
    torn = []

    def replace(src, dst):
        if str(src).endswith(".pkl.gz"):
            with open(src, "r+b") as fh:
                if mode == "garbage":
                    fh.write(b"not a gzip pickle\x00\xff")
                else:
                    fh.truncate(max(1, os.path.getsize(src) // 2))
            torn.append(dst)
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    return torn


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

    def test_torn_write_detected_on_load(self, tmp_path, monkeypatch):
        """Damage between fsync and publish reads back as a miss."""
        cache = ArtifactCache(tmp_path)
        torn = _tear_payload_before_publish(monkeypatch, "truncate")
        cache.store("record", {"k": 1}, list(range(2000)))
        monkeypatch.undo()
        assert len(torn) == 1
        # The published payload is torn; its sidecar carries the intended
        # digest, so the next load evicts it instead of trusting it.
        path = cache._path("record", canonical_key({"k": 1}))
        assert cache._sidecar(path).read_text().strip() != (
            hashlib.sha256(path.read_bytes()).hexdigest()
        )
        assert cache.load("record", {"k": 1}) is None
        assert cache.evictions["record"] == 1
        assert not cache._path("record", canonical_key({"k": 1})).exists()

    def test_torn_write_garbage_mode(self, tmp_path, monkeypatch):
        cache = ArtifactCache(tmp_path)
        torn = _tear_payload_before_publish(monkeypatch, "garbage")
        cache.store("record", {"k": 2}, b"x" * 500)
        monkeypatch.undo()
        assert len(torn) == 1
        assert cache.load("record", {"k": 2}) is None
        assert cache.evictions["record"] == 1

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

    @pytest.mark.parametrize("damage", [
        "truncated", "garbage", "empty", "gzip-not-pickle", "not-a-tuple",
        "short-tuple", "wrong-magic", "other-material",
    ])
    def test_damaged_payload_without_sidecar_is_evicted(
        self, tmp_path, damage
    ):
        """Without a sidecar the checksum cannot help: decoding and the
        payload's header checks must catch each kind of damage."""
        from repro.parallel.artifacts import _MAGIC, CACHE_VERSION

        cache = ArtifactCache(tmp_path)
        material = {"k": 5}
        cache.store("profile", material, list(range(500)))
        path = cache._path("profile", canonical_key(material))
        cache._sidecar(path).unlink()

        def gz(obj):
            return gzip.compress(pickle.dumps(obj))

        damaged = {
            "truncated": lambda: path.read_bytes()[: path.stat().st_size // 2],
            "garbage": lambda: b"garbage, not a gzip pickle\x00\xff",
            "empty": lambda: b"",
            "gzip-not-pickle": lambda: gzip.compress(b"plain text"),
            "not-a-tuple": lambda: gz({"payload": [1, 2, 3]}),
            "short-tuple": lambda: gz((_MAGIC, CACHE_VERSION, material)),
            "wrong-magic": lambda: gz(
                (b"other-tool", CACHE_VERSION, material, [1])
            ),
            "other-material": lambda: gz(
                (_MAGIC, CACHE_VERSION, {"k": 6}, [1])
            ),
        }[damage]()
        path.write_bytes(damaged)

        assert cache.load("profile", material) is None
        assert cache.evictions["profile"] == 1
        assert cache.misses["profile"] == 1
        assert not path.exists()
        # The eviction leaves room for the recompute's store.
        cache.store("profile", material, list(range(500)))
        assert cache.load("profile", material) == list(range(500))

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
        assert proc.exitcode == 5  # the child's os._exit before publishing
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
    """Store one artifact, dying between the sidecar's publish and the
    payload's ``os.replace``."""
    real_replace = os.replace

    def replace(src, dst):
        if str(src).endswith(".pkl.gz"):
            os._exit(5)
        real_replace(src, dst)

    os.replace = replace
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
# One artifact, one set of bytes.
# ---------------------------------------------------------------------------


class TestDeterministicBytes:
    def test_same_artifact_same_bytes_at_different_times(
        self, tmp_path, monkeypatch
    ):
        """The gzip header carries no timestamp, so two writers of one key
        publish identical payload and sidecar files."""
        material = {"k": "same"}
        published = []
        for when, root in ((1_000_000_000.0, "a"), (1_000_000_100.0, "b")):
            monkeypatch.setattr(time, "time", lambda when=when: when)
            cache = ArtifactCache(tmp_path / root)
            cache.store("record", material, list(range(500)))
            path = cache._path("record", canonical_key(material))
            published.append(
                (path.read_bytes(), cache._sidecar(path).read_bytes())
            )
        assert published[0] == published[1]

    def test_cross_paired_payload_and_sidecar_load_clean(
        self, tmp_path, monkeypatch
    ):
        """Racing writers can leave one writer's sidecar next to the
        other's payload; with identical bytes that pair still loads."""
        material = {"k": "paired"}
        paths = []
        for when, root in ((1_000_000_000.0, "a"), (1_000_000_100.0, "b")):
            monkeypatch.setattr(time, "time", lambda when=when: when)
            cache = ArtifactCache(tmp_path / root)
            cache.store("record", material, list(range(500)))
            paths.append(cache._path("record", canonical_key(material)))
        monkeypatch.undo()
        first, second = paths
        ArtifactCache._sidecar(second).write_bytes(
            ArtifactCache._sidecar(first).read_bytes()
        )
        cache = ArtifactCache(tmp_path / "b")
        assert cache.load("record", material) == list(range(500))
        assert cache.last_outcome["record"] == "hit"
        assert sum(cache.evictions.values()) == 0

    def test_different_artifacts_publish_different_bytes(self, tmp_path):
        """Determinism is per artifact: a new artifact under one key
        replaces both files, and the newest one loads."""
        cache = ArtifactCache(tmp_path)
        material = {"k": "changes"}
        path = cache._path("record", canonical_key(material))
        cache.store("record", material, [1, 2, 3])
        before = (path.read_bytes(), cache._sidecar(path).read_bytes())
        cache.store("record", material, [4, 5, 6])
        after = (path.read_bytes(), cache._sidecar(path).read_bytes())
        assert before[0] != after[0] and before[1] != after[1]
        assert cache.load("record", material) == [4, 5, 6]
        assert sum(cache.evictions.values()) == 0


# ---------------------------------------------------------------------------
# get_or_compute.
# ---------------------------------------------------------------------------


class TestGetOrCompute:
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

    def test_wrong_kind_is_recomputed(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.store("record", {"k": 3}, b"not a list")
        found, source = cache.get_or_compute(
            "record", {"k": 3}, lambda: [1, 2], kind=list
        )
        assert (found, source) == ([1, 2], "computed")
        assert cache.load("record", {"k": 3}) == [1, 2]

    def test_publish_between_load_and_store(self, tmp_path):
        """Another writer publishes while this caller computes: the
        caller's store replaces it with the same bytes and nothing is
        evicted -- a race costs only the duplicate computation."""
        cache = ArtifactCache(tmp_path)
        other = ArtifactCache(tmp_path)
        material = {"k": 4}
        path = cache._path("record", canonical_key(material))

        def compute():
            other.store("record", material, _artifact())
            compute.published = path.read_bytes()
            return _artifact()

        found, source = cache.get_or_compute("record", material, compute)
        assert (found, source) == (_artifact(), "computed")
        assert path.read_bytes() == compute.published
        fresh = ArtifactCache(tmp_path)
        assert fresh.load("record", material) == _artifact()
        assert fresh.last_outcome["record"] == "hit"
        assert sum(fresh.evictions.values()) == 0
        assert not list(tmp_path.rglob(".tmp-*"))

    def test_compute_error_publishes_nothing(self, tmp_path):
        cache = ArtifactCache(tmp_path)

        def compute():
            raise RuntimeError("stage failed")

        with pytest.raises(RuntimeError, match="stage failed"):
            cache.get_or_compute("record", {"k": 5}, compute)
        assert sum(cache.stores.values()) == 0
        assert not [p for p in tmp_path.rglob("*") if p.is_file()]
        found, source = cache.get_or_compute(
            "record", {"k": 5}, lambda: [5]
        )
        assert (found, source) == ([5], "computed")


def _artifact():
    return [hashlib.sha256(str(i).encode()).hexdigest() for i in range(200)]


def _slow_artifact():
    time.sleep(0.02)  # keep every racer inside compute at once
    return _artifact()


def _race_worker(root, start, results):
    """Open the cache, wait for every racer, then get_or_compute one key."""
    cache = ArtifactCache(root)
    start.wait(timeout=30)
    try:
        value, source = cache.get_or_compute(
            "record", {"k": "only"}, _slow_artifact
        )
        results.put((source, value == _artifact(), sum(cache.evictions.values())))
    except Exception as exc:
        results.put(("raised", repr(exc), -1))


def _keyed_artifact(key):
    return [hashlib.sha256(f"{key}:{i}".encode()).hexdigest() for i in range(50)]


def _many_keys_worker(root, keys, seed, start, results):
    """get_or_compute every key twice, in a seeded order."""
    cache = ArtifactCache(root)
    order = list(keys) * 2
    random.Random(seed).shuffle(order)
    start.wait(timeout=30)
    rows = []
    for key in order:
        def compute(key=key):
            time.sleep(0.005)
            return _keyed_artifact(key)

        value, source = cache.get_or_compute("record", {"k": key}, compute)
        rows.append((key, source, value, sum(cache.evictions.values())))
    results.put(rows)


class TestConcurrentWriters:
    def test_eight_processes_race_one_key(self, tmp_path):
        # fork, not spawn: eight spawned interpreters re-importing the
        # package take seconds; the children only touch the cache, the
        # barrier and the queue, all created here.
        ctx = multiprocessing.get_context("fork")
        start = ctx.Barrier(8)
        results = ctx.Queue()
        root = str(tmp_path / "store")
        procs = [
            ctx.Process(target=_race_worker, args=(root, start, results))
            for _ in range(8)
        ]
        for proc in procs:
            proc.start()
        outcomes = [results.get(timeout=60) for _ in procs]
        for proc in procs:
            proc.join(60)
        assert [proc.exitcode for proc in procs] == [0] * 8
        assert all(source in ("hit", "computed") for source, _, _ in outcomes)
        assert all(ok is True for _, ok, _ in outcomes), outcomes
        assert all(evicted == 0 for _, _, evicted in outcomes)
        cache = ArtifactCache(root)
        assert cache.load("record", {"k": "only"}) == _artifact()
        assert cache.last_outcome["record"] == "hit"
        assert sum(cache.evictions.values()) == 0
        assert not list((tmp_path / "store").rglob(".tmp-*"))

    def test_many_keys_many_processes_clean(self, tmp_path):
        ctx = multiprocessing.get_context("fork")
        start = ctx.Barrier(4)
        results = ctx.Queue()
        root = str(tmp_path / "store")
        keys = [f"key{i}" for i in range(6)]
        procs = [
            ctx.Process(
                target=_many_keys_worker,
                args=(root, keys, seed, start, results),
            )
            for seed in range(4)
        ]
        for proc in procs:
            proc.start()
        outcomes = [results.get(timeout=60) for _ in procs]
        for proc in procs:
            proc.join(60)
        assert [proc.exitcode for proc in procs] == [0] * 4
        rows = [row for rows in outcomes for row in rows]
        assert len(rows) == 4 * 2 * len(keys)
        for key, source, value, evicted in rows:
            assert source in ("hit", "computed"), (key, source)
            assert value == _keyed_artifact(key)
            assert evicted == 0
        cache = ArtifactCache(root)
        for key in keys:
            assert cache.load("record", {"k": key}) == _keyed_artifact(key)
        assert cache.hits["record"] == len(keys)
        assert sum(cache.evictions.values()) == 0
        assert not list((tmp_path / "store").rglob(".tmp-*"))


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
        assert result.serial_fallbacks == 0
