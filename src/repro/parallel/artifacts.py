"""Content-addressed on-disk cache for pipeline stage artifacts.

The expensive early pipeline stages — recording a whole-program pinball,
profiling it, selecting looppoints — are pure functions of the workload and
the pipeline options.  This cache persists their outputs across *processes*
and *sessions* (the in-pipeline memoization only lives as long as one
``LoopPointPipeline``), so a second ``run-looppoint`` over the same
workload skips stages 1-3 entirely and goes straight to simulation.

Addressing is by content of the *inputs*: each stage's key material is a
JSON-canonicalized description of everything that determines its output
(workload coordinates, scale, wait policy, seed, slice size, clustering
options, ...).  The SHA-256 of that material names the artifact file; the
material itself is stored alongside the payload and re-verified on load,
so a hash collision or a stale layout degrades to a cache miss, never a
wrong artifact.

Crash consistency: a store is write-to-temp → fsync(temp) → publish the
checksum sidecar → ``os.replace`` → fsync(directory).  The temp fsync
makes the rename actually durable (without it ``os.replace`` can publish
a name whose *bytes* are still only in the page cache — the classic
"atomic but not crash-durable" rename); the directory fsync persists the
rename itself.  Every artifact carries a ``<name>.sha256`` sidecar whose
digest is of the *intended* bytes, verified on load — a torn or
bit-rotted payload therefore reads back as a miss, never as a wrong
artifact.  Temp files are pid-tagged (``.tmp-<pid>-*``) and orphans left
by crashed writers are swept when a cache is opened.

Versioning and invalidation: artifacts live under ``<dir>/v<N>/<stage>/``.
Bump :data:`CACHE_VERSION` whenever recording, profiling, or selection
semantics change — old artifacts are simply never looked at again.
:meth:`ArtifactCache.invalidate` wipes a stage (or everything) explicitly;
wiping the directory by hand is always safe.

Multi-process sharing needs no lock.  Each stage is deterministic and
the gzip header carries no timestamp (``mtime=0``), so two writers of one
key publish the same payload and sidecar bytes, each through an atomic
``os.replace``; whichever sidecar ends up beside whichever payload, they
match.  Concurrent pipelines that miss on one key each compute it: the
race costs duplicate work.  Were two pickles of one artifact ever to
differ, a mismatched pair would read back as corruption — evicted and
recomputed, never a wrong artifact.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import pickle
import shutil
import tempfile
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple, Union

from ..errors import CacheError
from ..obs.tracer import active_metrics

#: Bump when any cached stage's semantics change.
CACHE_VERSION = 1

_MAGIC = "repro-artifact-v1"

#: The cacheable pipeline stages, in pipeline order.
STAGES = ("record", "profile", "select")

#: Suffix of the per-artifact checksum sidecar.
SIDECAR_SUFFIX = ".sha256"

#: A temp file that cannot be attributed to a pid, or a sidecar whose
#: payload is not there, is only swept once it is at least this old — it
#: might belong to a writer mid-write.
ORPHAN_AGE_S = 300.0


def canonical_key(material: Dict[str, Any]) -> str:
    """SHA-256 over the canonical JSON form of the key material."""
    try:
        blob = json.dumps(material, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        raise CacheError(f"cache key material is not JSON-able: {exc}") from exc
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live process (signal-0 probe)."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # alive, owned by someone else
    except OSError:
        return False
    return True


def tmp_file_pid(name: str) -> Optional[int]:
    """The pid embedded in a ``.tmp-<pid>-*`` temp-file name, or ``None``."""
    if not name.startswith(".tmp-"):
        return None
    rest = name[len(".tmp-"):]
    head = rest.split("-", 1)[0]
    try:
        return int(head)
    except ValueError:
        return None


class _TeeHash:
    """Write-through file wrapper that folds every byte into a digest.

    Lets :meth:`ArtifactCache.store` know the checksum of the bytes it
    *intended* to publish without re-reading the temp file — which is
    exactly what makes the sidecar a torn-write detector: damage between
    the write and the publish leaves on-disk bytes that no longer match.
    """

    def __init__(self, raw: Any, digest: "hashlib._Hash") -> None:
        self._raw = raw
        self._digest = digest

    def write(self, data: bytes) -> int:
        self._digest.update(data)
        return self._raw.write(data)

    def flush(self) -> None:
        self._raw.flush()


def _older_than(path: Path, age_s: float, now: float) -> bool:
    """Whether ``path`` was last modified more than ``age_s`` before ``now``
    (``False`` when it has vanished)."""
    try:
        return now - path.stat().st_mtime > age_s
    except OSError:
        return False


def _fsync_dir(path: Path) -> None:
    """fsync a directory so a just-completed rename survives a crash."""
    try:
        fd = os.open(str(path), os.O_RDONLY)
    except OSError:
        return  # e.g. platforms without O_RDONLY dirs; rename still atomic
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class ArtifactCache:
    """Load/store stage artifacts under a cache directory.

    Counters (``hits``/``misses``/``stores`` per stage) make cache
    effectiveness observable: the CI reuse check asserts on the
    ``stats_line()`` a CLI run prints.
    """

    def __init__(self, cache_dir: Union[str, Path]) -> None:
        self.root = Path(cache_dir) / f"v{CACHE_VERSION}"
        self.hits: Counter = Counter()
        self.misses: Counter = Counter()
        self.stores: Counter = Counter()
        self.evictions: Counter = Counter()
        #: Orphaned temp files removed when this cache was opened.
        self.orphans_swept = 0
        #: Last load outcome per stage ("hit"/"miss"), for the stats line.
        self.last_outcome: Dict[str, str] = {}
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise CacheError(
                f"cannot create cache dir {self.root}: {exc}"
            ) from exc
        self.orphans_swept = self.sweep_orphans()

    # -- paths ---------------------------------------------------------------

    def _path(self, stage: str, key: str) -> Path:
        # Two-level fan-out keeps directories small for big caches.
        return self.root / stage / key[:2] / f"{key}.pkl.gz"

    @staticmethod
    def _sidecar(path: Path) -> Path:
        return Path(str(path) + SIDECAR_SUFFIX)

    # -- load/store ----------------------------------------------------------

    def load(self, stage: str, material: Dict[str, Any]) -> Optional[Any]:
        """Return the cached artifact, or ``None`` on a miss.

        Corrupt or checksum-mismatched files are treated as misses (and
        removed) — the pipeline then recomputes and overwrites them.
        """
        key = canonical_key(material)
        path = self._path(stage, key)
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            self._miss(stage)
            return None
        except OSError:
            # Vanished or unreadable mid-read (e.g. concurrently evicted
            # as corrupt): a miss, not corruption.
            self._miss(stage)
            return None
        sidecar = self._read_sidecar(path)
        if sidecar is not None and hashlib.sha256(data).hexdigest() != sidecar:
            reg = active_metrics()
            if reg is not None:
                reg.inc("cache.sidecar_mismatches")
            self._evict_corrupt(stage, path)
            self._miss(stage)
            return None
        try:
            payload = pickle.loads(gzip.decompress(data))
        except Exception:
            self._evict_corrupt(stage, path)
            self._miss(stage)
            return None
        if (
            not isinstance(payload, tuple)
            or len(payload) != 4
            or payload[0] != _MAGIC
            or payload[1] != CACHE_VERSION
            or payload[2] != material
        ):
            self._evict_corrupt(stage, path)
            self._miss(stage)
            return None
        self.hits[stage] += 1
        self.last_outcome[stage] = "hit"
        reg = active_metrics()
        if reg is not None:
            reg.inc("cache.hits")
        return payload[3]

    def _read_sidecar(self, path: Path) -> Optional[str]:
        try:
            text = self._sidecar(path).read_text(encoding="utf-8").strip()
        except OSError:
            return None  # legacy artifact without a sidecar: accept
        return text or None

    def store(self, stage: str, material: Dict[str, Any], artifact: Any) -> None:
        """Persist an artifact crash-consistently.

        Write-to-temp, **fsync the temp file**, publish the checksum
        sidecar, ``os.replace`` into place, then **fsync the parent
        directory**.  A crash at any instant leaves either the old
        artifact, no artifact, or a torn file that the sidecar check
        rejects on load — never a silently wrong artifact.  The gzip
        header's mtime is zeroed, so storing one artifact twice writes
        identical bytes.
        """
        key = canonical_key(material)
        path = self._path(stage, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = (_MAGIC, CACHE_VERSION, material, artifact)
        fd, tmp = tempfile.mkstemp(
            dir=str(path.parent), prefix=f".tmp-{os.getpid()}-",
            suffix=".pkl.gz",
        )
        digest = hashlib.sha256()
        try:
            with os.fdopen(fd, "wb") as raw:
                with gzip.GzipFile(
                    fileobj=_TeeHash(raw, digest), mode="wb", mtime=0
                ) as fh:
                    pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
                raw.flush()
                os.fsync(raw.fileno())
            # The sidecar carries the digest of the *intended* bytes and is
            # published first: a crash (or a torn write) between here and
            # the payload replace leaves a mismatch, which load() treats
            # as corruption — degrade to recompute, never a wrong artifact.
            self._write_sidecar(path, digest.hexdigest())
            os.replace(tmp, path)
            _fsync_dir(path.parent)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stores[stage] += 1
        reg = active_metrics()
        if reg is not None:
            reg.inc("cache.stores")

    def _write_sidecar(self, path: Path, hexdigest: str) -> None:
        fd, tmp = tempfile.mkstemp(
            dir=str(path.parent), prefix=f".tmp-{os.getpid()}-",
            suffix=SIDECAR_SUFFIX,
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(hexdigest + "\n")
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self._sidecar(path))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def get_or_compute(
        self,
        stage: str,
        material: Dict[str, Any],
        compute: Callable[[], Any],
        kind: type = object,
    ) -> Tuple[Any, str]:
        """Load the artifact, or compute and store it.

        Returns ``(artifact, source)``: ``source`` is ``"hit"`` for a
        load and ``"computed"`` when this call ran ``compute``.  A loaded
        payload that is not an instance of ``kind`` counts as a miss.
        """
        artifact = self.load(stage, material)
        if isinstance(artifact, kind) and artifact is not None:
            return artifact, "hit"
        artifact = compute()
        self.store(stage, material, artifact)
        return artifact, "computed"

    def invalidate(self, stage: Optional[str] = None) -> None:
        """Drop one stage's artifacts, or the whole versioned cache."""
        target = self.root / stage if stage else self.root
        if target.exists():
            shutil.rmtree(target)
        self.root.mkdir(parents=True, exist_ok=True)

    # -- hygiene --------------------------------------------------------------

    def sweep_orphans(self) -> int:
        """Remove debris left by crashed writers; returns files removed.

        * ``.tmp-<pid>-*`` files whose pid is dead (a writer that died in
          the crash window before ``os.replace``);
        * un-attributable temp files older than :data:`ORPHAN_AGE_S`;
        * checksum sidecars older than :data:`ORPHAN_AGE_S` whose payload
          never got published.

        Live writers' debris (pid alive, or too recent to judge) is left
        alone, so sweeping is always safe to run concurrently.  A fresh
        dangling sidecar is exactly what :meth:`store` leaves between
        publishing the sidecar and replacing the payload into place.
        """
        removed = 0
        now = time.time()
        for dirpath, _dirnames, filenames in os.walk(self.root):
            for name in filenames:
                full = Path(dirpath) / name
                if name.startswith(".tmp-"):
                    pid = tmp_file_pid(name)
                    stale = (
                        not pid_alive(pid) if pid is not None
                        else _older_than(full, ORPHAN_AGE_S, now)
                    )
                elif name.endswith(".pkl.gz" + SIDECAR_SUFFIX):
                    payload = Path(str(full)[: -len(SIDECAR_SUFFIX)])
                    stale = not payload.exists() and _older_than(
                        full, ORPHAN_AGE_S, now
                    )
                else:
                    continue
                if stale:
                    try:
                        full.unlink()
                        removed += 1
                    except OSError:
                        pass
        if removed:
            reg = active_metrics()
            if reg is not None:
                reg.inc("store.orphans_swept", removed)
        return removed

    # -- accounting ----------------------------------------------------------

    def _miss(self, stage: str) -> None:
        self.misses[stage] += 1
        self.last_outcome[stage] = "miss"
        reg = active_metrics()
        if reg is not None:
            reg.inc("cache.misses")

    def _evict_corrupt(self, stage: str, path: Path) -> None:
        self.evictions[stage] += 1
        reg = active_metrics()
        if reg is not None:
            reg.inc("cache.evictions")
        for target in (path, self._sidecar(path)):
            try:
                target.unlink()
            except OSError:
                pass

    def stats_line(self) -> str:
        """One grep-able line: per-stage outcome plus aggregate counters."""
        outcomes = " ".join(
            f"{stage}={self.last_outcome[stage]}"
            for stage in STAGES
            if stage in self.last_outcome
        )
        totals = (
            f"hits={sum(self.hits.values())} "
            f"misses={sum(self.misses.values())} "
            f"stores={sum(self.stores.values())} "
            f"evictions={sum(self.evictions.values())}"
        )
        return f"{outcomes} | {totals}".strip(" |")
