"""Advisory per-key file locks for the shared artifact store.

The single-flight guarantee of
:meth:`repro.parallel.artifacts.ArtifactCache.get_or_compute` rests on
``fcntl.flock``: the first process to take a key's exclusive lock
computes the artifact, everyone else blocks in a seeded-backoff wait loop
(paced by :class:`repro.resilience.RetryPolicy`) and then reads the
published result.  ``flock`` is the right primitive here because the
kernel releases it when the holder dies *for any reason* — a lock-holder
crash degrades to a short wait, never a wedged store.

Two deliberate choices:

* **Lock files are never unlinked.**  Unlink-on-release races: process A
  opens the file, B locks it, C unlinks it and recreates the name, D locks
  the *new* inode — now B and D both "hold" the key (split-brain).  A held
  lock file instead carries the holder's ``{"pid", "time"}`` as JSON and
  is truncated to empty on release; empty-or-missing means free.

* **Staleness is diagnosed, not stolen.**  Because the kernel already
  frees a dead holder's ``flock``, a wait loop that *still* cannot acquire
  while the recorded holder pid is dead is seeing either a brand-new
  holder that has not yet written its owner record, or a wedged (alive but
  stuck) holder.  The probe therefore only feeds diagnostics: the
  :class:`repro.errors.StoreLockTimeout` raised when the policy's
  wall-clock deadline expires says who held the lock and whether they were
  alive — a dead-holder timeout points at a filesystem without working
  ``flock``, a live one at a stuck computation.
"""

from __future__ import annotations

import errno
import json
import os
import time
from pathlib import Path
from typing import Any, Dict, Optional

from ..errors import CacheError, StoreLockTimeout
from ..obs.tracer import active_metrics
from ..parallel.artifacts import pid_alive
from ..resilience.retry import RetryPolicy

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None  # type: ignore[assignment]

#: Lock-wait pacing when the caller does not supply a policy: fast initial
#: polls (computations worth caching take far longer than 5 ms), capped
#: low so waiters notice a publish quickly, bounded by a wall-clock
#: deadline so a wedged holder cannot hang a run forever.
DEFAULT_LOCK_POLICY = RetryPolicy(
    base_delay_s=0.005,
    max_delay_s=0.1,
    multiplier=2.0,
    jitter=0.25,
    deadline_s=120.0,
)


def flock_supported() -> bool:
    """Whether this platform can take advisory file locks at all."""
    return fcntl is not None


class KeyLock:
    """An exclusive advisory lock on one store key (context manager).

    Re-usable but not re-entrant; one instance per acquisition site.
    """

    def __init__(
        self,
        path: Path,
        policy: Optional[RetryPolicy] = None,
        name: str = "",
    ) -> None:
        self.path = Path(path)
        self.policy = policy if policy is not None else DEFAULT_LOCK_POLICY
        #: Human-readable key name, for errors and backoff jitter.
        self.name = name or self.path.stem
        self._fd: Optional[int] = None
        #: Seconds spent waiting in the last acquire (0.0 = uncontended).
        self.waited_s = 0.0
        #: Probes during the last acquire that saw a dead recorded holder.
        self.stale_holder_probes = 0

    # -- acquisition ---------------------------------------------------------

    def acquire(self) -> "KeyLock":
        if self._fd is not None:
            raise CacheError(f"lock {self.name} acquired twice")
        if fcntl is None:
            # No advisory locking on this platform: degrade to lock-free
            # operation.  Crash consistency still holds (checksummed
            # atomic publishes); only single-flight dedupe is lost.
            return self
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(str(self.path), os.O_RDWR | os.O_CREAT, 0o644)
        start = time.monotonic()
        attempt = 0
        self.waited_s = 0.0
        self.stale_holder_probes = 0
        try:
            while True:
                try:
                    fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                    break
                except OSError as exc:
                    if exc.errno not in (errno.EAGAIN, errno.EACCES):
                        raise CacheError(
                            f"cannot lock {self.path}: {exc}"
                        ) from exc
                holder = self._read_holder()
                if holder is not None and not holder.get("alive", True):
                    self.stale_holder_probes += 1
                attempt += 1
                elapsed = time.monotonic() - start
                if self.policy.expired(elapsed):
                    self._timeout(holder, elapsed)
                time.sleep(
                    self.policy.clamped_delay(attempt, self.name, elapsed)
                )
        except BaseException:
            os.close(fd)
            raise
        self.waited_s = time.monotonic() - start
        self._fd = fd
        self._write_owner(fd)
        if attempt:
            reg = active_metrics()
            if reg is not None:
                reg.inc("store.lock_waits")
                reg.observe("store.lock_wait_seconds", self.waited_s)
        return self

    def release(self) -> None:
        if self._fd is None:
            return
        fd, self._fd = self._fd, None
        try:
            # Truncate-to-empty marks the lock free for probes; the file
            # itself stays (unlinking a lock file is a split-brain race).
            os.ftruncate(fd, 0)
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_UN)
        except OSError:
            pass
        finally:
            os.close(fd)

    def __enter__(self) -> "KeyLock":
        return self.acquire()

    def __exit__(self, *exc_info: Any) -> None:
        self.release()

    @property
    def held(self) -> bool:
        return self._fd is not None

    # -- holder bookkeeping --------------------------------------------------

    def _write_owner(self, fd: int) -> None:
        record = json.dumps({"pid": os.getpid(), "time": time.time()})
        try:
            os.ftruncate(fd, 0)
            os.lseek(fd, 0, os.SEEK_SET)
            os.write(fd, record.encode("utf-8"))
        except OSError:
            pass  # diagnostics only; the flock itself is what matters

    def _read_holder(self) -> Optional[Dict[str, Any]]:
        """The recorded holder plus an ``alive`` pid probe, or ``None``."""
        try:
            text = self.path.read_text(encoding="utf-8").strip()
        except OSError:
            return None
        if not text:
            return None
        try:
            record = json.loads(text)
        except ValueError:
            return {"pid": None, "alive": True}
        if not isinstance(record, dict):
            return {"pid": None, "alive": True}
        pid = record.get("pid")
        alive = pid_alive(pid) if isinstance(pid, int) else True
        return {"pid": pid, "time": record.get("time"), "alive": alive}

    def _timeout(self, holder: Optional[Dict[str, Any]], elapsed: float) -> None:
        if holder is None:
            detail = "no holder recorded"
        elif holder.get("alive", True):
            detail = f"holder pid {holder.get('pid')} alive (wedged?)"
        else:
            detail = (
                f"holder pid {holder.get('pid')} dead at last probe "
                "(flock not released? check filesystem lock support)"
            )
        raise StoreLockTimeout(
            f"lock {self.name} not acquired after {elapsed:.1f}s "
            f"(deadline {self.policy.deadline_s}s): {detail}"
        )


def probe_stale_lock(path: Path) -> Optional[int]:
    """If ``path`` looks like a crashed holder's lock, the dead pid.

    A lock file that still carries owner JSON but whose ``flock`` is free
    means the holder died (or was killed) before the release truncate ran
    — harmless (the kernel freed the lock) but worth flagging in hygiene
    scans.  Returns the recorded pid, or ``None`` for clean/held/missing
    locks.
    """
    if fcntl is None:
        return None
    try:
        text = path.read_text(encoding="utf-8").strip()
    except OSError:
        return None
    if not text:
        return None
    try:
        record = json.loads(text)
        pid = record.get("pid") if isinstance(record, dict) else None
    except ValueError:
        pid = None
    try:
        fd = os.open(str(path), os.O_RDWR)
    except OSError:
        return None
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            return None  # actively held: not stale
        fcntl.flock(fd, fcntl.LOCK_UN)
    finally:
        os.close(fd)
    if isinstance(pid, int) and pid_alive(pid):
        return None  # holder alive but lock free: releasing right now
    return pid if isinstance(pid, int) else -1
