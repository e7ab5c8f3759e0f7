"""Store-directory hygiene scanning.

An artifact cache accumulates debris exactly when things go wrong: temp
files from writers that died in the crash window, lock files whose holder
never ran the release truncate, payloads whose bytes no longer match
their checksum sidecar.  None of these *break* the store (loads reject
corruption, opens sweep orphans, the kernel frees dead holders' flocks) —
but each is a breadcrumb of a crash or a misbehaving filesystem that a
repro run should surface, which is what the ``CACHE001`` lint rule does
with this scanner's report.

The scan is read-mostly and safe against live stores: a temp file whose
recorded pid is alive is reported as *live*, not orphaned, and lock
staleness is probed with a non-blocking ``flock`` attempt that never
steals a held lock.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple, Union

from ..parallel.artifacts import (
    CACHE_VERSION,
    LOCKS_DIR,
    ArtifactCache,
    pid_alive,
    tmp_file_pid,
)
from .locks import probe_stale_lock


@dataclass
class StoreHygieneReport:
    """What a scan found; every list item is ``(path, detail)``."""

    root: Optional[Path] = None
    #: Temp files attributable to a dead writer (crash debris).
    orphan_tmps: List[Tuple[Path, str]] = field(default_factory=list)
    #: Temp files whose writer pid is alive — informational only.
    live_tmps: List[Tuple[Path, str]] = field(default_factory=list)
    #: Lock files carrying owner records nobody holds (crashed holders).
    stale_locks: List[Tuple[Path, str]] = field(default_factory=list)
    #: Payloads whose bytes mismatch their checksum sidecar (corruption).
    checksum_mismatches: List[Tuple[Path, str]] = field(default_factory=list)
    #: Payloads with no sidecar at all (legacy or torn publish).
    missing_sidecars: List[Tuple[Path, str]] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """No findings beyond live writers' in-flight temp files."""
        return not (
            self.orphan_tmps
            or self.stale_locks
            or self.checksum_mismatches
            or self.missing_sidecars
        )


def scan_store(cache_dir: Union[str, Path]) -> StoreHygieneReport:
    """Scan a cache directory for crash debris and corruption."""
    report = StoreHygieneReport()
    root = Path(cache_dir) / f"v{CACHE_VERSION}"
    if not root.is_dir():
        return report
    report.root = root
    _scan_tmp_files(root, report)
    _scan_locks(root / LOCKS_DIR, report)
    _scan_checksums(root, report)
    return report


def _scan_tmp_files(root: Path, report: StoreHygieneReport) -> None:
    for path in sorted(root.rglob(".tmp-*")):
        if not path.is_file():
            continue
        pid = tmp_file_pid(path.name)
        if pid is None:
            report.orphan_tmps.append((path, "unattributable temp file"))
        elif pid_alive(pid):
            report.live_tmps.append((path, f"writer pid {pid} alive"))
        else:
            report.orphan_tmps.append((path, f"writer pid {pid} dead"))


def _scan_locks(locks_dir: Path, report: StoreHygieneReport) -> None:
    if not locks_dir.is_dir():
        return
    for path in sorted(locks_dir.rglob("*.lock")):
        pid = probe_stale_lock(path)
        if pid is not None:
            detail = (
                f"holder pid {pid} dead, never released"
                if pid > 0
                else "unparseable holder record, lock free"
            )
            report.stale_locks.append((path, detail))


def _scan_checksums(root: Path, report: StoreHygieneReport) -> None:
    sidecar = ArtifactCache._sidecar
    for stage_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        if stage_dir.name == LOCKS_DIR:
            continue
        for path in sorted(stage_dir.rglob("*.pkl.gz")):
            side = sidecar(path)
            try:
                expected = side.read_text(encoding="utf-8").strip()
            except OSError:
                report.missing_sidecars.append((path, "no checksum sidecar"))
                continue
            try:
                actual = hashlib.sha256(path.read_bytes()).hexdigest()
            except OSError:
                continue  # vanished mid-scan (concurrent corrupt-evict)
            if expected and actual != expected:
                report.checksum_mismatches.append(
                    (path, f"sha256 {actual[:12]}… != sidecar {expected[:12]}…")
                )
