"""CACHE001: artifact-store hygiene.

A scan of the pipeline's cache directory for crash debris and corruption,
built on :func:`repro.store.scan_store`.  The store self-heals every
condition reported here (opens sweep orphans, the kernel frees dead
holders' locks, loads evict checksum-mismatched payloads) — the findings
exist because each one is evidence of a *past crash or filesystem
misbehavior* that a reproduction run should not silently absorb:

* orphaned temp files → a writer died inside the publish window;
* stale locks (owner record present, ``flock`` free) → a holder died
  without releasing;
* checksum-sidecar mismatches → torn or rotted payload bytes.  These are
  reported at ERROR severity — unlike debris, a mismatch means artifact
  *content* was damaged and the next consumer will pay a recompute.

The family is cheap (one directory walk) and describes the directory's
current state.
"""

from __future__ import annotations

from typing import List, Optional

from ..store import scan_store
from .findings import Finding, Severity, make_finding


def run_store_passes(cache_dir: Optional[str]) -> List[Finding]:
    """Scan ``cache_dir`` for store-hygiene findings (empty when clean)."""
    findings: List[Finding] = []
    if not cache_dir:
        return findings
    report = scan_store(cache_dir)
    if report.root is None:
        return findings

    def rel(path: object) -> str:
        try:
            return str(path).replace(str(report.root) + "/", "", 1)
        except Exception:
            return str(path)

    for path, detail in report.orphan_tmps:
        findings.append(make_finding(
            "CACHE001", f"store:{rel(path)}",
            f"orphaned temp file ({detail}) — a writer died before "
            "publishing; swept on the next store open",
        ))
    for path, detail in report.stale_locks:
        findings.append(make_finding(
            "CACHE001", f"store:{rel(path)}",
            f"stale key lock ({detail}) — the flock was freed by the "
            "kernel, but the holder never ran its release",
        ))
    for path, detail in report.checksum_mismatches:
        findings.append(make_finding(
            "CACHE001", f"store:{rel(path)}",
            f"payload bytes mismatch the checksum sidecar ({detail}) — "
            "torn write or bit rot; the next load evicts and recomputes",
            severity=Severity.ERROR,
        ))
    return findings
