"""Deterministic fault injection at the pipeline's failure seams.

Every failure path the pipeline claims to survive — a worker crashing or
hanging mid-region, a truncated cache artifact, replay divergence during
profiling, region-pinball extraction dying, K-means refusing to converge —
is exercisable on demand through a seeded :class:`FaultPlan`.  The plan is
pure data (picklable, JSON round-trippable) and every fire/no-fire decision
is a deterministic function of ``(seed, site, key, occurrence)``, so a
failing resilience test replays exactly, in CI and on a laptop, serial or
fanned out.

Seams call :func:`maybe_inject` (raise-style sites) or :func:`should_fire`
(behavioral sites like cache corruption, where the seam itself performs the
damage).  Both are near-free no-ops unless a plan is installed via
:func:`install_fault_plan` / :func:`fault_scope` — production runs carry a
single ``is None`` check per seam.

Site catalogue (the ``site`` strings a :class:`FaultSpec` can name):

========================  ====================================================
``worker.crash``          pool worker dies abruptly (``os._exit``) — only
                          ever fired inside a pool worker process
``worker.hang``           pool worker sleeps ``hang_s`` seconds (exceeding
                          the job timeout turns this into a hung worker)
``worker.error``          pool worker raises :class:`FaultInjectionError`
``job.error``             region simulation raises wherever it runs —
                          including the parent's serial fallback — which is
                          how the degradation policies are exercised
``cache.corrupt``         a just-stored cache artifact is truncated
                          (``mode="truncate"``) or overwritten with garbage
                          (``mode="garbage"``)
``profile.divergence``    profiling raises :class:`ReplayDivergenceError`
``region.extract``        region-pinball extraction raises ``RegionError``
``kmeans.diverge``        K-means raises ``ClusteringError`` (non-convergence)
``pipeline.abort``        the process dies between pipeline stages —
                          ``mode="kill"`` sends SIGKILL to itself (the
                          resume test's "power cut"), otherwise ``os._exit``
``store.torn_write``      the artifact store's temp file is damaged after
                          the payload fsync but before publication —
                          ``os.replace`` then publishes a torn file whose
                          checksum sidecar no longer matches
                          (``mode="truncate"``/``"garbage"``)
``store.crash_replace``   the writing process dies (``os._exit``) between
                          fsyncing the temp file and the ``os.replace``
                          that publishes it — the classic crash window
                          that leaves a ``.tmp-*`` orphan behind
========================  ====================================================
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..errors import (
    ClusteringError,
    FaultInjectionError,
    RegionError,
    ReplayDivergenceError,
)

WORKER_CRASH = "worker.crash"
WORKER_HANG = "worker.hang"
WORKER_ERROR = "worker.error"
JOB_ERROR = "job.error"
CACHE_CORRUPT = "cache.corrupt"
PROFILE_DIVERGENCE = "profile.divergence"
REGION_EXTRACT = "region.extract"
KMEANS_DIVERGE = "kmeans.diverge"
PIPELINE_ABORT = "pipeline.abort"
STORE_TORN_WRITE = "store.torn_write"
STORE_CRASH_REPLACE = "store.crash_replace"

#: Every site a spec may name, with the ``mode`` values it understands
#: (the empty string is the site's default behavior).
SITES: Dict[str, Tuple[str, ...]] = {
    WORKER_CRASH: ("",),
    WORKER_HANG: ("",),
    WORKER_ERROR: ("",),
    JOB_ERROR: ("",),
    CACHE_CORRUPT: ("", "truncate", "garbage"),
    PROFILE_DIVERGENCE: ("",),
    REGION_EXTRACT: ("",),
    KMEANS_DIVERGE: ("",),
    PIPELINE_ABORT: ("", "exit", "kill"),
    STORE_TORN_WRITE: ("", "truncate", "garbage"),
    STORE_CRASH_REPLACE: ("",),
}


@dataclass(frozen=True)
class FaultSpec:
    """One injection rule: where, how often, and in what flavour.

    ``probability`` is evaluated deterministically (a hash of the plan seed,
    site, key, and per-key occurrence number stands in for a coin flip), so
    a 0.3-probability spec fires for the *same* 30% of keys on every run.
    ``match`` restricts the spec to keys containing the substring;
    ``max_fires`` bounds total fires (process-local count; -1 = unbounded).
    """

    site: str
    probability: float = 1.0
    match: str = ""
    mode: str = ""
    max_fires: int = -1
    #: Sleep length of a ``worker.hang`` fire.
    hang_s: float = 30.0

    def __post_init__(self) -> None:
        """Reject a spec that could never fire as written.

        A typo'd site or mode would silently inject nothing, so a
        resilience test would pass without testing anything; an
        out-of-range probability or negative sleep has no defined meaning.
        """
        if self.site not in SITES:
            raise FaultInjectionError(
                f"unknown injection site {self.site!r}; known sites: "
                f"{', '.join(sorted(SITES))}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise FaultInjectionError(
                f"{self.site}: probability {self.probability} outside [0, 1]"
            )
        if self.hang_s < 0:
            raise FaultInjectionError(
                f"{self.site}: hang_s {self.hang_s} is negative"
            )
        if self.mode not in SITES[self.site]:
            raise FaultInjectionError(
                f"{self.site}: mode {self.mode!r} invalid; allowed: "
                f"{SITES[self.site]}"
            )


@dataclass
class FaultPlan:
    """A seeded set of :class:`FaultSpec` rules.

    The plan carries two process-local counters (per-spec fires, per
    ``(site, key)`` calls) so retries of the same seam see a fresh
    occurrence number — a ``max_fires=1`` spec fails a stage exactly once
    and lets the retry through, deterministically.
    """

    seed: int = 0
    faults: Tuple[FaultSpec, ...] = ()
    _fires: Counter = field(default_factory=Counter, repr=False, compare=False)
    _calls: Counter = field(default_factory=Counter, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.faults = tuple(self.faults)

    # -- decisions -----------------------------------------------------------

    def should_fire(self, site: str, key: str) -> Optional[FaultSpec]:
        """The first matching spec that fires for this call, or ``None``."""
        occurrence = self._calls[(site, key)]
        self._calls[(site, key)] += 1
        for index, spec in enumerate(self.faults):
            if spec.site != site:
                continue
            if spec.match and spec.match not in key:
                continue
            if 0 <= spec.max_fires <= self._fires[index]:
                continue
            if _fraction(self.seed, index, site, key, occurrence) < spec.probability:
                self._fires[index] += 1
                return spec
        return None

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "faults": [
                {
                    "site": s.site,
                    "probability": s.probability,
                    "match": s.match,
                    "mode": s.mode,
                    "max_fires": s.max_fires,
                    "hang_s": s.hang_s,
                }
                for s in self.faults
            ],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        if not isinstance(data, dict) or not isinstance(data.get("faults", []), list):
            raise FaultInjectionError(
                "fault plan must be an object with a 'faults' list"
            )
        known = {f.name for f in FaultSpec.__dataclass_fields__.values()}
        specs: List[FaultSpec] = []
        for raw in data.get("faults", []):
            if not isinstance(raw, dict) or "site" not in raw:
                raise FaultInjectionError(
                    f"each fault spec needs at least a 'site' field, got {raw!r}"
                )
            unknown = set(raw) - known
            if unknown:
                raise FaultInjectionError(
                    f"fault spec has unknown field(s) {sorted(unknown)}"
                )
            specs.append(FaultSpec(**raw))
        return cls(seed=int(data.get("seed", 0)), faults=tuple(specs))

    @classmethod
    def from_json_file(cls, path: str) -> "FaultPlan":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:
            raise FaultInjectionError(
                f"cannot read fault plan {path!r}: {exc}"
            ) from exc
        return cls.from_dict(data)


def _fraction(seed: int, index: int, site: str, key: str, occurrence: int) -> float:
    """A uniform-looking value in [0, 1), pure in its inputs."""
    blob = f"{seed}:{index}:{site}:{key}:{occurrence}".encode("utf-8")
    digest = hashlib.sha256(blob).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


# -- the installed plan -------------------------------------------------------

_ACTIVE: Optional[FaultPlan] = None


def install_fault_plan(plan: Optional[FaultPlan]) -> None:
    """Make ``plan`` the process's active plan (``None`` disables)."""
    global _ACTIVE
    _ACTIVE = plan


def clear_fault_plan() -> None:
    install_fault_plan(None)


def active_plan() -> Optional[FaultPlan]:
    return _ACTIVE


@contextmanager
def fault_scope(plan: Optional[FaultPlan]):
    """Install ``plan`` for the duration of the block (nestable).

    ``None`` leaves whatever is installed untouched, so pipeline internals
    can wrap themselves unconditionally.
    """
    if plan is None:
        yield
        return
    global _ACTIVE
    previous = _ACTIVE
    install_fault_plan(plan)
    try:
        yield
    finally:
        _ACTIVE = previous


def should_fire(site: str, key: str) -> Optional[FaultSpec]:
    """Consult the active plan; ``None`` when no plan or no matching fire."""
    if _ACTIVE is None:
        return None
    return _ACTIVE.should_fire(site, key)


def maybe_inject(site: str, key: str) -> None:
    """Fire the active plan's action for ``site`` (raise/sleep/die), if any."""
    spec = should_fire(site, key)
    if spec is not None:
        perform(spec, site, key)


def perform(spec: FaultSpec, site: str, key: str) -> None:
    """Carry out one fired spec's action."""
    if site == WORKER_CRASH:
        os._exit(3)
    if site == WORKER_HANG:
        time.sleep(spec.hang_s)
        return
    if site in (WORKER_ERROR, JOB_ERROR, CACHE_CORRUPT):
        raise FaultInjectionError(f"injected fault at {site} ({key})")
    if site == PROFILE_DIVERGENCE:
        raise ReplayDivergenceError(
            f"injected replay divergence during profiling ({key})"
        )
    if site == REGION_EXTRACT:
        raise RegionError(
            f"injected region-pinball extraction failure ({key})"
        )
    if site == KMEANS_DIVERGE:
        raise ClusteringError(f"injected k-means non-convergence ({key})")
    if site == PIPELINE_ABORT:
        if spec.mode == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        os._exit(137)
    if site == STORE_TORN_WRITE:
        # Behavioral seam: the store damages its own temp file via
        # should_fire.  A perform() call means a spec was misrouted here.
        raise FaultInjectionError(f"injected fault at {site} ({key})")
    if site == STORE_CRASH_REPLACE:
        os._exit(5)
    raise FaultInjectionError(f"injected fault at unknown site {site} ({key})")


def perform_worker_faults(plan: FaultPlan, job_id: int, attempt: int) -> None:
    """Worker-process entry seam: crash, hang, then error, in that order.

    Keys carry the attempt number, so a spec with ``match=":attempt:0"``
    fails every job's first pool attempt and lets every retry through —
    the executor's whole recovery ladder becomes deterministic to test.
    """
    key = f"job:{job_id}:attempt:{attempt}"
    for site in (WORKER_CRASH, WORKER_HANG, WORKER_ERROR):
        spec = plan.should_fire(site, key)
        if spec is not None:
            perform(spec, site, key)
