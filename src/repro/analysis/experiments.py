"""Shared evaluation cache for the benchmark harness.

Several figures reuse the same expensive artifacts (a workload's recording,
profile, clustering, full-run simulation).  :class:`EvaluationCache`
memoizes per-(workload, input, threads, policy, core-kind) pipelines and
results so each is computed once per benchmark session — and, when a
``cache_dir`` is given, hands every pipeline a persistent
:class:`~repro.parallel.artifacts.ArtifactCache` so the record/profile/
select stages also survive *across* sessions.

Region results and the full-run reference are cached independently: asking
for a result without the reference and later with it (or vice versa) never
re-simulates the regions — only the missing reference run is added.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional, Tuple

from ..config import GAINESTOWN_8CORE, ReproScale, SystemConfig, get_scale
from ..core.looppoint import (
    LoopPointOptions,
    LoopPointPipeline,
    LoopPointResult,
)
from ..policy import WaitPolicy
from ..timing.metrics import SimMetrics
from ..workloads.base import Workload
from ..workloads.registry import get_workload

#: Cache keys: (name, input_class, nthreads, policy value, inorder flag).
_Key = Tuple[str, Optional[str], int, str, bool]


class EvaluationCache:
    """Memoizes pipelines and results across experiments.

    ``cache_dir`` makes the pipelines' stage artifacts disk-backed (shared
    across processes and sessions); ``jobs`` sets their region-simulation
    parallelism (``None`` honours ``REPRO_JOBS``).
    """

    def __init__(
        self,
        scale: Optional[ReproScale] = None,
        cache_dir: Optional[str] = None,
        jobs: Optional[int] = None,
    ) -> None:
        self.scale = scale or get_scale()
        self.cache_dir = cache_dir
        self.jobs = jobs
        self._workloads: Dict[Tuple[str, Optional[str], int], Workload] = {}
        self._pipelines: Dict[_Key, LoopPointPipeline] = {}
        #: Region-simulation results, always without the reference run.
        self._results: Dict[_Key, LoopPointResult] = {}
        #: Full-application reference metrics, added on demand.
        self._full_metrics: Dict[_Key, SimMetrics] = {}
        #: Region results merged with the reference, memoized for identity.
        self._full_results: Dict[_Key, LoopPointResult] = {}

    def workload(
        self, name: str, input_class: Optional[str] = None, nthreads: int = 8
    ) -> Workload:
        key = (name, input_class, nthreads)
        if key not in self._workloads:
            self._workloads[key] = get_workload(
                name, input_class, nthreads, scale=self.scale
            )
        return self._workloads[key]

    def system(self, nthreads: int, inorder: bool = False) -> SystemConfig:
        base = GAINESTOWN_8CORE.with_cores(
            max(GAINESTOWN_8CORE.num_cores, nthreads)
        )
        return base.as_inorder() if inorder else base

    def pipeline(
        self,
        name: str,
        input_class: Optional[str] = None,
        nthreads: int = 8,
        wait_policy: WaitPolicy = WaitPolicy.PASSIVE,
        inorder: bool = False,
    ) -> LoopPointPipeline:
        key = (name, input_class, nthreads, wait_policy.value, inorder)
        if key not in self._pipelines:
            workload = self.workload(name, input_class, nthreads)
            self._pipelines[key] = LoopPointPipeline(
                workload,
                system=self.system(workload.nthreads, inorder),
                options=LoopPointOptions(
                    wait_policy=wait_policy,
                    scale=self.scale,
                    cache_dir=self.cache_dir,
                    jobs=self.jobs,
                ),
            )
        return self._pipelines[key]

    def looppoint_result(
        self,
        name: str,
        input_class: Optional[str] = None,
        nthreads: int = 8,
        wait_policy: WaitPolicy = WaitPolicy.PASSIVE,
        inorder: bool = False,
        simulate_full: bool = True,
    ) -> LoopPointResult:
        """The pipeline result, with or without the full-run reference.

        Region simulations are cached per pipeline key; toggling
        ``simulate_full`` between calls only adds (or omits) the reference
        run — it never re-simulates the regions.
        """
        key: _Key = (name, input_class, nthreads, wait_policy.value, inorder)
        base = self._results.get(key)
        if base is None:
            pipeline = self.pipeline(
                name, input_class, nthreads, wait_policy, inorder
            )
            base = pipeline.run(simulate_full=False)
            self._results[key] = base
        if not simulate_full:
            return base
        if key not in self._full_results:
            if key not in self._full_metrics:
                pipeline = self.pipeline(
                    name, input_class, nthreads, wait_policy, inorder
                )
                self._full_metrics[key] = pipeline.simulate_full().metrics
            self._full_results[key] = replace(
                base, actual=self._full_metrics[key]
            )
        return self._full_results[key]

