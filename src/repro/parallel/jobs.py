"""Picklable job specifications for parallel region simulation.

A region simulation is dispatched to a worker process as a
:class:`RegionJob`: everything needed to rebuild the simulation in a fresh
interpreter.  Workload models cannot be pickled directly (trip-count
profiles are closures, see :func:`repro.workloads.generators.make_trips`),
so a job carries a :class:`WorkloadSpec` — the registry coordinates from
which the worker rebuilds an *identical* workload — plus the picklable
payload that names the region: a :class:`~repro.timing.mcsim.RegionOfInterest`
for binary-driven simulation or a self-contained
:class:`~repro.pinplay.pinball.RegionPinball` for checkpoint-driven
simulation.

Determinism contract: workload builders are pure functions of
``(name, input_class, nthreads, scale)`` and every stochastic choice in the
simulator is seeded from static program state, so a region simulated in a
worker is bit-identical to the same region simulated in the parent.  The
spec carries two cheap fingerprints (block count, static instruction
estimate) that the worker verifies before simulating, turning any registry
drift into a loud :class:`~repro.errors.SimulationError` instead of a
silently different result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..config import ReproScale, SystemConfig
from ..errors import SimulationError, WorkloadError
from ..pinplay.pinball import RegionPinball
from ..policy import WaitPolicy
from ..resilience import JOB_ERROR, maybe_inject
from ..timing.mcsim import (
    MultiCoreSimulator,
    RegionOfInterest,
    SimulationResult,
)
from ..workloads.base import Workload


@dataclass(frozen=True)
class WorkloadSpec:
    """Registry coordinates from which a worker rebuilds a workload."""

    name: str
    input_class: str
    nthreads: int
    scale: ReproScale
    #: Fingerprints of the parent's workload; verified after rebuild.
    num_blocks: int = -1
    approx_instructions: int = -1

    @classmethod
    def from_workload(
        cls, workload: Workload, scale: ReproScale
    ) -> "WorkloadSpec":
        """Describe ``workload`` for rebuilding, or raise ``WorkloadError``.

        Only registry-buildable workloads can be dispatched to workers;
        ad-hoc programs (as tests construct) must simulate serially.
        """
        from ..workloads.registry import list_workloads

        if workload.name not in list_workloads():
            raise WorkloadError(
                f"workload {workload.name!r} is not registry-buildable; "
                f"parallel dispatch needs a named workload"
            )
        return cls(
            name=workload.name,
            input_class=workload.input_class,
            nthreads=workload.nthreads,
            scale=scale,
            num_blocks=workload.program.num_blocks,
            approx_instructions=workload.approximate_instructions(),
        )

    def cache_key(self) -> Tuple:
        scale = self.scale
        return (
            self.name,
            self.input_class,
            self.nthreads,
            scale.name,
            scale.slice_size_per_thread,
            scale.warmup_instructions,
            tuple(sorted(scale.input_scale.items())),
        )

    def build(self) -> Workload:
        """Rebuild the workload and verify it matches the parent's."""
        from ..workloads.registry import get_workload

        workload = get_workload(
            self.name, self.input_class, self.nthreads, scale=self.scale
        )
        if self.num_blocks >= 0 and workload.program.num_blocks != self.num_blocks:
            raise SimulationError(
                f"worker rebuilt {self.name!r} with "
                f"{workload.program.num_blocks} blocks, parent had "
                f"{self.num_blocks}; registry drift"
            )
        if (
            self.approx_instructions >= 0
            and workload.approximate_instructions() != self.approx_instructions
        ):
            raise SimulationError(
                f"worker rebuilt {self.name!r} with a different instruction "
                f"estimate; registry drift"
            )
        return workload


@dataclass(frozen=True)
class RegionJob:
    """One region simulation, self-contained and picklable.

    Exactly one of ``roi`` (binary-driven: sweep from program start over
    ``earlier_rois`` and then ``roi``, returning ``roi``'s result) or
    ``pinball`` (checkpoint-driven: constrained replay of an extracted
    region pinball) must be set.  Carrying every earlier region makes the
    worker's sweep the serial sweep's prefix, so its result is the serial
    one even where bounded warmup leaves earlier regions' timing visible.
    """

    job_id: int
    workload: WorkloadSpec
    system: SystemConfig
    wait_policy: str
    roi: Optional[RegionOfInterest] = None
    pinball: Optional[RegionPinball] = None
    earlier_rois: Tuple[RegionOfInterest, ...] = ()

    def __post_init__(self) -> None:
        if (self.roi is None) == (self.pinball is None):
            raise SimulationError(
                f"job {self.job_id}: exactly one of roi/pinball must be set"
            )


#: Per-worker-process workload cache: rebuilding the program for every job
#: would dominate small-region dispatch.  Keyed by the spec's cache key; a
#: worker typically serves many jobs of one workload.
_WORKLOADS: Dict[Tuple, Workload] = {}


def _workload_for(spec: WorkloadSpec) -> Workload:
    key = spec.cache_key()
    workload = _WORKLOADS.get(key)
    if workload is None:
        workload = spec.build()
        _WORKLOADS[key] = workload
    return workload


def execute_region_job(job: RegionJob) -> SimulationResult:
    """Worker entry point: simulate one region in a fresh simulator.

    Runs in a worker process (module-level so it pickles by reference), but
    is equally callable in-process — the serial fallback path uses the very
    same function, which is what makes ``jobs=1`` vs ``jobs=N`` equivalence
    testable.
    """
    maybe_inject(JOB_ERROR, f"job:{job.job_id}")
    workload = _workload_for(job.workload)
    sim = MultiCoreSimulator(workload.program, job.system, workload.omp)
    if job.pinball is not None:
        return sim.run_pinball(job.pinball)
    results = sim.run_binary(
        workload.thread_program,
        workload.nthreads,
        WaitPolicy(job.wait_policy),
        regions=[*job.earlier_rois, job.roi],
    )
    return results[-1]
