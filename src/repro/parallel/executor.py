"""Process-pool execution of region-simulation jobs.

The paper's headline speedups assume looppoints are simulated *in
parallel*: each selected region is independent once recorded, so throwing
``N`` workers at ``N`` regions bounds time-to-results by the largest region
rather than the sum.  This module realizes that with a
``concurrent.futures.ProcessPoolExecutor`` over the picklable
:class:`~repro.parallel.jobs.RegionJob` specs, one per region pinball.
Binary-driven regions share one sweep from program start, so they run
serially in the parent and never reach this module.

Robustness contract: one pool round, then the parent, then raise.

* ``workers <= 1`` runs every job in-process through the *same* job
  function — the serial reference the equivalence tests compare against;
* otherwise every job is submitted to one pool round, which shares a
  single wall-clock deadline of ``timeout_s`` per expected batch
  (``ceil(jobs / workers)``) — one hung worker costs one budget, not one
  budget per job queued behind it — and hung workers are terminated when
  it passes;
* a job that did not finish in the round — its worker crashed
  (``BrokenProcessPool``), it missed the deadline, or it raised — re-runs
  once in the parent;
* a job that raises in the parent fails the fan-out with a
  :class:`~repro.errors.SimulationError` naming its region.  A job is a
  seeded, deterministic function of its inputs, so a job that raised in
  the parent would raise again on every attempt; only host faults (a
  killed or hung worker) are worth the second run.

Workers enter through :func:`_pool_timed_job`; the parent calls
:func:`_timed_job` directly, so a crash confined to the worker entry
point can kill a worker process but never the run.

The executor also measures what the paper can only estimate: the sum of
per-job wall times (the measured *serial* cost; jobs are independent
region pinballs) against the fan-out's elapsed wall time (the measured
*parallel* cost).  The ratio is the observed speedup that
:func:`repro.core.speedup.compute_speedups` reports next to the
theoretical Eq. numbers.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import SimulationError
from ..obs.tracer import (
    SpanContext,
    active_metrics,
    active_tracer,
    obs_scope,
    worker_tracer,
)
from ..timing.mcsim import SimulationResult
from .jobs import RegionJob, execute_region_job

#: Default per-job wall-clock budget.  Generous: a region at reproduction
#: scale simulates in milliseconds-to-seconds; the timeout only exists to
#: convert a hung worker into a serial fallback instead of a hung run.
DEFAULT_JOB_TIMEOUT_S = 900.0


@dataclass
class ExecutionStats:
    """Wall-clock accounting of one fan-out."""

    num_jobs: int
    workers: int
    #: What a serial run of the jobs would cost: the sum of per-job walls.
    serial_seconds: float
    #: Elapsed wall time of the whole fan-out.
    elapsed_seconds: float
    #: Jobs that did not finish in the pool round and re-ran in the parent.
    serial_fallbacks: int = 0
    per_job_seconds: Dict[int, float] = field(default_factory=dict)

    @property
    def measured_speedup(self) -> Optional[float]:
        """Observed serial-over-parallel wall-clock ratio; ``None`` for a
        serial fan-out, and for one whose jobs all re-ran in the parent
        (no job finished in the pool, so nothing ran in parallel)."""
        if (
            self.workers <= 1 or self.elapsed_seconds <= 0
            or self.serial_fallbacks >= self.num_jobs
        ):
            return None
        return self.serial_seconds / self.elapsed_seconds


@dataclass
class ExecutionOutcome:
    """Results (in job submission order) plus the wall-clock accounting."""

    results: List[SimulationResult]
    stats: ExecutionStats


def _timed_job(job: RegionJob) -> Tuple[int, SimulationResult, float]:
    """Run one job and measure its wall time."""
    t0 = time.perf_counter()
    result = execute_region_job(job)
    return job.job_id, result, time.perf_counter() - t0


def _pool_timed_job(
    job: RegionJob,
    ctx: Optional[SpanContext] = None,
) -> Tuple[int, SimulationResult, float]:
    """Worker-process entry point: run one job under a span.

    ``ctx`` stitches the worker's region span into the parent trace: the
    span parents into the dispatching ``fanout`` span and is written to the
    shared trace file when (and only when) the job finishes — a crashed or
    hung worker leaves no span, which ``repro-obs report`` then reports
    as a span-tree defect.
    """
    tracer = worker_tracer(ctx)
    with obs_scope(tracer):
        with tracer.span(
            f"region:{job.job_id}",
            parent=ctx.span_id if ctx is not None else None,
            region=job.job_id,
        ):
            out = _timed_job(job)
        tracer.emit_metrics(scope=f"job:{job.job_id}", reset=True)
    return out


def _run_in_parent(
    job: RegionJob, **span_attrs: object
) -> Tuple[int, SimulationResult, float]:
    """Run one job in this process; a failure names the job's region."""
    try:
        with active_tracer().span(
            f"region:{job.job_id}", region=job.job_id, **span_attrs,
        ):
            return _timed_job(job)
    except Exception as exc:
        raise SimulationError(
            f"region {job.job_id} failed: {type(exc).__name__}: {exc}"
        ) from exc


def run_region_jobs(
    jobs: List[RegionJob],
    workers: int,
    timeout_s: float = DEFAULT_JOB_TIMEOUT_S,
) -> ExecutionOutcome:
    """Execute ``jobs`` across ``workers`` processes.

    Results come back in submission order regardless of completion order.
    Raises :class:`~repro.errors.SimulationError` naming the region of the
    first job that fails in the parent.
    """
    if len({job.job_id for job in jobs}) != len(jobs):
        raise SimulationError("region jobs have duplicate job ids")
    serial = workers <= 1 or len(jobs) <= 1
    workers = 1 if serial else min(workers, len(jobs))
    t0 = time.perf_counter()
    with active_tracer().span(
        "fanout", jobs=len(jobs), workers=workers,
        mode="serial" if serial else "pool",
    ) as span:
        done: Dict[int, Tuple[SimulationResult, float]] = {}
        if not serial:
            _pool_round(jobs, workers, timeout_s, done)
        fallbacks = 0 if serial else len(jobs) - len(done)
        attrs = {"fallback": True} if fallbacks else {}
        for job in jobs:
            if job.job_id not in done:
                _, result, seconds = _run_in_parent(job, **attrs)
                done[job.job_id] = (result, seconds)
        span.set("serial_fallbacks", fallbacks)
    per_job = {job_id: seconds for job_id, (_, seconds) in done.items()}
    stats = ExecutionStats(
        num_jobs=len(jobs),
        workers=workers,
        serial_seconds=sum(per_job.values()),
        elapsed_seconds=time.perf_counter() - t0,
        serial_fallbacks=fallbacks,
        per_job_seconds=per_job,
    )
    _report_fanout(stats)
    return ExecutionOutcome(
        results=[done[job.job_id][0] for job in jobs], stats=stats,
    )


def _report_fanout(stats: ExecutionStats) -> None:
    reg = active_metrics()
    if reg is None:
        return
    reg.inc("fanout.runs")
    reg.inc("fanout.jobs", stats.num_jobs)
    reg.inc("fanout.serial_fallbacks", stats.serial_fallbacks)


def _pool_round(
    jobs: List[RegionJob],
    workers: int,
    timeout_s: float,
    done: Dict[int, Tuple[SimulationResult, float]],
) -> None:
    """Submit every job to one pool; record what finishes in ``done``.

    A job whose worker crashed, that raised, or that missed the round's
    deadline is simply absent from ``done`` afterwards.
    """
    ctx = active_tracer().current_context()
    pool = ProcessPoolExecutor(max_workers=workers)
    futures: List[Future] = []
    timed_out = False
    try:
        for job in jobs:
            futures.append(pool.submit(_pool_timed_job, job, ctx))
        # One shared deadline: the slowest schedule is ceil(jobs / workers)
        # sequential batches, so a single hung worker can cost at most
        # that many timeout budgets — not one per job queued behind it.
        rounds = math.ceil(len(jobs) / workers)
        finished, not_done = futures_wait(
            futures, timeout=timeout_s * rounds,
        )
        timed_out = bool(not_done)
        for future in finished:
            try:
                job_id, result, seconds = future.result()
            except Exception:
                # Includes BrokenProcessPool surfaced through a future
                # (the worker crashed): the parent re-runs the job.
                continue
            done[job_id] = (result, seconds)
    except BrokenProcessPool:
        # The pool itself died at submit time (e.g. a worker was
        # OOM-killed); everything unfinished re-runs in the parent.
        pass
    finally:
        if timed_out:
            # A hung worker would block a normal shutdown forever; cut it
            # loose instead of inheriting its fate.  Snapshot the process
            # handles first: shutdown(wait=False) drops the pool's
            # reference to them.
            processes = dict(getattr(pool, "_processes", None) or {})
            for future in futures:
                future.cancel()
            pool.shutdown(wait=False)
            for proc in processes.values():
                proc.terminate()
        else:
            pool.shutdown(wait=True)
