"""Process-pool execution of region-simulation jobs.

The paper's headline speedups assume looppoints are simulated *in
parallel*: each selected region is independent once recorded, so throwing
``N`` workers at ``N`` regions bounds time-to-results by the largest region
rather than the sum.  This module realizes that with a
``concurrent.futures.ProcessPoolExecutor`` over the picklable
:class:`~repro.parallel.jobs.RegionJob` specs.

Robustness contract (ISSUE 2, extended by ISSUE 3):

* ``workers <= 1`` runs every job in-process through the *same* job
  function — the serial reference the equivalence tests compare against;
* each round of submissions shares a single wall-clock deadline of
  ``timeout_s`` per expected batch (``ceil(pending / workers)``), collected
  with :func:`concurrent.futures.wait` — one hung worker costs one budget,
  not one budget per job queued behind it;
* failed jobs are re-submitted up to ``retries`` times, paced by an
  exponential-backoff :class:`~repro.resilience.RetryPolicy` with seeded
  jitter instead of a tight crash loop;
* a dead worker (``BrokenProcessPool``), a timeout, or an exhausted retry
  budget degrades to an in-parent serial re-run; only if *that* also fails
  is the job reported as failed — raised by default, or returned in
  ``ExecutionOutcome.failures`` under ``raise_on_failure=False`` so the
  pipeline's degradation policy can decide.

Workers enter through :func:`_pool_timed_job`; the parent's serial paths
call :func:`_timed_job` directly, so a crash confined to the worker entry
point can kill a worker process but never the run.

The executor also measures what the paper can only estimate: per-job wall
times (their sum is the measured *serial* cost) against the fan-out's
elapsed wall time (the measured *parallel* cost).  The ratio is the
observed speedup that :func:`repro.core.speedup.compute_speedups` reports
next to the theoretical Eq. numbers.
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
from ..resilience import RetryPolicy
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
    #: Sum of per-job wall times — what a serial sweep over independently
    #: simulated regions would cost.
    serial_seconds: float
    #: Elapsed wall time of the whole fan-out.
    elapsed_seconds: float
    retries: int = 0
    serial_fallbacks: int = 0
    #: Wall time spent sleeping between retry rounds (backoff pacing).
    backoff_seconds: float = 0.0
    #: Jobs that failed even their in-parent fallback (empty unless the
    #: caller opted into ``raise_on_failure=False``).
    failed_jobs: List[int] = field(default_factory=list)
    per_job_seconds: Dict[int, float] = field(default_factory=dict)

    @property
    def measured_speedup(self) -> Optional[float]:
        """Observed serial-over-parallel wall-clock ratio."""
        if self.workers <= 1 or self.elapsed_seconds <= 0:
            return None
        return self.serial_seconds / self.elapsed_seconds


@dataclass
class ExecutionOutcome:
    """Results (in job submission order) plus the wall-clock accounting.

    ``failures`` maps job id to a one-line error description for every job
    that failed terminally; such jobs have no entry in ``results``.  It is
    always empty when ``raise_on_failure=True`` (the default) — the first
    terminal failure raises instead.
    """

    results: List[SimulationResult]
    stats: ExecutionStats
    failures: Dict[int, str] = field(default_factory=dict)


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _timed_job(job: RegionJob) -> Tuple[int, SimulationResult, float]:
    """Run one job and measure its wall time."""
    t0 = time.perf_counter()
    result = execute_region_job(job)
    return job.job_id, result, time.perf_counter() - t0


def _pool_timed_job(
    job: RegionJob,
    attempt: int,
    ctx: Optional[SpanContext] = None,
) -> Tuple[int, SimulationResult, float]:
    """Worker-process entry point: run one job attempt under a span.

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
            attempt=attempt,
        ):
            out = _timed_job(job)
        tracer.emit_metrics(scope=f"job:{job.job_id}", reset=True)
    return out


def _run_serial(
    jobs: List[RegionJob],
    retries: int = 0,
    backoff: Optional[RetryPolicy] = None,
    raise_on_failure: bool = True,
) -> ExecutionOutcome:
    t0 = time.perf_counter()
    done: Dict[int, SimulationResult] = {}
    per_job: Dict[int, float] = {}
    failures: Dict[int, str] = {}
    total_retries = 0
    backoff_seconds = 0.0
    tracer = active_tracer()
    for job in jobs:
        attempt = 0
        while True:
            try:
                with tracer.span(
                    f"region:{job.job_id}", region=job.job_id,
                    attempt=attempt,
                ):
                    job_id, result, seconds = _timed_job(job)
                done[job_id] = result
                per_job[job_id] = seconds
                break
            except Exception as exc:
                attempt += 1
                if attempt <= retries:
                    total_retries += 1
                    if backoff is not None:
                        delay = backoff.delay(attempt, key=job.job_id)
                        if delay > 0:
                            time.sleep(delay)
                            backoff_seconds += delay
                    continue
                if raise_on_failure:
                    raise
                failures[job.job_id] = _describe(exc)
                break
    elapsed = time.perf_counter() - t0
    results = [done[job.job_id] for job in jobs if job.job_id in done]
    return ExecutionOutcome(
        results=results,
        stats=ExecutionStats(
            num_jobs=len(jobs),
            workers=1,
            serial_seconds=sum(per_job.values()),
            elapsed_seconds=elapsed,
            retries=total_retries,
            backoff_seconds=backoff_seconds,
            failed_jobs=sorted(failures),
            per_job_seconds=per_job,
        ),
        failures=failures,
    )


def fanout_map(fn, tasks, workers: int, timeout_s: float = DEFAULT_JOB_TIMEOUT_S):
    """Order-preserving process-pool map over picklable ``tasks``.

    The lightweight sibling of :func:`run_region_jobs` for fanning out
    *deterministic, independent* computations (the clustering sweep's
    per-k fits): results are returned in task order, so the output is
    bit-identical to the serial ``[fn(t) for t in tasks]`` by construction.
    Any pool-level failure — a crashed worker, a hung future past the
    shared deadline, an unpicklable task — degrades to exactly that serial
    evaluation; ``fn``'s own exceptions therefore surface either way.
    """
    tasks = list(tasks)
    if workers <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    workers_now = min(workers, len(tasks))
    pool = ProcessPoolExecutor(max_workers=workers_now)
    futures: List[Future] = []
    try:
        futures = [pool.submit(fn, task) for task in tasks]
        deadline = time.monotonic() + timeout_s * math.ceil(
            len(tasks) / workers_now
        )
        results = []
        for future in futures:
            remaining = max(0.0, deadline - time.monotonic())
            results.append(future.result(timeout=remaining))
        pool.shutdown(wait=True)
        return results
    except Exception:
        # Cut loose any hung workers before falling back (a plain shutdown
        # would wait on them forever).
        processes = dict(getattr(pool, "_processes", None) or {})
        for future in futures:
            future.cancel()
        pool.shutdown(wait=False)
        for proc in processes.values():
            proc.terminate()
        return [fn(t) for t in tasks]


def run_region_jobs(
    jobs: List[RegionJob],
    workers: int,
    timeout_s: float = DEFAULT_JOB_TIMEOUT_S,
    retries: int = 1,
    backoff: Optional[RetryPolicy] = None,
    raise_on_failure: bool = True,
) -> ExecutionOutcome:
    """Execute ``jobs`` across ``workers`` processes.

    Results come back in submission order regardless of completion order.
    With ``raise_on_failure=True`` (default) a job that fails even the final
    in-parent serial fallback re-raises; with ``False`` its error lands in
    ``ExecutionOutcome.failures`` and the remaining jobs' results are still
    returned — the caller chooses what a lost region means.
    """
    if not jobs:
        return ExecutionOutcome(
            results=[],
            stats=ExecutionStats(
                num_jobs=0, workers=max(1, workers),
                serial_seconds=0.0, elapsed_seconds=0.0,
            ),
        )
    serial = workers <= 1 or len(jobs) == 1
    with active_tracer().span(
        "fanout", jobs=len(jobs), workers=max(1, workers),
        mode="serial" if serial else "pool",
    ) as span:
        if serial:
            outcome = _run_serial(
                jobs, retries=retries, backoff=backoff,
                raise_on_failure=raise_on_failure,
            )
        else:
            outcome = _run_pool(
                jobs, workers, timeout_s, retries, backoff,
                raise_on_failure,
            )
        span.set("retries", outcome.stats.retries)
        span.set("serial_fallbacks", outcome.stats.serial_fallbacks)
    _report_fanout(outcome.stats)
    return outcome


def _report_fanout(stats: ExecutionStats) -> None:
    reg = active_metrics()
    if reg is None:
        return
    reg.inc("fanout.runs")
    reg.inc("fanout.jobs", stats.num_jobs)
    reg.inc("fanout.retries", stats.retries)
    reg.inc("fanout.serial_fallbacks", stats.serial_fallbacks)
    reg.inc("fanout.failed_jobs", len(stats.failed_jobs))
    if stats.backoff_seconds > 0:
        reg.observe("fanout.backoff_seconds", stats.backoff_seconds)


def _run_pool(
    jobs: List[RegionJob],
    workers: int,
    timeout_s: float,
    retries: int,
    backoff: Optional[RetryPolicy],
    raise_on_failure: bool,
) -> ExecutionOutcome:
    t0 = time.perf_counter()
    tracer = active_tracer()
    ctx = tracer.current_context()
    by_id = {job.job_id: job for job in jobs}
    if len(by_id) != len(jobs):
        raise SimulationError("region jobs have duplicate job ids")
    done: Dict[int, SimulationResult] = {}
    per_job: Dict[int, float] = {}
    failures: Dict[int, str] = {}
    pending = list(jobs)
    attempts: Dict[int, int] = {job.job_id: 0 for job in jobs}
    total_retries = 0
    backoff_seconds = 0.0
    fallbacks: List[RegionJob] = []

    while pending:
        workers_now = min(workers, len(pending))
        pool = ProcessPoolExecutor(max_workers=workers_now)
        failed: List[RegionJob] = []
        timed_out = False
        fut_to_id: Dict[Future, int] = {}
        try:
            for job in pending:
                future = pool.submit(
                    _pool_timed_job, job, attempts[job.job_id], ctx,
                )
                fut_to_id[future] = job.job_id
            # One shared deadline per round: the slowest schedule is
            # ceil(pending / workers) sequential batches, so a single hung
            # worker can cost at most that many timeout budgets — not one
            # per job queued behind it (the old per-future accounting).
            rounds = math.ceil(len(pending) / workers_now)
            deadline = time.monotonic() + timeout_s * rounds
            not_done = set(fut_to_id)
            while not_done:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                finished, not_done = futures_wait(not_done, timeout=remaining)
                for future in finished:
                    job_id = fut_to_id[future]
                    try:
                        rid, result, seconds = future.result()
                        done[rid] = result
                        per_job[rid] = seconds
                    except Exception:
                        # Includes BrokenProcessPool surfaced through a
                        # future (the worker crashed): the job re-runs
                        # (retry budget) or falls back serially.
                        failed.append(by_id[job_id])
            if not_done:
                timed_out = True
                failed.extend(by_id[fut_to_id[f]] for f in not_done)
        except BrokenProcessPool:
            # The pool itself died at submit time (e.g. a worker was
            # OOM-killed); everything unfinished falls back.
            seen = {job.job_id for job in failed}
            failed.extend(
                job for job in pending
                if job.job_id not in done and job.job_id not in seen
            )
        finally:
            if timed_out:
                # A hung worker would block a normal shutdown forever; cut
                # it loose instead of inheriting its fate.  Snapshot the
                # process handles first: shutdown(wait=False) drops the
                # pool's reference to them.
                processes = dict(getattr(pool, "_processes", None) or {})
                for future in fut_to_id:
                    future.cancel()
                pool.shutdown(wait=False)
                for proc in processes.values():
                    proc.terminate()
            else:
                pool.shutdown(wait=True)
        pending = []
        round_delay = 0.0
        for job in failed:
            attempts[job.job_id] += 1
            if attempts[job.job_id] <= retries:
                total_retries += 1
                pending.append(job)
                if backoff is not None:
                    round_delay = max(
                        round_delay,
                        backoff.delay(attempts[job.job_id], key=job.job_id),
                    )
            else:
                fallbacks.append(job)
        if pending and round_delay > 0:
            # Rounds re-submit together, so one sleep — the largest of the
            # per-job jittered delays — paces the whole retry round.
            time.sleep(round_delay)
            backoff_seconds += round_delay

    for job in fallbacks:
        try:
            with tracer.span(
                f"region:{job.job_id}", region=job.job_id, fallback=True,
            ):
                job_id, result, seconds = _timed_job(job)
            done[job_id] = result
            per_job[job_id] = seconds
        except Exception as exc:
            if raise_on_failure:
                raise
            failures[job.job_id] = _describe(exc)

    elapsed = time.perf_counter() - t0
    results = [done[job.job_id] for job in jobs if job.job_id in done]
    return ExecutionOutcome(
        results=results,
        stats=ExecutionStats(
            num_jobs=len(jobs),
            workers=workers,
            serial_seconds=sum(per_job.values()),
            elapsed_seconds=elapsed,
            retries=total_retries,
            serial_fallbacks=len(fallbacks),
            backoff_seconds=backoff_seconds,
            failed_jobs=sorted(failures),
            per_job_seconds=per_job,
        ),
        failures=failures,
    )
