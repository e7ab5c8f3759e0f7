#!/usr/bin/env python
"""Run ``run-looppoint`` with one fault caused from outside the library.

The library has no fault hooks; this script reaches the pipeline's
recovery paths by monkeypatching it before calling
:func:`repro.cli.main` with the arguments after ``--``.  Run from the
repository root:

    PYTHONPATH=src python ci/run_faulted.py --kill-after profile -- \\
        -p demo-matrix-1 -n 4 --no-fullsim --cache-dir /tmp/cache
    PYTHONPATH=src python ci/run_faulted.py --crash-workers -- \\
        -p demo-matrix-1 -n 4 --no-fullsim --jobs 4
    PYTHONPATH=src python ci/run_faulted.py --fail-last-region -- \\
        -p demo-matrix-1 -n 4 --no-fullsim --jobs 4

``--kill-after STAGE``
    SIGKILL this process right after STAGE's artifact is durably
    published in the ``--cache-dir`` artifact cache (a shell sees exit
    status 137).  STAGE is one of the cached stages (record, dcfg,
    profile, select, live).  Rerunning the same command with the same
    ``--cache-dir`` then loads the published stages and recomputes the
    rest.
``--crash-workers``
    Every pool worker dies (``os._exit``) as soon as it starts a region
    job, which breaks the pool; every job then re-runs in the parent,
    which does not enter through the worker entry point, so the run
    finishes with the clean run's metrics.
``--fail-last-region``
    The highest-numbered region job raises wherever it runs, including
    the parent's re-run, so the run fails (exit status 1) with an error
    naming that region.

The two worker faults need ``--jobs`` > 1 and rely on the pool forking
its workers (the default on Linux up to Python 3.13), so the workers
inherit the patched module.
"""

from __future__ import annotations

import argparse
import functools
import os
import signal
import sys

from repro import cli
from repro.core import looppoint
from repro.errors import SimulationError
from repro.parallel import executor
from repro.parallel.artifacts import STAGES, ArtifactCache


def kill_after(stage: str) -> None:
    real_store = ArtifactCache.store

    def store_then_die(self, stored_stage, material, artifact):
        real_store(self, stored_stage, material, artifact)
        if stored_stage == stage:
            os.kill(os.getpid(), signal.SIGKILL)

    ArtifactCache.store = store_then_die


def crash_workers() -> None:
    real_entry = executor._pool_timed_job

    # functools.wraps keeps the name and module, so the pool still
    # pickles the entry point by reference and the workers resolve it to
    # this wrapper.
    @functools.wraps(real_entry)
    def crash(*args, **kwargs):
        os._exit(3)

    executor._pool_timed_job = crash


def fail_last_region() -> None:
    real_run = looppoint.run_region_jobs
    real_timed = executor._timed_job

    def run_losing_last(jobs, *args, **kwargs):
        doomed = max(job.job_id for job in jobs)

        def timed(job):
            if job.job_id == doomed:
                raise SimulationError(f"region {doomed} fails everywhere")
            return real_timed(job)

        executor._timed_job = timed
        try:
            return real_run(jobs, *args, **kwargs)
        finally:
            executor._timed_job = real_timed

    looppoint.run_region_jobs = run_losing_last


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        usage="%(prog)s FAULT -- RUN-LOOPPOINT-ARGS...",
    )
    fault = parser.add_mutually_exclusive_group(required=True)
    fault.add_argument("--kill-after", metavar="STAGE", choices=STAGES)
    fault.add_argument("--crash-workers", action="store_true")
    fault.add_argument("--fail-last-region", action="store_true")
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--" not in argv:
        parser.error("separate the run-looppoint arguments with --")
    split = argv.index("--")
    args = parser.parse_args(argv[:split])
    if args.kill_after:
        kill_after(args.kill_after)
    elif args.crash_workers:
        crash_workers()
    else:
        fail_last_region()
    return cli.main(argv[split + 1:])


if __name__ == "__main__":
    sys.exit(main())
