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
        -p demo-matrix-1 -n 4 --no-fullsim --jobs 4 --degrade drop

``--kill-after STAGE``
    SIGKILL this process right after the run manifest journals STAGE as
    done (a shell sees exit status 137).  ``--resume`` then picks the
    run up from the manifest.
``--crash-workers``
    Every pool worker dies (``os._exit``) on its first attempt at a
    region job, which breaks the pool; the retry round runs clean.
``--fail-last-region``
    The highest-numbered region job raises wherever it runs, including
    the parent's serial fallback, so ``--degrade`` decides what the lost
    region means.

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
from repro.resilience import RunManifest


def kill_after(stage: str) -> None:
    real_done = RunManifest.done

    def done_then_die(self, done_stage, key, source="computed"):
        real_done(self, done_stage, key, source=source)
        if done_stage == stage:
            os.kill(os.getpid(), signal.SIGKILL)

    RunManifest.done = done_then_die


def crash_workers() -> None:
    real_entry = executor._pool_timed_job

    # functools.wraps keeps the name and module, so the pool still
    # pickles the entry point by reference and the workers resolve it to
    # this wrapper.
    @functools.wraps(real_entry)
    def crash_first_attempt(job, attempt, *args, **kwargs):
        if attempt == 0:
            os._exit(3)
        return real_entry(job, attempt, *args, **kwargs)

    executor._pool_timed_job = crash_first_attempt


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
    fault.add_argument("--kill-after", metavar="STAGE")
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
