#!/usr/bin/env python
"""Run ``run-looppoint`` with one fault caused from outside the library.

The library has no fault hooks; this script reaches the pipeline's
recovery paths by monkeypatching it before calling
:func:`repro.cli.main` with the arguments after ``--``.  Run from the
repository root:

    PYTHONPATH=src python ci/run_faulted.py --kill-after profile -- \\
        -p demo-matrix-1 -n 4 --no-fullsim --cache-dir /tmp/cache

``--kill-after STAGE``
    SIGKILL this process right after STAGE's artifact is durably
    published in the ``--cache-dir`` artifact cache (a shell sees exit
    status 137).  STAGE is one of the cached stages (record, dcfg,
    profile, select, live).  Rerunning the same command with the same
    ``--cache-dir`` then loads the published stages and recomputes the
    rest.

Worker faults have no CLI path: ``run-looppoint`` drives the binary and
live routes, and neither fans out.  The test suite causes them on
checkpoint-driven runs instead (``tests/test_resilience.py``).
"""

from __future__ import annotations

import argparse
import os
import signal
import sys

from repro import cli
from repro.parallel.artifacts import STAGES, ArtifactCache


def kill_after(stage: str) -> None:
    real_store = ArtifactCache.store

    def store_then_die(self, stored_stage, material, artifact):
        real_store(self, stored_stage, material, artifact)
        if stored_stage == stage:
            os.kill(os.getpid(), signal.SIGKILL)

    ArtifactCache.store = store_then_die


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        usage="%(prog)s --kill-after STAGE -- RUN-LOOPPOINT-ARGS...",
    )
    parser.add_argument(
        "--kill-after", metavar="STAGE", choices=STAGES, required=True,
    )
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--" not in argv:
        parser.error("separate the run-looppoint arguments with --")
    split = argv.index("--")
    args = parser.parse_args(argv[:split])
    kill_after(args.kill_after)
    return cli.main(argv[split + 1:])


if __name__ == "__main__":
    sys.exit(main())
