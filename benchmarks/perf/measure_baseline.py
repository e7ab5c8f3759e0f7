#!/usr/bin/env python
"""Record perf-benchmark baseline walls from a repo checkout.

Runs the shared benchmark scenarios (see ``workloads.py``) against whatever
``repro`` package is importable on ``PYTHONPATH`` and writes a
``baseline.json``.  Point ``PYTHONPATH`` at a *seed* checkout's ``src`` to
record the pre-optimization baseline the harness reports speedups against:

    git worktree add .seed <seed-sha>
    PYTHONPATH=.seed/src:benchmarks/perf python benchmarks/perf/measure_baseline.py \
        --sha <seed-sha> --output benchmarks/perf/baseline.json
    git worktree remove .seed

Only seed-stable APIs are used: the engine is constructed with its
default arguments, so each checkout is measured on its own default path.
The engine scenarios have no in-process ratio; ``repro-bench`` reports
their speedup against the seed walls recorded here.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time

import numpy as np


def _median_wall(fn, reps: int) -> float:
    walls = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def measure_engine(build, reps: int):
    from repro.exec_engine.engine import ExecutionEngine
    from repro.exec_engine.observers import (
        InstructionCounter,
        SyncEventLog,
        TraceCollector,
    )
    from workloads import ENGINE_SEED, NTHREADS

    events = {}

    def one_run():
        program, tp, omp = build()
        n = NTHREADS
        obs = (
            InstructionCounter(n),
            SyncEventLog(n),
            TraceCollector(limit=None),
        )
        eng = ExecutionEngine(
            program, tp, omp, n, observers=obs, seed=ENGINE_SEED
        )
        result = eng.run()
        events["n"] = result.num_events

    wall = _median_wall(one_run, reps)
    return {
        "wall_seconds": wall,
        "events": events["n"],
        "events_per_second": events["n"] / wall,
    }


def measure_select(reps: int):
    from repro.clustering.simpoint import SimPointOptions, select_simpoints
    from workloads import build_select_population

    matrix, weights = build_select_population()
    opts = SimPointOptions(max_k=40, seed=42)

    def one_run():
        select_simpoints(matrix, weights, opts)

    return {"wall_seconds": _median_wall(one_run, reps)}


def measure_pipeline(reps: int):
    """Offline record+profile+select wall for the pipeline_e2e scenario.

    The stages live mode replaces, measured end to end with seed-stable
    APIs — the wall ``repro-bench`` reports the live pass's speedup
    against.
    """
    from repro.clustering.simpoint import SimPointOptions, select_simpoints
    from repro.pinplay.recorder import record_execution
    from repro.profiling.profile_result import profile_pinball
    from workloads import build_pipeline_workload

    workload, scale = build_pipeline_workload()
    slice_size = scale.slice_size(workload.nthreads)

    def one_run():
        pinball, _ = record_execution(
            workload.program, workload.thread_program, workload.omp,
            workload.nthreads, seed=0,
        )
        profile = profile_pinball(workload.program, pinball, slice_size)
        select_simpoints(
            profile.bbv_matrix(), profile.slice_filtered_counts(),
            SimPointOptions(seed=42),
        )

    return {"wall_seconds": _median_wall(one_run, reps)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sha", required=True,
                    help="git sha of the measured checkout")
    ap.add_argument("--output", default="benchmarks/perf/baseline.json")
    ap.add_argument("--reps", type=int, default=5)
    args = ap.parse_args(argv)

    from workloads import build_coarse, build_fine_grained

    baseline = {
        "schema": "repro-bench-baseline/1",
        "sha": args.sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "reps": args.reps,
        "scenarios": {
            "engine_fine": measure_engine(build_fine_grained, args.reps),
            "engine_coarse": measure_engine(build_coarse, args.reps),
            "select": measure_select(args.reps),
            "pipeline_e2e": measure_pipeline(args.reps),
        },
        # Minimum fast-path speedup ratio CI enforces (see bench.py):
        # measured in the same process against a legacy path, so it is
        # machine-portable, unlike the absolute walls above.  The gate
        # fires at floor * 0.75 (REGRESSION_MARGIN), and CI measures in
        # --smoke mode, so the floor must clear smoke-size ratios too.
        # pipeline_e2e's floor: the live streaming pass must stay >= 1.5x
        # faster than offline record+profile+select.  It measured ~3.1x
        # when live mode landed; building the DCFG during recording and
        # the cheaper k-means sweep sped the offline side up, and the
        # ratio now measures 1.6-2.9x (median ~1.9x, 2-core host).  The
        # engine and select scenarios have no legacy path left to ratio
        # against; their seed walls above are the reference.
        "expected_min_ratio": {
            "pipeline_e2e": 1.5,
        },
    }
    with open(args.output, "w") as fh:
        json.dump(baseline, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.output}", file=sys.stderr)
    for name, data in baseline["scenarios"].items():
        print(f"  {name}: {data}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
