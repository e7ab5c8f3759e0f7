#!/usr/bin/env python
"""Check that the live pass stays faster than offline record+profile+select.

Times two routes to a selection on demo-matrix-1 train, tiny scale,
4 threads, in this one process:

* offline: record (DCFG builder attached, as the pipeline does), replay
  once for slicing and BBVs, then the k-means/BIC sweep;
* live: record, then one ``LiveSampler`` pass (probe, classify, skip).
  Detailed simulation is stubbed, since the offline side excludes it
  too. The live side still cuts each novel region's pinball, which the
  offline route defers to simulation, so the ratio is biased against
  live mode.

One live warm-up, then the median of 3 reps per side. Exits 1 when
offline/live falls below 1.125 (a floor of 1.5 less a 25% margin).
Run from the repository root:

    PYTHONPATH=src python ci/live_pass_ratio.py
"""

from __future__ import annotations

import statistics
import sys
import time

from repro.analysis.online import LiveOptions, LiveSampler
from repro.clustering.simpoint import SimPointOptions, select_simpoints
from repro.config import get_scale
from repro.dcfg.graph import DCFGBuilder
from repro.pinplay.recorder import record_execution
from repro.profiling.profile_result import marker_blocks_from_dcfg, profile_pinball
from repro.timing.mcsim import SimulationResult
from repro.timing.metrics import SimMetrics
from repro.workloads.registry import get_workload

THRESHOLD = 1.125
REPS = 3

SCALE = get_scale("tiny")
WORKLOAD = get_workload("demo-matrix-1", "train", 4, scale=SCALE)
SLICE_SIZE = SCALE.slice_size(WORKLOAD.nthreads)


def record():
    builder = DCFGBuilder(WORKLOAD.program, WORKLOAD.nthreads)
    pinball, _ = record_execution(
        WORKLOAD.program, WORKLOAD.thread_program, WORKLOAD.omp,
        WORKLOAD.nthreads, seed=0, extra_observers=(builder,),
    )
    return pinball, marker_blocks_from_dcfg(WORKLOAD.program, builder.result())


def offline():
    pinball, markers = record()
    profile = profile_pinball(
        WORKLOAD.program, pinball, SLICE_SIZE, marker_blocks=markers
    )
    select_simpoints(
        profile.bbv_matrix(), profile.slice_filtered_counts(),
        SimPointOptions(seed=42),
    )


def stub_simulate(rp):
    cycles = max(1, rp.filtered_instructions // 2)
    return SimulationResult(
        region_id=rp.region_id,
        metrics=SimMetrics(
            cycles=cycles,
            instructions=rp.total_instructions,
            filtered_instructions=rp.filtered_instructions,
        ),
        start_cycle=0,
        end_cycle=cycles,
    )


def live():
    pinball, markers = record()
    LiveSampler(
        WORKLOAD.program, pinball, markers, SLICE_SIZE,
        SCALE.warmup_instructions, stub_simulate, options=LiveOptions(),
    ).run()


def median_wall(fn) -> float:
    walls = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def main() -> int:
    live()  # warm imports and caches
    live_wall = median_wall(live)
    offline_wall = median_wall(offline)
    ratio = offline_wall / live_wall
    ok = ratio >= THRESHOLD
    print(
        f"[{'ok' if ok else 'FAIL'}] live pass: offline {offline_wall:.4f}s, "
        f"live {live_wall:.4f}s, ratio {ratio:.2f}x (threshold {THRESHOLD}x)"
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
