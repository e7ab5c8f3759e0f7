"""The ``repro-bench`` measurement core.

Times the pipeline's hot paths in two honest ways:

* **In-process ratio** — the ``pipeline_e2e`` scenario runs a *legacy*
  path (offline record+profile+select) and a *fast* path (the live
  streaming pass) in the same interpreter, same machine, same moment.
  The ratio is machine-portable, which is what CI gates on: a ratio
  regressing past 25% of its recorded floor fails the build.
* **Speedups vs the recorded seed baseline** — ``baseline.json`` holds
  median walls measured from the pre-optimization seed checkout (see
  ``benchmarks/perf/measure_baseline.py`` for the recipe).  The engine
  and ``select`` scenarios time their fast path alone and are judged this
  way.  Absolute speedups are machine-specific, so they are reported, not
  gated — except that they are the evidence ``BENCH_perf.json`` commits
  to.

Scenario definitions live in ``benchmarks/perf/workloads.py`` (importable
against any revision, which is how the seed baseline was recorded); this
module loads that file by repo-relative path so there is exactly one copy
of each scenario.
"""

from __future__ import annotations

import importlib.util
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, Optional

import numpy as np

from ..errors import ReproError


class BenchError(ReproError):
    """The benchmark harness cannot run (missing scenarios, bad baseline)."""


#: Fraction of a recorded ``expected_min_ratio`` a measured ratio may lose
#: before ``--check`` fails: >25% regression is a build failure.  The gate
#: therefore fires at ``floor * (1 - REGRESSION_MARGIN)`` = ``floor * 0.75``
#: — which is why a floor of 1.2 historically showed up as the mysterious
#: ``0.8999999999999999`` threshold in committed reports: that is just
#: ``1.2 * 0.75`` in binary floating point.  Thresholds are now rounded
#: before being reported (the comparison itself is unaffected: a honest
#: floor is never set within 1e-9 of a measured ratio).
REGRESSION_MARGIN = 0.25


def repo_root() -> Path:
    """The repository root, assuming the in-tree ``src`` layout."""
    return Path(__file__).resolve().parents[3]


def default_baseline_path() -> Path:
    return repo_root() / "benchmarks" / "perf" / "baseline.json"


def load_scenarios(path: Optional[Path] = None):
    """Import ``benchmarks/perf/workloads.py`` as a module, by path."""
    path = path or repo_root() / "benchmarks" / "perf" / "workloads.py"
    if not path.is_file():
        raise BenchError(
            f"scenario definitions not found at {path}; repro-bench runs "
            f"from a repository checkout (benchmarks/perf/workloads.py)"
        )
    spec = importlib.util.spec_from_file_location("repro_bench_workloads",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _median_wall(fn: Callable[[], None], reps: int) -> float:
    walls = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def _git_sha() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=repo_root(),
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    sha = out.stdout.strip()
    try:
        dirty = subprocess.run(
            ["git", "status", "--porcelain"], cwd=repo_root(),
            capture_output=True, text=True, timeout=10,
        )
        if dirty.returncode == 0 and dirty.stdout.strip():
            sha += "-dirty"
    except (OSError, subprocess.TimeoutExpired):
        pass
    return sha


def _run_engine(build, nthreads: int, seed: int) -> int:
    from ..exec_engine.engine import ExecutionEngine
    from ..exec_engine.observers import (
        InstructionCounter,
        SyncEventLog,
        TraceCollector,
    )

    program, tp, omp = build()
    observers = (
        InstructionCounter(nthreads),
        SyncEventLog(nthreads),
        TraceCollector(limit=None),
    )
    result = ExecutionEngine(
        program, tp, omp, nthreads, observers=observers, seed=seed,
    ).run()
    return result.num_events


def bench_engine(build, reps: int, nthreads: int, seed: int) -> Dict:
    """Engine wall for one scenario (no in-process ratio: the seed wall
    in ``baseline.json`` is the reference)."""
    events = _run_engine(build, nthreads, seed)  # warm imports/caches
    wall = _median_wall(lambda: _run_engine(build, nthreads, seed), reps)
    return {
        "events": events,
        "fast_wall_seconds": wall,
        "fast_events_per_second": events / wall,
    }


def bench_select(matrix, weights, max_k: int, reps: int) -> Dict:
    """``select_simpoints`` wall (no in-process ratio: the seed wall in
    ``baseline.json`` is the reference)."""
    from ..clustering.simpoint import SimPointOptions, select_simpoints

    opts = SimPointOptions(max_k=max_k, seed=42)

    def run():
        select_simpoints(matrix, weights, opts)

    run()  # warm
    return {"fast_wall_seconds": _median_wall(run, reps)}


def bench_pipeline(build, reps: int) -> Dict:
    """Offline record+profile+select (legacy) vs the live streaming pass.

    Both sides start from nothing and end with a selection.  Both record
    with the DCFG builder attached, as the pipeline does; the offline path
    then replays once for slicing and runs the k-means/BIC sweep, the live
    path streams probe+classify+skip in a single replay.
    Detailed simulation is *stubbed* on the live side because the offline
    stages being compared exclude simulation too — but the live side
    still pays for cutting each sampled region's pinball (work the
    offline path defers to its simulate stage), so the measured ratio is
    biased against live mode, not for it.
    """
    from ..analysis.online import LiveOptions, LiveSampler
    from ..clustering.simpoint import SimPointOptions, select_simpoints
    from ..dcfg.graph import DCFGBuilder
    from ..pinplay.recorder import record_execution
    from ..profiling.profile_result import (
        marker_blocks_from_dcfg,
        profile_pinball,
    )
    from ..timing.mcsim import SimulationResult
    from ..timing.metrics import SimMetrics

    workload, scale = build()
    slice_size = scale.slice_size(workload.nthreads)

    def record():
        builder = DCFGBuilder(workload.program, workload.nthreads)
        pinball, _ = record_execution(
            workload.program, workload.thread_program, workload.omp,
            workload.nthreads, seed=0, extra_observers=(builder,),
        )
        return pinball, marker_blocks_from_dcfg(
            workload.program, builder.result()
        )

    def offline():
        pinball, markers = record()
        profile = profile_pinball(
            workload.program, pinball, slice_size, marker_blocks=markers
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
            workload.program, pinball, markers, slice_size,
            scale.warmup_instructions, stub_simulate,
            options=LiveOptions(),
        ).run()

    live()  # warm imports/caches
    live_wall = _median_wall(live, reps)
    offline_wall = _median_wall(offline, reps)
    return {
        "legacy_wall_seconds": offline_wall,
        "fast_wall_seconds": live_wall,
        "ratio": offline_wall / live_wall,
    }


def load_baseline(path: Path) -> Optional[Dict]:
    if not path.is_file():
        return None
    with open(path) as fh:
        baseline = json.load(fh)
    if baseline.get("schema") != "repro-bench-baseline/1":
        raise BenchError(
            f"unrecognized baseline schema in {path}: "
            f"{baseline.get('schema')!r}"
        )
    return baseline


def run_bench(
    smoke: bool = False,
    reps: int = 5,
    baseline_path: Optional[Path] = None,
    scenarios_path: Optional[Path] = None,
) -> Dict:
    """Measure every scenario; returns the ``BENCH_perf.json`` payload.

    ``smoke`` shrinks the scenarios for CI (seconds, not minutes).  Smoke
    sizes differ from the baseline's, so speedup-vs-seed is only computed
    for full-size runs; the in-process ratio is valid in both modes.
    """
    wl = load_scenarios(scenarios_path)
    nthreads, seed = wl.NTHREADS, wl.ENGINE_SEED
    if smoke:
        reps = min(reps, 3)
        fine = lambda: wl.build_fine_grained(outer_iters=1600)
        coarse = lambda: wl.build_coarse("train")
        matrix, weights = wl.build_select_population(n=500)
        max_k = 20
    else:
        fine = wl.build_fine_grained
        coarse = wl.build_coarse
        matrix, weights = wl.build_select_population()
        max_k = 40

    scenarios = {
        "engine_fine": bench_engine(fine, reps, nthreads, seed),
        "engine_coarse": bench_engine(coarse, reps, nthreads, seed),
        "select": bench_select(matrix, weights, max_k, reps),
        # Same size in smoke and full: one rep is already sub-second.
        "pipeline_e2e": bench_pipeline(wl.build_pipeline_workload, reps),
    }

    baseline = load_baseline(baseline_path or default_baseline_path())
    speedups = None
    if baseline is not None and not smoke:
        speedups = {}
        for name, data in scenarios.items():
            base = baseline["scenarios"].get(name)
            if base is not None:
                speedups[name] = (
                    base["wall_seconds"] / data["fast_wall_seconds"]
                )

    return {
        "schema": "repro-bench/1",
        "sha": _git_sha(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "smoke": smoke,
        "reps": reps,
        "config": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            "nthreads": nthreads,
            "engine_seed": seed,
        },
        "scenarios": scenarios,
        "baseline_sha": baseline["sha"] if baseline else None,
        "speedup_vs_baseline": speedups,
    }


def check_report(
    report: Dict,
    baseline: Dict,
    *,
    require_fresh_baseline: bool = False,
) -> Dict:
    """Gate the in-process ratios against the baseline's recorded floors.

    A scenario fails when its measured legacy/fast ratio falls more than
    :data:`REGRESSION_MARGIN` below ``expected_min_ratio`` — i.e. the fast
    path regressed by >25% relative to what was recorded when the
    optimization landed (the threshold is ``floor * 0.75``).

    The verdict also audits provenance: a report whose ``baseline_sha``
    differs from the baseline's ``sha`` was recorded against a *different*
    baseline than the one now in the tree — its ratios may gate against
    floors that no longer exist.  Such a report is flagged ``stale``; with
    ``require_fresh_baseline`` the staleness is a failure (CI checks
    committed evidence this way), without it a warning.
    """
    expected = baseline.get("expected_min_ratio", {})
    checks = []
    for name, floor in sorted(expected.items()):
        data = report["scenarios"].get(name)
        if data is None:
            checks.append({
                "scenario": name, "pass": False,
                "reason": "scenario missing from this run",
            })
            continue
        threshold = round(floor * (1.0 - REGRESSION_MARGIN), 9)
        ok = data["ratio"] >= threshold
        checks.append({
            "scenario": name,
            "ratio": data["ratio"],
            "expected_min_ratio": floor,
            "threshold": threshold,
            "pass": ok,
        })
    recorded_sha = report.get("baseline_sha")
    current_sha = baseline.get("sha")
    stale = (
        recorded_sha is not None
        and current_sha is not None
        and recorded_sha != current_sha
    )
    checks.append({
        "scenario": "baseline_sha",
        "recorded": recorded_sha,
        "current": current_sha,
        "stale": stale,
        "pass": not (stale and require_fresh_baseline),
    })
    return {"checks": checks, "pass": all(c["pass"] for c in checks)}


def write_report(report: Dict, path: Path) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def format_summary(report: Dict) -> str:
    lines = [f"repro-bench @ {report['sha'] or '?'} "
             f"({'smoke' if report['smoke'] else 'full'}, "
             f"reps={report['reps']})"]
    for name, data in report["scenarios"].items():
        line = f"  {name:14s} fast {data['fast_wall_seconds']:.4f}s"
        if "ratio" in data:
            line += (
                f"  legacy {data['legacy_wall_seconds']:.4f}s"
                f"  ratio {data['ratio']:.2f}x"
            )
        if report.get("speedup_vs_baseline"):
            s = report["speedup_vs_baseline"].get(name)
            if s is not None:
                line += f"  speedup vs seed {s:.2f}x"
        lines.append(line)
    return "\n".join(lines)


def main_check(
    report: Dict,
    baseline_path: Path,
    *,
    require_fresh_baseline: bool = False,
) -> int:
    baseline = load_baseline(baseline_path)
    if baseline is None:
        print(f"no baseline at {baseline_path}; nothing to check",
              file=sys.stderr)
        return 2
    verdict = check_report(
        report, baseline, require_fresh_baseline=require_fresh_baseline
    )
    report["check"] = verdict
    for c in verdict["checks"]:
        status = "ok" if c["pass"] else "FAIL"
        if "ratio" in c:
            print(
                f"  [{status}] {c['scenario']}: ratio "
                f"{c['ratio']:.2f}x (floor {c['expected_min_ratio']:.2f}x, "
                f"threshold {c['threshold']:.2f}x)",
                file=sys.stderr,
            )
        elif c["scenario"] == "baseline_sha":
            if c["stale"]:
                print(
                    f"  [{status}] baseline_sha: report was recorded "
                    f"against {c['recorded']!r} but the tree's baseline "
                    f"is {c['current']!r} (stale evidence — re-run "
                    f"repro-bench)",
                    file=sys.stderr,
                )
            else:
                print(
                    f"  [{status}] baseline_sha: {c['current']!r}",
                    file=sys.stderr,
                )
        else:
            print(f"  [{status}] {c['scenario']}: {c['reason']}",
                  file=sys.stderr)
    return 0 if verdict["pass"] else 1
