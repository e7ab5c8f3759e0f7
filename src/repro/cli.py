"""``run-looppoint``: the artifact's driver script, reimplemented.

Mirrors the paper artifact's ``run-looppoint.py`` interface::

    run-looppoint -p demo-matrix-1 -n 8 --force
    run-looppoint -p demo-matrix-2,demo-matrix-3 -w active -i test --force

For each program it runs the end-to-end methodology — profiling, sampled
simulation of the selected regions, full-application reference simulation —
and prints the estimated error and speedup numbers as the final console
output, exactly the artifact's workflow (Appendix E).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from typing import List, Optional, TYPE_CHECKING

from .analysis.tables import ascii_table
from .config import default_trace_value, get_scale
from .core.looppoint import LoopPointOptions, LoopPointPipeline
from .errors import ReproError
from .obs.console import Console
from .policy import WaitPolicy
from .resilience import DegradePolicy
from .workloads.registry import get_workload, list_workloads

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .lint.runner import LintOptions


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="run-looppoint",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "-p", "--program", default="demo-matrix-1",
        help="program(s) to evaluate; comma-separated "
             "(default: demo-matrix-1)",
    )
    parser.add_argument(
        "-n", "--ncores", type=int, default=8,
        help="number of threads (default: 8)",
    )
    parser.add_argument(
        "-i", "--input-class", default=None,
        help="input class (test/train/ref for SPEC, A/B/C for NPB)",
    )
    parser.add_argument(
        "-w", "--wait-policy", choices=["passive", "active"],
        default="passive", help="OpenMP wait policy (default: passive)",
    )
    parser.add_argument(
        "-j", "--jobs", type=int, default=None, metavar="N",
        help="worker processes for region simulation (default: REPRO_JOBS "
             "or 1; 0 = one per CPU); results are bit-identical to serial",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persistent artifact cache: the record, dcfg, profile, "
             "select and live stage outputs are stored here and reused by "
             "later runs (stage outcomes are printed per workload); "
             "rerunning the same command with the same directory restarts "
             "a killed run from its last finished stage",
    )
    parser.add_argument(
        "--job-timeout", type=float, default=None, metavar="SEC",
        help="per-region wall-clock budget in a worker before the job is "
             "retried and, past the retry budget, re-run in the parent",
    )
    parser.add_argument(
        "--job-retries", type=int, default=None, metavar="N",
        help="pool re-submissions per failed region job (default: 1), "
             "paced by exponential backoff with seeded jitter",
    )
    parser.add_argument(
        "--degrade", choices=[p.value for p in DegradePolicy], default=None,
        help="policy for a region that fails retries AND serial fallback: "
             "fail (default), fallback (re-simulate binary-driven; "
             "constrained mode), or drop (renormalize cluster weights)",
    )
    parser.add_argument(
        "--trace", nargs="?", const="1", default=None, metavar="FILE",
        help="write a span trace of the run (JSON lines; inspect with "
             "repro-obs).  With no value, or REPRO_TRACE=1, the trace "
             "is written to <cache-dir or .>/<program>.trace.jsonl",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true",
        help="suppress status lines ([cache], [health], [obs], ...); the "
             "final results table and errors still print",
    )
    parser.add_argument(
        "--force", action="store_true",
        help="start a new end-to-end run (accepted for artifact "
             "compatibility; runs are always fresh in this reproduction)",
    )
    parser.add_argument(
        "--reuse-profile", action="store_true",
        help="accepted for artifact compatibility (profiles are cached "
             "within a run)",
    )
    parser.add_argument(
        "--reuse-fullsim", action="store_true",
        help="accepted for artifact compatibility",
    )
    parser.add_argument(
        "--no-fullsim", action="store_true",
        help="skip the full-application reference simulation (speedup-only "
             "evaluation, as the paper does for ref inputs)",
    )
    parser.add_argument(
        "--live", action="store_true",
        help="single-pass live sampling: profile, select, and simulate in "
             "one streaming replay — matched regions are fast-forwarded "
             "over and extrapolated, novel ones simulated in detail "
             "(Pac-Sim-style; composes with --cache-dir/--trace)",
    )
    parser.add_argument(
        "--live-threshold", type=float, default=None, metavar="D",
        help="with --live: novelty distance in signature space; a region "
             "farther than D from every cluster centroid is simulated in "
             "detail and admitted (default: 0.1; <= 0 forces every region "
             "novel, reproducing the offline profile bit-for-bit)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list known workloads and exit",
    )
    parser.add_argument(
        "--lint", action="store_true",
        help="run the repro.lint invariant checks instead of the "
             "end-to-end evaluation; exits non-zero on error findings",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="with --lint: emit the lint report as JSON",
    )
    parser.add_argument(
        "--disable", action="append", default=[], metavar="RULE",
        help="with --lint: suppress a lint rule id (repeatable)",
    )
    return parser


def lint_one(
    name: str,
    ncores: int,
    input_class: Optional[str],
    wait_policy: WaitPolicy,
    as_json: bool,
    options: "LintOptions",
) -> int:
    """Run the lint mode on one program; returns the exit code."""
    from .lint.runner import lint_workload

    scale = get_scale()
    workload = get_workload(name, input_class, ncores, scale=scale)
    report = lint_workload(
        workload,
        options=options,
        pipeline_options=LoopPointOptions(
            wait_policy=wait_policy, scale=scale
        ),
    )
    print(report.to_json() if as_json else report.render_table())
    return report.exit_code


def _trace_path_for(
    name: str,
    trace: Optional[str],
    cache_dir: Optional[str],
    multi: bool,
) -> Optional[str]:
    """Per-program trace path derivation.

    A bare ``--trace`` (or ``REPRO_TRACE=1``) defaults to
    ``<cache-dir or .>/<program>.trace.jsonl``; an explicit path is used
    as-is for one program and gets ``.<program>`` appended to its stem for
    several.
    """
    if not trace:
        return None
    if trace.lower() in ("1", "true", "on", "yes"):
        return os.path.join(cache_dir or ".", f"{name}.trace.jsonl")
    if not multi:
        return trace
    root, ext = os.path.splitext(trace)
    return f"{root}.{name}{ext or '.jsonl'}"


def run_one(
    name: str,
    ncores: int,
    input_class: Optional[str],
    wait_policy: WaitPolicy,
    simulate_full: bool,
    jobs: Optional[int] = None,
    cache_dir: Optional[str] = None,
    job_timeout_s: Optional[float] = None,
    job_retries: Optional[int] = None,
    degrade: Optional[str] = None,
    trace_path: Optional[str] = None,
    live: bool = False,
    live_threshold: Optional[float] = None,
    console: Optional[Console] = None,
) -> List[object]:
    """Run the methodology end to end on one program; returns a table row."""
    console = console or Console()
    scale = get_scale()
    t0 = time.time()
    workload = get_workload(name, input_class, ncores, scale=scale)
    overrides = {}
    if job_timeout_s is not None:
        overrides["job_timeout_s"] = job_timeout_s
    if job_retries is not None:
        overrides["job_retries"] = job_retries
    if degrade is not None:
        overrides["degrade"] = DegradePolicy(degrade)
    pipeline = LoopPointPipeline(
        workload,
        options=LoopPointOptions(
            wait_policy=wait_policy, scale=scale, jobs=jobs,
            cache_dir=cache_dir, trace_path=trace_path, **overrides,
        ),
    )
    if live:
        from .analysis.online import LiveOptions

        live_opts = (
            LiveOptions(threshold=live_threshold)
            if live_threshold is not None else LiveOptions()
        )
        result = pipeline.run_live(
            simulate_full=simulate_full, live_options=live_opts,
        )
    else:
        result = pipeline.run(simulate_full=simulate_full)
    if pipeline.artifacts is not None:
        console.status("cache", pipeline.artifacts.stats_line())
    if pipeline.last_trace is not None:
        t = pipeline.last_trace
        console.status(
            "obs",
            f"trace={t['path']} spans={t['spans']} trace_id={t['trace_id']}",
        )
    # Grep-able metric line: CI diffs these between clean, faulted and
    # killed-then-rerun runs to assert bit-identity.
    p = result.predicted
    console.status(
        "predicted",
        f"cycles={p.cycles} instructions={p.instructions} ipc={p.ipc:.6f}",
    )
    if result.live_report is not None:
        lr = result.live_report
        err = (
            f"{lr.final_error_estimate:.4f}"
            if lr.final_error_estimate is not None else "--"
        )
        # Same deal as "predicted": the live-smoke CI job diffs this line
        # between live, forced-novel, and killed-then-rerun runs.
        console.status(
            "live",
            f"regions={lr.num_regions} simulated={lr.num_simulated} "
            f"extrapolated={lr.num_skipped} clusters={lr.num_clusters} "
            f"topups={lr.topups} "
            f"coverage={lr.extrapolated_fraction * 100:.0f}% "
            f"error_estimate={err}",
        )
    health = result.health
    if not health.ok:
        console.status("health", health.summary())
    err = (
        f"{result.runtime_error_pct:.2f}%"
        if result.runtime_error_pct is not None else "--"
    )
    measured = (
        f"{result.speedup.measured_speedup:.1f}x"
        if result.speedup.measured_speedup is not None else "--"
    )
    fallbacks = health.serial_fallbacks + len(health.fallback_regions)
    wall_s = time.time() - t0
    if cache_dir:
        _record_history(
            name, workload.full_name, result, pipeline, live,
            wall_s=wall_s, cache_dir=cache_dir, console=console,
            retries=health.retries, fallbacks=fallbacks,
        )
    return [
        workload.full_name,
        result.num_slices,
        result.num_looppoints,
        err,
        f"{result.speedup.theoretical_serial:.1f}x",
        f"{result.speedup.theoretical_parallel:.1f}x",
        measured,
        health.retries,
        fallbacks,
        f"{health.retained_coverage * 100:.0f}%",
        f"{wall_s:.1f}s",
    ]


def _record_history(
    name: str,
    full_name: str,
    result: object,
    pipeline: LoopPointPipeline,
    live: bool,
    wall_s: float,
    cache_dir: str,
    console: Console,
    retries: int,
    fallbacks: int,
) -> None:
    """Append this run's headline numbers to the workload's history file.

    Best-effort: the evaluation's results must never be lost to a full
    disk or a damaged history file under ``<cache-dir>/history/``, so
    failures only print a status line.  ``repro-obs history`` renders the
    trend; ``--check`` gates on it in CI.
    """
    import hashlib

    from .obs.history import (
        HistoryError, HistoryRecord, HistoryStore, history_path_for,
    )

    ts = time.time()
    if pipeline.last_trace is not None:
        run_id = str(pipeline.last_trace["trace_id"])
    else:
        run_id = hashlib.sha256(
            f"{full_name}:{ts:.6f}:{os.getpid()}".encode()
        ).hexdigest()[:16]
    counters = {"retries": retries, "fallbacks": fallbacks,
                "slices": result.num_slices}
    if result.live_report is not None:
        lr = result.live_report
        counters["live_simulated"] = lr.num_simulated
        counters["live_extrapolated"] = lr.num_skipped
        counters["live_topups"] = lr.topups
    record = HistoryRecord(
        workload=full_name,
        mode="live" if live else "offline",
        ts=ts,
        run_id=run_id,
        runtime_error_pct=result.runtime_error_pct,
        coverage_pct=result.health.retained_coverage * 100.0,
        wall_s=wall_s,
        predicted_cycles=float(result.predicted.cycles),
        actual_cycles=(
            float(result.actual.cycles) if result.actual is not None
            else None
        ),
        num_looppoints=result.num_looppoints,
        counters=counters,
    )
    path = history_path_for(cache_dir, name)
    try:
        total = HistoryStore(path).append(record)
    except (OSError, HistoryError) as exc:
        console.status("history", f"append failed ({exc}); run unaffected")
        return
    console.status("history", f"{path} ({total} record(s))")


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list:
        print("\n".join(list_workloads()))
        return 0

    programs = [p.strip() for p in args.program.split(",") if p.strip()]
    if not programs:
        parser.error("no programs given")
    policy = WaitPolicy(args.wait_policy)
    console = Console(quiet=args.quiet)

    if args.lint or args.disable:
        # Checked without --lint too: an unknown id is a typo either way.
        from .lint.runner import LintOptions

        try:
            lint_options = LintOptions(disable=frozenset(args.disable))
        except ValueError as exc:
            parser.error(f"--disable: {exc}")

    if args.lint:
        worst = 0
        for name in programs:
            console.status(
                "run-looppoint",
                f"linting {name} (n={args.ncores}, "
                f"policy={policy.value}) ...",
            )
            try:
                worst = max(worst, lint_one(
                    name, args.ncores, args.input_class, policy,
                    args.json, lint_options,
                ))
            except ReproError as exc:
                console.error("run-looppoint", f"{name} FAILED: {exc}")
                return 2
        return worst

    if args.jobs is not None and args.jobs < 0:
        parser.error(f"--jobs must be >= 0, got {args.jobs}")
    if args.job_timeout is not None and not (
        math.isfinite(args.job_timeout) and args.job_timeout > 0
    ):
        parser.error(
            f"--job-timeout must be finite and > 0, got {args.job_timeout}"
        )
    if args.job_retries is not None and args.job_retries < 0:
        parser.error(f"--job-retries must be >= 0, got {args.job_retries}")
    if args.live_threshold is not None and not args.live:
        parser.error("--live-threshold only makes sense with --live")

    trace_value = (
        args.trace if args.trace is not None else default_trace_value()
    )
    rows = []
    for name in programs:
        console.status(
            "run-looppoint",
            f"{name} (n={args.ncores}, policy={policy.value}, "
            f"input={args.input_class or 'default'}) ...",
        )
        trace_path = _trace_path_for(
            name, trace_value, args.cache_dir, multi=len(programs) > 1,
        )
        try:
            rows.append(
                run_one(name, args.ncores, args.input_class, policy,
                        simulate_full=not args.no_fullsim,
                        jobs=args.jobs, cache_dir=args.cache_dir,
                        job_timeout_s=args.job_timeout,
                        job_retries=args.job_retries,
                        degrade=args.degrade,
                        trace_path=trace_path, live=args.live,
                        live_threshold=args.live_threshold,
                        console=console)
            )
        except ReproError as exc:
            console.error("run-looppoint", f"{name} FAILED: {exc}")
            return 1

    console.result()
    console.result(ascii_table(
        ["workload", "slices", "looppoints", "runtime err",
         "serial speedup", "parallel speedup", "measured speedup",
         "retries", "fallbacks", "coverage", "wall"],
        rows,
        title="LoopPoint end-to-end results",
    ))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
