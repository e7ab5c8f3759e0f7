"""Human-readable result tables for pipeline outputs."""

from __future__ import annotations

from typing import Optional, Sequence

from .looppoint import LoopPointResult


def format_result_table(results: Sequence[LoopPointResult]) -> str:
    """One row per workload: slices, looppoints, error, speedups, and the
    region jobs that fell back from the worker pool to the parent."""
    header = (
        f"{'workload':<38} {'slices':>6} {'lpts':>5} {'err%':>7} "
        f"{'ser(th)':>9} {'par(th)':>9} {'ser(act)':>9} {'par(act)':>9} "
        f"{'measured':>9} {'fb':>4}"
    )
    lines = [header, "-" * len(header)]
    for r in results:
        err = f"{r.runtime_error_pct:7.2f}" if r.actual is not None else "     --"
        sp = r.speedup

        def fmt(x: Optional[float]) -> str:
            return f"{x:8.1f}x" if x is not None else "      --x"

        lines.append(
            f"{r.workload:<38} {r.num_slices:>6} {r.num_looppoints:>5} {err} "
            f"{fmt(sp.theoretical_serial)} {fmt(sp.theoretical_parallel)} "
            f"{fmt(sp.actual_serial)} {fmt(sp.actual_parallel)} "
            f"{fmt(sp.measured_speedup)} {r.serial_fallbacks:>4}"
        )
    return "\n".join(lines)
