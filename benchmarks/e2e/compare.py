#!/usr/bin/env python3
"""Compare two results files of ``run.py``: a baseline and a candidate.

    python3 benchmarks/e2e/compare.py A.json B.json

For each workload and end-to-end metric it prints both medians, their
min/max, the change from A to B and a verdict against the bound
BENCHMARK.json fixes for that metric:

* ``better`` / ``worse``: the median moved by more than the bound;
* ``within bound``: it did not;
* ``unresolved``: the spread of either side's reps (interquartile range
  over median) exceeds the bound, so a move that size cannot be told
  from noise, unless every B value beats every A value.

It also reports whether each workload's ``sim_digest`` matches: a change
that only speeds the simulator up must leave every simulated statistic,
and so the digest, unchanged.  Exits 1 when a metric is worse, a digest
differs, or either run had failed operations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def spread(values: Sequence[float]) -> float:
    """Interquartile range of a run's reps as a share of their median
    (0 for one value).  Inclusive quartiles: with five reps the exclusive
    method would let the single slowest rep set Q3."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (q3 - q1) / abs(statistics.median(values))


def verdict(a: Dict, b: Dict, better: str, bound: float) -> str:
    lower = better == "lower"
    change = (b["median"] - a["median"]) / abs(a["median"])
    gain = -change if lower else change
    if max(spread(a["values"]), spread(b["values"])) > bound:
        b_wins = (max(b["values"]) < min(a["values"]) if lower
                  else min(b["values"]) > max(a["values"]))
        if not b_wins:
            return "unresolved"
    if gain < -bound:
        return "worse"
    if gain > bound:
        return "better"
    return "within bound"


def compare(a: Dict, b: Dict, metrics: List[Dict]) -> List[str]:
    """The report's lines, ending with the overall status line."""
    lines = [
        f"{'workload':10} {'metric':20} {'A median':>11} {'B median':>11} "
        f"{'change':>8} {'A min..max':>23} {'B min..max':>23} "
        f"{'bound':>6}  verdict"
    ]
    bad = False
    for name in sorted(set(a["workloads"]) | set(b["workloads"])):
        ra = a["workloads"].get(name)
        rb = b["workloads"].get(name)
        if ra is None or rb is None:
            lines.append(f"{name:10} only in {'B' if ra is None else 'A'}")
            continue
        for side, result in (("A", ra), ("B", rb)):
            if result["failed"]:
                bad = True
                lines.append(f"{name:10} {side} had {result['failed']} "
                             f"failed of {result['attempted']} operations")
        for spec in metrics:
            ma = ra.get("metrics", {}).get(spec["name"])
            mb = rb.get("metrics", {}).get(spec["name"])
            if ma is None or mb is None:
                continue
            v = verdict(ma, mb, spec["better"], spec["bound"])
            bad |= v == "worse"
            change = (mb["median"] - ma["median"]) / abs(ma["median"])
            lines.append(
                f"{name:10} {spec['name']:20} {ma['median']:11.5g} "
                f"{mb['median']:11.5g} {change:+8.2%} "
                f"{ma['min']:11.5g}..{ma['max']:<10.5g} "
                f"{mb['min']:11.5g}..{mb['max']:<10.5g} "
                f"{spec['bound']:6.0%}  {v}"
            )
        same = ra.get("sim_digest") == rb.get("sim_digest")
        bad |= not same
        lines.append(f"{name:10} sim_digest {'match' if same else 'DIFFER'}")
    lines.append("FAIL" if bad else "OK")
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    ap.add_argument("baseline", type=Path)
    ap.add_argument("candidate", type=Path)
    args = ap.parse_args(argv)
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    lines = compare(
        json.loads(args.baseline.read_text()),
        json.loads(args.candidate.read_text()),
        metrics,
    )
    print("\n".join(lines))
    return 1 if lines[-1] == "FAIL" else 0


if __name__ == "__main__":
    sys.exit(main())
