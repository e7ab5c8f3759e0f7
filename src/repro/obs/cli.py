"""``repro-obs``: read a run's telemetry and explain it.

Examples::

    repro-obs report /tmp/cache/demo-matrix-1.trace.jsonl
    repro-obs folded trace.jsonl -o stacks.folded
    repro-obs diff before.trace.jsonl after.trace.jsonl
    repro-obs history cache/history/demo-matrix-1.history.jsonl
    repro-obs history cache/history/demo-matrix-1.history.jsonl --check

``report`` renders the per-stage/per-region breakdown, the parallel
critical-path summary, the top error contributors, and exact histogram
aggregates; its header names every span-tree defect (unclosed spans, a
missing trace-end, orphaned or non-nested spans), and it exits 1 when an
untruncated trace has one.  ``folded`` exports flamegraph-style folded
stacks; ``diff`` compares two runs' stage walls, counters, and histogram
aggregates for regression triage; ``history`` renders the run-history trend table and
gates on regressions (``--check``).  Every count option must be at
least 1; a smaller value exits 2.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .history import DEFAULT_WINDOW, HistoryError
from .report import folded_stacks, render_diff, render_report
from .trace import (
    DEFAULT_LIMITS, TraceError, TraceLimits, check_span_tree, read_trace,
)


def _positive_int(text: str) -> int:
    """argparse type for count options: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-obs",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--max-bytes", type=_positive_int, default=DEFAULT_LIMITS.max_bytes,
        help="parser byte budget per trace (bounded reads; default 64MiB)",
    )
    parser.add_argument(
        "--max-spans", type=_positive_int, default=DEFAULT_LIMITS.max_spans,
        help="parser span budget per trace (default 500000)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser(
        "report", help="stage/region time breakdown; exits 1 on a "
                       "span-tree defect in an untruncated trace",
    )
    report.add_argument("trace", help="trace file (JSON lines)")

    folded = sub.add_parser(
        "folded", help="flamegraph-style folded-stacks export"
    )
    folded.add_argument("trace", help="trace file (JSON lines)")
    folded.add_argument(
        "-o", "--output", default=None, metavar="FILE",
        help="write folded stacks here (default: stdout)",
    )

    diff = sub.add_parser("diff", help="compare two runs' traces")
    diff.add_argument("trace_a", help="baseline trace file")
    diff.add_argument("trace_b", help="comparison trace file")

    history = sub.add_parser(
        "history", help="run-history trends and regression gate",
    )
    history.add_argument(
        "history_file", help="history file (JSON lines; a record that "
                             "violates the schema or time order exits 2)",
    )
    history.add_argument(
        "--check", action="store_true",
        help="exit 1 when the newest run's accuracy regresses "
             "against the rolling baseline",
    )
    history.add_argument(
        "--window", type=_positive_int, default=DEFAULT_WINDOW, metavar="N",
        help=f"rolling-baseline size for --check (default: {DEFAULT_WINDOW})",
    )
    history.add_argument(
        "--last", type=_positive_int, default=20, metavar="N",
        help="trend rows to show (default: 20)",
    )
    return parser


def _cmd_history(args: argparse.Namespace) -> int:
    from ..analysis.tables import ascii_table
    from .history import HistoryStore, check_regression, trend_rows

    store = HistoryStore(args.history_file)
    records, corrupt = store.load()
    if not records:
        print(f"repro-obs: no history records in {args.history_file}",
              file=sys.stderr)
        return 2
    rows = trend_rows(records[-args.last:])
    print(ascii_table(
        ["when", "mode", "runtime err", "wall",
         "looppoints", "run"],
        rows,
        title=f"run history: {records[-1].workload} "
              f"({len(records)} record(s))",
    ))
    if corrupt:
        print(f"  {corrupt} torn/corrupt line(s) skipped")
    if not args.check:
        return 0
    regressions = check_regression(records, window=args.window)
    if regressions:
        for regression in regressions:
            print(f"REGRESSION: {regression.detail}")
        return 1
    print(
        f"history check OK: newest run holds the rolling baseline "
        f"({min(len(records) - 1, args.window)} "
        f"prior run(s))"
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    limits = TraceLimits(max_bytes=args.max_bytes, max_spans=args.max_spans)
    try:
        if args.command == "report":
            trace = read_trace(args.trace, limits)
            print(render_report(trace))
            if not trace.truncated and check_span_tree(trace):
                return 1
        elif args.command == "folded":
            text = folded_stacks(read_trace(args.trace, limits))
            if args.output:
                with open(args.output, "w", encoding="utf-8") as fh:
                    fh.write(text + "\n")
                print(f"wrote {args.output}", file=sys.stderr)
            else:
                print(text)
        elif args.command == "diff":
            print(render_diff(
                read_trace(args.trace_a, limits),
                read_trace(args.trace_b, limits),
            ))
        elif args.command == "history":
            return _cmd_history(args)
    except (TraceError, HistoryError) as exc:
        print(f"repro-obs: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # e.g. `repro-obs report ... | head`
        sys.stderr.close()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
