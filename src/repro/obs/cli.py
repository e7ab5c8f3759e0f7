"""``repro-obs``: read a run's telemetry and explain it.

Examples::

    repro-obs report /tmp/cache/demo-matrix-1.trace.jsonl
    repro-obs folded trace.jsonl -o stacks.folded
    repro-obs diff before.trace.jsonl after.trace.jsonl
    repro-obs export trace.jsonl --format prometheus
    repro-obs export trace.jsonl --format otlp-json -o spans.json
    repro-obs history cache/history/demo-matrix-1.history.jsonl
    repro-obs history cache/history/demo-matrix-1.history.jsonl --check

``report`` renders the per-stage/per-region breakdown, the parallel
critical-path summary, the top error contributors, and exact histogram
aggregates; ``folded`` exports flamegraph-style folded stacks; ``diff``
compares two runs' stage walls, counters, and histogram aggregates for
regression triage; ``export`` emits Prometheus text exposition or
OTLP-style JSON; ``history`` renders the run-history trend table and
gates on regressions (``--check``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .report import folded_stacks, render_diff, render_report
from .trace import DEFAULT_LIMITS, TraceError, TraceLimits, read_trace


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-obs",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--max-bytes", type=int, default=DEFAULT_LIMITS.max_bytes,
        help="parser byte budget per trace (bounded reads; default 64MiB)",
    )
    parser.add_argument(
        "--max-spans", type=int, default=DEFAULT_LIMITS.max_spans,
        help="parser span budget per trace (default 500000)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser("report", help="stage/region time breakdown")
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

    export = sub.add_parser(
        "export", help="standard-format telemetry export",
    )
    export.add_argument("trace", help="trace file (JSON lines)")
    export.add_argument(
        "--format", choices=["prometheus", "otlp-json"],
        default="prometheus", dest="fmt",
        help="prometheus text exposition (metrics) or OTLP-style JSON "
             "(spans); default: prometheus",
    )
    export.add_argument(
        "-o", "--output", default=None, metavar="FILE",
        help="write the document here (default: stdout)",
    )

    history = sub.add_parser(
        "history", help="run-history trends and regression gate",
    )
    history.add_argument(
        "history_file", help="history file (JSON lines, see repro-lint "
                             "--history for its audit)",
    )
    history.add_argument(
        "--check", action="store_true",
        help="exit 1 when the newest run regresses (accuracy/coverage) "
             "against the rolling baseline",
    )
    history.add_argument(
        "--window", type=int, default=None, metavar="N",
        help="rolling-baseline size for --check (default: 5)",
    )
    history.add_argument(
        "--last", type=int, default=20, metavar="N",
        help="trend rows to show (default: 20)",
    )
    return parser


def _cmd_export(args: argparse.Namespace, limits: TraceLimits) -> int:
    from .export import otlp_json, prometheus_text

    trace = read_trace(args.trace, limits)
    if args.fmt == "prometheus":
        text = prometheus_text(trace)
    else:
        text = json.dumps(otlp_json(trace), indent=2, sort_keys=True) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_history(args: argparse.Namespace) -> int:
    from ..analysis.tables import ascii_table
    from .history import (
        DEFAULT_WINDOW, HistoryStore, check_regression, trend_rows,
    )

    store = HistoryStore(args.history_file)
    records, corrupt = store.load()
    if not records:
        print(f"repro-obs: no history records in {args.history_file}",
              file=sys.stderr)
        return 2
    rows = trend_rows(records[-max(1, args.last):])
    print(ascii_table(
        ["when", "mode", "runtime err", "coverage", "wall",
         "looppoints", "run"],
        rows,
        title=f"run history: {records[-1].workload} "
              f"({len(records)} record(s))",
    ))
    if corrupt:
        print(f"  {corrupt} torn/corrupt line(s) skipped")
    if not args.check:
        return 0
    regressions = check_regression(
        records, window=args.window or DEFAULT_WINDOW
    )
    if regressions:
        for regression in regressions:
            print(f"REGRESSION: {regression.detail}")
        return 1
    print(
        f"history check OK: newest run holds the rolling baseline "
        f"({min(len(records) - 1, args.window or DEFAULT_WINDOW)} "
        f"prior run(s))"
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    limits = TraceLimits(max_bytes=args.max_bytes, max_spans=args.max_spans)
    try:
        if args.command == "report":
            print(render_report(read_trace(args.trace, limits)))
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
        elif args.command == "export":
            return _cmd_export(args, limits)
        elif args.command == "history":
            return _cmd_history(args)
    except TraceError as exc:
        print(f"repro-obs: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # e.g. `repro-obs report ... | head`
        sys.stderr.close()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
