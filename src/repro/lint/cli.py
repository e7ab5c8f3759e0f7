"""``repro-lint``: the standalone lint entry point.

Examples::

    repro-lint demo-matrix-1 -n 8
    repro-lint demo-matrix-2 --json
    repro-lint demo-matrix-1 --disable CONF005 --no-invariance
    repro-lint demo-matrix-1 --cache-dir .cache   # reuse pipeline stages
    repro-lint --trace run.trace.jsonl
    repro-lint --list-rules
    repro-lint --explain MARK006

Exit status is 1 when any error-severity finding survives suppression
and 2 on bad arguments or a run that cannot be linted.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..analysis.tables import ascii_table
from ..config import get_scale
from ..errors import ReproError
from ..policy import WaitPolicy
from ..workloads.registry import get_workload
from .findings import LintReport, RULES
from .runner import LintOptions, lint_workload


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "program", nargs="?", default="demo-matrix-1",
        help="workload to lint (default: demo-matrix-1)",
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
        "--json", action="store_true",
        help="emit the report as JSON instead of a table",
    )
    parser.add_argument(
        "--disable", action="append", default=[], metavar="RULE",
        help="suppress a rule id (repeatable); disabling every rule of a "
             "pass family skips the family's computation entirely",
    )
    parser.add_argument(
        "--no-invariance", action="store_true",
        help="skip the two-replay boundary-invariance check (MARK004)",
    )
    parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="lint a run's span-trace file (OBS001/OBS002) instead "
             "of a workload; the positional program argument is ignored",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="artifact-cache directory: record/profile/select outputs "
             "are reused from and stored there",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list every lint rule and exit",
    )
    parser.add_argument(
        "--explain", default=None, metavar="RULE",
        help="print one rule's full rationale and exit",
    )
    return parser


def list_rules() -> str:
    rows = [
        [rule.rule_id, str(rule.severity), rule.family, rule.summary]
        for rule in RULES.values()
    ]
    return ascii_table(["rule", "severity", "family", "summary"], rows,
                       title="repro-lint rules")


def explain_rule(rule_id: str) -> str:
    """One rule's registry entry, rendered for the terminal."""
    rule = RULES[rule_id]
    return "\n".join([
        f"{rule.rule_id} ({rule.severity}, family {rule.family})",
        f"  {rule.summary}",
        f"  rationale: {rule.paper_ref}",
    ])


def _finish(report: LintReport, args: argparse.Namespace) -> int:
    """Render the report and return the exit code."""
    try:
        print(report.to_json() if args.json else report.render_table())
    except BrokenPipeError:  # e.g. `repro-lint --json | head`
        sys.stderr.close()
    return report.exit_code


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_rules or args.explain:
        if args.explain and args.explain not in RULES:
            parser.error(
                f"unknown rule id {args.explain!r} "
                f"(see repro-lint --list-rules)"
            )
        try:
            print(list_rules() if args.list_rules
                  else explain_rule(args.explain))
        except BrokenPipeError:  # e.g. `repro-lint --list-rules | head`
            sys.stderr.close()
        return 0

    try:
        options = LintOptions(
            check_invariance=not args.no_invariance,
            disable=frozenset(args.disable),
        )
    except ValueError as exc:
        parser.error(str(exc))

    if args.trace:
        from .obs_passes import lint_trace_file

        try:
            report = lint_trace_file(args.trace, disable=options.disable)
        except ReproError as exc:
            print(f"[repro-lint] {args.trace} FAILED: {exc}",
                  file=sys.stderr)
            return 2
        return _finish(report, args)

    from ..core.looppoint import LoopPointOptions

    scale = get_scale()
    try:
        workload = get_workload(
            args.program, args.input_class, args.ncores, scale=scale
        )
        report = lint_workload(
            workload,
            options=options,
            pipeline_options=LoopPointOptions(
                wait_policy=WaitPolicy(args.wait_policy), scale=scale,
                cache_dir=args.cache_dir,
            ),
        )
        return _finish(report, args)
    except ReproError as exc:
        print(f"[repro-lint] {args.program} FAILED: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
