"""Generate the rule-reference documentation from the registry.

``docs/LINT_RULES.md`` is generated, never hand-edited: the table is
derived from :data:`repro.lint.findings.RULES` so documentation cannot
drift from the rules that actually fire.  A test asserts the committed
file matches :func:`rules_markdown` output; regenerate with::

    PYTHONPATH=src python -m repro.lint.rules_doc docs/LINT_RULES.md
"""

from __future__ import annotations

import sys
from typing import List, Optional

from .findings import RULES, rule_families

HEADER = """\
# repro-lint rule reference

<!-- GENERATED FILE - do not edit.
     Regenerate: PYTHONPATH=src python -m repro.lint.rules_doc docs/LINT_RULES.md -->

Every rule ``repro-lint`` can fire, grouped by pass family — the unit
the runner schedules and skips.  Disable individual rules with
``--disable RULE``; disabling every rule of a family skips the family's
computation entirely (disabling ``MARK006`` and every ``CONC`` rule
skips the analysis replay).  ``repro-lint --explain RULE`` prints one
rule's full rationale at the terminal.  Every rule checks a property of
the workload; the pipeline's own bookkeeping is checked by
``tests/test_pipeline_invariants.py`` and by the code that builds each
artifact (see docs/METHODOLOGY.md, "Interpreting and suppressing
findings").
"""


def _escape(text: str) -> str:
    return text.replace("|", "\\|")


def rules_markdown() -> str:
    """The complete generated markdown document."""
    lines: List[str] = [HEADER]
    for family, rule_ids in rule_families().items():
        lines.append(f"\n## Family `{family}`\n")
        lines.append("| rule | severity | summary |")
        lines.append("|---|---|---|")
        for rule_id in rule_ids:
            rule = RULES[rule_id]
            lines.append(
                f"| `{rule.rule_id}` | {rule.severity} "
                f"| {_escape(rule.summary)} |"
            )
    lines.append("")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    text = rules_markdown()
    if args:
        with open(args[0], "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
