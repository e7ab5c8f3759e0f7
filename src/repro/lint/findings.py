"""Shared diagnostics core: findings, the report, and the rule registry.

Every lint pass emits :class:`Finding` objects tagged with a rule id from
:data:`RULES`.  A :class:`LintReport` aggregates them and renders either an
ASCII table (interactive use) or JSON (CI / tooling).

Rules belong to **pass families** (``Rule.family``) — the unit of
scheduling in :func:`repro.lint.runner.lint_pipeline`: a family whose
rules are all disabled never runs.
"""

import hashlib
import json
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Dict, Iterable, List, Optional, Tuple

from ..analysis.tables import ascii_table


class Severity(IntEnum):
    """Finding severity; comparisons follow escalation order."""

    INFO = 0
    WARNING = 1
    ERROR = 2

    def __str__(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Rule:
    """One registered lint rule."""

    rule_id: str
    severity: Severity
    summary: str
    #: Paper section (or design rationale) this rule enforces.
    paper_ref: str
    #: Pass family that implements the rule — the unit the runner skips
    #: when every rule of it is disabled.
    family: str = ""


def _registry(rules: Iterable[Rule]) -> Dict[str, Rule]:
    out: Dict[str, Rule] = {}
    for rule in rules:
        if rule.rule_id in out:
            raise ValueError(f"duplicate rule id {rule.rule_id!r}")
        out[rule.rule_id] = rule
    return out


#: Every rule the lint subsystem can fire, keyed by rule id.  Each one
#: checks a property of the *workload* — its marker candidates or its
#: recorded synchronization — so each can fire on a correct pipeline.
RULES: Dict[str, Rule] = _registry([
    # -- marker validity passes ------------------------------------------
    Rule("MARK001", Severity.ERROR,
         "marker PC is not a loop-header block",
         "Sec. III-C: region boundaries are loop entries",
         family="markers"),
    Rule("MARK002", Severity.ERROR,
         "marker PC lies in a library image (spin/sync loop)",
         "Sec. III-D: spin loops have schedule-dependent counts and must "
         "never bound a region", family="markers"),
    Rule("CONF005", Severity.WARNING,
         "profile produced too few slices for clustering to matter",
         "Sec. III-E: SimPoint needs a population of slices to pick "
         "representatives from", family="markers"),
    Rule("MARK006", Severity.ERROR,
         "a selected region's start marker does not dominate its end "
         "marker",
         "Sec. III-C: a region is entered at its start boundary; a "
         "thread path reaching the end marker around the start marker "
         "means the boundary pair cannot delimit the region on that "
         "thread — the finding carries the counterexample path",
         family="dominance"),
    # -- concurrency passes ----------------------------------------------
    Rule("CONC001", Severity.ERROR,
         "cycle in the lock-order graph (potential deadlock)",
         "constrained replay (Sec. III-H) enforces a recorded total sync "
         "order; a lock cycle means the order can deadlock on "
         "re-execution", family="concurrency"),
    Rule("CONC002", Severity.ERROR,
         "threads observed divergent barrier sequences",
         "fork-join model (Sec. II): every thread of a parallel region "
         "passes the same barriers in the same order",
         family="concurrency"),
    Rule("CONC003", Severity.ERROR,
         "unsynchronized conflicting accesses to a guarded block "
         "(happens-before race)",
         "Sec. III-H: replay preserves shared-memory order only for "
         "accesses ordered by the recorded synchronization",
         family="concurrency"),
])


def rule_families() -> Dict[str, List[str]]:
    """Rule ids grouped by family, in registry order."""
    out: Dict[str, List[str]] = {}
    for rule in RULES.values():
        out.setdefault(rule.family, []).append(rule.rule_id)
    return out


@dataclass(frozen=True)
class Finding:
    """One diagnostic emitted by a lint pass."""

    rule_id: str
    severity: Severity
    #: Where the finding anchors: a block name, PC, node id, lock id …
    location: str
    message: str
    #: Optional concrete counterexample: e.g. the block-name path that
    #: refutes a dominance claim.  Rendered in JSON, elided from the
    #: ASCII table.
    witness: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.rule_id not in RULES:
            raise ValueError(f"unknown rule id {self.rule_id!r}")

    @property
    def fingerprint(self) -> str:
        """Stable identity of a finding (rule + location + text)."""
        blob = "\x1f".join((self.rule_id, self.location, self.message))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:20]

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "rule_id": self.rule_id,
            "severity": str(self.severity),
            "location": self.location,
            "message": self.message,
            "fingerprint": self.fingerprint,
        }
        if self.witness is not None:
            out["witness"] = list(self.witness)
        return out


def make_finding(rule_id: str, location: str, message: str,
                 severity: Optional[Severity] = None,
                 witness: Optional[Iterable[str]] = None) -> Finding:
    """Build a finding with the rule's default severity unless overridden."""
    rule = RULES[rule_id]
    return Finding(
        rule_id=rule_id,
        severity=rule.severity if severity is None else severity,
        location=location,
        message=message,
        witness=tuple(witness) if witness is not None else None,
    )


@dataclass
class LintReport:
    """All findings of one lint run, plus render helpers."""

    subject: str
    findings: List[Finding] = field(default_factory=list)
    #: Pass names that actually ran (so "no findings" is meaningful).
    passes_run: List[str] = field(default_factory=list)
    #: Rule ids suppressed by configuration.
    disabled: List[str] = field(default_factory=list)
    #: Whether each pass family was ``computed`` or ``skipped`` (all
    #: rules disabled, or nothing to check).  Populated by
    #: :func:`repro.lint.runner.lint_pipeline`.
    family_sources: Dict[str, str] = field(default_factory=dict)

    def add(self, finding: Finding) -> None:
        self.findings.append(finding)

    def extend(self, findings: Iterable[Finding]) -> None:
        self.findings.extend(findings)

    def mark_pass(self, name: str, source: str = "computed") -> None:
        self.passes_run.append(name)
        self.family_sources[name] = source

    # -- queries ----------------------------------------------------------

    def by_severity(self, severity: Severity) -> List[Finding]:
        return [f for f in self.findings if f.severity is severity]

    @property
    def errors(self) -> List[Finding]:
        return self.by_severity(Severity.ERROR)

    @property
    def has_errors(self) -> bool:
        return bool(self.errors)

    @property
    def exit_code(self) -> int:
        """Process exit code: non-zero iff error-severity findings exist."""
        return 1 if self.has_errors else 0

    def counts(self) -> Dict[str, int]:
        out = {str(s): 0 for s in Severity}
        for f in self.findings:
            out[str(f.severity)] += 1
        return out

    # -- renderers ---------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "subject": self.subject,
            "passes_run": list(self.passes_run),
            "disabled": list(self.disabled),
            "counts": self.counts(),
            "findings": [f.as_dict() for f in self.findings],
        }
        if self.family_sources:
            out["family_sources"] = dict(self.family_sources)
        return out

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def render_table(self) -> str:
        """Human-readable report: one table row per finding, plus summary."""
        title = f"lint report for {self.subject}"
        suppressed = (
            f" (suppressed: {', '.join(self.disabled)})" if self.disabled
            else ""
        )
        if not self.findings:
            passes = ", ".join(self.passes_run) or "none"
            return f"{title}\n  no findings (passes run: {passes}){suppressed}"
        rows = [
            [f.severity, f.rule_id, f.location, f.message]
            for f in sorted(
                self.findings, key=lambda f: (-int(f.severity), f.rule_id)
            )
        ]
        counts = self.counts()
        summary = ", ".join(
            f"{n} {name}" for name, n in counts.items() if n
        )
        table = ascii_table(
            ["severity", "rule", "location", "message"], rows, title=title
        )
        return f"{table}\n{summary}{suppressed}"
