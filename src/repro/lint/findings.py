"""Shared diagnostics core: findings, the report, and the rule registry.

Every lint pass emits :class:`Finding` objects tagged with a rule id from
:data:`RULES`.  A :class:`LintReport` aggregates them and renders either an
ASCII table (interactive use) or JSON (CI / tooling); SARIF export lives in
:mod:`repro.lint.sarif` and baseline bookkeeping in
:mod:`repro.lint.baseline`.

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


#: Every rule the lint subsystem can fire, keyed by rule id.
RULES: Dict[str, Rule] = _registry([
    # -- DCFG structural passes ------------------------------------------
    Rule("DCFG001", Severity.ERROR,
         "edge-flow conservation violated at a DCFG node",
         "Sec. III-D/IV-D: per-thread edge recording must account for "
         "every node execution", family="dcfg"),
    Rule("DCFG002", Severity.ERROR,
         "DCFG node unreachable from the virtual entry",
         "Sec. IV-D: every executed block hangs off a thread's first "
         "block, which hangs off ENTRY", family="dcfg"),
    Rule("DCFG003", Severity.WARNING,
         "irreducible loop (multi-entry cycle) in the dynamic graph",
         "Sec. III-D: natural-loop detection can miss headers of "
         "irreducible regions, losing marker candidates", family="dcfg"),
    Rule("DCFG004", Severity.ERROR,
         "dominator-tree self-check mismatch",
         "Sec. III-D: loop headers derive from dominance; a wrong "
         "dominator tree silently corrupts marker selection",
         family="dcfg"),
    # -- marker validity passes ------------------------------------------
    Rule("MARK001", Severity.ERROR,
         "marker PC is not a loop-header block",
         "Sec. III-C: region boundaries are loop entries",
         family="markers"),
    Rule("MARK002", Severity.ERROR,
         "marker PC lies in a library image (spin/sync loop)",
         "Sec. III-D: spin loops have schedule-dependent counts and must "
         "never bound a region", family="markers"),
    Rule("MARK003", Severity.ERROR,
         "marker counts not monotone across slice boundaries",
         "Sec. III-C: (PC, count) markers are global execution counts, "
         "strictly increasing along the run", family="markers"),
    Rule("MARK004", Severity.ERROR,
         "slice boundaries differ between two profiling replays",
         "Sec. III-C / requirement (1a): markers must be "
         "execution-count-invariant so analysis is reproducible",
         family="invariance"),
    Rule("MARK005", Severity.ERROR,
         "marker PC resolves to no block in the program",
         "Sec. III-C: a marker names an instruction of the application",
         family="markers"),
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
    Rule("CONC004", Severity.ERROR,
         "global sync sequence (gseq) is not dense and strictly ordered",
         "Sec. III-H: the recorded total order over sync actions is what "
         "constrained replay enforces", family="concurrency"),
    # -- pipeline-config passes ------------------------------------------
    Rule("CONF001", Severity.WARNING,
         "flow-control window is large relative to the slice size",
         "Sec. III-B: equal forward progress must hold at a granularity "
         "much finer than a slice", family="config"),
    Rule("CONF002", Severity.WARNING,
         "warmup budget is shorter than one per-thread slice",
         "Sec. III-F: checkpoint warmup must cover the region's "
         "microarchitectural state", family="config"),
    Rule("CONF003", Severity.ERROR,
         "expected slice count exceeds the scale's max_slices guard",
         "DESIGN.md 6: runaway slicing indicates a mis-sized slice_size",
         family="config"),
    Rule("CONF004", Severity.ERROR,
         "startup_fraction outside [0, 1)",
         "Sec. III-E: startup exclusion is a fraction of the run",
         family="config"),
    Rule("CONF005", Severity.WARNING,
         "profile produced too few slices for clustering to matter",
         "Sec. III-E: SimPoint needs a population of slices to pick "
         "representatives from", family="config"),
    # -- fault-plan passes ------------------------------------------------
    Rule("FLT001", Severity.ERROR,
         "fault plan names an unknown injection site",
         "resilience design: a typo'd site silently injects nothing, so a "
         "resilience test would pass without testing anything",
         family="faultplan"),
    Rule("FLT002", Severity.ERROR,
         "fault-spec numeric field out of range",
         "resilience design: probability must lie in [0, 1] and hang "
         "durations must be non-negative for decisions to be "
         "well-defined", family="faultplan"),
    Rule("FLT003", Severity.ERROR,
         "fault-spec mode invalid for its site",
         "resilience design: each site understands a fixed set of modes "
         "(e.g. cache.corrupt: truncate/garbage); others are dead config",
         family="faultplan"),
    Rule("FLT004", Severity.WARNING,
         "worker.hang sleep does not exceed the job timeout",
         "resilience design: a hang shorter than job_timeout_s just slows "
         "the job down instead of exercising the timeout/terminate path",
         family="faultplan"),
    # -- performance / evidence-completeness passes -----------------------
    Rule("PERF001", Severity.WARNING,
         "analysis trace truncated at the collector's event limit",
         "perf design: a bounded trace keeps lint replays from exhausting "
         "memory, but dropped events mean block-level evidence is "
         "incomplete — findings remain valid, absences do not",
         family="perf"),
    # -- observability passes ---------------------------------------------
    Rule("OBS001", Severity.ERROR,
         "malformed span tree in a run trace",
         "obs design: spans are written on close, so an unclosed span, a "
         "worker span with no parent, or a child outside its parent's "
         "interval is evidence of a crashed/hung stage or broken "
         "cross-process stitching", family="obs"),
    Rule("OBS002", Severity.WARNING,
         "trace parse was bounded: truncated or corrupt lines skipped",
         "obs design: the bounded reader keeps damaged or huge traces "
         "from exhausting memory; findings on the parsed prefix remain "
         "valid, absences do not", family="obs"),
    Rule("OBS003", Severity.ERROR,
         "run-history record violates the schema or timestamp order",
         "obs design: the regression gate trusts the history store — a "
         "record missing required fields, carrying the wrong schema "
         "marker, or timestamped before its predecessor would silently "
         "poison the rolling baseline", family="obs"),
    # -- cross-artifact audit passes ---------------------------------------
    Rule("XAR001", Severity.ERROR,
         "BBV block universe is not a subset of the DCFG's executed "
         "blocks",
         "cross-artifact audit: the BBV matrix and the DCFG are two "
         "views of the same replay — instruction mass attributed to a "
         "block the graph never executed means one of them is corrupt or "
         "stale", family="xar"),
    Rule("XAR002", Severity.ERROR,
         "cluster instruction mass does not reconcile with the profile",
         "cross-artifact audit / Eq. (2): cluster masses must sum to the "
         "profile's filtered instructions and each multiplier must equal "
         "mass over its representative's own count — after degradation "
         "renormalization the retained weights must sum to 1",
         family="xar"),
    Rule("XAR003", Severity.ERROR,
         "selected simpoint does not land on recorded slice boundaries",
         "cross-artifact audit: a representative must name an existing "
         "slice and every slice must belong to exactly one cluster — a "
         "stale selection against a regenerated profile breaks both",
         family="xar"),
    Rule("XAR004", Severity.ERROR,
         "run-manifest stage keys diverge from the artifact-cache keys",
         "cross-artifact audit: resume trusts the journal's keys to match "
         "what current options produce; a mismatch (or a journaled "
         "artifact missing from the cache) silently mixes configurations",
         family="xar"),
    Rule("XAR005", Severity.ERROR,
         "obs metrics counters do not reconcile with trace span counts",
         "cross-artifact audit: the tracer's trace-end span count and the "
         "metrics registry's cache counters are independent observers of "
         "one run — disagreement means a torn trace or lost metrics",
         family="xar"),
    # -- live-sampling audit passes -----------------------------------------
    Rule("LIVE001", Severity.ERROR,
         "live extrapolation accounting broken",
         "live design / Eq. (2): every fast-forwarded region must belong "
         "to a cluster whose representative was simulated in detail, "
         "per-sample cluster masses must reconcile with the profile's "
         "filtered instructions under one shared multiplier, and the "
         "running error estimate must be monotone non-increasing across "
         "top-up samples", family="live"),
    # -- shared-store hygiene passes ----------------------------------------
    Rule("CACHE001", Severity.WARNING,
         "artifact store carries crash debris or corruption",
         "store design: orphaned temp files and never-released locks are "
         "breadcrumbs of crashed writers (self-healing, but a crash worth "
         "knowing about); a payload whose bytes mismatch its checksum "
         "sidecar is corruption the next load will evict and recompute",
         family="store"),
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
    #: refutes a dominance claim.  Rendered in JSON/SARIF, elided from the
    #: ASCII table.
    witness: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.rule_id not in RULES:
            raise ValueError(f"unknown rule id {self.rule_id!r}")

    @property
    def fingerprint(self) -> str:
        """Stable identity for baseline matching (rule + location + text)."""
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
    #: Findings accepted by a baseline file — real, known, and excluded
    #: from :attr:`findings` and the exit code.
    baselined: List[Finding] = field(default_factory=list)

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
    def warnings(self) -> List[Finding]:
        return self.by_severity(Severity.WARNING)

    @property
    def has_errors(self) -> bool:
        return bool(self.errors)

    @property
    def exit_code(self) -> int:
        """Process exit code: non-zero iff error-severity findings exist.

        Baselined findings do not count — with a baseline in force, only
        *new* errors fail the run.
        """
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
        if self.baselined:
            out["baselined"] = [f.as_dict() for f in self.baselined]
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
        if self.baselined:
            suppressed += f" (baselined: {len(self.baselined)})"
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
