"""``repro.lint``: workload checks for LoopPoint runs.

LoopPoint's method rests on properties of the *workload*: region
markers must be main-image natural-loop headers (paper Sec. III-C),
spin/sync loops from library images must never bound a region
(Sec. III-D), a selected region's start marker must dominate its end
marker, and the recorded synchronization must be one constrained
replay can reproduce (Sec. III-H).  This package checks exactly those
properties on demand — each of its rules can fire on a correct
pipeline.

Pass families (the scheduling unit of :func:`~repro.lint.runner.lint_pipeline`):

* :mod:`~repro.lint.marker_passes` — marker validity (main-image loop
  headers only) and the slice population clustering needs.
* :mod:`~repro.lint.dcfg_passes` — the marker-dominance certification
  (MARK006), built on the DCFG's own dominators and natural loops
  (:mod:`repro.dcfg`).
* :mod:`~repro.lint.concurrency_passes` — the sync event stream
  (lock-order cycles, barrier divergence, vector-clock happens-before
  races).

The pipeline's own bookkeeping is not linted.  What the code that builds
an artifact can check, it checks and raises on: configuration and
run-history records are rejected where they are parsed
(:class:`~repro.config.ReproScale`,
:class:`~repro.core.looppoint.LoopPointOptions`,
:class:`~repro.obs.history.HistoryStore`); constrained replay raises on
a gseq order with a hole or a duplicate; the artifact cache re-verifies
each artifact's key material and checksum on load (a mismatch is a
miss, never a wrong artifact); ``repro-obs report`` exits
1 on a malformed span tree.  The rest (DCFG flow and dominators,
profile boundaries, Eq. (2) weights, live accounting) are property tests
over genuine pipeline artifacts in ``tests/test_pipeline_invariants.py``.

Reporting: a report renders as a table or as JSON, and every finding
carries a stable ``fingerprint``; ``docs/LINT_RULES.md`` is generated
from the rule registry by :mod:`~repro.lint.rules_doc`.

Entry points: the ``repro-lint`` console script, ``run-looppoint --lint``,
and :func:`~repro.lint.runner.lint_pipeline` /
:func:`~repro.lint.runner.lint_workload` for programmatic use.
"""

from .findings import Finding, LintReport, RULES, Severity, rule_families
from .runner import LintOptions, lint_pipeline, lint_workload

__all__ = [
    "Finding",
    "LintReport",
    "RULES",
    "Severity",
    "rule_families",
    "LintOptions",
    "lint_pipeline",
    "lint_workload",
]
