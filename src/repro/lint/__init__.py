"""``repro.lint``: static analysis & invariant verification for LoopPoint runs.

LoopPoint's correctness rests on structural invariants the rest of the code
assumes: region markers must be main-image natural-loop headers with
execution-count-invariant global counts (paper Sec. III-C), spin/sync loops
from library images must never bound a region (Sec. III-D), and constrained
replay must reproduce the recorded shared-memory/sync order.  This package
*checks* those invariants on demand, turning silent profile corruption into
actionable diagnostics.

Pass families (the scheduling unit of :func:`~repro.lint.runner.lint_pipeline`):

* :mod:`~repro.lint.dcfg_passes` — DCFG structure (flow conservation,
  reachability, irreducibility, dominator self-check) plus the
  marker-dominance certification (MARK006), built on the generic worklist
  dataflow solver in :mod:`~repro.lint.dataflow`.
* :mod:`~repro.lint.marker_passes` — marker validity (main-image loop
  headers only, monotone counts, two-replay invariance) and the slice
  population clustering needs.
* :mod:`~repro.lint.concurrency_passes` — the sync event stream (lock-order
  cycles, barrier divergence, vector-clock happens-before races, gseq
  integrity).
* :mod:`~repro.lint.xar_passes` — cross-artifact audits: BBV vs DCFG
  block universes, cluster-weight reconciliation, selection/slice
  boundary agreement, manifest vs cache keys, trace vs metrics counters.
* :mod:`~repro.lint.obs_passes` — span-trace well-formedness.

Configuration, fault plans and run-history records are not linted: their
loaders (:class:`~repro.config.ReproScale`,
:class:`~repro.core.looppoint.LoopPointOptions` and
:class:`~repro.core.looppoint.LoopPointPipeline`,
:class:`~repro.resilience.FaultSpec`,
:class:`~repro.obs.history.HistoryStore`) reject bad input where it is
parsed, so a run that never calls lint is still checked.

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
