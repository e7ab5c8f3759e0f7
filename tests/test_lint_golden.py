"""Golden digests of ``lint_workload`` findings.

Reshaping how lint schedules its pass families must not change a single
finding.  Each digest is a sha256 over the canonical JSON of the sorted
``Finding.as_dict`` rows plus the report's ``family_sources`` (which
families were computed and which skipped).  The workloads run at tiny
scale with default pipeline and lint options.  The digests were recorded
with the incremental lint engine, before it was replaced by the serial
runner, and re-recorded from the same reports with only the ``config``
family's entry dropped when that family's checks moved into the config
loaders, and again with only the ``store`` family's entry dropped when
store hygiene left lint.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.config import get_scale
from repro.core.looppoint import LoopPointOptions
from repro.lint import lint_workload
from repro.workloads.registry import get_workload

#: (workload, threads) -> (finding rule ids, digest).
GOLDEN = {
    ("demo-matrix-1", 8): (
        [],
        "89f2b7de59ea09435b286fb8f689fbf6a6a1abd4a68bdfdd88736f15ed63efd0",
    ),
    ("657.xz_s.2", 4): (
        ["CONC003"],
        "7bf576b23ce9138195bab119b968a362990e4bd8edd65b6ac2a7c8683cf4a962",
    ),
}


def report_digest(report) -> str:
    rows = sorted(
        json.dumps(f.as_dict(), sort_keys=True) for f in report.findings
    )
    doc = {"findings": rows, "family_sources": report.family_sources}
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()
    ).hexdigest()


@pytest.mark.parametrize("name,nthreads", sorted(GOLDEN))
def test_lint_findings_match_golden(name, nthreads):
    scale = get_scale("tiny")
    workload = get_workload(name, None, nthreads, scale=scale)
    report = lint_workload(
        workload, pipeline_options=LoopPointOptions(scale=scale)
    )
    rule_ids, digest = GOLDEN[(name, nthreads)]
    assert [f.rule_id for f in report.findings] == rule_ids
    assert report_digest(report) == digest
