"""Golden digests of ``lint_workload`` findings.

Reshaping how lint schedules its pass families must not change a single
finding.  Each digest is a sha256 over the canonical JSON of the sorted
``Finding.as_dict`` rows plus the report's ``family_sources`` (which
families were computed and which skipped).  The workloads run at tiny
scale with default pipeline and lint options.  The digests were recorded
with the incremental lint engine, before it was replaced by the serial
runner.
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
        "76ee1b25df8dd5f0afd86f43f5338dc510f41495ee54d8e6a850dffa70edddcc",
    ),
    ("657.xz_s.2", 4): (
        ["CONC003"],
        "bca228df2dc7b59ca6e9aefb716a45a3fe0dde3f18a50ed70fd79af7fb17b1bb",
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
