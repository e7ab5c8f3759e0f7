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
store hygiene left lint, and again when lint was cut down to the rules
that can fire on a correct pipeline: ``report_digest`` drops the
retired families' ``family_sources`` entries and the retired rules'
rows, so the digests read the same before and after the retirement.
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
        "f9f6a8cb7dc209a896a85b726ee59684a14d570fed00c28e24c999b7d0ee0a7b",
    ),
    ("657.xz_s.2", 4): (
        ["CONC003"],
        "6f4fa3979bb73517153a8da14bc345eacf2fd66f629d6e7c30428eca4b85e3a4",
    ),
}


#: Families whose checks moved into tests or into raises where their
#: artifact is built; their scheduling entries are not part of a digest.
RETIRED_FAMILIES = frozenset({"dcfg", "perf", "invariance", "xar", "live"})

#: Rules retired with those families (plus CONC004 and MARK003/MARK005
#: from families that stay).
RETIRED_RULES = frozenset({
    "DCFG001", "DCFG002", "DCFG003", "DCFG004",
    "MARK003", "MARK004", "MARK005", "CONC004", "PERF001",
    "OBS001", "OBS002",
    "XAR001", "XAR002", "XAR003", "XAR004", "XAR005", "LIVE001",
})


def report_digest(report) -> str:
    rows = sorted(
        json.dumps(f.as_dict(), sort_keys=True) for f in report.findings
        if f.rule_id not in RETIRED_RULES
    )
    sources = {
        family: source
        for family, source in report.family_sources.items()
        if family not in RETIRED_FAMILIES
    }
    doc = {"findings": rows, "family_sources": sources}
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
