"""Golden digests of offline region extraction.

``extract_region_pinballs`` must cut byte-identical region pinballs no
matter how it locates the cuts.  Each digest is a sha256 over the
canonical JSON of every region's logs, metadata, instruction totals,
``start_exec_counts`` and ``detail_positions``, with every profile slice
requested as a cut (tiny scale, 4 threads, record seed 7, passive wait).
The digests were recorded with the original per-entry extraction replay.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.config import get_scale
from repro.pinplay.recorder import record_execution
from repro.pinplay.region import RegionCut, extract_region_pinballs
from repro.policy import WaitPolicy
from repro.profiling.profile_result import profile_pinball
from repro.workloads.registry import get_workload

GOLDEN = {
    "demo-matrix-1":
        "35c92f742c59cf1b26b26b87a928f9b83be52e8c1cbbec6724118aa8a13c3bdb",
    "npb-is":
        "6fb4ef678ba2c01922c889089a37fb42c39091d3b4406f62a12412ecf6fdb8e6",
    "644.nab_s.2":
        "358581b0fceb3d5da968e077c42072a41b680b752a3495e6e353283a433804c6",
}


def region_digest(name: str) -> str:
    """sha256 of every region pinball cut from ``name``'s profile."""
    scale = get_scale("tiny")
    workload = get_workload(name, None, 4, scale=scale)
    pinball, _ = record_execution(
        workload.program, workload.thread_program, workload.omp,
        workload.nthreads, wait_policy=WaitPolicy.PASSIVE, seed=7,
    )
    profile = profile_pinball(
        workload.program, pinball, scale.slice_size(workload.nthreads)
    )
    cuts = [
        RegionCut(
            region_id=s.index, start=s.start, end=s.end,
            warmup_filtered=max(
                0, s.start_filtered - scale.warmup_instructions
            ),
        )
        for s in profile.slices
    ]
    regions = extract_region_pinballs(workload.program, pinball, cuts)
    canon = [
        {
            "region_id": r.region_id,
            "logs": r.logs,
            "metadata": r.metadata,
            "total": r.total_instructions,
            "filtered": r.filtered_instructions,
            "start_exec_counts": r.start_exec_counts,
            "detail_positions": r.detail_positions,
        }
        for r in regions
    ]
    blob = json.dumps(canon, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_region_pinballs_match_golden(name):
    assert region_digest(name) == GOLDEN[name]
