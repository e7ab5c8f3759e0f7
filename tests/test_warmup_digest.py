"""Bounded warmup changes no region metric on the benchmark's settings.

``LoopPointPipeline.simulate_regions()`` fast-forwards functionally to each
looppoint's warm start and warms only from there.  On the end-to-end
benchmark's offline settings (tiny scale, record seed 0) every region's
metrics must equal perfect warmup's: ``run_binary`` over the same regions
with no warm starts.  The digest is a sha256 over ``(region_id,
asdict(metrics))`` of every region; start cycles and warm windows are left
out, since skipping the memory model before a warm start is the point.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, replace

import pytest

from repro import WaitPolicy
from repro.config import get_scale
from repro.core.looppoint import LoopPointOptions, LoopPointPipeline
from repro.workloads.registry import get_workload

#: (workload, input class, threads, wait policy, bounded regions expected).
CASES = {
    "lbm-train": ("619.lbm_s.1", "train", 8, "passive", True),
    "ep-train": ("npb-ep", "C", 8, "passive", True),
    "xz-active": ("657.xz_s.2", "train", 4, "active", False),
}

#: Recorded with perfect warmup, before warm starts existed.
GOLDEN = {
    "lbm-train":
        "c05b7aac3ab82159eca2cead91f266c5dca7184e0bc6cac7e6c3f087559afa75",
    "ep-train":
        "203c80bf4fc7d697e613146fcc721e5076e5778dde66b986326dec35151d47a1",
    "xz-active":
        "3ebb9dbcb616943fc3c9a87d16be3854535a71a8118e28a37f3470411eb3347d",
}


def _digest(results) -> str:
    blob = repr([(r.region_id, asdict(r.metrics)) for r in results])
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_bounded_equals_perfect(case):
    name, input_class, nthreads, wait, bounded = CASES[case]
    scale = get_scale("tiny")
    workload = get_workload(name, input_class, nthreads, scale=scale)
    policy = WaitPolicy(wait)
    pipeline = LoopPointPipeline(workload, options=LoopPointOptions(
        wait_policy=policy, scale=scale, record_seed=0, jobs=1,
    ))
    rois = pipeline.regions()
    assert any(r.warm_start is not None for r in rois) == bounded
    perfect = pipeline._fresh_simulator().run_binary(
        workload.thread_program, nthreads, policy,
        regions=[replace(r, warm_start=None) for r in rois],
    )
    digest = _digest(pipeline.simulate_regions())
    assert digest == _digest(perfect)
    assert digest == GOLDEN[case]
