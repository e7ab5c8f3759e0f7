"""Golden digests of the profiling replay (loop-aligned slicing + BBVs).

Making the slicing replay cheaper must not move a single bit of its
output.  Each digest is a sha256 over every ``Slice`` field (start and
end markers, the BBV bytes, filtered and total instruction counts,
per-thread filtered work, the start coordinate and the extrapolated
flag) plus the profile's ``marker_pcs``.  The offline cases run the
pipeline at tiny scale (record seed 0, serial) through its ``profile``
stage, one per end-to-end benchmark setting; the live case digests the
forced-novel ``LiveSampler`` profile (threshold 0, no top-ups, so every
region is replayed and nothing is extrapolated) on the is-live setting.
The digests were recorded with the per-event marker path of
``LoopAlignedSlicer.on_block_batch`` and the lambda-keyed sort in
``ConstrainedReplayer._walk``.
"""

from __future__ import annotations

import hashlib
import struct

import pytest

from repro import LoopPointOptions, LoopPointPipeline, WaitPolicy
from repro.analysis.online import LiveOptions, LiveSampler
from repro.config import get_scale
from repro.timing.mcsim import SimulationResult
from repro.timing.metrics import SimMetrics
from repro.workloads.registry import get_workload

#: (workload, input class, threads, wait policy) per benchmark setting.
SETTINGS = {
    "lbm-train": ("619.lbm_s.1", "train", 8, "passive"),
    "ep-train": ("npb-ep", "C", 8, "passive"),
    "xz-active": ("657.xz_s.2", "train", 4, "active"),
    "is-live": ("npb-is", "C", 8, "passive"),
}

GOLDEN = {
    "lbm-train":
        "ae6051ca9afd57df2d2f12f8eef693d7fc231938339701cdb1447141e79478e9",
    "ep-train":
        "a82f221b6ecda30d8e9e1072b320a862b10e3ebd649e6897bd4bc1aa663bc79c",
    "xz-active":
        "5d9b1a722aa1f24f8f54b76df4a7319805fc5438f40b662186fcf2c9f639e7d9",
    "is-live":
        "32e432a30a63191f6c07c64c3c8204744edc21aaa31422cec17281129cd3abd7",
    # Forced novel, the live profile is the offline one bit for bit.
    "is-live-forced-novel":
        "32e432a30a63191f6c07c64c3c8204744edc21aaa31422cec17281129cd3abd7",
}


def _marker_digest(h, marker) -> None:
    if marker is None:
        h.update(b"N")
    else:
        h.update(struct.pack("<qq", marker.pc, marker.count))


def profile_digest(slices, marker_pcs) -> str:
    h = hashlib.sha256()
    h.update(struct.pack("<q", len(slices)))
    for s in slices:
        h.update(struct.pack("<q", s.index))
        _marker_digest(h, s.start)
        _marker_digest(h, s.end)
        h.update(s.bbv.dtype.str.encode())
        h.update(s.bbv.tobytes())
        h.update(struct.pack(
            "<qqq?", s.filtered_instructions, s.total_instructions,
            s.start_filtered, s.extrapolated,
        ))
        h.update(repr(list(s.per_thread_filtered)).encode())
    h.update(repr(list(marker_pcs)).encode())
    return h.hexdigest()


def _pipeline(case: str) -> LoopPointPipeline:
    name, input_class, nthreads, wait = SETTINGS[case]
    scale = get_scale("tiny")
    workload = get_workload(name, input_class, nthreads, scale=scale)
    options = LoopPointOptions(
        wait_policy=WaitPolicy(wait), scale=scale, record_seed=0, jobs=1,
    )
    return LoopPointPipeline(workload, options=options)


def _stub_simulate(rp):
    """Deterministic stand-in timing: the live profile never reads it."""
    cycles = max(1, rp.filtered_instructions // 2)
    return SimulationResult(
        region_id=rp.region_id,
        metrics=SimMetrics(
            cycles=cycles,
            instructions=rp.total_instructions,
            filtered_instructions=rp.filtered_instructions,
        ),
        start_cycle=0,
        end_cycle=cycles,
    )


@pytest.mark.parametrize("case", sorted(SETTINGS))
def test_offline_profile_matches_golden(case):
    profile = _pipeline(case).profile()
    digest = profile_digest(profile.slices, profile.marker_pcs)
    assert digest == GOLDEN[case]


def test_forced_novel_live_profile_matches_golden():
    pipeline = _pipeline("is-live")
    program = pipeline.workload.program
    sampler = LiveSampler(
        program,
        pipeline.record(),
        [program.block_at(pc) for pc in pipeline.marker_pcs()],
        pipeline.slice_size,
        get_scale("tiny").warmup_instructions,
        _stub_simulate,
        options=LiveOptions(threshold=0.0, max_topups=0),
    )
    profile = sampler.run().profile
    digest = profile_digest(profile.slices, profile.marker_pcs)
    assert digest == GOLDEN["is-live-forced-novel"]
