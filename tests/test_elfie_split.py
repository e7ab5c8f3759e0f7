"""An ELFie runs the same warmup as the region pinball it came from.

``pinball_to_elfie`` strips library entries, merges adjacent runs of a
block and drops unmatched lock releases, so the pinball's per-thread
detail position (a log index) has to be mapped onto the stripped code.
For every thread, the application instructions before the ELFie's detail
position must equal those before the pinball's.  The one exception is a
thread whose code ``_rekey_barriers`` truncated before the cut: its detail
position is then clamped to the end of its code.

Regions are every sixth profile slice of one recording (tiny scale, record
seed 0) of the end-to-end benchmark's four settings, with the pipeline's
warmup prefix.
"""

from __future__ import annotations

import pytest

from repro import WaitPolicy
from repro.config import get_scale
from repro.pinplay.elfie import pinball_to_elfie
from repro.pinplay.recorder import record_execution
from repro.pinplay.region import RegionCut, extract_region_pinballs
from repro.profiling.profile_result import profile_pinball
from repro.workloads.registry import get_workload

#: (workload, input class, threads, wait policy) per benchmark setting.
CASES = {
    "lbm-train": ("619.lbm_s.1", "train", 8, "passive"),
    "ep-train": ("npb-ep", "C", 8, "passive"),
    "xz-active": ("657.xz_s.2", "train", 4, "active"),
    "is-live": ("npb-is", "C", 8, "passive"),
}

REGION_STRIDE = 6


def _region_pinballs(case):
    name, input_class, nthreads, wait = CASES[case]
    scale = get_scale("tiny")
    w = get_workload(name, input_class, nthreads, scale=scale)
    pinball, _ = record_execution(
        w.program, w.thread_program, w.omp, w.nthreads,
        wait_policy=WaitPolicy(wait), seed=0,
    )
    profile = profile_pinball(
        w.program, pinball, scale.slice_size(w.nthreads)
    )
    cuts = [
        RegionCut(
            region_id=s.index, start=s.start, end=s.end,
            warmup_filtered=max(
                0, s.start_filtered - scale.warmup_instructions
            ),
        )
        for s in profile.slices[::REGION_STRIDE]
    ]
    return w, extract_region_pinballs(w.program, pinball, cuts)


@pytest.mark.parametrize("case", sorted(CASES))
def test_elfie_warmup_matches_pinball(case):
    w, region_pinballs = _region_pinballs(case)
    program = w.program
    lib_bids = {b.bid for b in program.blocks if b.image.is_library}

    def app_instructions(entries):
        return sum(
            program.blocks[e[1]].n_instr * e[2]
            for e in entries if e[0] == "b" and e[1] not in lib_bids
        )

    checked = 0
    for rp in region_pinballs:
        elfie = pinball_to_elfie(program, w.omp, rp)
        for tid in range(rp.nthreads):
            log = rp.logs[tid]
            code = elfie.thread_codes[tid]
            at = elfie.detail_positions[tid]
            warm = app_instructions(log[: rp.detail_positions[tid]])
            truncated = app_instructions(code) < app_instructions(log)
            if at == len(code) and truncated:
                assert app_instructions(code) <= warm
                continue
            assert app_instructions(code[:at]) == warm, (
                f"region {rp.region_id} thread {tid}"
            )
            checked += 1
    assert checked > 0
