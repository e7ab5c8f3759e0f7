"""Golden digests of timing simulation.

Speeding up the cache hierarchy or the core model must not move a single
simulated statistic.  Each digest is a sha256 over ``(region_id,
start_cycle, end_cycle, asdict(metrics))`` of every result of four runs
on one recording (tiny scale, record seed 0):

* ``run_binary`` over the whole run;
* ``run_binary`` over marker regions, every sixth profile slice;
* ``run_pinball`` on those slices' region pinballs (with warmup);
* ``run_elfie`` on the ELFies of the same region pinballs.

Each case has two digests: ``"sim"`` over the first three runs and
``"elfie"`` over the last, so a change to ELFie conversion moves only the
second.  Every simulation gets a fresh simulator, as the pipeline does.
``cam4-dynamic`` pins plain dynamic-schedule chunk grants and
``imagick-single`` the grant of a ``single``, both resolved in simulated
time.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict
from typing import Dict

import pytest

from repro import WaitPolicy
from repro.config import GAINESTOWN_8CORE, get_scale
from repro.pinplay.elfie import pinball_to_elfie
from repro.pinplay.recorder import record_execution
from repro.pinplay.region import RegionCut, extract_region_pinballs
from repro.profiling.profile_result import profile_pinball
from repro.timing.mcsim import MultiCoreSimulator, RegionOfInterest
from repro.workloads.registry import get_workload

#: (workload, input class, threads, wait policy) per case; the first three
#: are the end-to-end benchmark's lbm-train, xz-active and is-live settings.
CASES = {
    "lbm-train": ("619.lbm_s.1", "train", 8, "passive"),
    "xz-active": ("657.xz_s.2", "train", 4, "active"),
    "is-live": ("npb-is", "C", 8, "passive"),
    "nab-4t": ("644.nab_s.1", "train", 4, "passive"),
    "cam4-dynamic": ("627.cam4_s.1", "train", 8, "passive"),
    "imagick-single": ("638.imagick_s.1", "train", 4, "active"),
}

#: Every sixth profile slice is a simulated region.
REGION_STRIDE = 6

GOLDEN = {
    "lbm-train": {
        "sim":
            "c98072be99e46e9706f9e147f14d94fc9557612ecfabc669492d59e9ffc1a32d",
        "elfie":
            "54626012b69798c2f83fb05351621496cd5a7fd1f91db69d14aae4852a7bf83c",
    },
    "xz-active": {
        "sim":
            "6cc42866c7e9d29451ddf5253418337f62daca1cd24bc3d4e7bb25b303ab182f",
        "elfie":
            "f260151b89b3b14fba398f9d376582158c1a1fe6e8c179f3b457b7c77725f9f0",
    },
    "is-live": {
        "sim":
            "2e3ea62e31c9662674c27aa40f5b2f55dd8e72e2b220f0457d78e82db83d210d",
        "elfie":
            "b652e9dea26394fdfc1359b6a7b933bebd9f37792b780103d29eeddaf0e96643",
    },
    "nab-4t": {
        "sim":
            "13f8df5b48c3d4e1f086f0651b1aa2294d6e891bf3b8e690bee8875281106923",
        "elfie":
            "94528bedf04b320da79eca7a93b9f4d72a28c9188828be9126af4081984f48ca",
    },
    "cam4-dynamic": {
        "sim":
            "5ae8e9305b317902d9424601776f703406be34c0a105bc7e4e1d77526e14389d",
        "elfie":
            "c4f6f658282ac311736bb67ca730a8c9bc447c7087daaa11875b979433371cd1",
    },
    "imagick-single": {
        "sim":
            "9bc2dc2cd3ff143d972c61e448bb2e68f067ff6ee8d963a5c890550a25d28359",
        "elfie":
            "e9026c7b8c0dbe4fde945164bd5eeb4953629a177f9e22bc2848a4ba5e22f2ff",
    },
}


def _digest(results) -> str:
    h = hashlib.sha256()
    for r in results:
        h.update(repr((
            r.region_id, r.start_cycle, r.end_cycle, asdict(r.metrics),
        )).encode())
        h.update(b"\0")
    return h.hexdigest()


def simulation_digests(case: str) -> Dict[str, str]:
    name, input_class, nthreads, wait = CASES[case]
    scale = get_scale("tiny")
    w = get_workload(name, input_class, nthreads, scale=scale)
    policy = WaitPolicy(wait)
    pinball, _ = record_execution(
        w.program, w.thread_program, w.omp, w.nthreads,
        wait_policy=policy, seed=0,
    )
    profile = profile_pinball(
        w.program, pinball, scale.slice_size(w.nthreads)
    )
    slices = profile.slices[::REGION_STRIDE]
    system = GAINESTOWN_8CORE.with_cores(
        max(GAINESTOWN_8CORE.num_cores, w.nthreads)
    )

    def fresh() -> MultiCoreSimulator:
        return MultiCoreSimulator(w.program, system, w.omp)

    results = list(fresh().run_binary(w.thread_program, w.nthreads, policy))
    rois = [
        RegionOfInterest(region_id=s.index, start=s.start, end=s.end)
        for s in slices
    ]
    results += fresh().run_binary(w.thread_program, w.nthreads, policy, rois)
    cuts = [
        RegionCut(
            region_id=s.index, start=s.start, end=s.end,
            warmup_filtered=max(
                0, s.start_filtered - scale.warmup_instructions
            ),
        )
        for s in slices
    ]
    region_pinballs = extract_region_pinballs(w.program, pinball, cuts)
    results += [fresh().run_pinball(rp) for rp in region_pinballs]
    elfie_results = [
        fresh().run_elfie(pinball_to_elfie(w.program, w.omp, rp))
        for rp in region_pinballs
    ]
    return {"sim": _digest(results), "elfie": _digest(elfie_results)}


@pytest.mark.parametrize("case", sorted(CASES))
def test_simulation_matches_golden(case):
    assert simulation_digests(case) == GOLDEN[case]
