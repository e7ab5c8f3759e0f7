"""Golden digests of timing simulation.

Speeding up the cache hierarchy or the core model must not move a single
simulated statistic.  Each digest is a sha256 over ``(region_id,
start_cycle, end_cycle, asdict(metrics))`` of every result of four runs
on one recording (tiny scale, record seed 0):

* ``run_binary`` over the whole run;
* ``run_binary`` over marker regions, every sixth profile slice;
* ``run_pinball`` on those slices' region pinballs (with warmup);
* ``run_elfie`` on the ELFies of the same region pinballs.

Every simulation gets a fresh simulator, as the pipeline does.  The
digests were recorded with the per-line cache probe chain and one
Python ``set`` per line in the presence directory.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict

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
}

#: Every sixth profile slice is a simulated region.
REGION_STRIDE = 6

GOLDEN = {
    "lbm-train":
        "8e49d58f9090e834d1da5bb07713901ec599a1c529ec0e078c0ff1f8ada4709e",
    "xz-active":
        "4c302da888c59669259177d385d84e0fe799c9eb03bc3249cd4575c32e673340",
    "is-live":
        "912fa45981e4a366dcca65ca5e26e63c52c54131f35fa317b3637c4fbe0a91d0",
    "nab-4t":
        "2ab92a7c713bf6f41db108adaf20cb1283910b91e6ccbaefc3c4134ef8899baa",
}


def simulation_digest(case: str) -> str:
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
    results += [
        fresh().run_elfie(pinball_to_elfie(w.program, w.omp, rp))
        for rp in region_pinballs
    ]

    h = hashlib.sha256()
    for r in results:
        h.update(repr((
            r.region_id, r.start_cycle, r.end_cycle, asdict(r.metrics),
        )).encode())
        h.update(b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_simulation_matches_golden(case):
    assert simulation_digest(case) == GOLDEN[case]
