"""Golden digests of recorded executions.

A recording is the engine's whole output: every thread's log (block
entries and sync actions with their global sequence numbers) and the
:class:`EngineResult` counters.  Selections (``test_select_golden.py``)
are a lossy function of the interleaving; these digests pin the
interleaving itself.  Each case records at tiny scale with seed 0 and the
default flow control, on the engine's one scheduling loop, the tape loop.
``644.nab_s.1`` has dynamic-schedule loops with critical sections, which
run each chunk as a sub-tape; its case keeps the key ``nab-generator``
and the digest recorded when such loops ran on a generator loop.
``627.cam4_s.1`` has plain dynamic-schedule loops (no critical section)
and ``638.imagick_s.1`` is the one workload with a ``single``: their
cases pin chunk grants and the single grant.
"""

from __future__ import annotations

import hashlib

import pytest

from repro import WaitPolicy
from repro.config import get_scale
from repro.pinplay.recorder import record_execution
from repro.workloads.registry import get_workload

#: (workload, input class, threads, wait policy) per case; the first four
#: are the end-to-end benchmark's workloads.
CASES = {
    "lbm-train": ("619.lbm_s.1", "train", 8, "passive"),
    "ep-train": ("npb-ep", "C", 8, "passive"),
    "xz-active": ("657.xz_s.2", "train", 4, "active"),
    "is-live": ("npb-is", "C", 8, "passive"),
    "nab-generator": ("644.nab_s.1", "train", 4, "passive"),
    "cam4-dynamic": ("627.cam4_s.1", "train", 8, "passive"),
    "imagick-single": ("638.imagick_s.1", "train", 4, "active"),
}

GOLDEN = {
    "lbm-train":
        "b892edaa49da260af9379f695d9c952db24d8c3181c96c9ac79da187cbe016d3",
    "ep-train":
        "f91b3d49e18e763eda25918338623ddd4bf1a486e058dc2a0790cc89c982d722",
    "xz-active":
        "22405dcc8415d5c0f6a4bb26a6ecb56587308252fff9c2056a259b8a4a89b8b9",
    "is-live":
        "acccd22d9edfdd2b2a6287182f8b6415ebd9c21283c02b09d9565f792d2da47c",
    "nab-generator":
        "4b7cabe43373c64f40e732f227824b97356a8cf4e24126bf7f6049c3f1818ff4",
    "cam4-dynamic":
        "3aa9d1d141a5b12e4b0c8dd254c73bf7a257c54823c8ea348fd1fd0e8e7ebe20",
    "imagick-single":
        "bcf4bd38b95db44b39faa3df413c4ec0019b56143a49d711d0bab010d22e400c",
}


def recording_digest(case: str) -> str:
    name, input_class, nthreads, wait = CASES[case]
    w = get_workload(name, input_class, nthreads, scale=get_scale("tiny"))
    pinball, result = record_execution(
        w.program, w.thread_program, w.omp, w.nthreads,
        wait_policy=WaitPolicy(wait), seed=0,
    )
    h = hashlib.sha256()
    for log in pinball.logs:
        h.update(repr(log).encode())
        h.update(b"\0")
    h.update(repr((
        result.total_instructions, result.filtered_instructions,
        result.per_thread_total, result.per_thread_filtered,
        result.exec_counts, result.num_events,
        result.wait_policy.value, result.seed,
    )).encode())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_recording_matches_golden(case):
    assert recording_digest(case) == GOLDEN[case]
