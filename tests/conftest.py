"""Shared fixtures: small programs and workloads sized for fast tests."""

from __future__ import annotations

import pytest

from repro.config import ReproScale
from repro.exec_engine.observers import Observer
from repro.isa import ProgramBuilder, StridedAccess
from repro.isa.blocks import BRANCH_COND, BRANCH_LOOP, BranchSpec
from repro.policy import WaitPolicy
from repro.runtime import (
    Barrier,
    LoopWork,
    OmpRuntime,
    ParallelFor,
    Serial,
    ThreadProgram,
)
from repro.runtime.constructs import CriticalSpec
from repro.workloads.demo import build_demo_matrix

#: A tiny scale used by tests that exercise the scaled pipeline.
TEST_SCALE = ReproScale(
    name="test",
    slice_size_per_thread=1500,
    warmup_instructions=3000,
    input_scale={"test": 0.25, "train": 1.0, "ref": 4.0,
                 "A": 0.5, "B": 1.0, "C": 1.5},
)


def build_toy(nthreads_hint: int = 4, steps: int = 12, with_critical: bool = False):
    """A small two-phase program: parallel stencil + serial section.

    Returns ``(program, thread_program, omp)``.
    """
    pb = ProgramBuilder("toy")
    omp = OmpRuntime(pb)
    rt = pb.routine("compute")
    hdr = rt.block("hdr", ialu=3, branch=BranchSpec(BRANCH_LOOP),
                   loop_header=True)
    body = rt.block(
        "body", ialu=4, fp=2,
        loads=[StridedAccess(0x1000_0000, 8, 1 << 16, tid_offset=1 << 16)],
        stores=[StridedAccess(0x2000_0000, 8, 1 << 16, tid_offset=1 << 16)],
        branch=BranchSpec(BRANCH_LOOP), loop_header=True,
    )
    rt2 = pb.routine("serial_part")
    shdr = rt2.block("hdr", ialu=2, branch=BranchSpec(BRANCH_LOOP),
                     loop_header=True)
    sbody = rt2.block(
        "body", ialu=6,
        loads=[StridedAccess(0x3000_0000, 64, 1 << 18)],
        branch=BranchSpec(BRANCH_COND, taken_prob=0.3), loop_header=True,
    )
    crit = rt.block("crit", ialu=5)
    program = pb.finalize()

    work = LoopWork(hdr, [(body, 40)])
    swork = LoopWork(shdr, [(sbody, 25)])
    constructs = []
    for _ in range(steps):
        critical = (
            CriticalSpec(lock_id=1, block=crit, every=8)
            if with_critical else None
        )
        constructs.append(
            ParallelFor(work, total_iters=nthreads_hint * 12,
                        critical=critical)
        )
        constructs.append(Serial(swork, iters=6))
        constructs.append(Barrier())
    return program, ThreadProgram(constructs), omp


class PerEvent(Observer):
    """Forwards events one at a time to ``inner`` observers.

    With the default strict flag the driver flushes its ring before
    every sync; with ``batch_capacity=1`` as well, every block and sync
    reaches ``inner`` through ``on_block`` / ``on_sync`` in execution
    order — the per-event reference the batched paths must match.
    """

    def __init__(self, *inner):
        self.inner = inner

    def on_block(self, tid, block, repeat):
        for ob in self.inner:
            ob.on_block(tid, block, repeat)

    def on_sync(self, tid, kind, obj_id, response, gseq):
        for ob in self.inner:
            ob.on_sync(tid, kind, obj_id, response, gseq)

    def on_finish(self):
        for ob in self.inner:
            ob.on_finish()


@pytest.fixture
def toy():
    return build_toy()


@pytest.fixture
def toy_with_critical():
    return build_toy(with_critical=True)


@pytest.fixture(scope="session")
def demo_workload():
    """A small demo workload, shared (read-only) across tests."""
    return build_demo_matrix(1, nthreads=4, scale=TEST_SCALE)


@pytest.fixture(scope="session")
def demo_pinball(demo_workload):
    from repro.pinplay import record_execution

    pinball, result = record_execution(
        demo_workload.program,
        demo_workload.thread_program,
        demo_workload.omp,
        demo_workload.nthreads,
        wait_policy=WaitPolicy.PASSIVE,
        seed=7,
    )
    return pinball, result
