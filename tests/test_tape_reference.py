"""The tape loop against the generator-driven reference engine.

A granted dynamic-schedule chunk or ``single`` runs as its own sub-tape;
a critical section's lock syncs can block the thread partway through a
chunk.  Over generated programs — static and dynamic loops with and
without critical and atomic sections (chunk size, frequencies, iteration
count, nowait and reduction), single, master and serial phases, thread
count, wait policy, flow control and ring capacity — the engine must
produce exactly the :class:`EngineResult` and :class:`Recorder` logs of
:class:`~reference_engine.ReferenceEngine`, which resumes the
constructs' generators one event at a time.  So must every registered
workload with chunk or single grants.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import get_scale
from repro.errors import DeadlockError
from repro.exec_engine import engine as engine_module
from repro.exec_engine.engine import ExecutionEngine
from repro.exec_engine.events import BarrierWait
from repro.exec_engine.flowcontrol import FlowControl
from repro.exec_engine.schedcore import DONE_OP, OP_SYNC
from repro.isa import ProgramBuilder, StridedAccess
from repro.isa.blocks import BRANCH_LOOP, BranchSpec
from repro.perf.ring import DEFAULT_CAPACITY
from repro.pinplay.recorder import Recorder
from repro.policy import WaitPolicy
from repro.runtime import (
    LoopWork,
    Master,
    OmpRuntime,
    ParallelFor,
    Serial,
    Single,
    ThreadProgram,
)
from repro.runtime.constructs import (
    SCHEDULE_DYNAMIC,
    SCHEDULE_STATIC,
    AtomicSpec,
    CriticalSpec,
)
from repro.workloads.registry import get_workload

from conftest import build_toy
from reference_engine import ReferenceEngine


def _build_program():
    pb = ProgramBuilder("dyncrit")
    omp = OmpRuntime(pb)
    rt = pb.routine("kernel")
    hdr = rt.block("hdr", ialu=3, branch=BranchSpec(BRANCH_LOOP),
                   loop_header=True)
    body = rt.block(
        "body", ialu=4, fp=1,
        loads=[StridedAccess(0x1000_0000, 8, 1 << 14, tid_offset=1 << 14)],
        branch=BranchSpec(BRANCH_LOOP), loop_header=True,
    )
    crit = rt.block("crit", ialu=5)
    atom = rt.block("atom", ialu=2)
    return pb.finalize(), omp, hdr, body, crit, atom


PROGRAM, OMP, HDR, BODY, CRIT, ATOM = _build_program()

#: Trip counts: constant (tiled pattern), above the batch limit (split
#: into several events), and iteration-dependent (explicit tables).
TRIPS = {
    "const": 12,
    "batched": 150,
    "varying": lambda i: 5 + (i * 37) % 90,
}

loop_specs = st.fixed_dictionaries({
    "chunk": st.integers(1, 5),
    "every": st.integers(1, 6),
    "total_iters": st.integers(0, 40),
    "atomic_every": st.none() | st.integers(1, 4),
    "nowait": st.booleans(),
    "reduction": st.booleans(),
    "trips": st.sampled_from(sorted(TRIPS)),
})


#: A loop: a spec, a schedule, and whether it has a critical section.
loops = st.tuples(
    st.just("loop"),
    loop_specs,
    st.sampled_from([SCHEDULE_STATIC, SCHEDULE_DYNAMIC]),
    st.booleans(),
)
#: A phase one thread, or the first to arrive, runs alone.
solos = st.tuples(
    st.sampled_from(["single", "master", "serial"]),
    st.integers(0, 6),
    st.sampled_from(sorted(TRIPS)),
)
phases = st.lists(loops | solos, min_size=1, max_size=3)

_SOLO = {"single": Single, "master": Master, "serial": Serial}


def build_phases(phase_list):
    """The thread program of ``phase_list`` and how often it runs the
    loop header.  Loops ``k`` and ``k + 2`` share a lock."""
    constructs = []
    header_runs = 0
    for k, phase in enumerate(phase_list):
        if phase[0] == "loop":
            _kind, spec, schedule, critical = phase
            atom_every = spec["atomic_every"]
            constructs.append(ParallelFor(
                LoopWork(HDR, [(BODY, TRIPS[spec["trips"]])]),
                total_iters=spec["total_iters"],
                schedule=schedule,
                chunk=spec["chunk"],
                nowait=spec["nowait"],
                reduction=spec["reduction"],
                critical=(CriticalSpec(lock_id=1 + k % 2, block=CRIT,
                                       every=spec["every"])
                          if critical else None),
                atomic=(AtomicSpec(ATOM, every=atom_every)
                        if atom_every is not None else None),
            ))
            header_runs += spec["total_iters"]
        else:
            kind, iters, trips = phase
            work = LoopWork(HDR, [(BODY, TRIPS[trips])])
            constructs.append(_SOLO[kind](work, iters))
            header_runs += iters
    return ThreadProgram(constructs), header_runs


def _run(engine_cls, tp, nthreads, **kwargs):
    recorder = Recorder(nthreads)
    result = engine_cls(
        PROGRAM, tp, OMP, nthreads, observers=(recorder,), **kwargs
    ).run()
    return result, recorder.logs


@settings(max_examples=200, deadline=None)
@given(
    phase_list=phases,
    nthreads=st.integers(1, 8),
    policy=st.sampled_from([WaitPolicy.PASSIVE, WaitPolicy.ACTIVE]),
    flow=st.booleans(),
    capacity=st.sampled_from([1, DEFAULT_CAPACITY]),
    seed=st.integers(0, 2**16),
)
def test_dynamic_critical_tape_matches_reference(
    phase_list, nthreads, policy, flow, capacity, seed
):
    """Generated phases: dynamic loops with and without critical sections,
    static loops, single, master and serial."""
    tp, _header_runs = build_phases(phase_list)
    kwargs = dict(
        wait_policy=policy, seed=seed, batch_capacity=capacity,
        flow_control=FlowControl(window=200) if flow else None,
    )
    assert _run(ExecutionEngine, tp, nthreads, **kwargs) == _run(
        ReferenceEngine, tp, nthreads, **kwargs
    )


#: The registered workloads whose tapes hold chunk or single ops (at tiny
#: scale): dynamic-schedule loops, with a critical section in nab, and
#: imagick's ``single``.
GRANT_WORKLOADS = [
    "607.cactuBSSN_s.1",
    "621.wrf_s.1",
    "627.cam4_s.1",
    "638.imagick_s.1",
    "644.nab_s.1",
    "644.nab_s.2",
    "npb-ua",
]


@pytest.mark.parametrize("name", GRANT_WORKLOADS)
@pytest.mark.parametrize("policy", [WaitPolicy.PASSIVE, WaitPolicy.ACTIVE])
def test_registered_dynamic_critical_workloads_match_reference(name, policy):
    """Every registered workload with chunk or single grants, whole, at
    tiny scale."""
    w = get_workload(name, nthreads=4, scale=get_scale("tiny"))
    results = []
    for engine_cls in (ExecutionEngine, ReferenceEngine):
        recorder = Recorder(w.nthreads)
        result = engine_cls(
            w.program, w.thread_program, w.omp, w.nthreads,
            wait_policy=policy, seed=3, observers=(recorder,),
            flow_control=FlowControl(),
        ).run()
        results.append((result, recorder.logs))
    assert results[0] == results[1]


def test_tape_loop_reports_deadlock(monkeypatch):
    """A barrier only thread 0 reaches leaves it blocked after thread 1
    finishes: the tape loop's own deadlock check must raise."""

    def half_barrier_tapes(thread_program, nthreads):
        return [[(OP_SYNC, BarrierWait(99)), DONE_OP], [DONE_OP]]

    monkeypatch.setattr(engine_module, "compile_streams", half_barrier_tapes)
    program, tp, omp = build_toy()
    engine = ExecutionEngine(program, tp, omp, 2)
    with pytest.raises(DeadlockError, match=r"blocked: \[0\]"):
        engine.run()
