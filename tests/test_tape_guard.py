"""Every registered workload runs on tapes; unknown constructs are refused.

The engine has one scheduling loop, the tape loop, so
:func:`~repro.exec_engine.schedcore.compile_streams` must compile every
registered workload, into the seven op codes of the tape format, with
one chunk op per dynamic-schedule loop holding one sub-tape per chunk.
A :class:`~repro.runtime.constructs.Construct` subclass the tape
compiler does not know is rejected when the engine is built, with an
error that names its class.
"""

from __future__ import annotations

import pytest

from repro.config import get_scale
from repro.errors import ExecutionError
from repro.exec_engine.engine import ExecutionEngine
from repro.exec_engine import schedcore
from repro.exec_engine.events import BarrierWait
from repro.exec_engine.schedcore import (
    DONE_OP,
    OP_CHUNK,
    OP_DONE,
    OP_GSEQ,
    OP_RET,
    OP_RUN,
    OP_SINGLE,
    OP_SYNC,
    RET_OP,
    compile_streams,
)
from repro.runtime import ParallelFor, ThreadProgram
from repro.runtime.constructs import SCHEDULE_DYNAMIC, Construct
from repro.workloads.registry import list_workloads, get_workload

from conftest import build_toy

#: The seven op codes a tape may hold.
OP_CODES = {OP_RUN, OP_SYNC, OP_CHUNK, OP_SINGLE, OP_DONE, OP_RET, OP_GSEQ}


def test_tape_format_has_seven_op_codes():
    codes = {
        value for name, value in vars(schedcore).items()
        if name.startswith("OP_")
    }
    assert codes == OP_CODES == set(range(7))


def test_registry_has_26_workloads():
    assert len(list_workloads()) == 26


def _sub_tapes(op):
    """The sub-tapes a grant op carries."""
    if op[0] == OP_CHUNK:
        return op[2]
    if op[0] == OP_SINGLE and op[2] is not None:
        return [op[2]]
    return []


@pytest.mark.parametrize("name", list_workloads())
def test_every_registered_workload_tapes(name):
    w = get_workload(name, nthreads=4, scale=get_scale("tiny"))
    streams = compile_streams(w.thread_program, w.nthreads)
    assert len(streams) == w.nthreads
    assert all(tape[-1] is DONE_OP for tape in streams)
    dynamic = [
        c for c in w.thread_program.constructs
        if type(c) is ParallelFor and c.schedule == SCHEDULE_DYNAMIC
    ]
    for tape in streams:
        assert {op[0] for op in tape} <= OP_CODES
        chunk_ops = [op for op in tape if op[0] == OP_CHUNK]
        # Every dynamic loop compiles to one chunk op holding one sub-tape
        # per chunk, in order.
        assert [op[1].loop_id for op in chunk_ops] == [
            c.loop_id for c in dynamic
        ]
        for op, loop in zip(chunk_ops, dynamic):
            assert len(op[2]) == -(-loop.total_iters // loop.chunk)
        for op in tape:
            for sub in _sub_tapes(op):
                # A sub-tape holds block runs and lock syncs, then OP_RET.
                assert sub[-1] is RET_OP
                assert {o[0] for o in sub[:-1]} <= {OP_RUN, OP_SYNC}


class CustomBarrier(Construct):
    def run(self, tid, nthreads):
        yield BarrierWait(self.implicit_barrier_id)

    def total_instructions(self, nthreads):
        return 0


class SubclassedLoop(ParallelFor):
    """Exact types only: a subclass may override ``run``."""


@pytest.mark.parametrize("make", [
    lambda work: CustomBarrier(),
    lambda work: SubclassedLoop(work, total_iters=8),
], ids=["CustomBarrier", "SubclassedLoop"])
def test_custom_construct_is_refused_by_name(make):
    program, tp, omp = build_toy()
    construct = make(tp.constructs[0].work)
    custom = ThreadProgram(list(tp.constructs[:2]) + [construct])
    with pytest.raises(ExecutionError, match=type(construct).__name__):
        ExecutionEngine(program, custom, omp, 4)
