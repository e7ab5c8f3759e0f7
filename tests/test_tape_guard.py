"""Every registered workload runs on tapes; unknown constructs are refused.

The engine has one scheduling loop, the tape loop, so
:func:`~repro.exec_engine.schedcore.compile_streams` must compile every
registered workload.  A :class:`~repro.runtime.constructs.Construct`
subclass the tape compiler does not know is rejected when the engine is
built, with an error that names its class.
"""

from __future__ import annotations

import pytest

from repro.config import get_scale
from repro.errors import ExecutionError
from repro.exec_engine.engine import ExecutionEngine
from repro.exec_engine.events import BarrierWait
from repro.exec_engine.schedcore import (
    DONE_OP,
    OP_CHUNK_TAPE,
    compile_streams,
)
from repro.runtime import ParallelFor, ThreadProgram
from repro.runtime.constructs import Construct
from repro.workloads.registry import list_workloads, get_workload

from conftest import build_toy

#: The registered workloads whose dynamic-schedule loops hold a critical
#: section: they run their chunks as sub-tapes.
CHUNK_TAPE_WORKLOADS = {"644.nab_s.1", "644.nab_s.2"}


def test_registry_has_26_workloads():
    assert len(list_workloads()) == 26


@pytest.mark.parametrize("name", list_workloads())
def test_every_registered_workload_tapes(name):
    w = get_workload(name, nthreads=4, scale=get_scale("tiny"))
    streams = compile_streams(w.thread_program, w.nthreads)
    assert len(streams) == w.nthreads
    assert all(tape[-1] is DONE_OP for tape in streams)
    chunk_tapes = any(
        op[0] == OP_CHUNK_TAPE for tape in streams for op in tape
    )
    assert chunk_tapes == (name in CHUNK_TAPE_WORKLOADS)


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
