"""Stalls and detail windows of the timing simulator's thread loops.

``run_binary`` and ``run_elfie`` share one tape loop.  When every live
thread is blocked, the region controller treats it as a deadlock, while
an ELFie's detail window ends the run: a barrier clipped at the region
edge leaves threads waiting that no arrival will release.
``run_pinball`` and ``run_elfie`` raise ``RegionError`` when a thread's
detail position lies past its log or code.  ``run_binary`` tapes only
the built-in constructs, and an ELFie tapes only the sync kinds its
conversion writes.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.config import GAINESTOWN_8CORE
from repro.errors import DeadlockError, ExecutionError, RegionError, ReplayError
from repro.exec_engine.events import SYNC_BARRIER, SYNC_SINGLE, BarrierWait
from repro.exec_engine.schedcore import OP_SYNC, compile_streams
from repro.pinplay import extract_region_pinballs, record_execution
from repro.pinplay.elfie import ELFie, pinball_to_elfie
from repro.pinplay.region import RegionCut
from repro.policy import WaitPolicy
from repro.profiling import profile_pinball
from repro.runtime.constructs import Construct
from repro.runtime.thread import ThreadProgram
from repro.timing import MultiCoreSimulator
from repro.timing import mcsim as mcsim_module

from conftest import build_toy

SYS4 = GAINESTOWN_8CORE.with_cores(4)


@pytest.fixture(scope="module")
def toy():
    return build_toy(steps=2)


@pytest.fixture(scope="module")
def region_pinball(toy):
    program, tp, omp = toy
    pinball, _ = record_execution(
        program, tp, omp, 4, wait_policy=WaitPolicy.PASSIVE, seed=1,
    )
    s = profile_pinball(program, pinball, slice_size=3000).slices[2]
    cut = RegionCut(
        region_id=s.index, start=s.start, end=s.end,
        warmup_filtered=max(0, s.start_filtered - 1500),
    )
    return extract_region_pinballs(program, pinball, [cut])[0]


def _sim(toy):
    program, _tp, omp = toy
    return MultiCoreSimulator(program, SYS4, omp)


@pytest.mark.parametrize("policy", [WaitPolicy.PASSIVE, WaitPolicy.ACTIVE])
def test_run_binary_raises_when_all_live_threads_block(
    toy, policy, monkeypatch
):
    """The toy's tapes, then a barrier every thread but the last reaches."""

    def barrier_all_but_last(thread_program, nthreads):
        streams = compile_streams(thread_program, nthreads)
        for tape in streams[:-1]:
            tape.insert(-1, (OP_SYNC, BarrierWait(999)))
        return streams

    monkeypatch.setattr(mcsim_module, "compile_streams", barrier_all_but_last)
    _program, tp, _omp = toy
    with pytest.raises(DeadlockError, match=r"blocked \[0, 1, 2\]"):
        _sim(toy).run_binary(tp, 4, policy)


class _CustomBarrier(Construct):
    def total_instructions(self, nthreads):
        return 0


def test_run_binary_rejects_unknown_construct(toy):
    _program, tp, _omp = toy
    custom = ThreadProgram(list(tp.constructs) + [_CustomBarrier()])
    with pytest.raises(ExecutionError, match="_CustomBarrier"):
        _sim(toy).run_binary(custom, 4, WaitPolicy.PASSIVE)


def test_run_elfie_ends_at_clipped_barrier(toy):
    program, _tp, _omp = toy
    bid = program.blocks[0].bid
    elfie = ELFie(
        program_name=program.name,
        nthreads=2,
        region_id=7,
        thread_codes=[
            [("b", bid, 3), ("sync", SYNC_BARRIER, 0), ("b", bid, 5)],
            [("b", bid, 4)],
        ],
        start_exec_counts=[],
        detail_positions=[1, 0],
    )
    sim = _sim(toy)
    result = sim.run_elfie(elfie)
    assert result.region_id == 7
    assert result.metrics.cycles > 0
    # Thread 0 waits at a barrier thread 1 never reaches: its last block
    # never runs.
    assert sim.exec_counts[0][bid] == 3
    assert sim.exec_counts[1][bid] == 4


def test_elfie_rejects_unknown_sync_kind(toy):
    program, _tp, _omp = toy
    bid = program.blocks[0].bid
    elfie = ELFie(
        program_name=program.name,
        nthreads=1,
        region_id=0,
        thread_codes=[[("b", bid, 3), ("sync", SYNC_SINGLE, 5)]],
        start_exec_counts=[],
        detail_positions=[0],
    )
    with pytest.raises(ReplayError, match="'single'"):
        _sim(toy).run_elfie(elfie)


def test_pinball_detail_past_log_raises(toy, region_pinball):
    past = replace(
        region_pinball,
        detail_positions=[len(log) + 1 for log in region_pinball.logs],
    )
    with pytest.raises(RegionError, match="pinball never reached"):
        _sim(toy).run_pinball(past)


def test_elfie_detail_past_code_raises(toy, region_pinball):
    program, _tp, omp = toy
    elfie = pinball_to_elfie(program, omp, region_pinball)
    past = replace(
        elfie,
        detail_positions=[len(code) + 1 for code in elfie.thread_codes],
    )
    with pytest.raises(RegionError, match="ELFie never reached"):
        _sim(toy).run_elfie(past)


def test_detail_at_end_of_log_is_reached(toy, region_pinball):
    """A detail position equal to the log length crosses at the last
    entry: the region is empty but measured."""
    at_end = replace(
        region_pinball,
        detail_positions=[len(log) for log in region_pinball.logs],
    )
    result = _sim(toy).run_pinball(at_end)
    assert result.metrics.instructions == 0
