"""Tests for checkpoint tapes and their run on the timed thread loop.

A recorded log (pinball) or an ELFie's thread code compiles to a tape
with :func:`~repro.exec_engine.schedcore.log_tape`: one row of a
one-pass ``OP_RUN`` per block entry and one op per sync entry.  A pinball's sync entries
become ``OP_GSEQ`` ops, which ``MultiCoreSimulator._run_threads`` runs in
recorded ``gseq`` order: a thread that reaches one early blocks without
an event, and at its turn its core stalls to the object's last sync
cycle.  ``run_pinball`` and ``run_elfie`` share one preamble
(``_run_checkpoint``): the thread-count check, the start counters and the
detail window.
"""

import copy

import pytest

from repro.config import GAINESTOWN_8CORE
from repro.core.warmup import region_cuts_for_selection
from repro.errors import DeadlockError, ReplayError, SimulationError
from repro.exec_engine.events import (
    SYNC_BARRIER,
    SYNC_CHUNK,
    SYNC_LOCK_ACQ,
    BarrierWait,
)
from repro.exec_engine.schedcore import (
    DONE_OP,
    OP_GSEQ,
    OP_RUN,
    OP_SYNC,
    log_tape,
)
from repro.pinplay import (
    ELFie,
    Pinball,
    extract_region_pinballs,
    record_execution,
)
from repro.policy import WaitPolicy
from repro.profiling import profile_pinball
from repro.timing import MultiCoreSimulator
from repro.timing import mcsim

from conftest import build_toy

SYS4 = GAINESTOWN_8CORE.with_cores(4)


@pytest.fixture(scope="module")
def toy_parts():
    return build_toy()


@pytest.fixture(scope="module")
def quiet_bid(toy_parts):
    """A main-image block without memory operations: its cost is the
    same wherever it runs."""
    program, _tp, _omp = toy_parts
    return next(
        b.bid for b in program.blocks
        if not b.mem_ops and not b.image.is_library
    )


@pytest.fixture(scope="module")
def recorded(toy_parts):
    program, tp, omp = toy_parts
    pinball, _ = record_execution(program, tp, omp, 4,
                                  wait_policy=WaitPolicy.PASSIVE, seed=1)
    return pinball


@pytest.fixture(scope="module")
def region_pinball(toy_parts, recorded):
    program, _tp, _omp = toy_parts
    profile = profile_pinball(program, recorded, slice_size=6000)
    cuts = region_cuts_for_selection(
        profile, [type("C", (), {"representative": 4})],
        warmup_instructions=3000,
    )
    (rp,) = extract_region_pinballs(program, recorded, cuts)
    return rp


def fresh_sim(program, omp):
    return MultiCoreSimulator(program, SYS4, omp)


def _pinball(program, logs):
    return Pinball(
        program_name=program.name, nthreads=len(logs),
        wait_policy="passive", seed=0, total_instructions=0,
        filtered_instructions=0, logs=logs,
    )


def _elfie(program, codes):
    return ELFie(
        program_name=program.name, nthreads=len(codes), region_id=0,
        thread_codes=codes, start_exec_counts=[], detail_positions=[],
    )


def _gseq_op(entry):
    _s, kind, obj_id, _response, gseq = entry
    return (OP_GSEQ, gseq, (kind, obj_id))


class TestLogTape:
    def test_one_row_per_block_entry(self, toy_parts):
        program, *_ = toy_parts
        n = program.blocks[1].n_instr
        tape = log_tape([("b", 1, 2), ("b", 1, 3)], program.blocks, _gseq_op)
        assert len(tape) == 2
        code, bids, reps, pre_t, pre_f, passes = tape[0]
        assert code == OP_RUN
        assert (bids, reps) == ([1, 1], [2, 3])
        assert pre_t == pre_f == [0, 2 * n, 5 * n]
        assert passes == 1
        assert tape[1] is DONE_OP

    def test_sync_entries_split_tables(self, toy_parts):
        program, *_ = toy_parts
        sync = ("s", SYNC_LOCK_ACQ, 7, None, 0)
        tape = log_tape(
            [("b", 0, 1), sync, ("b", 3, 4)], program.blocks, _gseq_op
        )
        assert [op[0] for op in tape] == [OP_RUN, OP_GSEQ, OP_RUN,
                                          DONE_OP[0]]
        assert tape[0][1] == [0] and tape[2][1] == [3]
        assert tape[1] == (OP_GSEQ, 0, (SYNC_LOCK_ACQ, 7))

    def test_adjacent_syncs_leave_no_empty_table(self, toy_parts):
        program, *_ = toy_parts
        log = [("s", SYNC_LOCK_ACQ, 1, None, 3),
               ("s", SYNC_LOCK_ACQ, 1, None, 4)]
        assert log_tape(log, program.blocks, _gseq_op) == [
            (OP_GSEQ, 3, (SYNC_LOCK_ACQ, 1)),
            (OP_GSEQ, 4, (SYNC_LOCK_ACQ, 1)),
            DONE_OP,
        ]
        assert log_tape([], program.blocks, _gseq_op) == [DONE_OP]

    def test_library_rows_count_only_in_total_prefix(self, toy_parts):
        program, *_ = toy_parts
        lib = next(b for b in program.blocks if b.image.is_library)
        app = program.blocks[0]
        (op, _done) = log_tape(
            [("b", app.bid, 1), ("b", lib.bid, 2)], program.blocks, _gseq_op
        )
        pre_t, pre_f = op[3], op[4]
        assert pre_t == [0, app.n_instr, app.n_instr + 2 * lib.n_instr]
        assert pre_f == [0, app.n_instr, app.n_instr]


class TestPinballTapes:
    def test_every_log_entry_has_one_row_or_op(self, toy_parts, recorded):
        program, *_ = toy_parts
        for log, tape in zip(recorded.logs, recorded.tapes(program)):
            assert tape[-1] is DONE_OP
            rows = sum(len(op[1]) * op[5] for op in tape
                       if op[0] == OP_RUN)
            gseqs = sum(1 for op in tape if op[0] == OP_GSEQ)
            assert rows + gseqs == len(log)
            assert gseqs == sum(1 for entry in log if entry[0] == "s")

    def test_instructions_and_turns_match_recording(self, toy_parts,
                                                    recorded):
        program, *_ = toy_parts
        tapes = recorded.tapes(program)
        total = sum(op[3][-1] * op[5] for tape in tapes for op in tape
                    if op[0] == OP_RUN)
        assert total == recorded.total_instructions
        # Every recorded turn is due exactly once, on some thread.
        turns = sorted(op[1] for tape in tapes for op in tape
                       if op[0] == OP_GSEQ)
        assert turns == list(range(len(turns)))
        assert turns


class TestElfieTapes:
    def test_sync_entries_become_live_sync_ops(self, toy_parts):
        program, *_ = toy_parts
        elfie = _elfie(program, [
            [("b", 0, 1), ("sync", SYNC_BARRIER, 3), ("b", 0, 2)],
        ])
        (tape,) = elfie.tapes(program)
        assert [op[0] for op in tape] == [OP_RUN, OP_SYNC, OP_RUN,
                                          DONE_OP[0]]
        event = tape[1][1]
        assert type(event) is BarrierWait and event.barrier_id == 3

    def test_kind_without_tape_op_raises(self, toy_parts):
        program, *_ = toy_parts
        elfie = _elfie(program, [[("b", 0, 1), ("sync", SYNC_CHUNK, 0)]])
        with pytest.raises(ReplayError, match="chunk"):
            elfie.tapes(program)


class TestGseqGate:
    def test_turn_stalls_to_the_objects_last_sync(self, toy_parts,
                                                  quiet_bid):
        """Thread 1 reaches gseq 1 at cycle 0 and must wait for thread
        0's gseq 0 on the same lock; its core then starts from that
        cycle."""
        program, _tp, omp = toy_parts
        pinball = _pinball(program, [
            [("b", quiet_bid, 500), ("s", SYNC_LOCK_ACQ, 1, None, 0)],
            [("s", SYNC_LOCK_ACQ, 1, None, 1), ("b", quiet_bid, 1)],
        ])
        sim = fresh_sim(program, omp)
        sim.run_pinball(pinball)
        assert sim.cores[1].cycle > sim.cores[0].cycle > 0

    def test_stall_is_per_object(self, toy_parts, quiet_bid):
        """The same order over two different locks: thread 1 still waits
        for its turn, but its clock owes nothing to thread 0's lock."""
        program, _tp, omp = toy_parts
        pinball = _pinball(program, [
            [("b", quiet_bid, 500), ("s", SYNC_LOCK_ACQ, 1, None, 0)],
            [("s", SYNC_LOCK_ACQ, 2, None, 1), ("b", quiet_bid, 1)],
        ])
        sim = fresh_sim(program, omp)
        sim.run_pinball(pinball)
        assert 0 < sim.cores[1].cycle < sim.cores[0].cycle
        assert sim.exec_counts[1][quiet_bid] == 1

    def test_blocking_at_the_gate_is_not_an_event(self, toy_parts,
                                                  quiet_bid, recorded,
                                                  monkeypatch):
        """The window sees each log entry exactly once, however often a
        thread blocked before its turn."""
        program, _tp, omp = toy_parts
        seen = []
        real = mcsim._DetailWindow.post_event

        def counting(window, tid):
            seen.append(tid)
            real(window, tid)

        monkeypatch.setattr(mcsim._DetailWindow, "post_event", counting)
        handmade = _pinball(program, [
            [("b", quiet_bid, 500), ("s", SYNC_LOCK_ACQ, 1, None, 0)],
            [("s", SYNC_LOCK_ACQ, 1, None, 1), ("b", quiet_bid, 1)],
        ])
        for pinball in (handmade, recorded):
            seen.clear()
            fresh_sim(program, omp).run_pinball(pinball)
            for tid, log in enumerate(pinball.logs):
                assert seen.count(tid) == len(log)

    def test_window_may_end_a_blocked_run(self, toy_parts, quiet_bid):
        """The unmeetable order that makes ``run_pinball`` raise just
        ends the loop under a window that stops when blocked."""
        program, _tp, omp = toy_parts
        pinball = _pinball(program, [
            [("b", quiet_bid, 3), ("s", SYNC_LOCK_ACQ, 1, None, 0),
             ("b", quiet_bid, 2)],
            [("b", quiet_bid, 1), ("s", SYNC_LOCK_ACQ, 1, None, 2)],
        ])
        sim = fresh_sim(program, omp)
        window = mcsim._DetailWindow(sim, [0, 0], stop_when_blocked=True)
        sim._run_threads(window, pinball.tapes(program), active=False)
        assert sim.exec_counts[0][quiet_bid] == 5
        assert sim.exec_counts[1][quiet_bid] == 1
        strict = mcsim._DetailWindow(sim, [0, 0], stop_when_blocked=False)
        with pytest.raises(DeadlockError):
            sim._run_threads(strict, pinball.tapes(program), active=False)


class TestRunCheckpoint:
    def test_too_many_pinball_threads_rejected(self, toy_parts, quiet_bid):
        program, _tp, omp = toy_parts
        pinball = _pinball(program, [[("b", quiet_bid, 1)]] * 5)
        with pytest.raises(SimulationError, match="pinball has 5 threads"):
            fresh_sim(program, omp).run_pinball(pinball)

    def test_too_many_elfie_threads_rejected(self, toy_parts, quiet_bid):
        program, _tp, omp = toy_parts
        elfie = _elfie(program, [[("b", quiet_bid, 1)]] * 5)
        with pytest.raises(SimulationError, match="ELFie has 5 threads"):
            fresh_sim(program, omp).run_elfie(elfie)

    def test_whole_pinball_counts_match_logs(self, toy_parts, recorded):
        """No start counters: execution counts start at zero and end at
        the logs' block totals; the result is not a region's."""
        program, _tp, omp = toy_parts
        sim = fresh_sim(program, omp)
        result = sim.run_pinball(recorded)
        for tid, log in enumerate(recorded.logs):
            expect = [0] * program.num_blocks
            for entry in log:
                if entry[0] == "b":
                    expect[entry[1]] += entry[2]
            assert sim.exec_counts[tid] == expect
        assert result.region_id == -1

    def test_region_start_counters_are_copied(self, toy_parts,
                                              region_pinball):
        program, _tp, omp = toy_parts
        before = copy.deepcopy(region_pinball.start_exec_counts)
        assert any(any(counts) for counts in before)
        sim = fresh_sim(program, omp)
        result = sim.run_pinball(region_pinball)
        assert region_pinball.start_exec_counts == before
        assert result.region_id == region_pinball.region_id
        for tid, log in enumerate(region_pinball.logs):
            ran = sum(e[2] for e in log if e[0] == "b")
            assert sum(sim.exec_counts[tid]) == sum(before[tid]) + ran
