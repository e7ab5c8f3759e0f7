"""Tests for OpenMP-like constructs, trip profiles, and the thread program."""

import pytest

from repro.errors import ProgramStructureError, WorkloadError
from repro.exec_engine.events import (
    BarrierWait,
    ChunkRequest,
    LockAcquire,
    LockRelease,
    Reduce,
    SingleRequest,
)
from repro.isa import ProgramBuilder
from repro.isa.blocks import BRANCH_LOOP, BranchSpec
from repro.runtime import (
    Barrier,
    LoopWork,
    Master,
    OmpRuntime,
    ParallelFor,
    Serial,
    Single,
    ThreadProgram,
)
from repro.runtime.constructs import (
    BATCH_LIMIT,
    AtomicSpec,
    CriticalSpec,
    SCHEDULE_DYNAMIC,
    static_chunk,
)
from repro.workloads.generators import make_trips

from reference_engine import BlockExec, construct_events, emit, thread_main


@pytest.fixture
def blocks():
    pb = ProgramBuilder("t")
    rt = pb.routine("loop")
    hdr = rt.block("hdr", ialu=2, branch=BranchSpec(BRANCH_LOOP),
                   loop_header=True)
    body = rt.block("body", ialu=7, branch=BranchSpec(BRANCH_LOOP),
                    loop_header=True)
    other = rt.block("other", ialu=3)
    pb.finalize()
    return hdr, body, other


def drain(gen):
    """Run a reference construct generator, answering sync events;
    returns its events."""
    events = []
    response = None
    chunk_cursor = {}
    while True:
        try:
            event = gen.send(response)
        except StopIteration:
            return events
        events.append(event)
        response = None
        if isinstance(event, ChunkRequest):
            cur = chunk_cursor.get(event.loop_id, 0)
            if cur >= event.total_iters:
                response = -1
            else:
                response = cur
                chunk_cursor[event.loop_id] = cur + event.chunk_size
        elif isinstance(event, SingleRequest):
            response = True


class TestStaticChunk:
    def test_even_split(self):
        assert static_chunk(12, 4, 0) == (0, 3)
        assert static_chunk(12, 4, 3) == (9, 12)

    def test_remainder_distribution(self):
        spans = [static_chunk(10, 4, t) for t in range(4)]
        sizes = [b - a for a, b in spans]
        assert sum(sizes) == 10
        assert max(sizes) - min(sizes) <= 1
        # Contiguous cover.
        assert spans[0][0] == 0 and spans[-1][1] == 10
        for (a, b), (c, d) in zip(spans, spans[1:]):
            assert b == c


class TestLoopWork:
    def test_header_must_be_loop_header(self, blocks):
        hdr, body, other = blocks
        with pytest.raises(ProgramStructureError):
            LoopWork(other, [(body, 5)])

    def test_emit_shape(self, blocks):
        hdr, body, _ = blocks
        work = LoopWork(hdr, [(body, 5)])
        events = list(emit(work, 0, 3))
        assert len(events) == 6
        assert all(isinstance(e, BlockExec) for e in events)
        assert events[0].block is hdr and events[0].repeat == 1
        assert events[1].block is body and events[1].repeat == 5

    def test_emit_batch_capping(self, blocks):
        hdr, body, _ = blocks
        work = LoopWork(hdr, [(body, BATCH_LIMIT * 2 + 10)])
        events = list(emit(work, 0, 1))
        repeats = [e.repeat for e in events if e.block is body]
        assert repeats == [BATCH_LIMIT, BATCH_LIMIT, 10]

    def test_callable_trips(self, blocks):
        hdr, body, _ = blocks
        work = LoopWork(hdr, [(body, lambda i: i + 1)])
        events = list(emit(work, 0, 3))
        repeats = [e.repeat for e in events if e.block is body]
        assert repeats == [1, 2, 3]

    def test_instructions_per_iteration(self, blocks):
        hdr, body, _ = blocks
        work = LoopWork(hdr, [(body, 4)])
        assert work.instructions_per_iteration() == hdr.n_instr + 4 * body.n_instr


class TestParallelFor:
    def test_static_covers_iteration_space(self, blocks):
        hdr, body, _ = blocks
        work = LoopWork(hdr, [(body, 2)])
        pf = ParallelFor(work, total_iters=10)
        ThreadProgram([pf])
        header_events = 0
        for tid in range(4):
            events = drain(construct_events(pf, tid, 4))
            header_events += sum(
                1 for e in events
                if isinstance(e, BlockExec) and e.block is hdr
            )
        assert header_events == 10

    def test_dynamic_covers_iteration_space(self, blocks):
        hdr, body, _ = blocks
        work = LoopWork(hdr, [(body, 2)])
        pf = ParallelFor(work, total_iters=17, schedule=SCHEDULE_DYNAMIC,
                         chunk=3)
        ThreadProgram([pf])
        # A single thread draining a shared cursor must see all iterations.
        events = drain(construct_events(pf, 0, 1))
        headers = sum(
            1 for e in events if isinstance(e, BlockExec) and e.block is hdr
        )
        assert headers == 17

    def test_implicit_barrier(self, blocks):
        hdr, body, _ = blocks
        pf = ParallelFor(LoopWork(hdr, [(body, 1)]), total_iters=4)
        ThreadProgram([pf])
        events = drain(construct_events(pf, 0, 4))
        assert isinstance(events[-1], BarrierWait)

    def test_nowait_skips_barrier(self, blocks):
        hdr, body, _ = blocks
        pf = ParallelFor(LoopWork(hdr, [(body, 1)]), total_iters=4, nowait=True)
        ThreadProgram([pf])
        events = drain(construct_events(pf, 0, 4))
        assert not any(isinstance(e, BarrierWait) for e in events)

    def test_reduction_emits_reduce(self, blocks):
        hdr, body, _ = blocks
        pf = ParallelFor(LoopWork(hdr, [(body, 1)]), total_iters=4,
                         reduction=True)
        ThreadProgram([pf])
        events = drain(construct_events(pf, 0, 4))
        kinds = [type(e) for e in events]
        assert Reduce in kinds
        assert kinds.index(Reduce) < kinds.index(BarrierWait)

    def test_critical_section_events(self, blocks):
        hdr, body, other = blocks
        pf = ParallelFor(
            LoopWork(hdr, [(body, 1)]), total_iters=4,
            critical=CriticalSpec(lock_id=9, block=other, every=2),
        )
        ThreadProgram([pf])
        events = drain(construct_events(pf, 0, 1))
        acquires = [e for e in events if isinstance(e, LockAcquire)]
        releases = [e for e in events if isinstance(e, LockRelease)]
        assert len(acquires) == len(releases) == 2  # iterations 0 and 2
        assert all(e.lock_id == 9 for e in acquires)

    def test_atomic_events(self, blocks):
        hdr, body, other = blocks
        pf = ParallelFor(
            LoopWork(hdr, [(body, 1)]), total_iters=6,
            atomic=AtomicSpec(block=other, every=3),
        )
        ThreadProgram([pf])
        events = drain(construct_events(pf, 0, 1))
        atomics = [
            e for e in events
            if isinstance(e, BlockExec) and e.block is other
        ]
        assert len(atomics) == 2

    def test_invalid_schedule(self, blocks):
        hdr, body, _ = blocks
        with pytest.raises(ProgramStructureError):
            ParallelFor(LoopWork(hdr, [(body, 1)]), 4, schedule="guided")


class TestSerialMasterSingle:
    def test_serial_only_master_works(self, blocks):
        hdr, body, _ = blocks
        construct = Serial(LoopWork(hdr, [(body, 2)]), iters=3)
        ThreadProgram([construct])
        ev0 = drain(construct_events(construct, 0, 4))
        ev1 = drain(construct_events(construct, 1, 4))
        assert any(isinstance(e, BlockExec) for e in ev0)
        assert all(isinstance(e, BarrierWait) for e in ev1)

    def test_master_no_barrier(self, blocks):
        hdr, body, _ = blocks
        construct = Master(LoopWork(hdr, [(body, 2)]), iters=3)
        ThreadProgram([construct])
        assert drain(construct_events(construct, 1, 4)) == []
        ev0 = drain(construct_events(construct, 0, 4))
        assert ev0 and not any(isinstance(e, BarrierWait) for e in ev0)

    def test_single_granted_executes(self, blocks):
        hdr, body, _ = blocks
        construct = Single(LoopWork(hdr, [(body, 2)]), iters=2)
        ThreadProgram([construct])
        events = drain(construct_events(construct, 2, 4))  # drain grants the request
        assert any(isinstance(e, BlockExec) for e in events)
        assert isinstance(events[-1], BarrierWait)


class TestThreadProgram:
    def test_uids_assigned_by_position(self, blocks):
        hdr, body, _ = blocks
        c1 = Barrier()
        c2 = Barrier()
        tp = ThreadProgram([c1, c2])
        assert (c1.uid, c2.uid) == (0, 1)
        assert c1.implicit_barrier_id != c2.implicit_barrier_id

    def test_empty_program_rejected(self):
        with pytest.raises(ProgramStructureError):
            ThreadProgram([])

    def test_tid_range_checked(self, blocks):
        hdr, body, _ = blocks
        tp = ThreadProgram([Barrier()])
        with pytest.raises(ProgramStructureError):
            list(thread_main(tp, 5, 4))

    def test_total_instructions_estimate(self, blocks):
        hdr, body, _ = blocks
        pf = ParallelFor(LoopWork(hdr, [(body, 3)]), total_iters=10)
        tp = ThreadProgram([pf])
        expected = 10 * (hdr.n_instr + 3 * body.n_instr)
        assert tp.total_instructions(4) == expected


class TestTripsProfiles:
    def test_uniform(self):
        assert make_trips(10) == 10

    def test_ramp_monotone(self):
        fn = make_trips(10, "ramp", total_iters=100, nthreads=4, amplitude=2.0)
        vals = [fn(i) for i in range(100)]
        assert vals == sorted(vals)
        assert vals[0] < vals[-1]

    def test_hot_profile(self):
        fn = make_trips(10, "hot", total_iters=40, nthreads=4, hot=2,
                        amplitude=3.0)
        # Iterations in thread 2's static chunk are heavier.
        assert fn(25) == 30
        assert fn(5) == 10

    def test_sawtooth_periodic(self):
        fn = make_trips(20, "sawtooth", total_iters=64, nthreads=4)
        vals = [fn(i) for i in range(64)]
        assert min(vals) >= 1
        assert max(vals) > min(vals)

    def test_unknown_profile(self):
        with pytest.raises(WorkloadError):
            make_trips(10, "spiky", total_iters=10, nthreads=2)

    def test_profiles_need_sizes(self):
        with pytest.raises(WorkloadError):
            make_trips(10, "ramp")


class TestOmpRuntime:
    def test_spin_block_is_library_loop_header(self):
        pb = ProgramBuilder("app")
        omp = OmpRuntime(pb)
        pb.routine("r").block("b", ialu=1, loop_header=True,
                              branch=BranchSpec(BRANCH_LOOP))
        program = pb.finalize()
        assert omp.spin_block.is_library
        assert omp.spin_block.is_loop_header

    def test_all_runtime_blocks_in_library(self):
        pb = ProgramBuilder("app")
        omp = OmpRuntime(pb)
        pb.routine("r").block("b", ialu=1)
        pb.finalize()
        for block in (omp.barrier_enter, omp.barrier_exit, omp.futex_wait,
                      omp.futex_wake, omp.lock_acquire, omp.lock_release,
                      omp.chunk_fetch, omp.reduce_combine):
            assert block.is_library
