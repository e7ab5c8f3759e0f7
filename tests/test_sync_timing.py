"""Focused tests on the timing simulator's synchronization semantics:
barrier convoys, lock handoff order, dynamic-chunk arbitration, and the
active/passive timing contrast."""

from repro.config import GAINESTOWN_8CORE
from repro.isa import ProgramBuilder
from repro.isa.blocks import BRANCH_LOOP, BranchSpec
from repro.policy import WaitPolicy
from repro.runtime import (
    Barrier,
    LoopWork,
    OmpRuntime,
    ParallelFor,
    ThreadProgram,
)
from repro.runtime.constructs import CriticalSpec, SCHEDULE_DYNAMIC
from repro.timing import MultiCoreSimulator
from repro.workloads.generators import make_trips

SYS4 = GAINESTOWN_8CORE.with_cores(4)


def _imbalanced_program(amplitude=4.0):
    """One parallel loop where thread 0's chunk is much heavier."""
    pb = ProgramBuilder("imb")
    omp = OmpRuntime(pb)
    rt = pb.routine("work")
    hdr = rt.block("hdr", ialu=3, branch=BranchSpec(BRANCH_LOOP),
                   loop_header=True)
    body = rt.block("body", ialu=8, branch=BranchSpec(BRANCH_LOOP),
                    loop_header=True)
    program = pb.finalize()
    trips = make_trips(40, "hot", total_iters=32, nthreads=4, hot=0,
                       amplitude=amplitude)
    constructs = [
        ParallelFor(LoopWork(hdr, [(body, trips)]), total_iters=32),
        Barrier(),
    ]
    return program, ThreadProgram(constructs), omp


class TestBarrierTiming:
    def test_waiters_resume_at_release(self):
        program, tp, omp = _imbalanced_program()
        sim = MultiCoreSimulator(program, SYS4, omp)
        sim.run_binary(tp, 4, WaitPolicy.PASSIVE)
        cycles = [core.cycle for core in sim.cores[:4]]
        # After the final barrier everyone is within the wake latency.
        assert max(cycles) - min(cycles) <= sim.spin.futex_wake_cycles + 100

    def test_active_imbalance_burns_spin_instructions(self):
        program, tp, omp = _imbalanced_program()
        sim_a = MultiCoreSimulator(program, SYS4, omp)
        sim_a.run_binary(tp, 4, WaitPolicy.ACTIVE)
        sim_p = MultiCoreSimulator(
            _imbalanced_program()[0], SYS4, _imbalanced_program()[2]
        )
        program_p, tp_p, omp_p = _imbalanced_program()
        sim_p = MultiCoreSimulator(program_p, SYS4, omp_p)
        sim_p.run_binary(tp_p, 4, WaitPolicy.PASSIVE)
        spin_bid = omp.spin_block.bid
        spins_active = sum(sim_a.exec_counts[t][spin_bid] for t in range(4))
        spin_bid_p = omp_p.spin_block.bid
        spins_passive = sum(
            sim_p.exec_counts[t][spin_bid_p] for t in range(4)
        )
        assert spins_active > 0
        assert spins_passive == 0

    def test_more_imbalance_more_spin(self):
        spin_counts = []
        for amplitude in (2.0, 8.0):
            program, tp, omp = _imbalanced_program(amplitude)
            sim = MultiCoreSimulator(program, SYS4, omp)
            sim.run_binary(tp, 4, WaitPolicy.ACTIVE)
            spin_counts.append(
                sum(sim.exec_counts[t][omp.spin_block.bid] for t in range(4))
            )
        assert spin_counts[1] > spin_counts[0]


class TestLockTiming:
    def _contended_program(self):
        pb = ProgramBuilder("lock")
        omp = OmpRuntime(pb)
        rt = pb.routine("work")
        hdr = rt.block("hdr", ialu=3, branch=BranchSpec(BRANCH_LOOP),
                       loop_header=True)
        body = rt.block("body", ialu=6, branch=BranchSpec(BRANCH_LOOP),
                        loop_header=True)
        crit = rt.block("crit", ialu=30)
        program = pb.finalize()
        constructs = [
            ParallelFor(
                LoopWork(hdr, [(body, 10)]), total_iters=16,
                critical=CriticalSpec(lock_id=1, block=crit, every=1),
            ),
        ]
        return program, ThreadProgram(constructs), omp, crit

    def test_critical_section_serialized(self):
        program, tp, omp, crit = self._contended_program()
        sim = MultiCoreSimulator(program, SYS4, omp)
        sim.run_binary(tp, 4, WaitPolicy.PASSIVE)
        # All 16 iterations executed the critical block exactly once.
        total = sum(sim.exec_counts[t][crit.bid] for t in range(4))
        assert total == 16

    def test_contention_slows_runtime(self):
        program, tp, omp, _ = self._contended_program()
        contended = MultiCoreSimulator(program, SYS4, omp).run_binary(
            tp, 4, WaitPolicy.PASSIVE
        )[0]
        # The same work without the critical section:
        pb = ProgramBuilder("nolock")
        omp2 = OmpRuntime(pb)
        rt = pb.routine("work")
        hdr = rt.block("hdr", ialu=3, branch=BranchSpec(BRANCH_LOOP),
                       loop_header=True)
        body = rt.block("body", ialu=6, branch=BranchSpec(BRANCH_LOOP),
                        loop_header=True)
        program2 = pb.finalize()
        tp2 = ThreadProgram([
            ParallelFor(LoopWork(hdr, [(body, 10)]), total_iters=16),
        ])
        free = MultiCoreSimulator(program2, SYS4, omp2).run_binary(
            tp2, 4, WaitPolicy.PASSIVE
        )[0]
        assert contended.metrics.cycles > free.metrics.cycles


class TestDynamicScheduling:
    def test_all_chunks_executed_exactly_once(self):
        pb = ProgramBuilder("dyn")
        omp = OmpRuntime(pb)
        rt = pb.routine("work")
        hdr = rt.block("hdr", ialu=3, branch=BranchSpec(BRANCH_LOOP),
                       loop_header=True)
        body = rt.block("body", ialu=6, branch=BranchSpec(BRANCH_LOOP),
                        loop_header=True)
        program = pb.finalize()
        tp = ThreadProgram([
            ParallelFor(LoopWork(hdr, [(body, 5)]), total_iters=37,
                        schedule=SCHEDULE_DYNAMIC, chunk=4),
        ])
        sim = MultiCoreSimulator(program, SYS4, omp)
        sim.run_binary(tp, 4, WaitPolicy.PASSIVE)
        headers = sum(sim.exec_counts[t][hdr.bid] for t in range(4))
        assert headers == 37

    def test_dynamic_assignment_depends_on_microarchitecture(self):
        """Under the timing model, chunk assignment follows simulated speed;
        the in-order core's different timing may shift assignments while the
        total stays fixed."""
        pb = ProgramBuilder("dyn2")
        omp = OmpRuntime(pb)
        rt = pb.routine("work")
        hdr = rt.block("hdr", ialu=3, branch=BranchSpec(BRANCH_LOOP),
                       loop_header=True)
        body = rt.block("body", ialu=6, branch=BranchSpec(BRANCH_LOOP),
                        loop_header=True)
        program = pb.finalize()

        def counts(system):
            tp = ThreadProgram([
                ParallelFor(LoopWork(hdr, [(body, 5)]), total_iters=40,
                            schedule=SCHEDULE_DYNAMIC, chunk=2),
            ])
            sim = MultiCoreSimulator(program, system, omp)
            sim.run_binary(tp, 4, WaitPolicy.PASSIVE)
            return [sim.exec_counts[t][hdr.bid] for t in range(4)]

        ooo = counts(SYS4)
        assert sum(ooo) == 40
        inorder = counts(SYS4.as_inorder())
        assert sum(inorder) == 40
