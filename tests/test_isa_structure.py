"""Tests for blocks, images, programs, and the builder DSL."""

import pytest

from repro.errors import ProgramStructureError
from repro.isa import ProgramBuilder, StridedAccess
from repro.isa.blocks import (
    BRANCH_COND,
    BRANCH_LOOP,
    BRANCH_RET,
    BasicBlock,
    BranchSpec,
)
from repro.isa.image import (
    INSTRUCTION_BYTES,
    LIBRARY_IMAGE_BASE,
    MAIN_IMAGE_BASE,
)
from repro.isa.instructions import Instruction, InstrKind


def _mk_block(name="b", n=4, branch=BranchSpec()):
    return BasicBlock(
        name, [Instruction(InstrKind.IALU) for _ in range(n)], branch=branch
    )


class TestBranchSpec:
    def test_invalid_kind(self):
        with pytest.raises(ProgramStructureError):
            BranchSpec("jump")

    def test_invalid_probability(self):
        with pytest.raises(ProgramStructureError):
            BranchSpec(BRANCH_COND, taken_prob=1.5)


class TestBasicBlock:
    def test_empty_block_rejected(self):
        with pytest.raises(ProgramStructureError):
            BasicBlock("empty", [])

    def test_summary_counts(self):
        gen = StridedAccess(0, 8, 64)
        block = BasicBlock("b", [
            Instruction(InstrKind.IALU),
            Instruction(InstrKind.FP),
            Instruction(InstrKind.LOAD, mem=gen),
            Instruction(InstrKind.STORE, mem=gen),
            Instruction(InstrKind.ATOMIC, mem=gen),
            Instruction(InstrKind.BRANCH),
        ])
        assert block.n_instr == 6
        assert block.n_fp == 1
        assert block.n_branches == 1
        assert block.n_atomics == 1
        assert len(block.mem_ops) == 3
        # (slot, gen, is_write, dependent)
        writes = [m[2] for m in block.mem_ops]
        assert writes == [False, True, True]

    def test_is_library_requires_layout(self):
        b = _mk_block()
        with pytest.raises(ProgramStructureError):
            _ = b.is_library


class TestProgramBuilderLayout:
    def _program(self):
        pb = ProgramBuilder("app")
        rt = pb.routine("main_loop")
        hdr = rt.block("hdr", ialu=2, branch=BranchSpec(BRANCH_LOOP),
                       loop_header=True)
        body = rt.block("body", ialu=5, branch=BranchSpec(BRANCH_LOOP),
                        loop_header=True)
        lib = pb.library("libfake.so")
        lr = lib.routine("lib_wait")
        spin = lr.block("spin", ialu=3, branch=BranchSpec(BRANCH_LOOP),
                        loop_header=True)
        return pb.finalize(), hdr, body, spin

    def test_pcs_assigned_in_order(self):
        program, hdr, body, spin = self._program()
        assert hdr.pc == MAIN_IMAGE_BASE
        assert body.pc == hdr.pc + hdr.n_instr * INSTRUCTION_BYTES
        assert spin.pc >= LIBRARY_IMAGE_BASE

    def test_bids_dense(self):
        program, *_ = self._program()
        assert [b.bid for b in program.blocks] == list(range(program.num_blocks))

    def test_pc_lookup(self):
        program, hdr, body, spin = self._program()
        assert program.block_at(hdr.pc) is hdr
        assert program.block_at(spin.pc) is spin
        with pytest.raises(ProgramStructureError):
            program.block_at(0xDEAD)

    def test_library_flag(self):
        program, hdr, body, spin = self._program()
        assert not hdr.is_library
        assert spin.is_library

    def test_loop_headers_filter(self):
        program, hdr, body, spin = self._program()
        all_headers = program.loop_headers()
        main_headers = program.loop_headers(main_only=True)
        assert spin in all_headers
        assert spin not in main_headers
        assert hdr in main_headers and body in main_headers

    def test_routine_lookup(self):
        program, *_ = self._program()
        assert program.routine("main_loop").name == "main_loop"
        assert program.routine("lib_wait", image="libfake.so")
        with pytest.raises(ProgramStructureError):
            program.routine("nonexistent")

    def test_double_finalize_rejected(self):
        pb = ProgramBuilder("x")
        pb.routine("r").block("b", ialu=1)
        pb.finalize()
        with pytest.raises(ProgramStructureError):
            pb.finalize()

    def test_duplicate_routine_rejected(self):
        pb = ProgramBuilder("x")
        pb.routine("r")
        with pytest.raises(ProgramStructureError):
            pb.routine("r")


class TestBuilderBlocks:
    def test_block_mix(self):
        pb = ProgramBuilder("m")
        rt = pb.routine("r")
        gen = StridedAccess(0, 8, 64)
        block = rt.block("b", ialu=3, fp=2, loads=[gen], stores=[gen],
                         atomics=[gen], extra_branches=1,
                         branch=BranchSpec(BRANCH_RET))
        # 3 ialu + 2 fp + 1 ld + 1 st + 1 atomic + 1 branch + 1 ret
        assert block.n_instr == 10
        assert block.n_atomics == 1

    def test_empty_mix_gets_nop(self):
        pb = ProgramBuilder("m")
        block = pb.routine("r").block("b")
        assert block.n_instr == 1
