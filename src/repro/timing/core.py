"""Per-core timing model (interval-style, as in Sniper).

Rather than simulating every pipeline stage, each basic-block batch is
costed as: issue cycles (dispatch-width-bound, with an FP pressure term) +
branch misprediction penalties + memory stalls.  The out-of-order model
overlaps independent long-latency misses up to ``max_outstanding_misses``
(memory-level parallelism); the in-order model serializes them — that
difference is what Fig. 5b's OoO-vs-in-order portability experiment
exercises.

Consecutive same-line accesses inside a batch are collapsed before probing
the caches; this is exact under LRU (a line just touched is MRU) and keeps
Python probe counts proportional to distinct lines, not accesses.  Each
memory op hands its whole line batch to the hierarchy in one call, and
each block fetches its instruction lines in one call.
"""

from __future__ import annotations

import numpy as np

from ..config import LINE_SHIFT, CoreConfig
from ..isa.blocks import BasicBlock
from .branch import BranchPredictor
from .hierarchy import L3, MemoryHierarchy

#: Issue-rate pressure per FP instruction (cycles), OoO vs in-order.
_FP_PRESSURE_OOO = 0.25
_FP_PRESSURE_INORDER = 1.0
#: Extra cycles an atomic RMW occupies the memory pipeline.
_ATOMIC_OVERHEAD = 8


class CoreModel:
    """One core: predictor + issue/memory cost model + local clock."""

    def __init__(
        self,
        core_id: int,
        config: CoreConfig,
        hierarchy: MemoryHierarchy,
    ) -> None:
        self.core_id = core_id
        self.config = config
        self.hierarchy = hierarchy
        self.predictor = BranchPredictor()
        self.cycle = 0
        self.instructions = 0
        self.filtered_instructions = 0
        self.l1d_accesses = 0
        self._fp_pressure = (
            _FP_PRESSURE_OOO if config.out_of_order else _FP_PRESSURE_INORDER
        )

    # -- cost model ------------------------------------------------------------

    def execute_block(
        self,
        block: BasicBlock,
        start_index: int,
        repeat: int,
        warming: bool = False,
    ) -> int:
        """Execute ``repeat`` back-to-back instances of ``block``.

        Updates all microarchitectural state (caches, predictor) and the
        core's counters, advances the local clock, and returns the cycles
        consumed.  ``warming`` marks functional warming during
        fast-forward; it is costed exactly like detailed mode (see the
        note above the stall computation), so the flag does not change
        the result.
        """
        n = block.n_instr * repeat
        self.instructions += n
        if not block.image.is_library:
            self.filtered_instructions += n

        hierarchy = self.hierarchy
        core_id = self.core_id

        # Instruction fetch: probe each line the block spans once per batch;
        # every L1-I miss is charged the L3 latency.
        fetch_stall = hierarchy.fetch(
            core_id,
            block.pc >> LINE_SHIFT,
            (block.pc + 4 * block.n_instr - 1) >> LINE_SHIFT,
        ) * hierarchy.latency(L3)

        mispredicts = self.predictor.execute_block(block, repeat)

        mem_latency = 0
        dependent_latency = 0
        num_misses = 0
        for _slot, gen, is_write, dependent in block.mem_ops:
            self.l1d_accesses += repeat
            if repeat == 1:
                probe_lines = (
                    gen.address_at(core_id, start_index) >> LINE_SHIFT,
                )
            else:
                lines = (
                    gen.addresses(core_id, start_index, repeat).astype(np.int64)
                    >> LINE_SHIFT
                )
                keep = np.empty(repeat, dtype=bool)
                keep[0] = True
                np.not_equal(lines[1:], lines[:-1], out=keep[1:])
                probe_lines = lines[keep].tolist()
            misses, stall = hierarchy.access(core_id, probe_lines, is_write)
            num_misses += misses
            if dependent:
                dependent_latency += stall
            else:
                mem_latency += stall

        # Fast-forward ("warming") advances the clock with the same cost
        # model as detailed mode: the expensive state updates (cache probes,
        # predictor) must happen anyway for perfect warmup, and identical
        # timing keeps core clocks realistically aligned when a region
        # begins.  Region metrics are snapshot-differenced, so attribution
        # is unaffected.
        if self.config.out_of_order:
            mlp = min(self.config.max_outstanding_misses, max(1, num_misses))
            mem_stall = mem_latency / mlp + dependent_latency
        else:
            mem_stall = mem_latency + dependent_latency

        issue = n / self.config.dispatch_width
        issue += block.n_fp * repeat * self._fp_pressure
        issue += block.n_atomics * repeat * _ATOMIC_OVERHEAD
        cycles = int(
            issue
            + mispredicts * self.config.branch_mispredict_penalty
            + mem_stall
            + fetch_stall
        ) + 1
        self.cycle += cycles
        return cycles

    # -- address-stream note -----------------------------------------------------
    # Address streams are keyed by *core id* (== thread id in our pinned-
    # thread model), so functional and timing executions observe identical
    # streams for the same thread.
