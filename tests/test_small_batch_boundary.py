"""The SMALL_BATCH_THRESHOLD boundary: both flush paths, pinned at ±1.

``EventRing.flush`` takes a scalar per-event path below the threshold
and the columnar numpy path at or above it.  The boundary is a silent
bit-identity hazard: the two paths must produce *identical* observer
state and exec counts for the same event stream, and the
engine's rng consumption must not depend on which path a capacity choice
happens to trigger.  These tests pin the exact switch point and both
sides of it.
"""

import pytest

from repro.exec_engine.engine import ExecutionEngine
from repro.exec_engine.observers import (
    InstructionCounter,
    Observer,
    TraceCollector,
)
from repro.perf.ring import EventRing, SMALL_BATCH_THRESHOLD

from conftest import PerEvent, build_toy

BOUNDARY_SIZES = [
    SMALL_BATCH_THRESHOLD - 1,  # last scalar flush
    SMALL_BATCH_THRESHOLD,      # first columnar flush
    SMALL_BATCH_THRESHOLD + 1,
]


class _BatchSpy(Observer):
    """Records per-event deliveries, whichever flush path produced them."""

    def __init__(self):
        self.calls = []

    def on_block(self, tid, block, repeat):
        self.calls.append((tid, block.bid, repeat))


def _stream(n, nblocks):
    """A stream with repeated (tid, bid) pairs so counts accumulate."""
    return [(i % 3, (i * 7) % nblocks, 1 + (i % 4)) for i in range(n)]


class TestFlushPathBitIdentity:
    @pytest.mark.parametrize("size", BOUNDARY_SIZES)
    def test_counts_and_deliveries_identical(self, size):
        program, _, _ = build_toy()
        nblocks = program.num_blocks
        stream = _stream(size, nblocks)

        spy = _BatchSpy()
        counter = InstructionCounter(3)
        ring = EventRing(program.blocks, 3, [spy, counter], capacity=8192)
        for tid, bid, repeat in stream:
            ring.append(tid, bid, repeat)
        ring.flush()

        # Reference: per-event delivery through the observer base shim.
        ref_spy = _BatchSpy()
        ref_counter = InstructionCounter(3)
        blocks = program.blocks
        ref_counts = [[0] * nblocks for _ in range(3)]
        for tid, bid, repeat in stream:
            ref_counts[tid][bid] += repeat
            for ob in (ref_spy, ref_counter):
                ob.on_block(tid, blocks[bid], repeat)

        assert spy.calls == ref_spy.calls
        assert counter.per_thread_total == ref_counter.per_thread_total
        assert counter.per_thread_filtered == ref_counter.per_thread_filtered
        assert ring.exec_counts() == ref_counts

    @pytest.mark.parametrize("size", BOUNDARY_SIZES)
    def test_split_flushes_equal_one_flush(self, size):
        """Flushing the same stream in two pieces that straddle the
        threshold must leave identical ring state."""
        program, _, _ = build_toy()
        stream = _stream(2 * size, program.num_blocks)

        def run(split):
            counter = InstructionCounter(3)
            ring = EventRing(program.blocks, 3, [counter], capacity=8192)
            for i, (tid, bid, repeat) in enumerate(stream):
                ring.append(tid, bid, repeat)
                if i + 1 == split:
                    ring.flush()
            ring.flush()
            return ring.exec_counts(), counter.per_thread_total

        whole = run(split=None)
        for split in (size - 1, size, size + 1):
            assert run(split) == whole


class TestEngineBoundaryCapacities:
    """Capacities at the threshold and ±1 force every flush through the
    boundary; the engine must stay bit-identical to per-event delivery —
    same rng stream (identical schedule), same observer state."""

    def _run(self, capacity=None, seed=5):
        """``capacity=None`` runs the per-event reference."""
        program, tp, omp = build_toy()
        obs = (InstructionCounter(4), TraceCollector(limit=None))
        engine = ExecutionEngine(
            program, tp, omp, 4, seed=seed,
            observers=obs if capacity else (PerEvent(*obs),),
            batch_capacity=capacity or 1,
        )
        result = engine.run()
        # The rng stream position after the run is part of bit-identity:
        # identical schedules must have consumed identical draws.
        return result, obs, engine._rng.getstate()

    @pytest.mark.parametrize("capacity", BOUNDARY_SIZES)
    def test_boundary_capacity_bit_identical(self, capacity):
        result_l, obs_l, rng_l = self._run()
        result_b, obs_b, rng_b = self._run(capacity=capacity)
        assert result_l == result_b
        assert rng_l == rng_b
        assert obs_l[0].per_thread_total == obs_b[0].per_thread_total
        assert obs_l[0].per_thread_filtered == obs_b[0].per_thread_filtered
        assert obs_l[1].blocks == obs_b[1].blocks
        assert obs_l[1].syncs == obs_b[1].syncs
