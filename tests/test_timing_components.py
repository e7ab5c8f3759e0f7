"""Tests for caches, the branch predictor, and the memory hierarchy."""

import numpy as np
import pytest

from repro.config import CacheConfig, GAINESTOWN_8CORE
from repro.isa import ProgramBuilder, StridedAccess
from repro.isa.blocks import BRANCH_COND, BRANCH_LOOP, BranchSpec
from repro.timing.branch import (
    BranchPredictor,
    _loop_batch_mispredicts,
    stationary_mispredict_rate,
)
from repro.timing.cache import Cache
from repro.timing.hierarchy import L1, L2, L3, MEM, MemoryHierarchy


def _cache(size=1024, assoc=2):
    return Cache(CacheConfig("t", size, assoc))


class TestCacheLRU:
    def test_miss_then_hit(self):
        c = _cache()
        assert not c.access(1)
        assert c.access(1)
        assert (c.hits, c.misses) == (1, 1)

    def test_lru_eviction_order(self):
        # 2-way: fill a set with 2 lines, touch the first, insert a third;
        # the second (LRU) must be the victim.
        c = _cache(size=2 * 64, assoc=2)  # one set
        c.access(0)
        c.access(1)
        c.access(0)       # 0 becomes MRU
        c.access(2)       # evicts 1
        assert c.contains(0)
        assert not c.contains(1)
        assert c.contains(2)

    def test_set_indexing_isolates_sets(self):
        c = _cache(size=4 * 64, assoc=1)  # 4 sets, direct mapped
        c.access(0)
        c.access(1)
        assert c.contains(0) and c.contains(1)
        c.access(4)  # maps to set 0, evicts line 0
        assert not c.contains(0)

    def test_invalidate(self):
        c = _cache()
        c.access(7)
        assert c.invalidate(7)
        assert not c.contains(7)
        assert not c.invalidate(7)
        assert c.invalidations == 1

    def test_reset_stats(self):
        c = _cache()
        c.access(1)
        c.reset_stats()
        assert c.accesses == 0

    def test_capacity_bound(self):
        c = _cache(size=1024, assoc=2)  # 8 sets x 2 ways = 16 lines
        for line in range(100):
            c.access(line)
        resident = sum(len(s) for s in c.sets.values())
        assert resident <= 16


class TestLoopBranchMath:
    def _reference(self, state, repeat):
        """Step-by-step 2-bit counter over the batch's outcome stream."""
        outcomes = [True] * (repeat - 1) + [False] if repeat > 1 else [True]
        missed = 0
        for taken in outcomes:
            predicted = state >= 2
            if predicted != taken:
                missed += 1
            state = min(3, state + 1) if taken else max(0, state - 1)
        return missed, state

    @pytest.mark.parametrize("state", [0, 1, 2, 3])
    @pytest.mark.parametrize("repeat", [1, 2, 3, 5, 64, 1000])
    def test_batch_math_matches_reference(self, state, repeat):
        assert _loop_batch_mispredicts(state, repeat) == \
            self._reference(state, repeat)


class TestStationaryRate:
    @pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_matches_monte_carlo(self, p):
        rate = stationary_mispredict_rate(p)
        rng = np.random.default_rng(0)
        state, missed, n = 2, 0, 200_000
        for taken in rng.random(n) < p:
            if (state >= 2) != taken:
                missed += 1
            state = min(3, state + 1) if taken else max(0, state - 1)
        assert rate == pytest.approx(missed / n, abs=0.01)

    def test_degenerate_probabilities(self):
        assert stationary_mispredict_rate(0.0) == 0.0
        assert stationary_mispredict_rate(1.0) == 0.0

    def test_symmetric(self):
        assert stationary_mispredict_rate(0.3) == pytest.approx(
            stationary_mispredict_rate(0.7)
        )

    def test_worst_at_half(self):
        assert stationary_mispredict_rate(0.5) > stationary_mispredict_rate(0.2)


class TestBranchPredictorBlocks:
    def _block(self, branch, extra=0):
        pb = ProgramBuilder("b")
        blk = pb.routine("r").block("x", ialu=2, branch=branch,
                                    extra_branches=extra,
                                    loop_header=(branch.kind == BRANCH_LOOP))
        pb.finalize()
        return blk

    def test_loop_block_counts(self):
        bp = BranchPredictor()
        blk = self._block(BranchSpec(BRANCH_LOOP))
        missed = bp.execute_block(blk, 100)
        assert bp.branches == 100
        assert missed <= 2  # at most the closing not-taken (+initial)

    def test_cond_block_rate(self):
        bp = BranchPredictor()
        blk = self._block(BranchSpec(BRANCH_COND, taken_prob=0.5))
        bp.execute_block(blk, 10_000)
        expected = stationary_mispredict_rate(0.5) * 10_000
        assert bp.mispredicts == pytest.approx(expected, rel=0.01)

    def test_extra_branches_counted_not_missed(self):
        bp = BranchPredictor()
        blk = self._block(BranchSpec(), extra=2)
        bp.execute_block(blk, 10)
        assert bp.branches == 20
        assert bp.mispredicts == 0

    def test_remainder_accumulation_deterministic(self):
        a, b = BranchPredictor(), BranchPredictor()
        blk = self._block(BranchSpec(BRANCH_COND, taken_prob=0.3))
        for _ in range(10):
            a.execute_block(blk, 7)
        b.execute_block(blk, 70)
        assert a.mispredicts == b.mispredicts


class TestMemoryHierarchy:
    def test_levels_in_order(self):
        h = MemoryHierarchy(GAINESTOWN_8CORE)
        assert h.access(0, [42], False) == (1, h.latency(MEM))  # cold
        assert h.access(0, [42], False) == (0, 0)  # now resident in L1

    def test_l2_hit_after_l1_eviction(self):
        h = MemoryHierarchy(GAINESTOWN_8CORE)
        h.access(0, [0], False)
        # Evict line 0 from L1 (64 sets x 8 ways): touch 8 conflicting lines.
        h.access(0, [i * 64 for i in range(1, 9)], False)
        assert h.access(0, [0], False) == (1, h.latency(L2))

    def test_write_invalidates_remote_copies(self):
        h = MemoryHierarchy(GAINESTOWN_8CORE)
        h.access(0, [5], False)
        h.access(1, [5], False)
        assert h.l1d[0].contains(5) and h.l1d[1].contains(5)
        h.access(1, [5], True)
        assert not h.l1d[0].contains(5)
        assert h.l1d[1].contains(5)

    def test_read_after_remote_write_misses_privately(self):
        h = MemoryHierarchy(GAINESTOWN_8CORE)
        h.access(0, [9], False)
        h.access(1, [9], True)
        misses, stall = h.access(0, [9], False)
        # Invalidated out of core 0's private caches.
        assert misses == 1
        assert stall in (h.latency(L3), h.latency(MEM))

    def test_batch_sums_per_line_latencies(self):
        h = MemoryHierarchy(GAINESTOWN_8CORE)
        h.access(0, [1, 2], False)
        h.access(1, [2], False)
        # Core 0 holds lines 1 and 2 and misses only the cold line 3.
        assert h.access(0, [1, 2, 3], False) == (1, h.latency(MEM))
        # Core 1 holds line 2; line 1 comes from the shared L3.
        assert h.access(1, [1, 2], False) == (1, h.latency(L3))

    def test_fetch_path(self):
        h = MemoryHierarchy(GAINESTOWN_8CORE)
        assert h.fetch(0, 1000, 1000) == 1  # cold: L1-I and L3 miss
        assert h.l3.misses == 1
        assert h.fetch(0, 1000, 1001) == 1  # 1000 hits L1-I, 1001 is cold
        assert h.fetch(0, 1000, 1001) == 0

    def test_latencies_increase(self):
        h = MemoryHierarchy(GAINESTOWN_8CORE)
        assert h.latency(L1) < h.latency(L2) < h.latency(L3) < h.latency(MEM)

    def test_core_stats_isolated(self):
        h = MemoryHierarchy(GAINESTOWN_8CORE)
        h.access(3, [77], False)
        assert h.core_stats(3)["l1d_misses"] == 1
        assert h.core_stats(0)["l1d_misses"] == 0
