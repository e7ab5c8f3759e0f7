"""Deeper tests of the cache hierarchy under workload-like access patterns
— the behaviours the workload models rely on for their personalities."""

from repro.config import GAINESTOWN_8CORE, LINE_SHIFT
from repro.isa.instructions import RandomAccess, StridedAccess
from repro.timing.hierarchy import L1, L2, L3, MEM, MemoryHierarchy


def _walk(hierarchy, core, gen, count, start=0, write=False):
    """Access ``count`` addresses one at a time; the level serving each."""
    level_of = {0: L1}
    level_of.update((hierarchy.latency(lv), lv) for lv in (L2, L3, MEM))
    levels = []
    for i in range(start, start + count):
        line = gen.address_at(core, i) >> LINE_SHIFT
        _misses, stall = hierarchy.access(core, [line], write)
        levels.append(level_of[stall])
    return levels


class TestWorkingSetRegimes:
    def test_l1_resident_window(self):
        h = MemoryHierarchy(GAINESTOWN_8CORE)
        gen = StridedAccess(0, 64, 16 * 1024)  # 16KB << 32KB L1
        _walk(h, 0, gen, 256)          # first pass: compulsory misses
        second = _walk(h, 0, gen, 256, start=256)
        assert all(level == L1 for level in second)

    def test_l2_resident_window(self):
        h = MemoryHierarchy(GAINESTOWN_8CORE)
        gen = StridedAccess(0, 64, 128 * 1024)  # 128KB: > L1, < 256KB L2
        lines = 128 * 1024 // 64
        _walk(h, 0, gen, lines)
        second = _walk(h, 0, gen, lines, start=lines)
        assert all(level in (L1, L2) for level in second)
        assert any(level == L2 for level in second)

    def test_streaming_window_misses_every_wrap(self):
        h = MemoryHierarchy(GAINESTOWN_8CORE)
        gen = StridedAccess(0, 64, 32 * 1024 * 1024)  # 32MB >> 8MB L3
        first = _walk(h, 0, gen, 4000)
        assert all(level == MEM for level in first)

    def test_shared_l3_serves_sibling_core(self):
        h = MemoryHierarchy(GAINESTOWN_8CORE)
        gen = StridedAccess(0, 64, 64 * 1024, tid_offset=0)
        _walk(h, 0, gen, 1024)
        other = _walk(h, 1, gen, 1024)
        # Core 1 misses privately but hits the shared L3.
        assert all(level in (L3, L1) for level in other)
        assert other[0] == L3


class TestFalseSharingAndCoherence:
    def test_ping_pong_writes(self):
        h = MemoryHierarchy(GAINESTOWN_8CORE)
        line = 123
        h.access(0, [line], True)
        h.access(1, [line], True)
        h.access(0, [line], True)
        # Each write invalidated the other core's copy.
        assert h.l1d[0].invalidations + h.l1d[1].invalidations >= 2

    def test_read_sharing_keeps_copies(self):
        h = MemoryHierarchy(GAINESTOWN_8CORE)
        line = 55
        for core in range(4):
            h.access(core, [line], False)
        for core in range(4):
            assert h.l1d[core].contains(line)

    def test_random_window_eventually_cached(self):
        h = MemoryHierarchy(GAINESTOWN_8CORE)
        gen = RandomAccess(base=0, window=256 * 1024, seed=4)
        # Touch far more times than there are lines; hit rate must rise.
        total = 256 * 1024 // 64
        _walk(h, 0, gen, 4 * total)
        hits = h.l1d[0].hits + h.l2[0].hits + h.l3.hits
        accesses = h.l1d[0].accesses
        assert hits / accesses > 0.4
