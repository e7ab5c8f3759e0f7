"""Property-based tests (hypothesis) on core data structures and invariants."""

from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st


from repro.clustering.kmeans import kmeans
from repro.clustering.simpoint import select_simpoints
from repro.config import CacheConfig, MemoryConfig, SystemConfig
from repro.isa.instructions import RandomAccess, StridedAccess, mix64
from repro.runtime.constructs import static_chunk
from repro.timing.branch import (
    _loop_batch_mispredicts,
    stationary_mispredict_rate,
)
from repro.timing.cache import Cache
from repro.timing.hierarchy import L1, L2, L3, MEM, MemoryHierarchy


class TestAddressGenProperties:
    @given(
        base=st.integers(0, 2**40),
        stride=st.integers(1, 512),
        window_kb=st.integers(1, 256),
        tid=st.integers(0, 15),
        start=st.integers(0, 10_000),
        count=st.integers(1, 200),
    )
    @settings(max_examples=60, deadline=None)
    def test_strided_in_bounds_and_consistent(
        self, base, stride, window_kb, tid, start, count
    ):
        window = window_kb * 1024
        gen = StridedAccess(base=base, stride=stride, window=window,
                            tid_offset=window)
        addrs = gen.addresses(tid, start, count)
        lo = base + tid * window
        assert (addrs >= lo).all() and (addrs < lo + window).all()
        # Scalar path agrees with the vector path.
        assert gen.address_at(tid, start) == addrs[0]
        # Prefix property: a longer request starts with the shorter one.
        longer = gen.addresses(tid, start, count + 10)
        assert np.array_equal(longer[:count], addrs)

    @given(
        window_kb=st.integers(1, 1024),
        seed=st.integers(0, 2**32),
        start=st.integers(0, 100_000),
        count=st.integers(1, 300),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_in_bounds_and_aligned(self, window_kb, seed, start, count):
        window = window_kb * 1024
        gen = RandomAccess(base=0x1000, window=window, seed=seed)
        addrs = gen.addresses(0, start, count)
        assert (addrs >= 0x1000).all()
        assert (addrs < 0x1000 + window).all()
        assert ((addrs - 0x1000) % 64 == 0).all()

    @given(st.integers(0, 2**64 - 1))
    @settings(max_examples=100, deadline=None)
    def test_mix64_range(self, x):
        assert 0 <= mix64(x) < 2**64


class TestStaticChunkProperties:
    @given(
        total=st.integers(0, 10_000),
        nthreads=st.integers(1, 64),
    )
    @settings(max_examples=100, deadline=None)
    def test_partition(self, total, nthreads):
        spans = [static_chunk(total, nthreads, t) for t in range(nthreads)]
        # Contiguous, ordered, covering exactly [0, total).
        assert spans[0][0] == 0
        assert spans[-1][1] == total
        for (a, b), (c, d) in zip(spans, spans[1:]):
            assert b == c
            assert b >= a and d >= c
        sizes = [b - a for a, b in spans]
        assert max(sizes) - min(sizes) <= 1


class TestCacheProperties:
    @given(
        lines=st.lists(st.integers(0, 500), min_size=1, max_size=300),
        assoc=st.sampled_from([1, 2, 4]),
        sets=st.sampled_from([4, 8, 16]),
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_reference_lru(self, lines, assoc, sets):
        """The dict-based cache agrees with a straightforward LRU model."""
        cache = Cache(CacheConfig("t", sets * assoc * 64, assoc))
        reference = {s: [] for s in range(sets)}
        for line in lines:
            s = line % sets
            ref_set = reference[s]
            ref_hit = line in ref_set
            if ref_hit:
                ref_set.remove(line)
            ref_set.append(line)
            if len(ref_set) > assoc:
                ref_set.pop(0)
            assert cache.access(line) == ref_hit

    @given(st.lists(st.integers(0, 10_000), min_size=1, max_size=500))
    @settings(max_examples=30, deadline=None)
    def test_occupancy_bounded(self, lines):
        cache = Cache(CacheConfig("t", 8 * 2 * 64, 2))
        for line in lines:
            cache.access(line)
        assert sum(len(s) for s in cache.sets.values()) <= 16
        assert cache.hits + cache.misses == len(lines)


class _RefCache:
    """Per-line LRU cache: one OrderedDict per set, built up front."""

    def __init__(self, config):
        self.num_sets = config.num_sets
        self.assoc = config.associativity
        self.sets = [OrderedDict() for _ in range(self.num_sets)]
        self.hits = self.misses = self.evictions = self.invalidations = 0

    def access(self, line):
        s = self.sets[line % self.num_sets]
        if line in s:
            s.move_to_end(line)
            self.hits += 1
            return True
        self.misses += 1
        s[line] = True
        if len(s) > self.assoc:
            s.popitem(last=False)
            self.evictions += 1
        return False

    def invalidate(self, line):
        s = self.sets[line % self.num_sets]
        if line in s:
            del s[line]
            self.invalidations += 1


class _RefHierarchy:
    """The per-line probe chain with a set-per-line presence directory."""

    def __init__(self, config):
        n = config.num_cores
        self.l1i = [_RefCache(config.l1i) for _ in range(n)]
        self.l1d = [_RefCache(config.l1d) for _ in range(n)]
        self.l2 = [_RefCache(config.l2) for _ in range(n)]
        self.l3 = _RefCache(config.l3)
        self.directory = {}
        mem = config.memory
        self.latency = {
            L2: mem.l2_latency, L3: mem.l3_latency, MEM: mem.dram_latency,
        }

    def access_line(self, core, line, is_write):
        if is_write:
            for other in self.directory.get(line, set()) - {core}:
                self.l1d[other].invalidate(line)
                self.l2[other].invalidate(line)
            self.directory[line] = {core}
        self.directory.setdefault(line, set()).add(core)
        if self.l1d[core].access(line):
            return L1
        if self.l2[core].access(line):
            return L2
        return L3 if self.l3.access(line) else MEM

    def access(self, core, lines, is_write):
        levels = [self.access_line(core, line, is_write) for line in lines]
        stalls = [self.latency[lv] for lv in levels if lv != L1]
        return len(stalls), sum(stalls)

    def fetch(self, core, first_line, last_line):
        misses = 0
        for line in range(first_line, last_line + 1):
            if not self.l1i[core].access(line):
                misses += 1
                self.l3.access(line)
        return misses


def _cache_state(cache):
    """Counters and per-set residency in LRU order (empty sets dropped)."""
    sets = cache.sets
    items = sets.items() if isinstance(sets, dict) else enumerate(sets)
    return (
        cache.hits, cache.misses, cache.evictions, cache.invalidations,
        {idx: list(s) for idx, s in items if s},
    )


def _hierarchy_state(h):
    caches = h.l1i + h.l1d + h.l2 + [h.l3]
    return [_cache_state(c) for c in caches]


_CACHE_SETS = st.sampled_from([1, 2, 3, 4, 5, 7])
_CACHE_WAYS = st.sampled_from([1, 2, 4])
_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("data"), st.integers(0, 3),
            st.lists(st.integers(0, 80), max_size=8), st.booleans(),
        ),
        st.tuples(
            st.just("fetch"), st.integers(0, 3),
            st.integers(0, 80), st.integers(0, 3),
        ),
    ),
    min_size=1, max_size=60,
)


class TestBatchedHierarchyProperties:
    @given(
        geometry=st.lists(
            st.tuples(_CACHE_SETS, _CACHE_WAYS), min_size=4, max_size=4
        ),
        ops=_OPS,
    )
    @settings(max_examples=150, deadline=None)
    def test_batched_walk_matches_per_line_chain(self, geometry, ops):
        """One pass per memory op == probing its lines one at a time."""
        (l1i, l1d, l2, l3) = (
            CacheConfig(name, sets * ways * 64, ways)
            for name, (sets, ways) in zip(("I", "D", "L2", "L3"), geometry)
        )
        config = SystemConfig(
            num_cores=4, l1i=l1i, l1d=l1d, l2=l2, l3=l3,
            memory=MemoryConfig(l2_latency=7, l3_latency=29,
                                dram_latency=113),
        )
        h = MemoryHierarchy(config)
        ref = _RefHierarchy(config)
        for kind, core, a, b in ops:
            if kind == "data":
                assert h.access(core, a, b) == ref.access(core, a, b)
            else:
                assert h.fetch(core, a, a + b) == ref.fetch(core, a, a + b)
        assert _hierarchy_state(h) == _hierarchy_state(ref)
        assert h._directory == {
            line: sum(1 << c for c in cores)
            for line, cores in ref.directory.items()
        }


class TestBranchProperties:
    @given(state=st.integers(0, 3), repeat=st.integers(1, 5000))
    @settings(max_examples=100, deadline=None)
    def test_loop_batch_bounds(self, state, repeat):
        missed, new_state = _loop_batch_mispredicts(state, repeat)
        assert 0 <= missed <= 3
        assert 0 <= new_state <= 3

    @given(p=st.floats(0.01, 0.99))
    @settings(max_examples=50, deadline=None)
    def test_stationary_rate_bounds(self, p):
        rate = stationary_mispredict_rate(p)
        # Never worse than always-mispredict, never better than min(p, 1-p)/2.
        assert 0.0 <= rate <= 0.60
        assert rate <= 2 * min(p, 1 - p)


class TestClusteringProperties:
    @given(
        n=st.integers(3, 40),
        dim=st.integers(2, 20),
        k=st.integers(1, 5),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_kmeans_labels_valid(self, n, dim, k, seed):
        k = min(k, n)
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0, 1, (n, dim))
        result = kmeans(pts, k, seed=seed)
        assert result.labels.shape == (n,)
        assert set(result.labels.tolist()) <= set(range(k))
        assert result.inertia >= 0

    @given(
        n=st.integers(2, 30),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_simpoint_mass_conservation(self, n, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0, 1, (n, 8))
        counts = rng.uniform(1, 100, n)
        sel = select_simpoints(pts, counts)
        reconstructed = sum(
            c.multiplier * counts[c.representative] for c in sel.clusters
        )
        assert reconstructed == pytest.approx(counts.sum(), rel=1e-9)
        members = sorted(m for c in sel.clusters for m in c.members)
        assert members == list(range(n))
