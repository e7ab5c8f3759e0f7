"""The cache hierarchy: private L1-I/L1-D/L2 per core, shared L3.

Sharing is tracked by a presence directory over private caches: a write
invalidates every other core's private copies, so producer-consumer and
falsely-shared lines (the sync page!) bounce between cores with L3-latency
transfers — the behaviour that couples thread placement to memory timing.
The directory maps a line to an int bitmask of the cores that may hold it
privately (bit ``c`` for core ``c``): every access sets the core's bit,
and a write leaves only the writer's.  Bits are not cleared on eviction:
invalidating a line a core no longer holds is a no-op.

:meth:`MemoryHierarchy.access` takes one memory op's whole line batch and
walks L1-D -> L2 -> L3 for every line in one loop, with the caches' LRU
step inlined.  The result, and every cache's counters and contents, are
bit-identical to probing the lines one at a time in order.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

from ..config import SystemConfig
from .cache import Cache

#: Service levels, the keys of :meth:`MemoryHierarchy.latency`.
L1 = 1
L2 = 2
L3 = 3
MEM = 4


class MemoryHierarchy:
    """All caches of the simulated system plus a presence directory."""

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        n = config.num_cores
        self.l1i = [Cache(config.l1i) for _ in range(n)]
        self.l1d = [Cache(config.l1d) for _ in range(n)]
        self.l2 = [Cache(config.l2) for _ in range(n)]
        self.l3 = Cache(config.l3)
        #: line -> bitmask of cores with a private copy.
        self._directory: Dict[int, int] = {}
        mem = config.memory
        self._latency = {
            L1: config.l1d.hit_latency,
            L2: mem.l2_latency,
            L3: mem.l3_latency,
            MEM: mem.dram_latency,
        }

    def latency(self, level: int) -> int:
        return self._latency[level]

    def access(
        self, core: int, lines: Iterable[int], is_write: bool
    ) -> Tuple[int, int]:
        """One memory op's data accesses; returns ``(misses, stall_cycles)``.

        ``misses`` counts the lines L1-D did not serve; ``stall_cycles``
        sums their L2, L3 or DRAM latencies.  Installs every line in the
        core's private caches and maintains the presence directory
        (writes invalidate remote private copies).
        """
        l1, l2, l3 = self.l1d[core], self.l2[core], self.l3
        sets1, n1, a1 = l1.sets, l1.num_sets, l1.assoc
        sets2, n2, a2 = l2.sets, l2.num_sets, l2.assoc
        sets3, n3, a3 = l3.sets, l3.num_sets, l3.assoc
        directory = self._directory
        bit = 1 << core
        hits1 = misses1 = evict1 = 0
        misses2 = evict2 = misses3 = evict3 = 0
        for line in lines:
            if is_write:
                others = directory.get(line, 0) & ~bit
                if others:
                    self._invalidate(line, others)
                directory[line] = bit
            else:
                directory[line] = directory.get(line, 0) | bit

            # L1-D
            s = sets1[line % n1]
            if line in s:
                del s[line]
                s[line] = True
                hits1 += 1
                continue
            s[line] = True
            if len(s) > a1:
                del s[next(iter(s))]
                evict1 += 1
            misses1 += 1

            # L2
            s = sets2[line % n2]
            if line in s:
                del s[line]
                s[line] = True
                continue
            s[line] = True
            if len(s) > a2:
                del s[next(iter(s))]
                evict2 += 1
            misses2 += 1

            # L3
            s = sets3[line % n3]
            if line in s:
                del s[line]
                s[line] = True
                continue
            s[line] = True
            if len(s) > a3:
                del s[next(iter(s))]
                evict3 += 1
            misses3 += 1

        l1.hits += hits1
        l1.misses += misses1
        l1.evictions += evict1
        if not misses1:
            return 0, 0
        l2.hits += misses1 - misses2
        l2.misses += misses2
        l2.evictions += evict2
        l3.hits += misses2 - misses3
        l3.misses += misses3
        l3.evictions += evict3
        lat = self._latency
        stall = (
            (misses1 - misses2) * lat[L2]
            + (misses2 - misses3) * lat[L3]
            + misses3 * lat[MEM]
        )
        return misses1, stall

    def _invalidate(self, line: int, cores: int) -> None:
        """Drop ``line`` from the private caches of every core in ``cores``."""
        while cores:
            low = cores & -cores
            other = low.bit_length() - 1
            self.l1d[other].invalidate(line)
            self.l2[other].invalidate(line)
            cores ^= low

    def fetch(self, core: int, first_line: int, last_line: int) -> int:
        """Instruction fetch of lines ``first_line..last_line``; L1-I backed
        by the shared L3.  Returns the number of L1-I misses."""
        l1i, l3 = self.l1i[core], self.l3
        misses = 0
        for line in range(first_line, last_line + 1):
            if not l1i.access(line):
                misses += 1
                l3.access(line)
        return misses

    # -- statistics -----------------------------------------------------------

    def core_stats(self, core: int) -> Dict[str, int]:
        return {
            "l1i_misses": self.l1i[core].misses,
            "l1d_accesses": self.l1d[core].accesses,
            "l1d_misses": self.l1d[core].misses,
            "l2_misses": self.l2[core].misses,
        }

    @property
    def l3_misses(self) -> int:
        return self.l3.misses
