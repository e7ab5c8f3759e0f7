"""A set-associative LRU cache.

Per-set LRU is implemented with insertion-ordered dicts: a hit reinserts the
tag (moving it to the MRU end); on overflow the LRU tag is the first key.
Line ``line`` maps to set ``line % num_sets``.  ``sets`` maps a set index
to its dict and is built lazily (a ``defaultdict``): a set exists once a
line has been installed in it, so a fresh cache costs nothing however
large it is.

:meth:`Cache.access` probes one line.  The hierarchy's hot path
(:meth:`~repro.timing.hierarchy.MemoryHierarchy.access`) runs the same
LRU step inline over whole line batches and updates the same counters.
"""

from __future__ import annotations

from collections import defaultdict
from typing import DefaultDict, Dict

from ..config import CacheConfig


class Cache:
    """One cache level (line-granular, tag-only)."""

    __slots__ = (
        "config", "num_sets", "assoc", "sets", "hits", "misses",
        "evictions", "invalidations",
    )

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.num_sets = config.num_sets
        self.assoc = config.associativity
        #: set index -> {line: True} in LRU-to-MRU order; built lazily.
        self.sets: DefaultDict[int, Dict[int, bool]] = defaultdict(dict)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def access(self, line: int) -> bool:
        """Access ``line`` (line-number, i.e. address >> LINE_SHIFT).

        Returns True on hit.  On miss the line is installed, evicting LRU.
        """
        s = self.sets[line % self.num_sets]
        if line in s:
            del s[line]
            s[line] = True
            self.hits += 1
            return True
        self.misses += 1
        s[line] = True
        if len(s) > self.assoc:
            del s[next(iter(s))]
            self.evictions += 1
        return False

    def contains(self, line: int) -> bool:
        s = self.sets.get(line % self.num_sets)
        return s is not None and line in s

    def invalidate(self, line: int) -> bool:
        """Drop ``line`` if present (coherence invalidation)."""
        s = self.sets.get(line % self.num_sets)
        if s is not None and line in s:
            del s[line]
            self.invalidations += 1
            return True
        return False

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Cache({self.config.name}, sets={self.num_sets}, "
            f"assoc={self.assoc}, hits={self.hits}, misses={self.misses})"
        )
