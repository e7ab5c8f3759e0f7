"""(PC, count) region markers.

Section III-C of the paper: a region's start and end are each an ordered
pair ``(PC, count)`` where PC is a loop-header instruction in the main image
and ``count`` is the *global* execution count of that PC.  Counts of worker
loops are invariant across executions of an unmodified program on a fixed
input, even when spin-loop instruction counts vary — which is why these
markers stay valid simulation points where raw instruction counts do not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional

import numpy as np

from ..errors import RegionError
from ..isa.blocks import BasicBlock


@dataclass(frozen=True)
class Marker:
    """One region boundary: the ``count``-th execution of the block at ``pc``.

    ``count`` is zero-based: ``Marker(pc, 5)`` names the moment just before
    the 6th execution of ``pc`` begins.
    """

    pc: int
    count: int

    def __post_init__(self) -> None:
        if self.count < 0:
            raise RegionError(f"marker count must be >= 0, got {self.count}")

    def __str__(self) -> str:
        return f"({self.pc:#x}, {self.count})"


class MarkerTracker:
    """Tracks global execution counts of a set of marker PCs.

    Drivers feed it every block execution; it answers "did marker M just
    trigger?".  Used both by the slicer (to place boundaries) and by the
    timing simulator (to find region start/end during fast-forward).
    """

    def __init__(self, marker_blocks: Iterable[BasicBlock]) -> None:
        self._counts: Dict[int, int] = {}
        self._by_bid: Dict[int, int] = {}
        for block in marker_blocks:
            if block.pc in self._counts and block.bid not in self._by_bid:
                # Two distinct blocks sharing one PC would silently merge
                # their counts into one slot, corrupting every (PC, count)
                # marker at that address.
                raise RegionError(
                    f"marker blocks {block.name!r} (bid {block.bid}) and an "
                    f"earlier block share pc {block.pc:#x}; markers must "
                    f"map one PC to one block"
                )
            self._counts[block.pc] = 0
            self._by_bid[block.bid] = block.pc

    def is_marker_bid(self, bid: int) -> bool:
        return bid in self._by_bid

    def count(self, pc: int) -> int:
        try:
            return self._counts[pc]
        except KeyError:
            raise RegionError(f"pc {pc:#x} is not a tracked marker") from None

    def record(self, bid: int, repeat: int = 1) -> Optional[int]:
        """Record ``repeat`` executions of block ``bid``.

        Returns the pre-execution count if ``bid`` is a marker, else None.
        """
        pc = self._by_bid.get(bid)
        if pc is None:
            return None
        before = self._counts[pc]
        self._counts[pc] = before + repeat
        return before

    def record_batch(self, bids: np.ndarray, repeats: np.ndarray) -> None:
        """Record a run of executions at once.

        The counts afterwards equal those of one :meth:`record` per
        event; non-marker bids are ignored.  The per-bid repeat sums are
        integers, exact in the ``bincount`` float64 below 2**53.
        """
        if bids.size == 0:
            return
        per_bid = np.bincount(bids, weights=repeats)
        by_bid = self._by_bid
        counts = self._counts
        for bid in np.flatnonzero(per_bid).tolist():
            pc = by_bid.get(bid)
            if pc is not None:
                counts[pc] += int(per_bid[bid])

    def snapshot(self) -> Dict[int, int]:
        """Current counts, keyed by PC."""
        return dict(self._counts)

    def sync(self, counts: Dict[int, int]) -> None:
        """Jump tracked counts forward to a later cut's values.

        A fast-forwarded replay advances past marker executions without
        delivering them; the skip accounting knows the true global
        counts at the landing cut and resyncs the tracker here.  PCs
        this tracker does not follow are ignored.
        """
        for pc, count in counts.items():
            if pc in self._counts:
                self._counts[pc] = count
