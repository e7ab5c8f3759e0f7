"""The dynamic control-flow graph and its construction.

A DCFG differs from a static CFG in that every edge is annotated with the
number of times it was traversed during the (replayed) execution.  We build
it per thread — consecutive block executions on the same thread form an edge
— and merge the per-thread counts, mirroring the per-thread edge recording of
the paper's pin-tool (Sec. IV-D).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..errors import ProgramStructureError
from ..exec_engine.observers import Observer
from ..isa.blocks import BasicBlock
from ..isa.image import Program

#: The virtual entry node (threads' first blocks hang off it).
ENTRY = -1


class DCFG:
    """A dynamic control-flow graph with edge trip counts."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self.edge_counts: Dict[Tuple[int, int], int] = defaultdict(int)
        self.node_counts: Dict[int, int] = defaultdict(int)

    def add_edge(self, src: int, dst: int, count: int = 1) -> None:
        if count <= 0:
            raise ProgramStructureError(f"edge count must be positive, got {count}")
        self.edge_counts[(src, dst)] += count

    def add_node_executions(self, bid: int, count: int) -> None:
        self.node_counts[bid] += count

    @property
    def nodes(self) -> Set[int]:
        found = set(self.node_counts)
        for src, dst in self.edge_counts:
            found.add(src)
            found.add(dst)
        found.discard(ENTRY)
        return found

    def successors(self) -> Dict[int, List[int]]:
        succ: Dict[int, List[int]] = defaultdict(list)
        for (src, dst) in self.edge_counts:
            succ[src].append(dst)
        return dict(succ)

    def predecessors(self) -> Dict[int, List[int]]:
        pred: Dict[int, List[int]] = defaultdict(list)
        for (src, dst) in self.edge_counts:
            pred[dst].append(src)
        return dict(pred)

    def reachable_from(self, entry: int = ENTRY) -> Set[int]:
        """Nodes reachable from ``entry`` (``entry`` itself included)."""
        succ = self.successors()
        seen = {entry}
        stack = [entry]
        while stack:
            node = stack.pop()
            for child in succ.get(node, ()):
                if child not in seen:
                    seen.add(child)
                    stack.append(child)
        return seen

    def block(self, bid: int) -> BasicBlock:
        return self.program.blocks[bid]


class DCFGBuilder(Observer):
    """Observer that accumulates per-thread edges during a (re)play.

    ``track_threads=True`` additionally keeps each thread's own edge
    multiset, from which :meth:`thread_graph` reconstructs the per-thread
    subgraph — what the lint dominance-certification pass reasons over
    (a marker-dominance claim must hold on every thread's own walk, not
    just the merged graph).  The default stays off: the merged graph is
    all the profiling pipeline needs, and the per-thread dicts would
    roughly double the builder's memory.

    Edges depend only on each thread's own block order, so the builder
    needs no flush before a sync.  A batch is reduced with one stable
    sort per key space; the dicts receive each distinct key's batch sum
    in first-occurrence order, so their key order is the one per-event
    delivery produces.
    """

    needs_flush_before_sync = False

    def __init__(
        self, program: Program, nthreads: int, track_threads: bool = False
    ) -> None:
        self.dcfg = DCFG(program)
        self._nblocks = len(program.blocks)
        #: Each thread's last block, ENTRY before its first.
        self._last: List[int] = [ENTRY] * nthreads
        self._thread_edges: Optional[List[Dict[Tuple[int, int], int]]] = (
            [defaultdict(int) for _ in range(nthreads)]
            if track_threads else None
        )

    def on_block(self, tid: int, block, repeat: int) -> None:
        bid = block.bid
        dcfg = self.dcfg
        src = self._last[tid]
        dcfg.add_edge(src, bid)
        if repeat > 1:
            dcfg.add_edge(bid, bid, repeat - 1)
        dcfg.add_node_executions(bid, repeat)
        if self._thread_edges is not None:
            edges = self._thread_edges[tid]
            edges[(src, bid)] += 1
            if repeat > 1:
                edges[(bid, bid)] += repeat - 1
        self._last[tid] = bid

    def on_block_batch(self, batch) -> None:
        n = batch.size
        nb = self._nblocks
        tid = batch.tid
        bid = batch.bid
        rep = batch.repeat
        # Each event's source: the previous event of its thread, or the
        # thread's last block from earlier batches.
        order = np.argsort(tid, kind="stable")
        s_tid = tid[order]
        s_bid = bid[order]
        first = np.ones(n, dtype=bool)
        np.not_equal(s_tid[1:], s_tid[:-1], out=first[1:])
        s_src = np.empty(n, dtype=np.int64)
        s_src[1:] = s_bid[:-1]
        last = np.array(self._last, dtype=np.int64)
        s_src[first] = last[s_tid[first]]
        src = np.empty(n, dtype=np.int64)
        src[order] = s_src
        ends = np.append(np.flatnonzero(first)[1:], n) - 1
        last[s_tid[ends]] = s_bid[ends]
        self._last = last.tolist()

        # Per event, its entry edge then (repeat > 1) its self-edge:
        # key (src + 1) * nb + dst, in per-event insertion order.
        keys = np.empty((n, 2), dtype=np.int64)
        keys[:, 0] = (src + 1) * nb + bid
        keys[:, 1] = (bid + 1) * nb + bid
        counts = np.empty((n, 2), dtype=np.int64)
        counts[:, 0] = 1
        counts[:, 1] = rep - 1
        keep = counts.reshape(-1) > 0
        keys = keys.reshape(-1)[keep]
        counts = counts.reshape(-1)[keep]
        dcfg = self.dcfg
        edge_counts = dcfg.edge_counts
        ukeys, sums = _first_order_sums(keys, counts)
        for k, c in zip(ukeys.tolist(), sums.tolist()):
            edge_counts[(k // nb - 1, k % nb)] += c
        node_counts = dcfg.node_counts
        ubids, sums = _first_order_sums(bid, rep)
        for b, c in zip(ubids.tolist(), sums.tolist()):
            node_counts[b] += c
        if self._thread_edges is not None:
            span = (nb + 1) * nb
            tids = np.repeat(tid, 2)[keep]
            ukeys, sums = _first_order_sums(tids * span + keys, counts)
            thread_edges = self._thread_edges
            for k, c in zip(ukeys.tolist(), sums.tolist()):
                t, e = divmod(k, span)
                thread_edges[t][(e // nb - 1, e % nb)] += c

    def result(self) -> DCFG:
        return self.dcfg

    def thread_graph(self, tid: int) -> DCFG:
        """One thread's own subgraph (requires ``track_threads=True``).

        Node execution counts are derived from in-flow — every execution
        of a block on this thread arrived over exactly one recorded edge
        (the virtual ENTRY edge for its first block) — so the flow
        conservation laws hold on the reconstruction by construction.
        """
        if self._thread_edges is None:
            raise ProgramStructureError(
                "DCFGBuilder was constructed without track_threads=True"
            )
        graph = DCFG(self.dcfg.program)
        for (src, dst), count in self._thread_edges[tid].items():
            graph.add_edge(src, dst, count)
            graph.add_node_executions(dst, count)
        return graph

    def thread_graphs(self) -> List[DCFG]:
        if self._thread_edges is None:
            raise ProgramStructureError(
                "DCFGBuilder was constructed without track_threads=True"
            )
        return [self.thread_graph(t) for t in range(len(self._thread_edges))]


def _first_order_sums(
    keys: np.ndarray, counts: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Distinct ``keys`` in first-occurrence order, with their summed
    ``counts``."""
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    starts = np.flatnonzero(
        np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1]))
    )
    sums = np.add.reduceat(counts[order], starts)
    by_first = np.argsort(order[starts])
    return sorted_keys[starts][by_first], sums[by_first]


def build_dcfg_from_pinball(program: Program, pinball) -> DCFG:
    """Replay a pinball and build its DCFG (the paper's analysis step)."""
    from ..pinplay.replayer import ConstrainedReplayer

    builder = DCFGBuilder(program, pinball.nthreads)
    ConstrainedReplayer(program, pinball, observers=(builder,)).run()
    return builder.result()
