"""Concurrency passes over the exec-engine event stream.

Constrained replay (Sec. III-H) reproduces an execution by enforcing the
recorded total order over synchronization actions — the property iReplayer
formalizes for record-and-replay.  That guarantee only covers accesses that
*are* ordered by the recorded synchronization, so these passes check the
stream itself:

* **lock-order graph** — a cycle means the recorded order can deadlock when
  re-executed with different timing (CONC001);
* **barrier divergence** — threads of a fork-join program must observe the
  same barrier sequence (CONC002);
* **vector-clock happens-before** — a block that is lock-guarded somewhere
  but reached elsewhere without ordering is a data race the replay cannot
  promise to reproduce (CONC003).

The density of the recorded order itself needs no pass: the replayer
admits a sync entry only when its ``gseq`` is the next one in the order
and raises ``replay stuck`` otherwise, so a pinball with a missing or
duplicated ``gseq`` never reaches these checks.

The analyzer is an :class:`~repro.exec_engine.observers.Observer`, so it
runs under the functional engine and the constrained replayer alike.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..exec_engine.events import (
    SYNC_BARRIER,
    SYNC_LOCK_ACQ,
    SYNC_LOCK_REL,
)
from ..exec_engine.observers import Observer, SyncEventLog
from ..isa.blocks import BasicBlock
from .findings import Finding, make_finding

#: One shared-block access sample: (own clock, vc snapshot, locks held).
_Access = Tuple[int, Tuple[int, ...], FrozenSet[int]]

_BARRIER_REL = SYNC_BARRIER + "_rel"


def _join(a: List[int], b: Tuple[int, ...]) -> None:
    for i, v in enumerate(b):
        if v > a[i]:
            a[i] = v


class ConcurrencyAnalyzer(Observer):
    """Vector-clock + lock-order analysis of one execution.

    Vector clocks advance at barriers (all participants join) and along
    lock release→acquire edges, the two ordering primitives of the runtime
    model.  Shared-block accesses are sampled per ``(block, thread)`` in
    two categories — with and without locks held — which is enough to catch
    the realistic bug class: a block guarded by a lock on some paths but
    reached bare on another.
    """

    def __init__(self, nthreads: int) -> None:
        self.nthreads = nthreads
        self._vc: List[List[int]] = [[0] * nthreads for _ in range(nthreads)]
        self._lock_vc: Dict[int, Tuple[int, ...]] = {}
        self._held: List[Set[int]] = [set() for _ in range(nthreads)]
        #: Barrier id -> joined clock of arrivals not yet fully released.
        self._barrier_vc: Dict[int, List[int]] = {}
        #: lock-order edges: (outer, inner) -> example thread id.
        self.lock_order_edges: Dict[Tuple[int, int], int] = {}
        #: bid -> tid -> {"locked": access, "bare": access}
        self._accesses: Dict[int, Dict[int, Dict[str, _Access]]] = {}
        #: bids observed at least once with a lock held.
        self._guarded: Set[int] = set()
        #: bid -> block (for reporting).
        self._blocks: Dict[int, BasicBlock] = {}

    # -- observer interface ----------------------------------------------

    def on_block(self, tid: int, block, repeat: int) -> None:
        if block.image is not None and block.image.is_library:
            return
        if not any(is_write for (_s, _m, is_write, _d) in block.mem_ops):
            return
        bid = block.bid
        held = self._held[tid]
        if held:
            self._guarded.add(bid)
        vc = self._vc[tid]
        sample: _Access = (vc[tid], tuple(vc), frozenset(held))
        per_thread = self._accesses.setdefault(bid, {})
        per_thread.setdefault(tid, {})["locked" if held else "bare"] = sample
        self._blocks[bid] = block

    def on_sync(
        self, tid: int, kind: str, obj_id: int, response, gseq: int
    ) -> None:
        vc = self._vc[tid]
        if kind == SYNC_BARRIER:
            joined = self._barrier_vc.setdefault(
                obj_id, [0] * self.nthreads
            )
            _join(joined, tuple(vc))
        elif kind == _BARRIER_REL:
            joined = self._barrier_vc.get(obj_id)
            if joined is not None:
                _join(vc, tuple(joined))
            vc[tid] += 1
        elif kind == SYNC_LOCK_ACQ:
            for outer in self._held[tid]:
                self.lock_order_edges.setdefault((outer, obj_id), tid)
            self._held[tid].add(obj_id)
            lock_clock = self._lock_vc.get(obj_id)
            if lock_clock is not None:
                _join(vc, lock_clock)
            vc[tid] += 1
        elif kind == SYNC_LOCK_REL:
            self._held[tid].discard(obj_id)
            self._lock_vc[obj_id] = tuple(vc)
            vc[tid] += 1

    # -- analyses ----------------------------------------------------------

    def lock_cycles(self) -> List[List[int]]:
        """Elementary cycles in the lock-order graph (DFS, deduplicated)."""
        succ: Dict[int, List[int]] = {}
        for (outer, inner) in self.lock_order_edges:
            succ.setdefault(outer, []).append(inner)
        cycles: List[List[int]] = []
        seen_signatures: Set[Tuple[int, ...]] = set()

        def dfs(node: int, path: List[int], on_path: Set[int]) -> None:
            for nxt in succ.get(node, ()):
                if nxt in on_path:
                    cycle = path[path.index(nxt):] + [nxt]
                    signature = tuple(sorted(set(cycle)))
                    if signature not in seen_signatures:
                        seen_signatures.add(signature)
                        cycles.append(cycle)
                    continue
                on_path.add(nxt)
                dfs(nxt, path + [nxt], on_path)
                on_path.discard(nxt)

        for start in sorted(succ):
            dfs(start, [start], {start})
        return cycles

    def races(self) -> List[Tuple[BasicBlock, int, int]]:
        """``(block, tid_a, tid_b)`` pairs with unordered, unlocked
        conflicting accesses to a guarded block."""
        out = []
        for bid in sorted(self._guarded):
            block = self._blocks[bid]
            if block.n_atomics > 0:
                continue  # hardware-atomic updates are synchronized
            per_thread = self._accesses.get(bid, {})
            tids = sorted(per_thread)
            samples = [
                (tid, s)
                for tid in tids for s in per_thread[tid].values()
            ]
            reported: Set[Tuple[int, int]] = set()
            for i, (ta, (ca, vca, lsa)) in enumerate(samples):
                for tb, (cb, vcb, lsb) in samples[i + 1:]:
                    if ta == tb or (ta, tb) in reported:
                        continue
                    ordered = vcb[ta] >= ca or vca[tb] >= cb
                    if not ordered and not (lsa & lsb):
                        reported.add((ta, tb))
                        out.append((block, ta, tb))
        return out


def check_lock_order(analyzer: ConcurrencyAnalyzer) -> List[Finding]:
    """Rule CONC001: the lock-order graph must be acyclic."""
    findings = []
    for cycle in analyzer.lock_cycles():
        path = " -> ".join(f"lock {lock}" for lock in cycle)
        findings.append(make_finding(
            "CONC001", f"locks {sorted(set(cycle))}",
            f"lock acquisition order contains a cycle: {path}; "
            f"re-execution with different timing can deadlock",
        ))
    return findings


def check_races(analyzer: ConcurrencyAnalyzer) -> List[Finding]:
    """Rule CONC003: no unordered, unlocked access to guarded blocks."""
    findings = []
    for block, ta, tb in analyzer.races():
        findings.append(make_finding(
            "CONC003", f"{block.name} (pc {block.pc:#x})",
            f"threads {ta} and {tb} access this lock-guarded block with "
            f"no happens-before edge and no common lock",
        ))
    return findings


def check_barrier_divergence(
    log: SyncEventLog, nthreads: Optional[int] = None
) -> List[Finding]:
    """Rule CONC002: all threads see the same barrier id sequence."""
    n = nthreads if nthreads is not None else log.nthreads
    sequences = [log.barrier_sequence(tid) for tid in range(n)]
    reference = sequences[0]
    findings = []
    for tid in range(1, n):
        seq = sequences[tid]
        if seq == reference:
            continue
        limit = min(len(reference), len(seq))
        at = next(
            (i for i in range(limit) if reference[i] != seq[i]), limit
        )
        ref_at = reference[at] if at < len(reference) else "<end>"
        got_at = seq[at] if at < len(seq) else "<end>"
        findings.append(make_finding(
            "CONC002", f"thread {tid}",
            f"barrier sequence diverges from thread 0 at position {at}: "
            f"expected barrier {ref_at}, observed {got_at}",
        ))
    return findings
