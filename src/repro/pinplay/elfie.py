"""ELFies: executable region checkpoints (Patil et al., CGO 2021).

The paper (Sec. II, "How to simulate") names two routes to *unconstrained*
region simulation: binary-driven ``(PC, count)`` regions, and converting a
region pinball into an executable checkpoint — an *ELFie* — that runs like
a regular program, freeing the threads from the recorded shared-memory
order.  The paper's evaluation uses the former; this module implements the
latter as the natural extension.

Our ELFie materializes a region pinball back into *live thread code*: each
thread's remaining work (block runs, barriers, lock acquires and releases)
is reconstructed from its log, and the synchronization objects are re-armed
so the timing simulator resolves barriers and locks itself — unconstrained —
starting from the checkpointed execution-counter state for exact
address-stream resumption.  Chunk and single grants were resolved at record
time; their work is already inlined in the code.  Spin/futex library
entries recorded in the log are *dropped* (an ELFie re-executes
synchronization natively rather than replaying the recorded waiting), which
is precisely what removes the constrained-replay distortions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..errors import ReplayError
from ..exec_engine.events import (
    BarrierWait,
    LockAcquire,
    LockRelease,
    SYNC_BARRIER,
    SYNC_LOCK_ACQ,
    SYNC_LOCK_REL,
)
from ..exec_engine.schedcore import OP_SYNC, log_tape
from ..isa.image import Program
from ..runtime.omp import OmpRuntime
from .pinball import RegionPinball

#: The sync kinds an ELFie's thread code holds, and their events.
_SYNC_EVENTS = {
    SYNC_BARRIER: BarrierWait,
    SYNC_LOCK_ACQ: LockAcquire,
    SYNC_LOCK_REL: LockRelease,
}


def _sync_op(entry: tuple) -> tuple:
    """The ``OP_SYNC`` op of one sync entry of an ELFie's code."""
    _tag, kind, obj_id = entry
    event = _SYNC_EVENTS.get(kind)
    if event is None:
        raise ReplayError(f"ELFie entry of kind {kind!r} has no tape op")
    return (OP_SYNC, event(obj_id))


@dataclass
class ELFie:
    """An executable region checkpoint.

    ``thread_codes`` hold, per thread, the reconstructed instruction-level
    work as ``("b", bid, repeat)`` / ``("sync", kind, obj_id)`` entries;
    ``start_exec_counts`` is the architectural-state snapshot (execution
    counters determine all address streams and branch outcomes);
    ``detail_positions`` marks where warmup ends per thread.
    """

    program_name: str
    nthreads: int
    region_id: int
    thread_codes: List[List[tuple]]
    start_exec_counts: List[List[int]]
    detail_positions: List[int]

    @property
    def num_entries(self) -> int:
        return sum(len(code) for code in self.thread_codes)

    def tapes(self, program: Program) -> List[List[tuple]]:
        """Per-thread tapes the timing simulator runs the ELFie from.

        Block entries become rows of one-pass ``OP_RUN`` ops, one row per
        entry; barriers and lock acquires and releases become ``OP_SYNC``
        ops, which the timing model resolves live.  Those are the only
        kinds :func:`pinball_to_elfie` writes: an entry of any other kind
        raises :class:`~repro.errors.ReplayError`.
        """
        return [
            log_tape(code, program.blocks, _sync_op)
            for code in self.thread_codes
        ]


def pinball_to_elfie(
    program: Program,
    omp: OmpRuntime,
    pinball: RegionPinball,
) -> ELFie:
    """Convert a region pinball into an executable checkpoint.

    Library-image block entries (spin iterations, futex paths, barrier
    bookkeeping) are stripped: the ELFie re-executes synchronization
    natively.  Sync *actions* that shape control flow are kept: barrier
    arrivals become live barriers (re-keyed per ordinal so partial barriers
    at the region edges stay consistent), lock acquire/release pairs become
    live lock operations.
    """
    if not isinstance(pinball, RegionPinball):
        raise ReplayError("ELFie conversion expects a RegionPinball")
    lib_bids = {
        block.bid for block in program.blocks if block.image.is_library
    }
    thread_codes: List[List[tuple]] = []
    detail_positions: List[int] = []
    for tid in range(pinball.nthreads):
        code: List[tuple] = []
        held_locks: Dict[int, bool] = {}
        # The pinball's detail position (a log index) maps onto the
        # stripped code as the code length when the walk reaches it; no
        # block run merges across that point.
        cut = pinball.detail_positions[tid] if pinball.detail_positions else 0
        detail: Optional[int] = None
        for i, entry in enumerate(pinball.logs[tid]):
            if i == cut:
                detail = len(code)
            if entry[0] == "b":
                if entry[1] in lib_bids:
                    continue
                if (
                    code and len(code) != detail
                    and code[-1][0] == "b" and code[-1][1] == entry[1]
                ):
                    code[-1] = ("b", entry[1], code[-1][2] + entry[2])
                else:
                    code.append(("b", entry[1], entry[2]))
            else:
                _s, kind, obj_id, _response, _gseq = entry
                if kind == SYNC_BARRIER:
                    code.append(("sync", SYNC_BARRIER, obj_id))
                elif kind == SYNC_LOCK_ACQ:
                    held_locks[obj_id] = True
                    code.append(("sync", SYNC_LOCK_ACQ, obj_id))
                elif kind == SYNC_LOCK_REL:
                    if held_locks.pop(obj_id, False):
                        code.append(("sync", SYNC_LOCK_REL, obj_id))
                    else:
                        # Release without a recorded acquire (cut mid-
                        # critical-section): drop it, the lock was never
                        # taken in the ELFie.
                        continue
                # barrier releases, chunk grants, single grants are
                # record-time artifacts; they are re-resolved live.
        if detail is None:
            detail = len(code)
        # A lock still held at the region edge must be released or the
        # ELFie deadlocks on itself at the next acquire.
        for obj_id, held in held_locks.items():
            if held:
                code.append(("sync", SYNC_LOCK_REL, obj_id))
        thread_codes.append(code)
        detail_positions.append(detail)

    # Re-key barrier ordinals per thread so every thread agrees on barrier
    # instance identity even when the cut clipped some arrivals.  The
    # truncation may cut a thread's code before its detail position.
    _rekey_barriers(thread_codes)
    detail_positions = [
        min(at, len(code)) for at, code in zip(detail_positions, thread_codes)
    ]

    return ELFie(
        program_name=pinball.program_name,
        nthreads=pinball.nthreads,
        region_id=pinball.region_id,
        thread_codes=thread_codes,
        start_exec_counts=[list(r) for r in pinball.start_exec_counts],
        detail_positions=detail_positions,
    )


def _rekey_barriers(thread_codes: List[List[tuple]]) -> None:
    """Renumber barrier ids by per-thread arrival ordinal.

    Within a region, every thread passes the same barrier sequence; the
    n-th barrier arrival of each thread is the same dynamic barrier, so the
    ordinal is a valid shared key (and robust to clipped ids).  A thread
    with fewer arrivals than the others simply stops before the extra
    barriers, which then can never release — so all threads are truncated
    to the minimum arrival count.
    """
    counts = []
    for code in thread_codes:
        counts.append(
            sum(1 for e in code if e[0] == "sync" and e[1] == SYNC_BARRIER)
        )
    if not counts:
        return
    limit = min(counts)
    for tid, code in enumerate(thread_codes):
        rekeyed: List[tuple] = []
        ordinal = 0
        for entry in code:
            if entry[0] == "sync" and entry[1] == SYNC_BARRIER:
                if ordinal >= limit:
                    break
                rekeyed.append(("sync", SYNC_BARRIER, ordinal))
                ordinal += 1
            else:
                rekeyed.append(entry)
        thread_codes[tid] = rekeyed
