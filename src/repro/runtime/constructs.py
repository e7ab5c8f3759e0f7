"""OpenMP-like parallel constructs.

A workload is a list of constructs executed in order by every thread (the
fork-join model with a persistent thread pool).  Constructs are *pure work
descriptions*: they hold a loop's blocks, trip counts, schedule and sync
options, and never touch scheduling, timing, or the wait policy — those
belong to the drivers.  :func:`~repro.exec_engine.schedcore.compile_streams`
is the one place that says what each construct executes: it compiles them
into per-thread tapes, and both drivers run those tapes, so the identical
program runs under the functional engine (recording/profiling) and the
timing simulator (the paper's binary-driven unconstrained simulation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple, Union

from ..errors import ProgramStructureError
from ..exec_engine.events import (
    BarrierWait,
    ChunkRequest,
    LockAcquire,
    LockRelease,
    Reduce,
    SingleRequest,
)
from ..isa.blocks import BasicBlock

SCHEDULE_STATIC = "static"
SCHEDULE_DYNAMIC = "dynamic"

#: Inner-loop trip counts may vary with the outer iteration index; that is
#: how workload models create per-thread load imbalance under static
#: scheduling (the slow iterations land on specific threads).
TripCount = Union[int, Callable[[int], int]]


def _trips(t: TripCount, outer_index: int) -> int:
    return t(outer_index) if callable(t) else t


#: Largest ``repeat`` of one batched self-loop event.  Batching
#: keeps Python event counts low, but over-large batches make thread
#: interleaving (and therefore per-slice per-thread BBV shares) artificially
#: coarse; 64 iterations keeps an event well under typical scheduling quanta.
BATCH_LIMIT = 64


@dataclass(frozen=True)
class LoopWork:
    """The work of one worker loop.

    ``header`` is the loop-header block in the main image — the
    marker-eligible "loop entry" LoopPoint slices at.  Each outer iteration
    executes the header once, then each body block for its (possibly
    iteration-dependent) trip count as a batched self-loop.
    """

    header: BasicBlock
    body: Sequence[Tuple[BasicBlock, TripCount]]

    def __post_init__(self) -> None:
        if not self.header.is_loop_header:
            raise ProgramStructureError(
                f"LoopWork header {self.header.name!r} is not a loop header"
            )

    def instructions_per_iteration(self, outer_index: int = 0) -> int:
        """Instruction cost of one outer iteration (for sizing workloads)."""
        total = self.header.n_instr
        for block, trip in self.body:
            total += block.n_instr * _trips(trip, outer_index)
        return total


@dataclass(frozen=True)
class CriticalSpec:
    """A critical section executed every ``every``-th outer iteration."""

    lock_id: int
    block: BasicBlock
    every: int = 1

    def __post_init__(self) -> None:
        if self.every < 1:
            raise ProgramStructureError("CriticalSpec.every must be >= 1")


@dataclass(frozen=True)
class AtomicSpec:
    """An atomic update executed every ``every``-th outer iteration."""

    block: BasicBlock
    every: int = 1

    def __post_init__(self) -> None:
        if self.every < 1:
            raise ProgramStructureError("AtomicSpec.every must be >= 1")


class Construct:
    """Base class: one top-level parallel construct.

    ``uid`` is assigned by :class:`~repro.runtime.thread.ThreadProgram` and
    namespaces the construct's derived sync objects (implicit barrier, loop
    counter, single ticket).  Each construct instance executes exactly once
    per program run; workloads unroll outer timestep loops into the construct
    list.

    Sync events are *interned* per construct (built lazily, since the
    derived ids need ``uid``): the scheduler tapes of
    :mod:`~repro.exec_engine.schedcore` carry the same immutable instance
    wherever it occurs instead of allocating per arrival.  Drivers never
    mutate or key on event identity, so this is observably identical.
    """

    def __init__(self) -> None:
        self.uid: int = -1

    def _barrier_event(self) -> BarrierWait:
        ev = self.__dict__.get("_ev_barrier")
        if ev is None:
            ev = self._ev_barrier = BarrierWait(self.implicit_barrier_id)
        return ev

    def _single_event(self) -> SingleRequest:
        ev = self.__dict__.get("_ev_single")
        if ev is None:
            ev = self._ev_single = SingleRequest(self.single_id)
        return ev

    # Derived sync-object ids (valid once uid is assigned).
    @property
    def implicit_barrier_id(self) -> int:
        return self.uid * 4 + 0

    @property
    def loop_id(self) -> int:
        return self.uid * 4 + 1

    @property
    def single_id(self) -> int:
        return self.uid * 4 + 2

    def total_instructions(self, nthreads: int) -> int:
        """Approximate application (main-image) instructions, all threads."""
        raise NotImplementedError


def static_chunk(total: int, nthreads: int, tid: int) -> Tuple[int, int]:
    """Contiguous static-schedule chunk ``[start, stop)`` for ``tid``."""
    base, rem = divmod(total, nthreads)
    start = tid * base + min(tid, rem)
    stop = start + base + (1 if tid < rem else 0)
    return start, stop


class ParallelFor(Construct):
    """``#pragma omp parallel for`` over ``total_iters`` outer iterations."""

    def __init__(
        self,
        work: LoopWork,
        total_iters: int,
        schedule: str = SCHEDULE_STATIC,
        chunk: int = 8,
        nowait: bool = False,
        critical: Optional[CriticalSpec] = None,
        atomic: Optional[AtomicSpec] = None,
        reduction: bool = False,
    ) -> None:
        super().__init__()
        if schedule not in (SCHEDULE_STATIC, SCHEDULE_DYNAMIC):
            raise ProgramStructureError(f"unknown schedule {schedule!r}")
        if total_iters < 0 or chunk < 1:
            raise ProgramStructureError("need total_iters >= 0 and chunk >= 1")
        self.work = work
        self.total_iters = total_iters
        self.schedule = schedule
        self.chunk = chunk
        self.nowait = nowait
        self.critical = critical
        self.atomic = atomic
        self.reduction = reduction

    def _chunk_event(self) -> ChunkRequest:
        ev = self.__dict__.get("_ev_chunk")
        if ev is None:
            ev = self._ev_chunk = ChunkRequest(
                self.loop_id, self.chunk, self.total_iters
            )
        return ev

    def _reduce_event(self) -> Reduce:
        ev = self.__dict__.get("_ev_reduce")
        if ev is None:
            ev = self._ev_reduce = Reduce()
        return ev

    def _lock_acq_event(self) -> LockAcquire:
        ev = self.__dict__.get("_ev_lock_acq")
        if ev is None:
            ev = self._ev_lock_acq = LockAcquire(self.critical.lock_id)
        return ev

    def _lock_rel_event(self) -> LockRelease:
        ev = self.__dict__.get("_ev_lock_rel")
        if ev is None:
            ev = self._ev_lock_rel = LockRelease(self.critical.lock_id)
        return ev

    def total_instructions(self, nthreads: int) -> int:
        total = 0
        for i in range(self.total_iters):
            total += self.work.instructions_per_iteration(i)
            if self.critical is not None and i % self.critical.every == 0:
                total += self.critical.block.n_instr
            if self.atomic is not None and i % self.atomic.every == 0:
                total += self.atomic.block.n_instr
        return total


class Serial(Construct):
    """A serial phase: the master executes; workers wait at the join barrier."""

    def __init__(self, work: LoopWork, iters: int) -> None:
        super().__init__()
        self.work = work
        self.iters = iters

    def total_instructions(self, nthreads: int) -> int:
        return sum(
            self.work.instructions_per_iteration(i) for i in range(self.iters)
        )


class Barrier(Construct):
    """An explicit ``#pragma omp barrier``."""

    def total_instructions(self, nthreads: int) -> int:
        return 0


class Single(Construct):
    """``#pragma omp single``: first arriver executes; implicit barrier."""

    def __init__(self, work: LoopWork, iters: int) -> None:
        super().__init__()
        self.work = work
        self.iters = iters

    def total_instructions(self, nthreads: int) -> int:
        return sum(
            self.work.instructions_per_iteration(i) for i in range(self.iters)
        )


class Master(Construct):
    """``#pragma omp master``: master executes, no implied barrier."""

    def __init__(self, work: LoopWork, iters: int) -> None:
        super().__init__()
        self.work = work
        self.iters = iters

    def total_instructions(self, nthreads: int) -> int:
        return sum(
            self.work.instructions_per_iteration(i) for i in range(self.iters)
        )
