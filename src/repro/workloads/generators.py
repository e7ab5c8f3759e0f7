"""Shared machinery for building workload models.

:class:`AppAssembler` wraps the program builder with a bump allocator for
data regions and phase-construction helpers; :func:`make_trips` produces the
iteration-dependent inner-trip-count functions that create per-thread load
imbalance under static scheduling (the paper's heterogeneous apps, Fig. 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..errors import WorkloadError
from ..isa.blocks import (
    BRANCH_COND,
    BRANCH_LOOP,
    BasicBlock,
    BranchSpec,
)
from ..isa.builder import ProgramBuilder
from ..isa.image import Program
from ..isa.instructions import (
    AddressGen,
    PointerChaseAccess,
    RandomAccess,
    StridedAccess,
)
from ..runtime.constructs import LoopWork, TripCount
from ..runtime.omp import OmpRuntime

_KB = 1024
_DATA_BASE = 0x1000_0000
#: Shared (cross-thread) data lives in its own range.
_SHARED_BASE = 0x4000_0000


@dataclass(frozen=True)
class Mem:
    """A memory-stream descriptor used by phase definitions.

    ``kind``: ``strided`` (unit/short-stride private array walk), ``shared``
    (strided over a window all threads touch — coherence traffic),
    ``random`` (hash-scattered, cache-hostile), ``chase`` (dependent
    pointer-chasing, no MLP).
    """

    kind: str
    window_kb: int
    stride: int = 8

    def __post_init__(self) -> None:
        if self.kind not in ("strided", "shared", "random", "chase"):
            raise WorkloadError(f"unknown memory pattern kind {self.kind!r}")
        if self.window_kb < 1:
            raise WorkloadError("window must be at least 1 KB")


@dataclass
class Phase:
    """One worker loop: a header plus body block(s) built by the assembler."""

    name: str
    header: BasicBlock
    body: List[BasicBlock]

    def work(self, trips: TripCount) -> LoopWork:
        """A :class:`LoopWork` running each body block ``trips`` times per
        outer iteration (split evenly across multiple body blocks)."""
        if not self.body:
            return LoopWork(self.header, [])
        if callable(trips) or len(self.body) == 1:
            per = [trips] * len(self.body)
        else:
            share, rem = divmod(trips, len(self.body))
            per = [share + (1 if i < rem else 0) for i in range(len(self.body))]
        return LoopWork(self.header, list(zip(self.body, per)))


class AppAssembler:
    """Builds the static program of one workload model."""

    def __init__(self, name: str, seed: int = 0) -> None:
        self.name = name
        self.seed = seed
        self.builder = ProgramBuilder(name)
        self.omp = OmpRuntime(self.builder)
        self._private_cursor = _DATA_BASE
        self._shared_cursor = _SHARED_BASE
        self._phase_count = 0

    # -- data allocation -------------------------------------------------------

    def _alloc(self, size: int, shared: bool) -> int:
        size = (size + 4095) & ~4095
        if shared:
            base = self._shared_cursor
            self._shared_cursor += size
        else:
            base = self._private_cursor
            # Leave room for per-thread replicas (tid_offset striding).
            self._private_cursor += size * 64
        return base

    def array(
        self, window_kb: int, stride: int = 8, shared: bool = False
    ) -> AddressGen:
        """Allocate a named array that several phases can stream over.

        Passing the returned generator to more than one phase models
        producer/consumer phases touching the *same* data (a stencil's grid
        read by one sweep and written by the next), so phase transitions
        reuse cache state instead of thrashing disjoint footprints.
        """
        window = window_kb * _KB
        return StridedAccess(
            base=self._alloc(window, shared=shared),
            stride=stride,
            window=window,
            tid_offset=0 if shared else window,
        )

    def random_array(self, window_kb: int) -> RandomAccess:
        """Allocate a shared window accessed with a hash-scattered stream."""
        window = window_kb * _KB
        self._phase_count += 1
        return RandomAccess(
            base=self._alloc(window, shared=True),
            window=window,
            seed=self.seed + self._phase_count,
            shared=False,
        )

    @staticmethod
    def touch(gen: AddressGen) -> StridedAccess:
        """A line-granular sequential walk over ``gen``'s window.

        Used by initialization phases to populate the data another phase
        will access — the reason real applications' first timestep is not
        pathologically cold.
        """
        base = getattr(gen, "base", None)
        window = getattr(gen, "window", None)
        if base is None or window is None:
            raise WorkloadError("touch() needs a generator with base/window")
        tid_offset = getattr(gen, "tid_offset", 0)
        return StridedAccess(
            base=base, stride=64, window=window, tid_offset=tid_offset
        )

    def pattern(self, mem: Mem) -> AddressGen:
        """Materialize a memory descriptor as an address generator."""
        window = mem.window_kb * _KB
        if mem.kind == "strided":
            return StridedAccess(
                base=self._alloc(window, shared=False),
                stride=mem.stride,
                window=window,
                tid_offset=window,
            )
        if mem.kind == "shared":
            return StridedAccess(
                base=self._alloc(window, shared=True),
                stride=mem.stride,
                window=window,
                tid_offset=0,
            )
        if mem.kind == "random":
            return RandomAccess(
                base=self._alloc(window, shared=True),
                window=window,
                seed=self.seed + self._phase_count,
                shared=False,
            )
        return PointerChaseAccess(
            base=self._alloc(window, shared=True),
            window=window,
            seed=self.seed + self._phase_count,
        )

    # -- phase construction -------------------------------------------------------

    def phase(
        self,
        name: str,
        *,
        ialu: int = 4,
        fp: int = 0,
        loads: Sequence[Mem] = (),
        stores: Sequence[Mem] = (),
        cond_prob: Optional[float] = None,
        hdr_ialu: int = 3,
        split_body: bool = False,
    ) -> Phase:
        """Create a worker-loop phase.

        The header is a main-image loop header (marker-eligible).  The body
        is one batched self-loop block (or two, with ``split_body``, to give
        the phase a richer BBV signature).
        """
        self._phase_count += 1
        routine = self.builder.routine(f"{name}_{self._phase_count}")
        header = routine.block(
            "hdr",
            ialu=hdr_ialu,
            branch=BranchSpec(BRANCH_LOOP),
            loop_header=True,
        )
        branch = (
            BranchSpec(BRANCH_COND, taken_prob=cond_prob)
            if cond_prob is not None
            else BranchSpec(BRANCH_LOOP)
        )
        # Entries may be Mem descriptors (a fresh allocation per phase) or
        # concrete generators from :meth:`array` (shared across phases).
        load_gens = [
            self.pattern(m) if isinstance(m, Mem) else m for m in loads
        ]
        store_gens = [
            self.pattern(m) if isinstance(m, Mem) else m for m in stores
        ]
        body: List[BasicBlock] = []
        if split_body and (len(load_gens) > 1 or fp > 1):
            half_l = len(load_gens) // 2
            half_s = len(store_gens) // 2
            body.append(
                routine.block(
                    "body_a", ialu=ialu // 2 + ialu % 2, fp=fp // 2 + fp % 2,
                    loads=load_gens[:half_l or 1], stores=store_gens[:half_s],
                    branch=BranchSpec(BRANCH_LOOP), loop_header=True,
                )
            )
            body.append(
                routine.block(
                    "body_b", ialu=ialu // 2, fp=fp // 2,
                    loads=load_gens[half_l or 1:], stores=store_gens[half_s:],
                    branch=branch, loop_header=True,
                )
            )
        else:
            body.append(
                routine.block(
                    "body", ialu=ialu, fp=fp,
                    loads=load_gens, stores=store_gens,
                    branch=branch, loop_header=True,
                )
            )
        return Phase(name=name, header=header, body=body)

    def critical_block(self, name: str, ialu: int = 6) -> BasicBlock:
        """A main-image block executed inside a critical section."""
        routine = self.builder.routine(f"{name}_crit_{self._phase_count}")
        gen = StridedAccess(
            base=self._alloc(4 * _KB, shared=True), stride=64, window=4 * _KB
        )
        return routine.block("crit", ialu=ialu, loads=[gen], stores=[gen])

    def atomic_block(self, name: str, ialu: int = 2) -> BasicBlock:
        """A main-image block performing an atomic update to shared data."""
        routine = self.builder.routine(f"{name}_atom_{self._phase_count}")
        gen = StridedAccess(
            base=self._alloc(_KB, shared=True), stride=64, window=_KB
        )
        return routine.block("atomic", ialu=ialu, atomics=[gen])

    def finalize(self) -> Program:
        return self.builder.finalize()


def make_trips(
    base: int,
    profile: str = "uniform",
    *,
    total_iters: int = 0,
    nthreads: int = 1,
    hot: int = 0,
    amplitude: float = 2.0,
) -> TripCount:
    """Inner-trip-count profiles over the outer iteration index.

    ``uniform`` — constant; ``ramp`` — linearly growing cost (the tail
    iterations, owned by the last threads under static scheduling, are
    heavier); ``hot`` — iterations of one thread's static chunk cost
    ``amplitude``x (rotate ``hot`` per timestep for time-varying imbalance,
    as in 657.xz_s.2); ``sawtooth`` — periodic cost variation decoupled from
    the thread grid.
    """
    if base < 1:
        raise WorkloadError("trip base must be >= 1")
    if profile == "uniform":
        return base
    if total_iters < 1 or nthreads < 1:
        raise WorkloadError(f"profile {profile!r} needs total_iters and nthreads")
    if profile == "ramp":
        span = max(1, total_iters - 1)
        return lambda i: max(1, int(base * (0.5 + (amplitude - 0.5) * i / span)))
    if profile == "hot":
        chunk = max(1, total_iters // nthreads)
        hot_idx = hot % nthreads
        return lambda i: int(
            base * amplitude if min(i // chunk, nthreads - 1) == hot_idx
            else base
        )
    if profile == "sawtooth":
        period = max(2, total_iters // (2 * nthreads) or 2)
        return lambda i: max(
            1, int(base * (0.6 + (amplitude - 0.6) * (i % period) / period))
        )
    raise WorkloadError(f"unknown trips profile {profile!r}")


def input_factors(scale_value: float) -> Tuple[float, float]:
    """Split an input-class scale factor into (timestep, trip) factors.

    Inner-trip growth keeps event counts (and thus analysis wall-clock)
    nearly flat while instruction counts grow — how we make ref inputs
    tractable, mirroring how bigger inputs mostly deepen loops.
    """
    if scale_value <= 0:
        raise WorkloadError("scale factor must be positive")
    trip_factor = min(3.0, scale_value)
    return scale_value / trip_factor, trip_factor
