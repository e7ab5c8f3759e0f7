"""The complete up-front analysis of one recorded execution.

``profile_pinball`` is the paper's one-time analysis step (Sec. III): find
worker-loop headers in the DCFG, then replay the whole-program pinball
slicing at those loop entries while collecting filtered,
per-thread-concatenated BBVs.  The pipeline builds the DCFG while
recording and passes the headers in; without them, ``profile_pinball``
first replays the pinball once to build the DCFG.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..dcfg.graph import DCFG, build_dcfg_from_pinball
from ..dcfg.loops import loop_header_blocks
from ..errors import ProfilingError
from ..isa.blocks import BasicBlock
from ..isa.image import Program
from ..pinplay.pinball import Pinball
from ..pinplay.replayer import ConstrainedReplayer
from ..resilience import PROFILE_DIVERGENCE, maybe_inject
from .filters import FilterPolicy
from .slicer import LoopAlignedSlicer, Slice


@dataclass
class ProfileData:
    """Everything region selection needs."""

    program_name: str
    nthreads: int
    slice_size: int
    slices: List[Slice]
    marker_pcs: List[int]
    total_instructions: int
    filtered_instructions: int

    def __post_init__(self) -> None:
        if not self.slices:
            raise ProfilingError("profile produced no slices")

    def bbv_matrix(self) -> np.ndarray:
        """Stacked slice BBVs, shape ``(num_slices, dim)``."""
        return np.vstack([s.bbv for s in self.slices])

    def slice_filtered_counts(self) -> np.ndarray:
        return np.array(
            [s.filtered_instructions for s in self.slices], dtype=np.float64
        )

    @property
    def num_slices(self) -> int:
        return len(self.slices)


def marker_blocks_from_dcfg(
    program: Program,
    dcfg: DCFG,
    policy: Optional[FilterPolicy] = None,
) -> List[BasicBlock]:
    """The slicing boundary set: marker-eligible worker-loop headers.

    Main-image natural-loop headers of ``dcfg`` that ``policy`` lets
    carry markers, sorted by PC.
    """
    policy = policy or FilterPolicy()
    blocks = sorted(
        (
            b for b in loop_header_blocks(dcfg, program, main_only=True)
            if policy.marker_eligible(b)
        ),
        key=lambda b: b.pc,
    )
    if not blocks:
        raise ProfilingError(
            f"no marker-eligible loop headers found in {program.name!r}"
        )
    return blocks


def profile_pinball(
    program: Program,
    pinball: Pinball,
    slice_size: int,
    filter_policy: Optional[FilterPolicy] = None,
    marker_blocks: Optional[Sequence[BasicBlock]] = None,
    phase_aligned: bool = False,
) -> ProfileData:
    """Run the full up-front analysis on a recorded execution.

    ``marker_blocks`` defaults to the worker-loop headers discovered by a
    DCFG replay of ``pinball`` (:func:`marker_blocks_from_dcfg`).  Pass
    them explicitly when the DCFG is already at hand — the pipeline builds
    it while recording — or to experiment with alternative boundary sets.
    """
    maybe_inject(PROFILE_DIVERGENCE, f"profile:{program.name}")
    policy = filter_policy or FilterPolicy()
    if marker_blocks is None:
        marker_blocks = marker_blocks_from_dcfg(
            program, build_dcfg_from_pinball(program, pinball), policy
        )
    if not marker_blocks:
        raise ProfilingError(
            f"no marker-eligible loop headers found in {program.name!r}"
        )
    slicer = LoopAlignedSlicer(
        nthreads=pinball.nthreads,
        nblocks=program.num_blocks,
        marker_blocks=marker_blocks,
        slice_size=slice_size,
        filter_policy=policy,
        phase_aligned=phase_aligned,
    )
    result = ConstrainedReplayer(
        program, pinball, observers=(slicer,)
    ).run()
    return ProfileData(
        program_name=program.name,
        nthreads=pinball.nthreads,
        slice_size=slice_size,
        slices=slicer.slices,
        marker_pcs=sorted(b.pc for b in marker_blocks),
        total_instructions=result.total_instructions,
        filtered_instructions=result.filtered_instructions,
    )
