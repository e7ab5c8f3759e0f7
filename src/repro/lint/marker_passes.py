"""Marker validity passes.

Section III-C of the paper: a region boundary is a ``(PC, count)`` pair
where the PC is a loop-header instruction *in the main image*.  Section
III-D excludes spin loops (library images) because their counts are
host-schedule-dependent.  These passes check both properties of a
profile's marker PCs.  CONF005 rides along: a profile with too few
slices leaves SimPoint nothing to choose between.

Bookkeeping properties of the profile itself (marker counts strictly
increase, two profiling replays give identical boundaries, every marker
PC names a block) are checked on genuine pipeline artifacts by
``tests/test_pipeline_invariants.py``, not here.
"""

from __future__ import annotations

from typing import List, Sequence

from ..isa.image import Program
from ..profiling.profile_result import ProfileData
from .findings import Finding, make_finding

#: CONF005 fires when a profile yields fewer slices than this.
MIN_SLICES = 2


def check_marker_blocks(
    program: Program, marker_pcs: Sequence[int]
) -> List[Finding]:
    """Rules MARK001/MARK002: static validity of every marker PC.

    A PC that names no block raises
    :class:`~repro.errors.ProgramStructureError` from ``block_at``.
    """
    findings: List[Finding] = []
    for pc in marker_pcs:
        loc = f"pc {pc:#x}"
        block = program.block_at(pc)
        if block.image is not None and block.image.is_library:
            findings.append(make_finding(
                "MARK002", f"{loc} ({block.name})",
                f"marker lies in library image {block.image.name!r}; "
                f"spin/sync loops must never bound a region",
            ))
            # A library block is disqualified outright; the loop-header
            # check below would only duplicate the diagnosis.
            continue
        if not block.is_loop_header:
            findings.append(make_finding(
                "MARK001", f"{loc} ({block.name})",
                "marker block is not a natural-loop header",
            ))
    return findings


def check_slice_population(profile: ProfileData) -> List[Finding]:
    """Rule CONF005: clustering needs a population of slices."""
    if profile.num_slices < MIN_SLICES:
        return [make_finding(
            "CONF005", f"{profile.num_slices} slice(s)",
            f"fewer than {MIN_SLICES} slices; SimPoint "
            f"selection degenerates to whole-run simulation",
        )]
    return []
