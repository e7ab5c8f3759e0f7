"""Marker validity passes.

Section III-C of the paper: a region boundary is a ``(PC, count)`` pair
where the PC is a loop-header instruction *in the main image* and the count
is the PC's global execution count — invariant across executions of an
unmodified program on a fixed input.  Section III-D excludes spin loops
(library images) because their counts are host-schedule-dependent.  These
passes verify both properties on a concrete profile, plus the determinism
that makes the whole analysis reproducible: profiling the same pinball
twice must yield identical boundaries.  CONF005 rides along: a profile
with too few slices leaves SimPoint nothing to choose between.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ProgramStructureError
from ..isa.image import Program
from ..pinplay.pinball import Pinball
from ..profiling.filters import FilterPolicy
from ..profiling.profile_result import ProfileData, profile_pinball
from ..profiling.slicer import Slice
from .findings import Finding, make_finding

#: A slice-boundary signature: ``(pc, count)`` per internal boundary.
BoundarySignature = List[Tuple[int, int]]

#: CONF005 fires when a profile yields fewer slices than this.
MIN_SLICES = 2


def check_marker_blocks(
    program: Program, marker_pcs: Sequence[int]
) -> List[Finding]:
    """Rules MARK001/MARK002/MARK005: static validity of every marker PC."""
    findings: List[Finding] = []
    for pc in marker_pcs:
        loc = f"pc {pc:#x}"
        try:
            block = program.block_at(pc)
        except ProgramStructureError:
            findings.append(make_finding(
                "MARK005", loc,
                "no basic block starts at this PC in any image",
            ))
            continue
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


def check_monotone_counts(slices: Sequence[Slice]) -> List[Finding]:
    """Rule MARK003: marker counts strictly increase along the run, and
    consecutive slices share their boundary marker exactly."""
    findings: List[Finding] = []
    last_count: Dict[int, int] = {}
    prev_end = None
    for s in slices:
        if s.index > 0 and s.start != prev_end:
            findings.append(make_finding(
                "MARK003", f"slice {s.index}",
                f"slice start {s.start} != previous slice end {prev_end}",
            ))
        if s.end is not None:
            seen = last_count.get(s.end.pc)
            if seen is not None and s.end.count <= seen:
                findings.append(make_finding(
                    "MARK003", f"slice {s.index} @ pc {s.end.pc:#x}",
                    f"boundary count {s.end.count} does not exceed the "
                    f"previous boundary count {seen} at the same PC",
                ))
            last_count[s.end.pc] = s.end.count
            if s.end.count < 0:
                findings.append(make_finding(
                    "MARK003", f"slice {s.index} @ pc {s.end.pc:#x}",
                    f"negative marker count {s.end.count}",
                ))
        prev_end = s.end
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


def boundary_signature(slices: Sequence[Slice]) -> BoundarySignature:
    """The profile's internal ``(PC, count)`` boundaries, in run order."""
    return [(s.end.pc, s.end.count) for s in slices if s.end is not None]


def check_replay_invariance(
    program: Program,
    pinball: Pinball,
    slice_size: int,
    reference: ProfileData,
    filter_policy: Optional[FilterPolicy] = None,
) -> List[Finding]:
    """Rule MARK004: re-profile the pinball and compare slice boundaries.

    Constrained replay is deterministic, so two profiling runs of the same
    recording must place *identical* ``(PC, count)`` boundaries — the
    reproducible-analysis requirement (1a) the paper builds on.  Marker
    blocks are pinned to the reference profile's so the comparison isolates
    the slicing, not loop rediscovery.
    """
    marker_blocks = [program.block_at(pc) for pc in reference.marker_pcs]
    second = profile_pinball(
        program, pinball, slice_size,
        filter_policy=filter_policy, marker_blocks=marker_blocks,
    )
    ref_sig = boundary_signature(reference.slices)
    new_sig = boundary_signature(second.slices)
    if ref_sig == new_sig:
        return []
    findings: List[Finding] = []
    if len(ref_sig) != len(new_sig):
        findings.append(make_finding(
            "MARK004", "<profile>",
            f"replays produced {len(ref_sig)} vs {len(new_sig)} boundaries",
        ))
    for i, (a, b) in enumerate(zip(ref_sig, new_sig)):
        if a != b:
            findings.append(make_finding(
                "MARK004", f"boundary {i}",
                f"first replay ({a[0]:#x}, {a[1]}) vs "
                f"second replay ({b[0]:#x}, {b[1]})",
            ))
            break  # one divergence point is diagnostic enough
    return findings


def run_marker_passes(
    program: Program,
    profile: ProfileData,
    pinball: Optional[Pinball] = None,
    check_invariance: bool = True,
    filter_policy: Optional[FilterPolicy] = None,
) -> List[Finding]:
    """All marker passes; the invariance re-profile needs the pinball."""
    findings = check_marker_blocks(program, profile.marker_pcs)
    findings.extend(check_monotone_counts(profile.slices))
    if check_invariance and pinball is not None:
        findings.extend(check_replay_invariance(
            program, pinball, profile.slice_size, profile,
            filter_policy=filter_policy,
        ))
    return findings
