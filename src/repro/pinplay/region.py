"""Cutting region checkpoints out of a whole-program pinball.

The paper generates region pinballs "with a large enough warmup region added
to the representative region" (Sec. V-A.1) so checkpoint-driven simulation
starts from warmed microarchitectural state.  Every region needs three cut
points: warmup start (the first entry whose pre-entry filtered-instruction
count reaches a coordinate), detail start (the region's start marker), and
detail end (the end marker).  :func:`extract_region_pinballs` finds all of
them in one forward pass over the pinball: repeated
:meth:`~repro.pinplay.replayer.ConstrainedReplayer.skip` calls, each the
replayer's one scheduling loop stopping at the next pending cut point and
delivering no events, so every cut is the cut a full replay passes
through.
:func:`build_region_pinball` turns three cuts into a pinball; live sampling
uses it too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..errors import RegionError, ReplayError
from ..isa.image import Program
from ..profiling.markers import Marker
from ..resilience import REGION_EXTRACT, maybe_inject
from .pinball import Pinball, RegionPinball
from .replayer import ConstrainedReplayer, CutPoint


@dataclass(frozen=True)
class RegionCut:
    """One region to extract.

    ``start``/``end`` of ``None`` mean program start/end.  ``warmup_filtered``
    is the global filtered-instruction coordinate at which the warmup prefix
    begins (clamped to the region start by construction).
    """

    region_id: int
    start: Optional[Marker]
    end: Optional[Marker]
    warmup_filtered: int = 0


def extract_region_pinballs(
    program: Program,
    pinball: Pinball,
    cuts: Sequence[RegionCut],
) -> List[RegionPinball]:
    """Extract one :class:`RegionPinball` per :class:`RegionCut`.

    One forward skip walk over ``pinball`` locates every cut point.  A
    region's start marker becomes a pending target once its warmup cut is
    found, and its end marker once its detail cut is found, which is the
    order the cuts occur in.
    """
    maybe_inject(REGION_EXTRACT, f"extract:{program.name}:{len(cuts)}")
    marker_pcs = sorted({
        m.pc for cut in cuts for m in (cut.start, cut.end) if m is not None
    })
    replayer = ConstrainedReplayer(program, pinball)
    n = len(cuts)
    warm: List[Optional[CutPoint]] = [None] * n
    warm_counts: List[Optional[List[List[int]]]] = [None] * n
    detail: List[Optional[CutPoint]] = [None] * n
    stop: List[Optional[CutPoint]] = [None] * n
    # Cut indices waiting for a marker execution, by marker.
    starts: Dict[Marker, List[int]] = {}
    ends: Dict[Marker, List[int]] = {}
    by_warmup = sorted(range(n), key=lambda i: cuts[i].warmup_filtered)
    next_warm = 0
    open_ended = any(cut.end is None for cut in cuts)

    def await_end(i: int, here: CutPoint) -> None:
        detail[i] = here
        if cuts[i].end is not None:
            ends.setdefault(cuts[i].end, []).append(i)

    while True:
        filtered = (
            cuts[by_warmup[next_warm]].warmup_filtered
            if next_warm < n else None
        )
        targets: Dict[int, int] = {}
        for m in (*starts, *ends):
            if m.count < targets.get(m.pc, m.count + 1):
                targets[m.pc] = m.count
        if filtered is None and not targets and not open_ended:
            break
        try:
            stopped, hit = replayer.skip(
                targets, filtered=filtered, track_pcs=marker_pcs
            )
        except ReplayError as exc:
            # Every marker PC is tracked from program start, so the only
            # refusal is a pending marker the replay has already passed.
            counts = replayer.cursor().marker_counts
            for m, ids in (*starts.items(), *ends.items()):
                if counts[m.pc] > m.count:
                    raise RegionError(
                        f"region {cuts[ids[0]].region_id}: marker {m} was "
                        f"passed before it became pending (global count "
                        f"{counts[m.pc]} at this cut)"
                    ) from exc
            raise
        if not stopped:
            break
        here = replayer.cut_point()
        if hit is None:
            counts = replayer.exec_counts
            while (next_warm < n and
                   cuts[by_warmup[next_warm]].warmup_filtered
                   <= here.filtered):
                i = by_warmup[next_warm]
                next_warm += 1
                warm[i] = here
                warm_counts[i] = [list(row) for row in counts]
                if cuts[i].start is None:
                    await_end(i, here)
                else:
                    starts.setdefault(cuts[i].start, []).append(i)
            continue
        target = Marker(hit.pc, targets[hit.pc])
        if hit != target:
            raise RegionError(
                f"marker {target} falls inside a batched entry (the "
                f"execution starts at count {hit.count})"
            )
        for i in starts.pop(hit, ()):
            await_end(i, here)
        for i in ends.pop(hit, ()):
            stop[i] = here

    # Open-ended cuts close at program end.
    final = replayer.cut_point()
    regions = []
    for i, cut in enumerate(cuts):
        if warm[i] is None:
            raise RegionError(
                f"region {cut.region_id}: warmup coordinate "
                f"{cut.warmup_filtered} beyond end of execution"
            )
        if detail[i] is None:
            raise RegionError(
                f"region {cut.region_id}: start marker {cut.start} never "
                f"reached"
            )
        if stop[i] is None:
            if cut.end is not None:
                raise RegionError(
                    f"region {cut.region_id}: end marker {cut.end} never "
                    f"reached"
                )
            stop[i] = final
        regions.append(build_region_pinball(
            pinball, cut.region_id, cut.start, cut.end,
            warm=warm[i], detail=detail[i], stop=stop[i],
            start_exec_counts=warm_counts[i],
        ))
    return regions


def build_region_pinball(
    pinball: Pinball,
    region_id: int,
    start: Optional[Marker],
    end: Optional[Marker],
    *,
    warm: CutPoint,
    detail: CutPoint,
    stop: CutPoint,
    start_exec_counts: List[List[int]],
) -> RegionPinball:
    """The region pinball between the ``warm`` and ``stop`` cuts.

    ``detail`` is where the simulated region starts (the ``start``
    marker's cut) and ``start_exec_counts`` the execution counts at
    ``warm``.
    """
    logs = [
        list(pinball.logs[tid][warm.positions[tid]:stop.positions[tid]])
        for tid in range(pinball.nthreads)
    ]
    _renumber_gseq(logs)
    return RegionPinball(
        program_name=pinball.program_name,
        nthreads=pinball.nthreads,
        wait_policy=pinball.wait_policy,
        seed=pinball.seed,
        logs=logs,
        total_instructions=stop.total - warm.total,
        filtered_instructions=stop.filtered - warm.filtered,
        metadata={
            "warmup_total": detail.total - warm.total,
            "warmup_filtered": detail.filtered - warm.filtered,
            "detail_total": stop.total - detail.total,
            "detail_filtered": stop.filtered - detail.filtered,
            "start": None if start is None else (start.pc, start.count),
            "end": None if end is None else (end.pc, end.count),
        },
        start_exec_counts=start_exec_counts,
        detail_positions=[
            detail.positions[tid] - warm.positions[tid]
            for tid in range(pinball.nthreads)
        ],
        region_id=region_id,
    )


def _renumber_gseq(logs: List[List[tuple]]) -> None:
    """Densely renumber sync sequence numbers, preserving relative order."""
    entries = []
    for tid, log in enumerate(logs):
        for idx, entry in enumerate(log):
            if entry[0] == "s":
                entries.append((entry[4], tid, idx))
    entries.sort()
    for new_gseq, (_, tid, idx) in enumerate(entries):
        kind, obj_id, response = logs[tid][idx][1:4]
        logs[tid][idx] = ("s", kind, obj_id, response, new_gseq)
