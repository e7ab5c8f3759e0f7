"""The timing simulator's tape loop against the timed reference.

``run_binary`` and ``run_elfie`` walk per-thread tapes and keep a thread's
turn while its clock stays below the runner-up's.
:class:`~reference_engine.ReferenceSimulator` resumes the constructs'
generators instead, rescanning the threads before every event, on the
same timed handlers.  Over generated programs — dynamic loops with
critical and atomic sections, static loops, single, master and serial
phases, 1-8 threads, both wait policies — both must give the same
:class:`~repro.timing.mcsim.SimulationResult`s, execution counts and core
clocks for a whole run, for marker regions with warm starts, and for an
ELFie of a recorded region.  ``run_pinball`` gates each recorded sync
action at its ``gseq`` turn in the same tape loop; the reference walks
the logs entry by entry instead.  Both must agree on the recorded
pinball and on its region pinballs, under either wait policy, warmed
from program start or from a later cut.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.config import GAINESTOWN_8CORE
from repro.errors import ReproError
from repro.pinplay.elfie import pinball_to_elfie
from repro.pinplay.recorder import record_execution
from repro.pinplay.region import RegionCut, extract_region_pinballs
from repro.policy import WaitPolicy
from repro.profiling.markers import Marker
from repro.timing.mcsim import MultiCoreSimulator, RegionOfInterest

from reference_engine import ReferenceSimulator
from test_tape_reference import HDR, OMP, PROGRAM, build_phases, phases

SYSTEM = GAINESTOWN_8CORE


def _outcome(sim_cls, call):
    """A run's results and end state, or the error it raised."""
    sim = sim_cls(PROGRAM, SYSTEM, OMP)
    try:
        results = call(sim)
    except ReproError as exc:  # both sides must fail alike
        return ("error", type(exc).__name__, str(exc))
    return (
        results,
        sim.exec_counts,
        [core.cycle for core in sim.cores],
    )


def _same(call):
    assert _outcome(MultiCoreSimulator, call) == _outcome(
        ReferenceSimulator, call
    )


def _regions(header_runs, cuts, warm):
    """Two marker regions on the loop header, in execution order."""
    a1, b1, a2, b2 = sorted(c % header_runs for c in cuts)
    if not a1 < b1 <= a2 < b2:
        return [RegionOfInterest(region_id=0, start=Marker(HDR.pc, a1))]
    return [
        RegionOfInterest(
            region_id=0, start=Marker(HDR.pc, a1), end=Marker(HDR.pc, b1),
            warm_start=Marker(HDR.pc, a1 // 2) if warm else None,
        ),
        RegionOfInterest(
            region_id=1, start=Marker(HDR.pc, a2), end=Marker(HDR.pc, b2),
            warm_start=Marker(HDR.pc, (b1 + a2) // 2),
        ),
    ]


@settings(max_examples=100, deadline=None)
@given(
    phase_list=phases,
    nthreads=st.integers(1, 8),
    policy=st.sampled_from([WaitPolicy.PASSIVE, WaitPolicy.ACTIVE]),
    cuts=st.lists(st.integers(0, 10**6), min_size=4, max_size=4),
    warm=st.booleans(),
    seed=st.integers(0, 2**16),
    warm_frac=st.sampled_from([0.25, 0.5, 1.0]),
)
def test_timed_tapes_match_reference(
    phase_list, nthreads, policy, cuts, warm, seed, warm_frac
):
    tp, header_runs = build_phases(phase_list)

    # A whole run.
    _same(lambda sim: sim.run_binary(tp, nthreads, policy))
    if header_runs < 4:
        return

    # Marker regions, with warm starts.
    regions = _regions(header_runs, cuts, warm)
    _same(lambda sim: sim.run_binary(tp, nthreads, policy, regions))

    # An ELFie of the first region, recorded under the functional engine.
    pinball, _ = record_execution(
        PROGRAM, tp, OMP, nthreads, wait_policy=policy, seed=seed,
    )
    roi = regions[0]
    (region_pinball,) = extract_region_pinballs(PROGRAM, pinball, [
        RegionCut(region_id=0, start=roi.start, end=roi.end),
    ])
    elfie = pinball_to_elfie(PROGRAM, OMP, region_pinball)
    _same(lambda sim: sim.run_elfie(elfie))

    # The whole pinball, the region pinball warmed from program start,
    # and the region pinball warmed from a cut a fraction of the way to
    # the region start.
    _same(lambda sim: sim.run_pinball(pinball))
    _same(lambda sim: sim.run_pinball(region_pinball))
    start = region_pinball.metadata["warmup_filtered"]
    (warm_cut,) = extract_region_pinballs(PROGRAM, pinball, [
        RegionCut(region_id=0, start=roi.start, end=roi.end,
                  warmup_filtered=int(start * warm_frac)),
    ])
    assert warm_cut.metadata["detail_total"] == (
        region_pinball.metadata["detail_total"]
    )
    _same(lambda sim: sim.run_pinball(warm_cut))
