"""Pipeline invariants, checked on genuine artifacts.

Each property here is a piece of the pipeline's own bookkeeping: it can
only fail when the code that builds an artifact is wrong, never because
of the workload.  The artifacts come from the four end-to-end benchmark
settings at tiny scale, record seed 0, serial: lbm-train, ep-train and
xz-active run the offline stages, is-live runs the live pass.

* **Profile** — re-profiling the same pinball places identical
  ``(PC, count)`` boundaries (replay is deterministic), marker counts
  strictly increase along the run, and every marker PC names a block.
* **DCFG** — on the graph a replay builds: per-node flow is conserved,
  every node is reachable from the virtual entry, every cycle has a
  single entry, and the Cooper-Harvey-Kennedy immediate dominators equal
  an independent dominance oracle (:func:`_oracle_idoms`).
* **Cross-artifact** — the BBV block universe is a subset of the DCFG's
  blocks; the clusters partition the slices with each representative in
  its own cluster; Eq. (2) weights sum to 1 with each multiplier equal to
  mass / representative count, also after a dropped region is
  renormalized away.
* **Live** — every extrapolated region's cluster has a simulated sample,
  the per-sample masses reconcile with the profile, and the error
  estimate never rises across top-ups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set

import numpy as np
import pytest

from repro import LoopPointOptions, LoopPointPipeline, WaitPolicy
from repro.analysis.online import LiveOptions, LiveResult
from repro.clustering.simpoint import ClusterInfo, SimPointSelection
from repro.config import get_scale
from repro.dcfg.dominators import immediate_dominators
from repro.dcfg.graph import DCFG, ENTRY, build_dcfg_from_pinball
from repro.pinplay.pinball import Pinball
from repro.profiling.profile_result import ProfileData, profile_pinball
from repro.workloads.registry import get_workload

#: (workload, input class, threads, wait policy) per benchmark setting.
SETTINGS = {
    "lbm-train": ("619.lbm_s.1", "train", 8, "passive"),
    "ep-train": ("npb-ep", "C", 8, "passive"),
    "xz-active": ("657.xz_s.2", "train", 4, "active"),
    "is-live": ("npb-is", "C", 8, "passive"),
}
LIVE_CASES = ["is-live"]
OFFLINE_CASES = sorted(set(SETTINGS) - set(LIVE_CASES))
ALL_CASES = sorted(SETTINGS)

#: Relative tolerance for float sums of integer instruction counts.
RTOL = 1e-9


@dataclass
class Run:
    """One setting's genuine pipeline artifacts."""

    pipeline: LoopPointPipeline
    pinball: Pinball
    profile: ProfileData
    dcfg: DCFG
    selection: Optional[SimPointSelection] = None
    #: The live pass as the benchmark runs it, and one with top-ups on.
    lives: Optional[List[LiveResult]] = None


def _build(case: str) -> Run:
    name, input_class, nthreads, wait = SETTINGS[case]
    scale = get_scale("tiny")
    workload = get_workload(name, input_class, nthreads, scale=scale)
    pipeline = LoopPointPipeline(workload, options=LoopPointOptions(
        wait_policy=WaitPolicy(wait), scale=scale, record_seed=0, jobs=1,
    ))
    pinball = pipeline.record()
    dcfg = build_dcfg_from_pinball(workload.program, pinball)
    if case in LIVE_CASES:
        lives = [
            pipeline.live(),
            # error_target 0 spends the whole top-up budget.
            pipeline.live(LiveOptions(error_target=0.0)),
        ]
        return Run(pipeline, pinball, lives[0].profile, dcfg, lives=lives)
    return Run(pipeline, pinball, pipeline.profile(), dcfg,
               selection=pipeline.select())


@pytest.fixture(scope="module")
def run_of():
    """Each setting's artifacts, built on first use and shared by every
    test of this module."""
    cache: Dict[str, Run] = {}

    def get(case: str) -> Run:
        if case not in cache:
            cache[case] = _build(case)
        return cache[case]

    return get


def _close(a: float, b: float, rtol: float = RTOL) -> bool:
    return math.isclose(a, b, rel_tol=rtol, abs_tol=rtol)


# ---------------------------------------------------------------------------
# Profile: boundaries are execution-count-invariant (Sec. III-C).


@pytest.mark.parametrize("case", ALL_CASES)
def test_reprofile_gives_identical_boundaries(run_of, case):
    run = run_of(case)
    program = run.pipeline.workload.program
    again = profile_pinball(
        program, run.pinball, run.profile.slice_size,
        marker_blocks=[program.block_at(pc) for pc in run.profile.marker_pcs],
    )
    assert [(s.start, s.end) for s in again.slices] == [
        (s.start, s.end) for s in run.profile.slices
    ]


@pytest.mark.parametrize("case", ALL_CASES)
def test_marker_counts_strictly_increase(run_of, case):
    slices = run_of(case).profile.slices
    assert slices[0].start is None and slices[-1].end is None
    last: Dict[int, int] = {}
    for prev, s in zip(slices, slices[1:]):
        assert s.start == prev.end  # consecutive slices share a boundary
    for s in slices[:-1]:
        assert s.end.count > last.get(s.end.pc, -1)
        last[s.end.pc] = s.end.count


@pytest.mark.parametrize("case", ALL_CASES)
def test_every_marker_pc_resolves_to_a_block(run_of, case):
    run = run_of(case)
    program = run.pipeline.workload.program
    assert run.profile.marker_pcs
    for pc in run.profile.marker_pcs:
        assert program.block_at(pc).pc == pc
    for s in run.profile.slices[:-1]:
        assert s.end.pc in run.profile.marker_pcs


# ---------------------------------------------------------------------------
# DCFG: the graph a replay builds (Sec. III-D, IV-D).


def _flows(dcfg: DCFG):
    inflow: Dict[int, int] = {}
    outflow: Dict[int, int] = {}
    for (src, dst), count in dcfg.edge_counts.items():
        outflow[src] = outflow.get(src, 0) + count
        inflow[dst] = inflow.get(dst, 0) + count
    return inflow, outflow


@pytest.mark.parametrize("case", ALL_CASES)
def test_dcfg_flow_is_conserved(run_of, case):
    run = run_of(case)
    dcfg = run.dcfg
    inflow, outflow = _flows(dcfg)
    assert set(dcfg.node_counts) == dcfg.nodes
    for node in dcfg.nodes:
        # Every execution arrives over exactly one recorded edge ...
        assert inflow.get(node, 0) == dcfg.node_counts[node]
        # ... and leaves over one, except each thread's last.
        assert outflow.get(node, 0) <= inflow.get(node, 0)
    deficit = sum(inflow.get(n, 0) - outflow.get(n, 0) for n in dcfg.nodes)
    assert deficit == run.pinball.nthreads
    assert outflow[ENTRY] == run.pinball.nthreads


@pytest.mark.parametrize("case", ALL_CASES)
def test_dcfg_nodes_reachable_from_entry(run_of, case):
    dcfg = run_of(case).dcfg
    assert dcfg.nodes
    assert dcfg.nodes <= dcfg.reachable_from(ENTRY)


def _sccs(dcfg: DCFG) -> List[FrozenSet[int]]:
    """Strongly connected components by pairwise reachability (the
    graphs have tens of nodes)."""
    reach = {n: dcfg.reachable_from(n) for n in dcfg.nodes}
    out: List[FrozenSet[int]] = []
    seen: Set[int] = set()
    for n in sorted(dcfg.nodes):
        if n in seen:
            continue
        scc = frozenset(m for m in reach[n] if m != ENTRY and n in reach[m])
        seen |= scc
        out.append(scc)
    return out


@pytest.mark.parametrize("case", ALL_CASES)
def test_dcfg_cycles_have_a_single_entry(run_of, case):
    dcfg = run_of(case).dcfg
    preds = dcfg.predecessors()
    cycles = 0
    for scc in _sccs(dcfg):
        (node,) = scc if len(scc) == 1 else (None,)
        if node is not None and dcfg.edge_trip_count(node, node) == 0:
            continue  # a lone node without a self-loop: no cycle
        cycles += 1
        entries = {n for n in scc if any(p not in scc for p in preds[n])}
        assert len(entries) == 1, sorted(entries)
    assert cycles  # every benchmark runs loops


def _oracle_idoms(dcfg: DCFG) -> Dict[int, int]:
    """Immediate dominators from the textbook dataflow: ``dom(n)`` is
    ``{n}`` plus the intersection of its predecessors' sets, iterated to
    the fixpoint; ``idom(n)`` is the strict dominator that every other
    strict dominator of ``n`` dominates."""
    nodes = dcfg.reachable_from(ENTRY)
    preds = dcfg.predecessors()
    dom = {n: set(nodes) for n in nodes}
    dom[ENTRY] = {ENTRY}
    changed = True
    while changed:
        changed = False
        for n in sorted(nodes - {ENTRY}):
            new = set.intersection(
                *(dom[p] for p in preds[n] if p in nodes)
            ) | {n}
            if new != dom[n]:
                dom[n] = new
                changed = True
    idom = {}
    for n in nodes - {ENTRY}:
        strict = dom[n] - {n}
        (closest,) = [d for d in strict if strict <= dom[d]]
        idom[n] = closest
    return idom


@pytest.mark.parametrize("case", ALL_CASES)
def test_chk_idoms_match_the_dominance_oracle(run_of, case):
    dcfg = run_of(case).dcfg
    chk = immediate_dominators(dcfg)
    assert chk.pop(ENTRY) == ENTRY
    assert chk == _oracle_idoms(dcfg)


# ---------------------------------------------------------------------------
# Cross-artifact: BBVs, clusters and Eq. (2) weights.


@pytest.mark.parametrize("case", ALL_CASES)
def test_bbv_blocks_are_dcfg_blocks(run_of, case):
    run = run_of(case)
    matrix = np.asarray(run.profile.bbv_matrix())
    nthreads = run.profile.nthreads
    assert matrix.shape[1] % nthreads == 0
    nblocks = matrix.shape[1] // nthreads
    columns = np.nonzero(matrix.sum(axis=0))[0]
    bbv_bids = {int(c) % nblocks for c in columns}
    assert bbv_bids
    assert bbv_bids <= run.dcfg.nodes


@pytest.mark.parametrize("case", OFFLINE_CASES)
def test_clusters_partition_the_slices(run_of, case):
    run = run_of(case)
    clusters = run.selection.clusters
    members = sorted(m for c in clusters for m in c.members)
    assert members == list(range(run.profile.num_slices))
    for c in clusters:
        assert c.representative in c.members
        s = run.profile.slices[c.representative]
        for marker in (s.start, s.end):
            assert marker is None or marker.pc in run.profile.marker_pcs


def _assert_eq2(profile: ProfileData, clusters: List[ClusterInfo]) -> None:
    """Eq. (2): multiplier = mass / rep count, and the weights cover the
    profile exactly."""
    total = float(profile.filtered_instructions)
    weight = 0.0
    for c in clusters:
        own = float(profile.slices[c.representative].filtered_instructions)
        assert own > 0 and c.instruction_mass > 0
        assert _close(c.multiplier, c.instruction_mass / own)
        weight += c.multiplier * own / total
    assert _close(weight, 1.0, rtol=1e-6)


@pytest.mark.parametrize("case", OFFLINE_CASES)
def test_eq2_weights_reconcile(run_of, case):
    run = run_of(case)
    clusters = run.selection.clusters
    assert _close(sum(c.instruction_mass for c in clusters),
                  float(run.profile.filtered_instructions))
    _assert_eq2(run.profile, clusters)


# ---------------------------------------------------------------------------
# Live: extrapolation cover, per-sample Eq. (2), monotone estimates.


@pytest.mark.parametrize("case", LIVE_CASES)
def test_live_extrapolated_regions_have_simulated_samples(run_of, case):
    for live in run_of(case).lives:
        report = live.report
        simulated = {r.index for r in report.records if r.simulated}
        clusters = {c.cluster_id: c for c in report.clusters}
        assert sorted(m for c in report.clusters for m in c.members) == (
            list(range(report.num_regions))
        )
        extrapolated = [r for r in report.records if not r.simulated]
        assert extrapolated
        for record in extrapolated:
            cluster = clusters[record.cluster_id]
            assert record.index in cluster.members
            assert cluster.representative in simulated
        for cluster in report.clusters:
            assert cluster.samples[0] == cluster.representative
            assert set(cluster.samples) <= simulated
        assert {r.region_id for r in live.region_results} == simulated


@pytest.mark.parametrize("case", LIVE_CASES)
def test_live_sample_masses_reconcile(run_of, case):
    for live in run_of(case).lives:
        profile = live.profile
        by_cluster: Dict[int, float] = {}
        for info in live.clusters:
            own = float(
                profile.slices[info.representative].filtered_instructions
            )
            if info.multiplier > 0:
                assert _close(info.instruction_mass, info.multiplier * own)
            else:
                assert info.instruction_mass == 0
            by_cluster[info.cluster_id] = (
                by_cluster.get(info.cluster_id, 0.0) + info.instruction_mass
            )
        for cluster in live.report.clusters:
            assert _close(by_cluster[cluster.cluster_id], cluster.mass)
        assert _close(sum(by_cluster.values()),
                      float(profile.filtered_instructions))


@pytest.mark.parametrize("case", LIVE_CASES)
def test_live_error_estimate_never_rises(run_of, case):
    default, topped_up = run_of(case).lives
    assert default.report.topups == 0
    assert topped_up.report.topups > 0
    assert any(len(c.samples) > 1 for c in topped_up.report.clusters)
    for live in (default, topped_up):
        estimates = live.report.error_estimates
        assert len(estimates) == live.report.topups + 1
        for before, after in zip(estimates, estimates[1:]):
            assert after <= before
