"""Live sampling: single-pass streaming profile+select with on-the-fly
extrapolation.

The offline pipeline replays the recorded execution once to slice it and
collect BBVs, clusters the fingerprints afterwards, then walks it again to
extract the chosen regions.  Live mode (Pac-Sim's idea applied to the
LoopPoint substrate) folds all of that into a *single* constrained replay:

1. A boundary **scout** (:meth:`ConstrainedReplayer.scout_region`) looks
   ahead on copied scalar state and finds where the offline slicer would
   close the next region — without delivering a single event.
2. The replay runs to a **probe** cut (a fraction of the region), the
   accumulated BBV prefix is projected into signature space, and an
   incremental clusterer (:class:`~repro.clustering.online.OnlineClusterer`)
   classifies it: **matched** regions are fast-forwarded over
   (marker-to-marker skip, no events) and their timing is later
   extrapolated from a cluster representative; **novel** regions replay in
   full, are admitted as new representatives, and are cut into region
   pinballs for detailed simulation.
3. A running **error estimate** (per-cluster signature dispersion scaled
   by the representative's cycle cost) drives an Ekman-style two-phase
   top-up: clusters whose variance contribution dominates get one more
   detailed sample each until the estimate meets the target or the budget
   runs out.  The estimate is monotone non-increasing by construction
   (fixed per-cluster spread priors, growing sample counts).

With a non-positive novelty threshold every region is novel, nothing is
ever skipped, and the streaming replay — though segmented into
``run(until=...)`` pieces — is bit-identical to the offline profile
replay: same slices, same BBVs, same final engine state.  That is the
anchor the equivalence suite pins.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..clustering.online import OnlineCluster, OnlineClusterer
from ..clustering.simpoint import ClusterInfo
from ..core.extrapolation import extrapolate_metrics
from ..errors import ProfilingError
from ..exec_engine.engine import EngineResult
from ..isa.blocks import BasicBlock
from ..isa.image import Program
from ..obs.tracer import active_metrics, active_tracer
from ..pinplay.pinball import Pinball, RegionPinball
from ..pinplay.region import build_region_pinball
from ..pinplay.replayer import ConstrainedReplayer, CutPoint, ReplayCursor
from ..profiling.filters import FilterPolicy
from ..profiling.markers import Marker
from ..profiling.profile_result import ProfileData
from ..profiling.slicer import LoopAlignedSlicer
from ..timing.mcsim import SimulationResult
from ..timing.metrics import SimMetrics


@dataclass(frozen=True)
class LiveOptions:
    """Knobs of the live sampling pass.

    ``threshold`` is the novelty distance in signature space; any value
    <= 0 forces every region novel (the offline-equivalent mode).
    ``probe_fraction`` is how much of a region is observed before
    classification.  ``error_target``/``max_topups`` bound the Ekman
    top-up pass: extra detailed samples are taken, highest expected
    error reduction first, until the running estimate drops to the
    target or the budget is spent.
    """

    threshold: float = 0.1
    probe_fraction: float = 0.3
    error_target: float = 0.02
    max_topups: int = 4
    seed: int = 42

    def __post_init__(self) -> None:
        # A NaN threshold would match every region to the first cluster
        # (``distance > nan`` is always false).
        if not math.isfinite(self.threshold):
            raise ProfilingError(
                f"threshold must be finite, got {self.threshold}"
            )
        if not 0.0 < self.probe_fraction <= 1.0:
            raise ProfilingError(
                f"probe_fraction must be in (0, 1], got {self.probe_fraction}"
            )
        if self.error_target < 0.0:
            raise ProfilingError(
                f"error_target must be >= 0, got {self.error_target}"
            )
        if self.max_topups < 0:
            raise ProfilingError(
                f"max_topups must be >= 0, got {self.max_topups}"
            )


@dataclass
class LiveRegionRecord:
    """One region's fate during the streaming pass (plain types only)."""

    index: int
    start: Optional[Tuple[int, int]]
    end: Optional[Tuple[int, int]]
    filtered_instructions: int
    total_instructions: int
    cluster_id: int
    #: Distance to the matched centroid; ``None`` for novel regions.
    distance: Optional[float]
    #: This region opened a new cluster and was simulated in detail.
    novel: bool
    #: The replay fast-forwarded over this region's tail (no events).
    skipped: bool
    #: A detailed simulation result exists for this region (novel at
    #: streaming time, or sampled later by the top-up pass).
    simulated: bool


@dataclass
class LiveClusterReport:
    """One cluster's final accounting."""

    cluster_id: int
    representative: int
    members: List[int]
    mass: int
    dispersion: float
    #: Regions of this cluster that were simulated in detail, in the
    #: order they were sampled (representative first, then top-ups).
    samples: List[int]
    #: The shared Eq. (2) multiplier of this cluster's samples:
    #: cluster mass over the summed filtered counts of the samples.
    multiplier: float


@dataclass
class LiveReport:
    """Coverage, clustering, and error accounting of one live pass."""

    threshold: float
    probe_fraction: float
    num_regions: int
    num_simulated: int
    num_skipped: int
    num_clusters: int
    #: Filtered instruction mass observed event-by-event vs skipped over.
    filtered_total: int
    simulated_filtered: int
    extrapolated_filtered: int
    #: Error estimate after initial sampling, then after each top-up —
    #: monotone non-increasing by construction.
    error_estimates: List[float]
    topups: int
    clusters: List[LiveClusterReport] = field(default_factory=list)
    records: List[LiveRegionRecord] = field(default_factory=list)

    @property
    def final_error_estimate(self) -> float:
        return self.error_estimates[-1] if self.error_estimates else 0.0

    @property
    def extrapolated_fraction(self) -> float:
        if self.filtered_total <= 0:
            return 0.0
        return self.extrapolated_filtered / self.filtered_total


@dataclass
class LiveResult:
    """Everything one live pass produces (the ``live`` stage artifact)."""

    profile: ProfileData
    report: LiveReport
    region_results: List[SimulationResult]
    clusters: List[ClusterInfo]
    predicted: SimMetrics
    engine: EngineResult


class _RegionState:
    """Internal per-region bookkeeping (cuts, cluster decision)."""

    __slots__ = (
        "index", "start", "end", "cursor", "start_exec",
        "start_total", "start_filtered", "end_positions", "end_total",
        "end_filtered", "signature", "cluster_id", "distance", "novel",
        "skipped", "simulated",
    )

    def __init__(
        self, index: int, start: Optional[Marker], cursor: ReplayCursor,
        start_exec: List[List[int]],
    ) -> None:
        self.index = index
        self.start = start
        self.end: Optional[Marker] = None
        self.cursor = cursor
        self.start_exec = start_exec
        self.start_total = sum(cursor.per_thread_total)
        self.start_filtered = sum(cursor.per_thread_filtered)
        self.end_positions: List[int] = []
        self.end_total = 0
        self.end_filtered = 0
        self.signature: Optional[np.ndarray] = None
        self.cluster_id = -1
        self.distance: Optional[float] = None
        self.novel = False
        self.skipped = False
        self.simulated = False

    @property
    def filtered(self) -> int:
        return self.end_filtered - self.start_filtered

    @property
    def total(self) -> int:
        return self.end_total - self.start_total


class LiveSampler:
    """Drives one streaming profile+select+extrapolate pass.

    ``simulate`` is called once per detailed sample with a freshly cut
    :class:`RegionPinball` and must return its
    :class:`~repro.timing.mcsim.SimulationResult` (the pipeline passes a
    fresh constrained simulator per region, exactly as the offline
    checkpoint-driven path does).
    """

    def __init__(
        self,
        program: Program,
        pinball: Pinball,
        marker_blocks: Sequence[BasicBlock],
        slice_size: int,
        warmup_instructions: int,
        simulate: Callable[[RegionPinball], SimulationResult],
        options: Optional[LiveOptions] = None,
        filter_policy: Optional[FilterPolicy] = None,
    ) -> None:
        if slice_size <= 0:
            raise ProfilingError(
                f"slice_size must be positive, got {slice_size}"
            )
        if warmup_instructions < 0:
            raise ProfilingError("warmup_instructions must be >= 0")
        if not marker_blocks:
            raise ProfilingError("live sampling needs at least one marker")
        policy = filter_policy or FilterPolicy()
        if policy.exclude_routines:
            # The scout's boundary rule reuses the replayer's filtered
            # instruction counts, which know only the image-based
            # filter; a routine-excluding policy would place boundaries
            # differently than the slicer and silently break the
            # offline-equivalence guarantee.
            raise ProfilingError(
                "live sampling supports only image-based filtering "
                "(FilterPolicy with no exclude_routines)"
            )
        self.program = program
        self.pinball = pinball
        self.marker_blocks = list(marker_blocks)
        self.marker_pcs = tuple(sorted(b.pc for b in self.marker_blocks))
        self.slice_size = slice_size
        self.warmup_instructions = warmup_instructions
        self.simulate = simulate
        self.options = options or LiveOptions()
        self.policy = policy
        self.slicer = LoopAlignedSlicer(
            nthreads=pinball.nthreads,
            nblocks=program.num_blocks,
            marker_blocks=self.marker_blocks,
            slice_size=slice_size,
            filter_policy=policy,
        )
        self.replayer = ConstrainedReplayer(
            program, pinball, observers=(self.slicer,)
        )
        self.clusterer = OnlineClusterer(
            pinball.nthreads * program.num_blocks,
            self.options.threshold,
            self.options.seed,
        )
        self._states: List[_RegionState] = []
        self._probe_target = max(
            1, int(round(self.options.probe_fraction * slice_size))
        )

    # -- streaming pass -------------------------------------------------------

    def run(self) -> LiveResult:
        """Stream, simulate, top up, extrapolate: the whole live pass."""
        tracer = active_tracer()
        with tracer.span("live:stream", stage="live"):
            engine = self._stream()
        with tracer.span(
            "live:simulate", stage="live",
            regions=sum(1 for s in self._states if s.novel),
        ):
            results = self._simulate_novel()
        with tracer.span("live:topup", stage="live") as topup_span:
            estimates, topups = self._top_up(results)
            # The whole error-estimate time series (initial estimate,
            # then one point per top-up) rides on the span, so
            # ``repro-obs report`` can render the live convergence
            # curve without replaying anything.
            topup_span.set(
                "estimates", [round(e, 6) for e in estimates]
            )
        clusters = self._cluster_infos(results)
        region_results = [
            results[i] for i in sorted(results)
        ]
        predicted = extrapolate_metrics(region_results, clusters)
        profile = ProfileData(
            program_name=self.program.name,
            nthreads=self.pinball.nthreads,
            slice_size=self.slice_size,
            slices=self.slicer.slices,
            marker_pcs=list(self.marker_pcs),
            total_instructions=engine.total_instructions,
            filtered_instructions=engine.filtered_instructions,
        )
        report = self._report(estimates, topups)
        reg = active_metrics()
        if reg is not None:
            reg.inc("live.regions", report.num_regions)
            reg.inc("live.simulated", report.num_simulated)
            reg.inc("live.skipped", report.num_skipped)
            reg.inc("live.clusters", report.num_clusters)
            reg.inc("live.topups", report.topups)
            reg.inc(
                "live.extrapolated_filtered", report.extrapolated_filtered
            )
            if report.final_error_estimate is not None:
                reg.gauge(
                    "live.final_error_estimate",
                    report.final_error_estimate,
                )
        # Per-cluster uncertainty attribution from the estimator's own
        # frozen priors: without a reference run only the *shares* are
        # known; the pipeline upgrades them to signed error cycles when
        # a full-run simulation exists.
        from ..obs.attribution import (
            attribute_error, emit_attribution, live_scores,
        )

        emit_attribution(attribute_error(
            live_scores(
                report.clusters,
                sample_cycles={
                    idx: float(res.metrics.cycles)
                    for idx, res in results.items()
                },
                sample_filtered={
                    idx: float(self._states[idx].filtered)
                    for idx in results
                },
            ),
            predicted_cycles=float(predicted.cycles),
        ))
        return LiveResult(
            profile=profile,
            report=report,
            region_results=region_results,
            clusters=clusters,
            predicted=predicted,
            engine=engine,
        )

    def _stream(self) -> EngineResult:
        """The single replay: scout, probe, classify, skip or observe."""
        replayer = self.replayer
        slicer = self.slicer
        clusterer = self.clusterer
        marker_pcs = self.marker_pcs
        # The replayer counts marker executions in every segment, observed
        # or skipped, once the PCs are tracked from program start.  The
        # slicer's tracker goes dark across a skip and resyncs from the
        # scout's counts when the skipped slice closes.
        replayer.sync_marker_counts({pc: 0 for pc in marker_pcs})
        engine: Optional[EngineResult] = None
        while True:
            state = _RegionState(
                index=len(self._states),
                start=slicer.slices[-1].end if self._states else None,
                cursor=replayer.cursor(),
                start_exec=[list(row) for row in replayer.exec_counts],
            )
            scout = replayer.scout_region(
                marker_pcs,
                slice_target=self.slice_size,
                probe_target=self._probe_target,
            )
            if scout.end is None:
                # Tail region: no closing marker before the logs run
                # out.  It was (or is about to be) fully observed, so a
                # match costs nothing extra — classify the final BBV and
                # either extrapolate it from its cluster or simulate it.
                before = len(slicer.slices)
                engine = replayer.run()
                if len(slicer.slices) == before:
                    break  # nothing left after the last boundary
                tail = slicer.slices[-1]
                self._finish_region(
                    state, end=None,
                    end_positions=list(replayer.positions),
                    end_total=replayer.total_instructions,
                    end_filtered=replayer.filtered_instructions,
                    bbv=tail.bbv,
                )
                break
            probe = scout.probe if scout.probe is not None else scout.end
            replayer.run(until=probe, finish=False)
            signature = clusterer.signature(slicer.live_peek_bbv())
            cluster, distance = clusterer.classify(signature)
            at_end = probe == scout.end
            if cluster is not None and not at_end:
                # Matched: fast-forward over the tail, close the slice
                # from the scout's exact counters, extrapolate later.
                replayer.fast_forward_to(scout.end, track_pcs=marker_pcs)
                start_ptf = state.cursor.per_thread_filtered
                slicer.live_close_skipped(
                    scout.end,
                    filtered_instructions=scout.filtered,
                    total_instructions=scout.total,
                    per_thread_filtered=[
                        scout.per_thread_filtered[t] - start_ptf[t]
                        for t in range(self.pinball.nthreads)
                    ],
                    marker_counts=scout.counts_at_end,
                )
                state.skipped = True
            else:
                if not at_end:
                    replayer.run(until=scout.end, finish=False)
                slicer.live_close_at(scout.end)
            self._finish_region(
                state, end=scout.end,
                end_positions=list(replayer.positions),
                end_total=replayer.total_instructions,
                end_filtered=replayer.filtered_instructions,
                signature=signature,
                cluster=cluster,
                distance=distance,
            )
        if engine is None:  # pragma: no cover - tail always closes above
            engine = self.replayer.run()
        if len(slicer.slices) != len(self._states):
            raise ProfilingError(
                f"live pass desynchronized: {len(slicer.slices)} slices "
                f"vs {len(self._states)} regions"
            )
        return engine

    def _finish_region(
        self,
        state: _RegionState,
        end: Optional[Marker],
        end_positions: List[int],
        end_total: int,
        end_filtered: int,
        bbv: Optional[np.ndarray] = None,
        signature: Optional[np.ndarray] = None,
        cluster: Optional[OnlineCluster] = None,
        distance: float = float("inf"),
    ) -> None:
        """Record the region's cuts and fold it into the cluster model."""
        state.end = end
        state.end_positions = end_positions
        state.end_total = end_total
        state.end_filtered = end_filtered
        clusterer = self.clusterer
        if signature is None:
            assert bbv is not None
            signature = clusterer.signature(bbv)
            cluster, distance = clusterer.classify(signature)
        state.signature = signature
        if cluster is None:
            admitted = clusterer.admit(
                state.index, signature, mass=state.filtered
            )
            state.cluster_id = admitted.cluster_id
            state.novel = True
            state.simulated = True
        else:
            clusterer.attach(
                cluster, state.index, signature, distance,
                mass=state.filtered,
            )
            state.cluster_id = cluster.cluster_id
            state.distance = float(distance)
        self._states.append(state)

    # -- region pinball construction ------------------------------------------

    def region_pinball(self, index: int) -> RegionPinball:
        """Cut region ``index``'s checkpoint (warmup prefix + detail).

        Reconstructs the same three cuts
        :func:`~repro.pinplay.region.extract_region_pinballs` finds with
        its extraction walk — warmup start at a global filtered
        coordinate, detail start at the region's start cut, detail end
        at its end cut — from the region-start snapshots the streaming
        pass kept, so no extra walk is ever needed.
        """
        state = self._states[index]
        replayer = self.replayer
        warm_target = max(
            0, state.start_filtered - self.warmup_instructions
        )
        # The deterministic schedule passes through every region-start
        # cut, so the first entry at/after the warmup coordinate is
        # found by walking from the latest snapshot strictly before it.
        starts = [s.start_filtered for s in self._states]
        snap = self._states[max(0, bisect_left(starts, warm_target) - 1)]
        warm = replayer.scout_filtered_cut(
            cursor=snap.cursor, target_filtered=warm_target
        )
        warm_counts = replayer.advance_exec_counts(
            snap.start_exec, snap.cursor.positions, warm.positions
        )
        return build_region_pinball(
            self.pinball, state.index, state.start, state.end,
            warm=warm,
            detail=CutPoint(
                state.cursor.positions, state.start_total,
                state.start_filtered,
            ),
            stop=CutPoint(
                state.end_positions, state.end_total, state.end_filtered
            ),
            start_exec_counts=warm_counts,
        )

    # -- detailed simulation and top-up ---------------------------------------

    def _simulate_novel(self) -> Dict[int, SimulationResult]:
        results: Dict[int, SimulationResult] = {}
        for state in self._states:
            if state.novel:
                results[state.index] = self.simulate(
                    self.region_pinball(state.index)
                )
        return results

    def _error_terms(
        self, results: Dict[int, SimulationResult]
    ) -> Tuple[List[float], float]:
        """Fixed per-cluster spread priors and the fixed denominator.

        The prior ``s_j`` is the cluster's signature dispersion scaled
        by its representative's cycles-per-filtered-instruction — a
        proxy for how much timing spread one representative may be
        hiding.  Both the priors and the denominator (the initial
        predicted total cycles) are frozen here; later top-ups only grow
        the per-cluster sample counts, which makes the running estimate
        monotone non-increasing by construction.
        """
        priors: List[float] = []
        denom = 0.0
        for cluster in self.clusterer.clusters:
            rep = cluster.representative
            rep_filtered = self._states[rep].filtered
            result = results.get(rep)
            cpi = (
                result.metrics.cycles / rep_filtered
                if result is not None and rep_filtered > 0 else 0.0
            )
            priors.append(cluster.dispersion * cpi)
            denom += cluster.mass * cpi
        return priors, denom

    @staticmethod
    def _error_estimate(
        clusters: Sequence[OnlineCluster],
        priors: Sequence[float],
        denom: float,
        samples: Dict[int, List[int]],
    ) -> float:
        if denom <= 0.0:
            return 0.0
        var = 0.0
        for cluster, prior in zip(clusters, priors):
            m = max(1, len(samples.get(cluster.cluster_id, ())))
            var += (cluster.mass * prior) ** 2 / m
        return float(np.sqrt(var)) / denom

    def _top_up(
        self, results: Dict[int, SimulationResult]
    ) -> Tuple[List[float], int]:
        """Ekman-style second phase: one more sample where it matters.

        Candidate order is deterministic: the cluster with the largest
        expected variance reduction first (Neyman-flavoured: reduction
        of ``(mass * prior)^2 / m`` from one more sample), and within a
        cluster the lowest-indexed unsampled reservoir exemplar, falling
        back to the lowest-indexed unsampled member.
        """
        self._samples = samples = {
            c.cluster_id: [c.representative]
            for c in self.clusterer.clusters
        }
        priors, denom = self._error_terms(results)
        clusters = self.clusterer.clusters
        estimates = [
            self._error_estimate(clusters, priors, denom, samples)
        ]
        topups = 0
        reg = active_metrics()
        while (
            topups < self.options.max_topups
            and estimates[-1] > self.options.error_target
        ):
            best = None
            best_gain = 0.0
            for cluster, prior in zip(clusters, priors):
                candidate = self._topup_candidate(cluster, samples)
                if candidate is None:
                    continue
                m = len(samples[cluster.cluster_id])
                gain = (cluster.mass * prior) ** 2 * (
                    1.0 / m - 1.0 / (m + 1)
                )
                if gain > best_gain:
                    best_gain = gain
                    best = (cluster, candidate)
            if best is None or best_gain <= 0.0:
                break
            cluster, candidate = best
            results[candidate] = self.simulate(
                self.region_pinball(candidate)
            )
            self._states[candidate].simulated = True
            samples[cluster.cluster_id].append(candidate)
            topups += 1
            estimates.append(
                self._error_estimate(clusters, priors, denom, samples)
            )
            if reg is not None:
                reg.observe("live.error_estimate", estimates[-1])
        return estimates, topups

    def _topup_candidate(
        self, cluster: OnlineCluster, samples: Dict[int, List[int]]
    ) -> Optional[int]:
        taken = set(samples[cluster.cluster_id])
        exemplars = sorted(
            idx for idx, _ in cluster.reservoir if idx not in taken
        )
        if exemplars:
            return exemplars[0]
        rest = sorted(m for m in cluster.members if m not in taken)
        return rest[0] if rest else None

    # -- extrapolation --------------------------------------------------------

    def _cluster_infos(
        self, results: Dict[int, SimulationResult]
    ) -> List[ClusterInfo]:
        """Per-sample Eq. (2) weights.

        Each detailed sample of a cluster becomes one
        :class:`ClusterInfo` whose multiplier is shared across the
        cluster — cluster mass over the summed filtered counts of its
        samples — so the cluster's contribution is its mass times the
        filtered-weighted mean of its samples' metrics.  With one
        sample per cluster this reduces to the offline Eq. (2) exactly,
        and the masses reconcile to the whole run's filtered count
        either way (a property ``tests/test_pipeline_invariants.py``
        checks).
        """
        samples: Dict[int, List[int]] = getattr(
            self, "_samples", None
        ) or {
            c.cluster_id: [c.representative]
            for c in self.clusterer.clusters
        }
        infos: List[ClusterInfo] = []
        for cluster in self.clusterer.clusters:
            taken = [
                s for s in samples[cluster.cluster_id] if s in results
            ]
            sampled_filtered = sum(
                self._states[s].filtered for s in taken
            )
            if sampled_filtered <= 0:
                # A zero-work cluster (e.g. an all-library tail):
                # nothing to extrapolate, weight everything at zero.
                multiplier = 0.0
            else:
                multiplier = cluster.mass / sampled_filtered
            for pos, s in enumerate(taken):
                share = (
                    cluster.mass
                    * (self._states[s].filtered / sampled_filtered)
                    if sampled_filtered > 0 else 0.0
                )
                infos.append(ClusterInfo(
                    cluster_id=cluster.cluster_id,
                    representative=s,
                    members=list(cluster.members) if pos == 0 else [s],
                    instruction_mass=share,
                    multiplier=multiplier,
                ))
        return infos

    # -- reporting ------------------------------------------------------------

    def _report(
        self, estimates: List[float], topups: int
    ) -> LiveReport:
        samples: Dict[int, List[int]] = getattr(
            self, "_samples", None
        ) or {
            c.cluster_id: [c.representative]
            for c in self.clusterer.clusters
        }
        records = []
        simulated_filtered = 0
        extrapolated_filtered = 0
        for state in self._states:
            records.append(LiveRegionRecord(
                index=state.index,
                start=None if state.start is None else
                      (state.start.pc, state.start.count),
                end=None if state.end is None else
                    (state.end.pc, state.end.count),
                filtered_instructions=state.filtered,
                total_instructions=state.total,
                cluster_id=state.cluster_id,
                distance=state.distance,
                novel=state.novel,
                skipped=state.skipped,
                simulated=state.simulated,
            ))
            if state.simulated:
                simulated_filtered += state.filtered
            else:
                extrapolated_filtered += state.filtered
        cluster_reports = []
        for cluster in self.clusterer.clusters:
            taken = samples[cluster.cluster_id]
            sampled_filtered = sum(
                self._states[s].filtered for s in taken
            )
            cluster_reports.append(LiveClusterReport(
                cluster_id=cluster.cluster_id,
                representative=cluster.representative,
                members=list(cluster.members),
                mass=cluster.mass,
                dispersion=cluster.dispersion,
                samples=list(taken),
                multiplier=(
                    cluster.mass / sampled_filtered
                    if sampled_filtered > 0 else 0.0
                ),
            ))
        return LiveReport(
            threshold=self.options.threshold,
            probe_fraction=self.options.probe_fraction,
            num_regions=len(self._states),
            num_simulated=sum(1 for s in self._states if s.simulated),
            num_skipped=sum(1 for s in self._states if s.skipped),
            num_clusters=self.clusterer.k,
            filtered_total=sum(s.filtered for s in self._states),
            simulated_filtered=simulated_filtered,
            extrapolated_filtered=extrapolated_filtered,
            error_estimates=estimates,
            topups=topups,
            clusters=cluster_reports,
            records=records,
        )
