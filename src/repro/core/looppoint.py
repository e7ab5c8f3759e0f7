"""The end-to-end LoopPoint pipeline (Fig. 2 of the paper).

Stages, each cached on first use:

1. **record** — one functional, flow-controlled execution captured as a
   whole-program pinball (reproducible analysis substrate).
2. **profile** — find worker-loop headers in the DCFG (built while
   recording), slice at loop entries in one constrained replay, and
   collect filtered per-thread BBVs.
3. **select** — SimPoint clustering picks looppoints and multipliers.
4. **simulate** — binary-driven unconstrained detailed simulation of every
   looppoint in one sweep that fast-forwards functionally and warms a
   bounded window before each region, or checkpoint-driven constrained
   simulation of extracted region pinballs.
5. **extrapolate** — Eq. (1)/(2) weighting reconstructs whole-program
   metrics, compared against a full detailed run.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analysis.online import LiveOptions, LiveReport, LiveResult

from ..clustering.simpoint import (
    SimPointOptions,
    SimPointSelection,
    select_simpoints,
)
from ..config import (
    GAINESTOWN_8CORE,
    ReproScale,
    SystemConfig,
    default_jobs,
    get_scale,
    resolve_jobs,
)
from ..errors import (
    ClusteringError,
    SimulationError,
    WorkloadError,
)
from ..obs.tracer import Tracer, active_metrics, active_tracer, obs_scope
from ..parallel.artifacts import ArtifactCache
from ..parallel.executor import (
    DEFAULT_JOB_TIMEOUT_S,
    ExecutionStats,
    run_region_jobs,
)
from ..parallel.jobs import RegionJob, WorkloadSpec
from ..dcfg.graph import DCFG, DCFGBuilder, build_dcfg_from_pinball
from ..exec_engine.flowcontrol import DEFAULT_FLOW_WINDOW
from ..isa.blocks import BasicBlock
from ..pinplay.pinball import Pinball, RegionPinball
from ..pinplay.recorder import record_execution
from ..pinplay.region import extract_region_pinballs
from ..policy import WaitPolicy
from ..profiling.profile_result import (
    ProfileData,
    marker_blocks_from_dcfg,
    profile_pinball,
)
from ..timing.mcsim import (
    MultiCoreSimulator,
    RegionOfInterest,
    SimulationResult,
)
from ..timing.metrics import SimMetrics
from ..workloads.base import Workload
from .extrapolation import (
    attribute_extrapolation_error,
    extrapolate_metrics,
    prediction_error,
)
from .speedup import SpeedupReport, compute_speedups
from .warmup import (
    WarmupStrategy,
    binary_warm_starts,
    region_cuts_for_selection,
)


@dataclass(frozen=True)
class LoopPointOptions:
    """Pipeline configuration; defaults follow the paper."""

    wait_policy: WaitPolicy = WaitPolicy.PASSIVE
    scale: Optional[ReproScale] = None
    slice_size: Optional[int] = None  # global; default scale.slice_size(n)
    simpoint: SimPointOptions = field(default_factory=SimPointOptions)
    record_seed: int = 0
    #: Slices starting in the first this-fraction of the run are barred from
    #: being representatives (program initialization is microarchitecturally
    #: atypical); their mass still counts.
    startup_fraction: float = 0.05
    #: Worker processes for region simulation (0 = one per CPU); ``None``
    #: honours the ``REPRO_JOBS`` environment variable (default 1 =
    #: serial).  Parallel dispatch requires a registry-buildable workload
    #: and falls back to serial otherwise — results are bit-identical
    #: either way.
    jobs: Optional[int] = None
    #: Persistent artifact cache directory for every cached stage output
    #: (record, dcfg, profile, select, live); ``None`` disables on-disk
    #: caching.  Rerunning the same command against the same directory
    #: restarts a killed run from its last published stage.
    cache_dir: Optional[str] = None
    #: Per-region wall-clock budget in a worker before the job is
    #: abandoned and re-run in the parent.
    job_timeout_s: float = DEFAULT_JOB_TIMEOUT_S
    #: Span-trace output path (JSON lines; the CLI defaults it into the
    #: cache directory); ``None`` disables tracing — the instrumented
    #: seams then hit the :data:`repro.obs.tracer.NULL_TRACER` fast path.
    trace_path: Optional[str] = None

    def __post_init__(self) -> None:
        # 1.0 is in range but bars every slice; select() names that case.
        if not 0.0 <= self.startup_fraction <= 1.0:
            raise WorkloadError(
                f"startup_fraction {self.startup_fraction} outside [0, 1]"
            )
        if self.jobs is not None:
            resolve_jobs(self.jobs)  # rejects a negative count
        if not (math.isfinite(self.job_timeout_s) and self.job_timeout_s > 0):
            raise WorkloadError(
                f"job_timeout_s must be finite and > 0, got "
                f"{self.job_timeout_s}"
            )

    def resolved_scale(self) -> ReproScale:
        return self.scale if self.scale is not None else get_scale()

    def resolved_jobs(self) -> int:
        if self.jobs is None:
            return default_jobs()
        return resolve_jobs(self.jobs)


@dataclass
class LoopPointResult:
    """Everything an evaluation needs about one workload run."""

    workload: str
    wait_policy: str
    num_slices: int
    num_looppoints: int
    predicted: SimMetrics
    actual: Optional[SimMetrics]
    region_results: List[SimulationResult]
    speedup: SpeedupReport
    #: Live-sampling coverage/error accounting, present for
    #: :meth:`LoopPointPipeline.run_live` results only.
    live_report: Optional["LiveReport"] = None
    #: Region jobs that did not finish in the worker pool and re-ran in
    #: the parent (0 for a clean or serial run).
    serial_fallbacks: int = 0
    #: Core frequency (GHz) of the system the looppoints ran on, and of the
    #: system the reference run came from.  When both are known, runtime is
    #: compared in *seconds* (cycles / frequency), so predictions against a
    #: reference measured on a differently-clocked configuration report a
    #: runtime error distinct from the cycles error.  When either is
    #: missing, runtime error degrades to the cycles comparison.
    frequency_ghz: Optional[float] = None
    reference_frequency_ghz: Optional[float] = None

    def _runtime_values(self) -> "tuple[float, float]":
        """(predicted, actual) runtimes: seconds when frequencies are known,
        cycles otherwise."""
        assert self.actual is not None
        freq = self.frequency_ghz
        ref_freq = (
            self.reference_frequency_ghz
            if self.reference_frequency_ghz
            else self.frequency_ghz
        )
        if not freq or freq <= 0 or not ref_freq or ref_freq <= 0:
            return float(self.predicted.cycles), float(self.actual.cycles)
        return (
            self.predicted.cycles / (freq * 1e9),
            self.actual.cycles / (ref_freq * 1e9),
        )

    @property
    def runtime_error_pct(self) -> Optional[float]:
        if self.actual is None:
            return None
        return prediction_error(*self._runtime_values())

    def metric_errors(self) -> Dict[str, float]:
        """Prediction quality for the Fig. 7 metrics.

        ``runtime_error_pct`` compares wall time (cycles over core
        frequency); ``cycles_error_pct`` compares raw cycle counts.  They
        coincide only when prediction and reference share one clock.
        """
        if self.actual is None:
            raise SimulationError("no full-run reference simulation")
        return {
            "runtime_error_pct": prediction_error(*self._runtime_values()),
            "cycles_error_pct": prediction_error(
                self.predicted.cycles, self.actual.cycles
            ),
            "ipc_error_pct": prediction_error(
                self.predicted.ipc, self.actual.ipc
            ),
            "branch_mpki_absdiff": abs(
                self.predicted.branch_mpki - self.actual.branch_mpki
            ),
            "l2_mpki_absdiff": abs(
                self.predicted.l2_mpki - self.actual.l2_mpki
            ),
            "l3_mpki_absdiff": abs(
                self.predicted.l3_mpki - self.actual.l3_mpki
            ),
        }


class LoopPointPipeline:
    """Drives one workload through the LoopPoint methodology."""

    def __init__(
        self,
        workload: Workload,
        system: Optional[SystemConfig] = None,
        options: Optional[LoopPointOptions] = None,
    ) -> None:
        self.workload = workload
        self.options = options or LoopPointOptions()
        if system is None:
            system = GAINESTOWN_8CORE.with_cores(
                max(GAINESTOWN_8CORE.num_cores, workload.nthreads)
            )
        if system.num_cores < workload.nthreads:
            raise SimulationError(
                f"system has {system.num_cores} cores for "
                f"{workload.nthreads} threads"
            )
        self.system = system
        self._pinball: Optional[Pinball] = None
        self._profile: Optional[ProfileData] = None
        self._selection: Optional[SimPointSelection] = None
        #: Live-mode memos: discovered marker PCs ("dcfg" stage), the
        #: streaming pass's artifact ("live" stage), and the options the
        #: latter was keyed under.
        self._marker_pcs: Optional[List[int]] = None
        self._live: Optional["LiveResult"] = None
        self._live_options: Optional["LiveOptions"] = None
        #: The recorded run's DCFG.  A record-stage cache miss builds it
        #: during recording (the builder's per-thread edge chains are
        #: order-free across threads, so it is identical to a
        #: replay-built DCFG); after a record cache hit the first stage
        #: that needs it replays the pinball once.
        self._dcfg: Optional[DCFG] = None
        #: Persistent stage-artifact cache (None when no cache_dir is set).
        #: Safe to point many concurrent pipelines at one directory:
        #: publishes are atomic and checksummed, and one key's artifact
        #: is the same bytes whoever writes it.
        self.artifacts: Optional[ArtifactCache] = (
            ArtifactCache(self.options.cache_dir)
            if self.options.cache_dir
            else None
        )
        #: Wall-clock accounting of the most recent parallel region fan-out
        #: (None after a serial sweep).
        self.last_execution: Optional[ExecutionStats] = None
        self._workload_spec_result: "tuple[bool, Optional[WorkloadSpec]]" = (
            False,
            None,
        )
        # Sec. III-B: equal progress must be enforced at a much finer
        # grain than a slice, or per-slice thread shares become
        # schedule-dependent.
        if self.slice_size < 2 * DEFAULT_FLOW_WINDOW:
            raise WorkloadError(
                f"slice_size {self.slice_size} is below twice the "
                f"flow-control window ({DEFAULT_FLOW_WINDOW})"
            )
        #: Summary of the last run's trace (path, trace id, span count);
        #: ``None`` when tracing is off.
        self.last_trace: Optional[Dict[str, Any]] = None

    # -- cache key material -------------------------------------------------
    #
    # Each stage's artifact is addressed by everything that determines its
    # output.  Stages chain: profile material embeds record material, select
    # material embeds profile material — changing an upstream option
    # invalidates every downstream artifact automatically.

    def _workload_material(self) -> Dict[str, Any]:
        w = self.workload
        scale = self.options.resolved_scale()
        return {
            "suite": w.suite,
            "name": w.name,
            "input_class": w.input_class,
            "nthreads": w.nthreads,
            "scale": {
                "name": scale.name,
                "slice_size_per_thread": scale.slice_size_per_thread,
                "warmup_instructions": scale.warmup_instructions,
                "input_scale": scale.input_scale,
            },
        }

    def _record_material(self) -> Dict[str, Any]:
        return {
            "stage": "record",
            "workload": self._workload_material(),
            "wait_policy": self.options.wait_policy.value,
            "record_seed": self.options.record_seed,
        }

    def _profile_material(self) -> Dict[str, Any]:
        material = self._record_material()
        material["stage"] = "profile"
        material["slice_size"] = self.slice_size
        return material

    def _select_material(self) -> Dict[str, Any]:
        material = self._profile_material()
        material["stage"] = "select"
        material["simpoint"] = asdict(self.options.simpoint)
        material["startup_fraction"] = self.options.startup_fraction
        return material

    def _dcfg_material(self) -> Dict[str, Any]:
        material = self._record_material()
        material["stage"] = "dcfg"
        return material

    def _live_material(self, live_options: "LiveOptions") -> Dict[str, Any]:
        material = self._record_material()
        material["stage"] = "live"
        material["slice_size"] = self.slice_size
        material["warmup_instructions"] = (
            self.options.resolved_scale().warmup_instructions
        )
        material["live"] = asdict(live_options)
        return material

    # -- cached stages ------------------------------------------------------

    @property
    def slice_size(self) -> int:
        if self.options.slice_size is not None:
            return self.options.slice_size
        scale = self.options.resolved_scale()
        # The paper slices at N x 100M instructions; at reproduction scale a
        # single-threaded slice would be so short that boundary effects
        # dominate its timing, so slices never shrink below four
        # thread-equivalents.
        return max(
            scale.slice_size(self.workload.nthreads), scale.slice_size(4)
        )

    def _stage_artifact(
        self,
        stage: str,
        material: Dict[str, Any],
        kind: type,
        compute: Callable[[], Any],
    ) -> Any:
        """Load one stage artifact from the cache, or compute (and store)
        it; a missing or corrupt artifact is an ordinary miss."""
        with active_tracer().span(f"stage:{stage}", stage=stage) as span:
            if self.artifacts is None:
                artifact, source = compute(), "computed"
            else:
                artifact, source = self.artifacts.get_or_compute(
                    stage, material, compute, kind,
                )
            span.set("cache", "hit" if source == "hit" else "miss")
            return artifact

    def _compute_record(self) -> Pinball:
        w = self.workload
        builder = DCFGBuilder(w.program, w.nthreads)
        pinball, _ = record_execution(
            w.program,
            w.thread_program,
            w.omp,
            w.nthreads,
            wait_policy=self.options.wait_policy,
            seed=self.options.record_seed,
            extra_observers=(builder,),
        )
        self._dcfg = builder.result()
        return pinball

    def record(self) -> Pinball:
        """Stage 1: record the reproducible whole-program pinball."""
        if self._pinball is None:
            self._pinball = self._stage_artifact(
                "record", self._record_material(), Pinball,
                self._compute_record,
            )
        return self._pinball

    def _marker_blocks(self) -> List[BasicBlock]:
        """Worker-loop marker blocks of the recorded run, sorted by PC."""
        pinball = self.record()
        if self._dcfg is None:
            self._dcfg = build_dcfg_from_pinball(
                self.workload.program, pinball
            )
        return marker_blocks_from_dcfg(self.workload.program, self._dcfg)

    def _compute_profile(self) -> ProfileData:
        return profile_pinball(
            self.workload.program, self.record(), self.slice_size,
            marker_blocks=self._marker_blocks(),
        )

    def profile(self) -> ProfileData:
        """Stage 2: loop-aligned slicing + filtered BBVs.

        The marker blocks come from the DCFG the record stage built while
        recording, so profiling costs one slicing replay.  Only when the
        record artifact came from the cache (no DCFG in hand) does it
        replay the pinball once more to build the DCFG.
        """
        if self._profile is None:
            self._profile = self._stage_artifact(
                "profile", self._profile_material(), ProfileData,
                self._compute_profile,
            )
        return self._profile

    def _compute_select(self) -> SimPointSelection:
        profile = self.profile()
        startup = self.options.startup_fraction * profile.filtered_instructions
        ineligible = [
            s.index for s in profile.slices if s.start_filtered < startup
        ]
        if len(ineligible) >= profile.num_slices:
            # Every slice starts inside the startup exclusion window —
            # typical of very short runs.  Failing here, by name, beats
            # the bare "no eligible representatives" the clustering core
            # would otherwise die with.
            raise ClusteringError(
                f"startup_fraction={self.options.startup_fraction} bars "
                f"all {profile.num_slices} slices from representative "
                f"selection; the run is too short for the configured "
                f"startup exclusion — lower startup_fraction or use a "
                f"longer input"
            )
        return select_simpoints(
            profile.bbv_matrix(),
            profile.slice_filtered_counts(),
            self.options.simpoint,
            ineligible=ineligible,
        )

    def select(self) -> SimPointSelection:
        """Stage 3: SimPoint clustering of slice BBVs."""
        if self._selection is None:
            self._selection = self._stage_artifact(
                "select", self._select_material(), SimPointSelection,
                self._compute_select,
            )
        return self._selection

    def _compute_marker_pcs(self) -> List[int]:
        return [b.pc for b in self._marker_blocks()]

    def marker_pcs(self) -> List[int]:
        """Live stage 2a: worker-loop marker PCs from the DCFG.

        When the record stage is computed in-process (cache miss), the
        DCFG is built *during* recording by an attached observer and
        this stage costs nothing; on a record cache hit it falls back
        to one analysis replay.  Cached under the ``dcfg`` stage key.
        """
        if self._marker_pcs is None:
            self._marker_pcs = self._stage_artifact(
                "dcfg", self._dcfg_material(), list,
                self._compute_marker_pcs,
            )
        return self._marker_pcs

    def _compute_live(self, live_options: "LiveOptions") -> "LiveResult":
        from ..analysis.online import LiveSampler

        pinball = self.record()
        program = self.workload.program
        blocks = [program.block_at(pc) for pc in self.marker_pcs()]
        sampler = LiveSampler(
            program,
            pinball,
            blocks,
            self.slice_size,
            self.options.resolved_scale().warmup_instructions,
            simulate=lambda rp: self._fresh_simulator().run_pinball(rp),
            options=live_options,
        )
        return sampler.run()

    def live(
        self, live_options: Optional["LiveOptions"] = None
    ) -> "LiveResult":
        """Live stage 2b: the streaming profile+select+extrapolate pass.

        One constrained replay classifies each region as it closes,
        fast-forwards over matched regions, simulates novel ones in
        detail, and tops up high-variance clusters — see
        :mod:`repro.analysis.online`.  Cached under the ``live`` stage
        key (which embeds the live options, slice size and warmup
        budget on top of the record material).
        """
        from ..analysis.online import LiveOptions, LiveResult

        options = live_options or self._live_options or LiveOptions()
        if (
            self._live is not None
            and live_options is not None
            and live_options != self._live_options
        ):
            self._live = None
        self._live_options = options
        if self._live is None:
            self._live = self._stage_artifact(
                "live", self._live_material(options), LiveResult,
                lambda: self._compute_live(options),
            )
        return self._live

    def regions(self) -> List[RegionOfInterest]:
        """The looppoints as (PC, count)-delimited regions, in run order,
        each with its bounded warm start (:func:`binary_warm_starts`)."""
        profile = self.profile()
        reps = sorted(c.representative for c in self.select().clusters)
        return [
            RegionOfInterest(
                region_id=rep,
                start=profile.slices[rep].start,
                end=profile.slices[rep].end,
                warm_start=warm_start,
            )
            for rep, warm_start in zip(
                reps, binary_warm_starts(profile, reps)
            )
        ]

    # -- simulations ----------------------------------------------------------

    def _fresh_simulator(self) -> MultiCoreSimulator:
        return MultiCoreSimulator(
            self.workload.program, self.system, self.workload.omp
        )

    def _workload_spec(self) -> Optional[WorkloadSpec]:
        """A validated rebuild spec for worker processes, or ``None``.

        ``None`` means the workload cannot be faithfully rebuilt from the
        registry (ad-hoc program, or built under different coordinates than
        this pipeline's options) — region simulation then runs serially.
        The validation rebuild is performed once, in the parent, so a
        mismatch downgrades to serial instead of failing every worker.
        """
        checked, spec = self._workload_spec_result
        if checked:
            return spec
        try:
            spec = WorkloadSpec.from_workload(
                self.workload, self.options.resolved_scale()
            )
            spec.build()
        except (WorkloadError, SimulationError):
            spec = None
        self._workload_spec_result = (True, spec)
        return spec

    def _run_jobs(
        self, jobs: List[RegionJob], workers: int
    ) -> List[SimulationResult]:
        outcome = run_region_jobs(
            jobs, workers, timeout_s=self.options.job_timeout_s,
        )
        self.last_execution = outcome.stats
        return outcome.results

    def simulate_regions(self) -> List[SimulationResult]:
        """Stage 4 (binary-driven): detailed simulation of all looppoints.

        Serial (``jobs=1``): one sweep over :meth:`regions`, fast-forwarding
        functionally up to each region's warm start and warming with the
        full cost model from there.  Parallel (``jobs>1``): the job for a
        looppoint carries every earlier looppoint too and its worker runs
        that same sweep up to its own region, so each result is
        bit-identical to the serial one by construction — whether or not a
        bounded warm window has converged to perfect warmup.
        """
        rois = self.regions()
        workers = self.options.resolved_jobs()
        spec = (
            self._workload_spec()
            if workers > 1 and len(rois) > 1
            else None
        )
        if spec is None:
            self.last_execution = None
            return self._fresh_simulator().run_binary(
                self.workload.thread_program,
                self.workload.nthreads,
                self.options.wait_policy,
                regions=rois,
            )
        jobs = [
            RegionJob(
                job_id=roi.region_id,
                workload=spec,
                system=self.system,
                wait_policy=self.options.wait_policy.value,
                roi=roi,
                earlier_rois=tuple(rois[:i]),
            )
            for i, roi in enumerate(rois)
        ]
        return self._run_jobs(jobs, workers)

    def simulate_full(self) -> SimulationResult:
        """Reference: the whole application in detail (the paper's
        validation baseline, only feasible for train-scale inputs)."""
        results = self._fresh_simulator().run_binary(
            self.workload.thread_program,
            self.workload.nthreads,
            self.options.wait_policy,
        )
        return results[0]

    def region_pinballs(
        self, strategy: WarmupStrategy = WarmupStrategy.CHECKPOINT_PREFIX
    ) -> List[RegionPinball]:
        """Stage 4 (checkpoint-driven): cut region pinballs with warmup."""
        scale = self.options.resolved_scale()
        cuts = region_cuts_for_selection(
            self.profile(),
            self.select().clusters,
            scale.warmup_instructions,
            strategy,
        )
        return extract_region_pinballs(
            self.workload.program, self.record(), cuts
        )

    def simulate_regions_constrained(
        self, strategy: WarmupStrategy = WarmupStrategy.CHECKPOINT_PREFIX
    ) -> List[SimulationResult]:
        """Constrained simulation of every region pinball (Sec. V-A.1).

        Region pinballs are self-contained (logs + counters + recorded sync
        order), so ``jobs>1`` ships each one to a worker; every pinball gets
        a fresh simulator in either mode, making parallel and serial runs
        trivially bit-identical.
        """
        pinballs = self.region_pinballs(strategy)
        workers = self.options.resolved_jobs()
        spec = (
            self._workload_spec()
            if workers > 1 and len(pinballs) > 1
            else None
        )
        if spec is None:
            self.last_execution = None
            results = []
            for pinball in pinballs:
                sim = self._fresh_simulator()
                results.append(sim.run_pinball(pinball))
            return results
        jobs = [
            RegionJob(
                job_id=pinball.region_id,
                workload=spec,
                system=self.system,
                wait_policy=self.options.wait_policy.value,
                pinball=pinball,
            )
            for pinball in pinballs
        ]
        return self._run_jobs(jobs, workers)

    # -- the headline entry point -------------------------------------------

    def run(
        self,
        simulate_full: bool = True,
        constrained: bool = False,
    ) -> LoopPointResult:
        """Execute the whole methodology and evaluate it.

        ``simulate_full=False`` skips the reference run (ref-input scale,
        where the paper also only reports speedups).  ``constrained=True``
        simulates checkpoint-driven instead of binary-driven.  With a
        ``cache_dir``, a killed run restarts by running again: stages
        whose artifacts were published load from the cache, everything
        after the kill point recomputes.
        """
        return self._traced(
            "constrained" if constrained else "binary",
            lambda: self._run(simulate_full, constrained),
        )

    def _traced(
        self,
        trace_mode: str,
        body: Callable[[], LoopPointResult],
        **span_attrs: Any,
    ) -> LoopPointResult:
        """``body()`` in one ``run`` span, under a :class:`Tracer` for
        ``trace_mode`` when the options name a trace path (kept as
        ``last_trace``)."""
        tracer = None
        if self.options.trace_path:
            tracer = Tracer(
                self.options.trace_path,
                workload=self.workload.full_name,
                mode=trace_mode,
                jobs=self.options.resolved_jobs(),
            )
        try:
            with obs_scope(tracer):
                with active_tracer().span(
                    "run", workload=self.workload.full_name, **span_attrs
                ):
                    result = body()
            return result
        finally:
            if tracer is not None:
                self.last_trace = tracer.finish()

    def run_live(
        self,
        simulate_full: bool = False,
        live_options: Optional["LiveOptions"] = None,
    ) -> LoopPointResult:
        """Execute the live (single-pass streaming) methodology.

        One constrained replay profiles, selects, and simulates in
        flight: regions matching an already-seen phase are
        fast-forwarded over and extrapolated from their cluster's
        representative, novel regions are simulated in detail as they
        close, and high-variance clusters get top-up samples before the
        final extrapolation.  A killed run restarts from the artifact
        cache exactly like :meth:`run`; its stages are cached under
        ``record``/``dcfg``/``live``.
        """
        from ..analysis.online import LiveOptions

        options = live_options or self._live_options or LiveOptions()
        return self._traced(
            "live", lambda: self._run_live(options, simulate_full),
            mode="live",
        )

    def _run_live(
        self, live_options: "LiveOptions", simulate_full: bool
    ) -> LoopPointResult:
        tracer = active_tracer()
        with tracer.span("stage:live", stage="live"):
            live = self.live(live_options)
        actual = None
        if simulate_full:
            with tracer.span("stage:fullsim", stage="fullsim"):
                actual = self.simulate_full().metrics
        if actual is not None and active_metrics() is not None:
            # The live pass already emitted uncertainty *shares* from
            # its estimator priors; with a reference run in hand,
            # upgrade them to signed error cycles (gauges last-write-win
            # per name, so this overlays cleanly).
            from ..obs.attribution import (
                attribute_error, emit_attribution, live_scores,
            )

            with tracer.span(
                "stage:attribution", stage="attribution",
                clusters=len(live.report.clusters),
            ):
                emit_attribution(attribute_error(
                    live_scores(
                        live.report.clusters,
                        sample_cycles={
                            r.region_id: float(r.metrics.cycles)
                            for r in live.region_results
                        },
                        sample_filtered={
                            r.region_id: float(
                                live.profile.slices[r.region_id]
                                .filtered_instructions
                            )
                            for r in live.region_results
                        },
                    ),
                    predicted_cycles=float(live.predicted.cycles),
                    actual_cycles=float(actual.cycles),
                ))
        scale = self.options.resolved_scale()
        # Zero-mass samples (an all-library tail region) carry no weight
        # and would trip the speedup math's positivity checks.
        speedup_clusters = [
            c for c in live.clusters
            if live.profile.slices[c.representative].filtered_instructions
            > 0
        ]
        speedup = compute_speedups(
            live.profile,
            speedup_clusters,
            warmup_instructions=scale.warmup_instructions,
            region_results=[
                r for r in live.region_results
                if live.profile.slices[r.region_id].filtered_instructions
                > 0
            ],
            execution=None,
        )
        return LoopPointResult(
            workload=self.workload.full_name,
            wait_policy=self.options.wait_policy.value,
            num_slices=live.profile.num_slices,
            num_looppoints=live.report.num_clusters,
            predicted=live.predicted,
            actual=actual,
            region_results=live.region_results,
            speedup=speedup,
            live_report=live.report,
            frequency_ghz=self.system.core.frequency_ghz,
            reference_frequency_ghz=self.system.core.frequency_ghz,
        )

    def _run(
        self, simulate_full: bool, constrained: bool
    ) -> LoopPointResult:
        profile = self.profile()
        selection = self.select()
        tracer = active_tracer()
        with tracer.span(
            "stage:simulate", stage="simulate",
            mode="constrained" if constrained else "binary",
            regions=len(selection.clusters),
        ):
            if constrained:
                region_results = self.simulate_regions_constrained()
            else:
                region_results = self.simulate_regions()
        with tracer.span("stage:extrapolate", stage="extrapolate"):
            clusters = list(selection.clusters)
            predicted = extrapolate_metrics(region_results, clusters)
        actual = None
        if simulate_full:
            with tracer.span("stage:fullsim", stage="fullsim"):
                actual = self.simulate_full().metrics
        if active_metrics() is not None:
            # Which clusters carry the prediction error?  Emitted as
            # attribution.* gauges + span attributes; free on the null
            # path (the usual is-None gate).
            with tracer.span(
                "stage:attribution", stage="attribution",
                clusters=len(clusters),
            ):
                attribute_extrapolation_error(
                    clusters,
                    region_results,
                    profile.slice_filtered_counts(),
                    predicted_cycles=float(predicted.cycles),
                    actual_cycles=(
                        float(actual.cycles) if actual is not None
                        else None
                    ),
                )
        # Binary-driven results carry the warm window each region ran;
        # region pinballs are charged their checkpointed warmup prefix.
        scale = self.options.resolved_scale()
        speedup = compute_speedups(
            profile,
            clusters,
            warmup_instructions=(
                scale.warmup_instructions if constrained else 0
            ),
            region_results=region_results,
            execution=self.last_execution,
        )
        return LoopPointResult(
            workload=self.workload.full_name,
            wait_policy=self.options.wait_policy.value,
            num_slices=profile.num_slices,
            num_looppoints=len(selection.clusters),
            predicted=predicted,
            actual=actual,
            region_results=region_results,
            speedup=speedup,
            serial_fallbacks=(
                self.last_execution.serial_fallbacks
                if self.last_execution is not None else 0
            ),
            frequency_ghz=self.system.core.frequency_ghz,
            reference_frequency_ghz=self.system.core.frequency_ghz,
        )
