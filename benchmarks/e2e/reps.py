"""One benchmark rep of a workload, untraced or traced.

An *untraced* rep drives a fresh :class:`LoopPointPipeline` through its
public stage calls and times each call: the cost a user of
``run-looppoint`` pays.  A *traced* rep makes the same computation by
calling each layer's public function directly, inside a span per call, so
the rep's wall splits into layers.  Both produce the same simulated
statistics, which the digest check pins.

Importing this module imports ``repro``; the benchmark times that import
as part of set-up.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from contextlib import contextmanager
from dataclasses import asdict
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro import LoopPointOptions, LoopPointPipeline, WaitPolicy, get_workload
from repro.analysis.online import LiveOptions, LiveSampler
from repro.clustering.simpoint import select_simpoints
from repro.config import get_scale
from repro.core.extrapolation import extrapolate_metrics, prediction_error
from repro.core.speedup import compute_speedups
from repro.dcfg.graph import DCFGBuilder, build_dcfg_from_pinball
from repro.dcfg.loops import loop_header_blocks
from repro.pinplay.recorder import record_execution
from repro.profiling.filters import FilterPolicy
from repro.profiling.profile_result import profile_pinball
from repro.timing.mcsim import MultiCoreSimulator, RegionOfInterest

#: Public methods of the live pass's replayer and online clusterer that a
#: traced rep wraps in spans, so the streaming pass splits into replay
#: (profiling), classification (clustering) and its own bookkeeping.
LIVE_REPLAY_METHODS = ("run", "scout_region", "fast_forward_to")
LIVE_CLUSTER_METHODS = ("signature", "classify", "admit", "attach")


class Recorder:
    """In-memory spans plus the operation tally of one benchmark run.

    Every span is one operation: a timed call into the pipeline or a
    layer.  A span whose body raises counts as failed, and so does a
    failed :meth:`check`.
    """

    def __init__(self, workload: str, run_id: str) -> None:
        self.workload = workload
        self.run_id = run_id
        self.spans: List[Dict[str, Any]] = []
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.rep: Optional[int] = None
        self.traced = False
        self._stack: List[int] = []
        self._counted: Optional[BaseException] = None
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str, op: bool = True) -> Iterator[Dict[str, Any]]:
        """Time the body as span ``name``; ``op=False`` for a rep's root."""
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload,
            "rep": self.rep,
            "traced": self.traced,
            "run": self.run_id,
            "start": time.perf_counter() - self._t0,
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        self.attempted += op
        try:
            yield record
        except Exception as exc:
            # An exception unwinds through every enclosing span; it is one
            # failed operation, charged to the innermost.
            if exc is not self._counted:
                self._counted = exc
                self.failed += 1
                self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
            raise
        finally:
            record["end"] = time.perf_counter() - self._t0
            self._stack.pop()

    def counted(self, exc: BaseException) -> bool:
        """Whether a span already charged ``exc`` as a failed operation."""
        return exc is self._counted

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced_call(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced_call

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)


def sim_digest(predicted, regions, full) -> str:
    """sha256 of every simulated statistic a rep produces."""
    payload = {
        "predicted": asdict(predicted),
        "regions": [
            [r.region_id, asdict(r.metrics)]
            for r in sorted(regions, key=lambda r: r.region_id)
        ],
        "full": asdict(full),
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


class Bench:
    """A workload set up once; each rep builds its own pipeline."""

    def __init__(self, spec: Dict[str, Any], seed: int, scale: str) -> None:
        self.live = spec["mode"] == "live"
        self.scale = get_scale(scale)
        self.workload = get_workload(
            spec["app"], spec["input_class"], spec["nthreads"],
            scale=self.scale,
        )
        self.options = LoopPointOptions(
            wait_policy=WaitPolicy(spec["wait"]),
            scale=self.scale,
            record_seed=seed,
            jobs=1,
        )
        # Traced reps call the layers directly, with the system and slice
        # size a pipeline would use.
        first = self.pipeline()
        self.system = first.system
        self.slice_size = first.slice_size

    def pipeline(self) -> LoopPointPipeline:
        """A cold pipeline: no artifact cache, serial, no tracer."""
        return LoopPointPipeline(self.workload, options=self.options)

    def untraced_rep(self, rec: Recorder, full=None) -> Dict[str, Any]:
        """``full`` skips ``simulate_full()`` and predicts against these
        full-run metrics instead: the binary-driven full run does not
        depend on the record seed."""
        with rec.span("rep", op=False):
            if self.live:
                parts = self._pipeline_live(rec, full)
            else:
                parts = self._pipeline_offline(rec, full)
        return self._outcome(rec, parts)

    def traced_rep(self, rec: Recorder) -> Dict[str, Any]:
        with rec.span("rep", op=False):
            if self.live:
                parts = self._layers_live(rec)
            else:
                parts = self._layers_offline(rec)
        return self._outcome(rec, parts)

    # -- untraced: the pipeline's public stages ------------------------------

    def _pipeline_offline(self, rec: Recorder, full) -> tuple:
        p = self.pipeline()
        with rec.span("pipeline.record"):
            p.record()
        with rec.span("pipeline.profile"):
            profile = p.profile()
        with rec.span("pipeline.select"):
            selection = p.select()
        with rec.span("pipeline.simulate_regions"):
            regions = p.simulate_regions()
        with rec.span("pipeline.extrapolate"):
            predicted = extrapolate_metrics(regions, selection.clusters)
        if full is None:
            full = self._simulate_full(rec, p)
        return profile, selection.clusters, regions, predicted, full

    def _pipeline_live(self, rec: Recorder, full) -> tuple:
        p = self.pipeline()
        with rec.span("pipeline.marker_pcs"):
            p.marker_pcs()
        with rec.span("pipeline.live"):
            live = p.live()
        if full is None:
            full = self._simulate_full(rec, p)
        return live, full

    @staticmethod
    def _simulate_full(rec: Recorder, p: LoopPointPipeline):
        with rec.span("pipeline.simulate_full"):
            return p.simulate_full().metrics

    # -- traced: each layer's public function ----------------------------------

    def _record(self, rec: Recorder, observers=()):
        w = self.workload
        with rec.span("pinplay.record") as span:
            pinball, _ = record_execution(
                w.program, w.thread_program, w.omp, w.nthreads,
                wait_policy=self.options.wait_policy,
                seed=self.options.record_seed,
                extra_observers=observers,
            )
            span["instructions"] = pinball.total_instructions
        return pinball

    def _markers(self, dcfg) -> list:
        policy = FilterPolicy()
        return sorted(
            (b for b in loop_header_blocks(
                dcfg, self.workload.program, main_only=True
            ) if policy.marker_eligible(b)),
            key=lambda b: b.pc,
        )

    def _simulator(self) -> MultiCoreSimulator:
        w = self.workload
        return MultiCoreSimulator(w.program, self.system, w.omp)

    def _full(self, rec: Recorder):
        w = self.workload
        with rec.span("timing.full") as span:
            full = self._simulator().run_binary(
                w.thread_program, w.nthreads, self.options.wait_policy
            )[0].metrics
            span["metrics"] = asdict(full)
        return full

    def _layers_offline(self, rec: Recorder) -> tuple:
        w = self.workload
        pinball = self._record(rec)
        with rec.span("dcfg.build"):
            blocks = self._markers(build_dcfg_from_pinball(w.program, pinball))
        with rec.span("profiling.slice"):
            profile = profile_pinball(
                w.program, pinball, self.slice_size, marker_blocks=blocks
            )
        with rec.span("clustering.select") as span:
            startup = (
                self.options.startup_fraction * profile.filtered_instructions
            )
            selection = select_simpoints(
                profile.bbv_matrix(),
                profile.slice_filtered_counts(),
                self.options.simpoint,
                ineligible=[
                    s.index for s in profile.slices
                    if s.start_filtered < startup
                ],
                jobs=1,
            )
            span["k_tried"] = len(selection.bic_by_k)
        with rec.span("timing.regions") as span:
            rois = sorted(
                (RegionOfInterest(
                    region_id=c.representative,
                    start=profile.slices[c.representative].start,
                    end=profile.slices[c.representative].end,
                ) for c in selection.clusters),
                key=lambda r: r.region_id,
            )
            sim = self._simulator()
            regions = sim.run_binary(
                w.thread_program, w.nthreads, self.options.wait_policy,
                regions=rois,
            )
            span["swept"] = sum(core.instructions for core in sim.cores)
            span["detailed"] = sum(r.metrics.instructions for r in regions)
        with rec.span("core.extrapolate"):
            predicted = extrapolate_metrics(regions, selection.clusters)
        full = self._full(rec)
        return profile, selection.clusters, regions, predicted, full

    def _layers_live(self, rec: Recorder) -> tuple:
        w = self.workload
        builder = DCFGBuilder(w.program, w.nthreads)
        pinball = self._record(rec, observers=(builder,))
        with rec.span("dcfg.build"):
            blocks = self._markers(builder.result())

        def simulate(region_pinball):
            with rec.span("timing.regions") as span:
                sim = self._simulator()
                result = sim.run_pinball(region_pinball)
                span["swept"] = sum(core.instructions for core in sim.cores)
                span["detailed"] = result.metrics.instructions
            return result

        with rec.span("analysis.live") as span:
            sampler = LiveSampler(
                w.program, pinball, blocks, self.slice_size,
                self.scale.warmup_instructions,
                simulate=simulate,
                options=LiveOptions(),
            )
            for method in LIVE_REPLAY_METHODS:
                setattr(sampler.replayer, method, rec.wrap(
                    "profiling.slice", getattr(sampler.replayer, method)
                ))
            for method in LIVE_CLUSTER_METHODS:
                setattr(sampler.clusterer, method, rec.wrap(
                    "clustering.select", getattr(sampler.clusterer, method)
                ))
            live = sampler.run()
            span["coverage"] = (
                live.report.simulated_filtered / live.report.filtered_total
            )
            span["topups"] = live.report.topups
        full = self._full(rec)
        return live, full

    # -- outcome + checks --------------------------------------------------------

    def _outcome(self, rec: Recorder, parts: tuple) -> Dict[str, Any]:
        """Check a rep's Eq. (2) masses and summarize what it simulated."""
        if self.live:
            live, full = parts
            profile, clusters = live.profile, live.clusters
            regions, predicted = live.region_results, live.predicted
            k = live.report.num_clusters
            mass_target = live.report.filtered_total
            # Zero-mass samples (an all-library tail region) carry no
            # weight, as in LoopPointPipeline.run_live.
            weighted = {
                i for i, s in enumerate(profile.slices)
                if s.filtered_instructions > 0
            }
        else:
            profile, clusters, regions, predicted, full = parts
            k = len(clusters)
            mass_target = profile.filtered_instructions
            weighted = set(range(profile.num_slices))
        rec.check(
            math.isclose(
                sum(c.instruction_mass for c in clusters), mass_target,
                rel_tol=1e-9,
            ),
            "Eq. (2) masses do not sum to the profile's filtered instructions",
        )
        speedup = compute_speedups(
            profile,
            [c for c in clusters if c.representative in weighted],
            self.scale.warmup_instructions,
            [r for r in regions if r.region_id in weighted],
        )
        return {
            "full": full,
            "digest": sim_digest(predicted, regions, full),
            "runtime_error_pct": prediction_error(
                predicted.cycles, full.cycles
            ),
            "theoretical_speedup": speedup.theoretical_serial,
            "slices": profile.num_slices,
            "k": k,
        }
