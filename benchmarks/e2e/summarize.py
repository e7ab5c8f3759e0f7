"""Turn one workload's spans and rep outcomes into its metrics.

Standard library only, so the parent process, which never imports
``repro``, can use it too.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from typing import Any, Dict, Iterable, List, Optional, Sequence

#: End-to-end metrics with their units.  ``setup_s`` and ``peak_rss_mb``
#: are measured by the parent around the measuring child.
E2E_UNITS = {
    "analysis_wall_s": "s",
    "sampled_sim_wall_s": "s",
    "full_sim_wall_s": "s",
    "sim_speedup": "x",
    "e2e_speedup": "x",
    "runtime_error_pct": "%",
    "theoretical_speedup": "x",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics measured on every workload, from the traced reps.
LAYER_UNITS = {
    "pinplay.record.wall_s": "s",
    "pinplay.record.minstr_per_s": "Minstr/s",
    "dcfg.build.wall_s": "s",
    "profiling.slice.wall_s": "s",
    "profiling.slice.minstr_per_s": "Minstr/s",
    "profiling.slices": "count",
    "clustering.select.wall_s": "s",
    "clustering.select.k": "count",
    "timing.regions.wall_s": "s",
    "timing.regions.calls": "count",
    "timing.regions.call_p50_ms": "ms",
    "timing.regions.call_p95_ms": "ms",
    "timing.regions.swept_minstr": "Minstr",
    "timing.regions.detailed_minstr": "Minstr",
    "timing.regions.detail_share": "ratio",
    "timing.regions.ns_per_swept_instr": "ns/instr",
    "timing.full.minstr_per_s": "Minstr/s",
    "timing.full.ns_per_l1d_access": "ns/access",
    "timing.full.cycles": "cycles",
    "timing.full.instructions": "instr",
    "timing.full.ipc": "instr/cycle",
    "timing.full.l1d_accesses": "count",
    "timing.full.l1d_misses": "count",
    "timing.full.l2_misses": "count",
    "timing.full.l3_misses": "count",
    "timing.full.branch_mispredicts": "count",
    "setup.first_rep_extra_s": "s",
    "obs.trace.overhead_pct": "%",
    "obs.trace.coverage_pct": "%",
}

#: Layer metrics that exist on one path only: offline selection, or the
#: live streaming pass.  Printed and stored, not part of the contract.
EXTRA_UNITS = {
    "core.extrapolate.wall_s": "s",
    "clustering.select.k_tried": "count",
    "analysis.live.wall_s": "s",
    "analysis.live.self_s": "s",
    "analysis.live.coverage": "ratio",
    "analysis.live.topups": "count",
}

#: Pipeline stage spans of an untraced rep, by the end-to-end cost they
#: make up.  Live mode's ``marker_pcs`` records with the DCFG builder
#: attached, which is how ``run_live`` records.
ANALYSIS_STAGES = ("pipeline.record", "pipeline.profile", "pipeline.select",
                   "pipeline.marker_pcs")
SAMPLED_STAGES = ("pipeline.simulate_regions", "pipeline.extrapolate",
                  "pipeline.live")
FULL_STAGE = "pipeline.simulate_full"

_FULL_STATS = ("cycles", "instructions", "l1d_accesses", "l1d_misses",
               "l2_misses", "l3_misses", "branch_mispredicts")


def stat(
    values: Sequence[float], unit: str, value: Optional[float] = None
) -> Dict:
    """A metric entry: its value (the median unless given), spread, n."""
    values = [float(v) for v in values]
    return {
        "value": statistics.median(values) if value is None else value,
        "unit": unit,
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
        "values": values,
    }


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _duration(span: Dict[str, Any]) -> float:
    return span["end"] - span["start"]


class RepSpans:
    """The spans of one rep, indexed by name and by parent."""

    def __init__(self, spans: Iterable[Dict[str, Any]]) -> None:
        self.by_name: Dict[str, List[Dict]] = defaultdict(list)
        self.children: Dict[int, List[Dict]] = defaultdict(list)
        self.root = None
        for span in spans:
            self.by_name[span["name"]].append(span)
            if span["parent"] is None:
                self.root = span
            else:
                self.children[span["parent"]].append(span)

    def wall(self, *names: str) -> float:
        return sum(_duration(s) for n in names for s in self.by_name[n])

    def total(self, name: str, attr: str) -> float:
        return sum(s[attr] for s in self.by_name[name])

    def coverage(self) -> float:
        """Share of the rep's wall inside its top-level layer spans."""
        covered = sum(_duration(s) for s in self.children[self.root["id"]])
        return covered / _duration(self.root)


def split_reps(
    spans: Iterable[Dict[str, Any]], speeds: Dict[tuple, float]
) -> Dict[tuple, RepSpans]:
    """Spans grouped by ``(rep, traced)``, rep 0 being the warm-up, each
    rep's clock scaled by its host speed to the reference speed."""
    groups: Dict[tuple, List[Dict]] = defaultdict(list)
    for span in spans:
        key = (span["rep"], span["traced"])
        scaled = {**span, "start": span["start"] * speeds[key],
                  "end": span["end"] * speeds[key]}
        groups[key].append(scaled)
    return {key: RepSpans(group) for key, group in groups.items()}


def e2e_metrics(
    reps: Dict[tuple, RepSpans], accuracy: Sequence[Dict]
) -> Dict:
    """End-to-end metrics: times from the measured untraced reps, accuracy
    from the outcomes of one rep per accuracy seed."""
    measured = [r for (n, traced), r in sorted(reps.items())
                if n > 0 and not traced]
    analysis = [r.wall(*ANALYSIS_STAGES) for r in measured]
    sampled = [r.wall(*SAMPLED_STAGES) for r in measured]
    full = [r.wall(FULL_STAGE) for r in measured]
    u = E2E_UNITS
    return {
        "analysis_wall_s": stat(analysis, u["analysis_wall_s"]),
        "sampled_sim_wall_s": stat(sampled, u["sampled_sim_wall_s"]),
        "full_sim_wall_s": stat(full, u["full_sim_wall_s"]),
        "sim_speedup": stat(
            [f / s for f, s in zip(full, sampled)], u["sim_speedup"]
        ),
        "e2e_speedup": stat(
            [f / (a + s) for f, a, s in zip(full, analysis, sampled)],
            u["e2e_speedup"],
        ),
        "runtime_error_pct": stat(
            [o["runtime_error_pct"] for o in accuracy],
            u["runtime_error_pct"],
        ),
        "theoretical_speedup": stat(
            [o["theoretical_speedup"] for o in accuracy],
            u["theoretical_speedup"],
        ),
    }


def _layer_rep(r: RepSpans, outcome: Dict) -> Dict[str, float]:
    """One traced rep's per-layer values."""
    record_instr = r.total("pinplay.record", "instructions")
    swept = r.total("timing.regions", "swept")
    detailed = r.total("timing.regions", "detailed")
    full_span = r.by_name["timing.full"][0]
    full = full_span["metrics"]
    full_wall = _duration(full_span)
    values = {
        "pinplay.record.wall_s": r.wall("pinplay.record"),
        "pinplay.record.minstr_per_s":
            record_instr / 1e6 / r.wall("pinplay.record"),
        "dcfg.build.wall_s": r.wall("dcfg.build"),
        "profiling.slice.wall_s": r.wall("profiling.slice"),
        # Offline slicing replays the whole recording; the live pass
        # replays part of it and fast-forwards over the rest, so this is
        # program instructions covered per second.
        "profiling.slice.minstr_per_s":
            record_instr / 1e6 / r.wall("profiling.slice"),
        "profiling.slices": outcome["slices"],
        "clustering.select.wall_s": r.wall("clustering.select"),
        "clustering.select.k": outcome["k"],
        "timing.regions.wall_s": r.wall("timing.regions"),
        "timing.regions.calls": len(r.by_name["timing.regions"]),
        "timing.regions.swept_minstr": swept / 1e6,
        "timing.regions.detailed_minstr": detailed / 1e6,
        "timing.regions.detail_share": detailed / swept,
        "timing.regions.ns_per_swept_instr":
            r.wall("timing.regions") * 1e9 / swept,
        "timing.full.minstr_per_s": full["instructions"] / 1e6 / full_wall,
        "timing.full.ns_per_l1d_access":
            full_wall * 1e9 / full["l1d_accesses"],
        "timing.full.ipc": full["instructions"] / full["cycles"],
        "obs.trace.coverage_pct": 100.0 * r.coverage(),
    }
    for name in _FULL_STATS:
        values[f"timing.full.{name}"] = full[name]
    if r.by_name["analysis.live"]:
        live = r.by_name["analysis.live"][0]
        values["analysis.live.wall_s"] = r.wall("analysis.live")
        values["analysis.live.self_s"] = (
            r.wall("analysis.live") - r.wall("timing.regions")
        )
        values["analysis.live.coverage"] = live["coverage"]
        values["analysis.live.topups"] = live["topups"]
    else:
        values["core.extrapolate.wall_s"] = r.wall("core.extrapolate")
        values["clustering.select.k_tried"] = r.total(
            "clustering.select", "k_tried"
        )
    return values


def layer_metrics(
    reps: Dict[tuple, RepSpans], outcomes: Dict[tuple, Dict]
) -> Dict:
    """Per-layer metrics from the traced reps: medians over reps, except
    the per-call percentiles (pooled over every call), trace coverage
    (the lowest rep), and the two comparisons against untraced reps."""
    traced = sorted(k for k in reps if k[1])
    untraced = [reps[k].root for k in sorted(reps) if k[0] > 0 and not k[1]]
    per_rep = [_layer_rep(reps[k], outcomes[k]) for k in traced]
    units = {**LAYER_UNITS, **EXTRA_UNITS}
    metrics = {
        name: stat([v[name] for v in per_rep], units[name])
        for name in per_rep[0]
    }
    calls_ms = [
        _duration(s) * 1e3 for k in traced
        for s in reps[k].by_name["timing.regions"]
    ]
    metrics["timing.regions.call_p50_ms"] = stat(
        calls_ms, "ms", percentile(calls_ms, 0.50)
    )
    metrics["timing.regions.call_p95_ms"] = stat(
        calls_ms, "ms", percentile(calls_ms, 0.95)
    )
    coverage = metrics["obs.trace.coverage_pct"]
    coverage["value"] = coverage["min"]
    untraced_wall = statistics.median(_duration(s) for s in untraced)
    traced_wall = statistics.median(_duration(reps[k].root) for k in traced)
    metrics["obs.trace.overhead_pct"] = stat(
        [100.0 * (traced_wall / untraced_wall - 1.0)], "%"
    )
    warmup_wall = _duration(reps[(0, False)].root)
    metrics["setup.first_rep_extra_s"] = stat(
        [warmup_wall - untraced_wall], "s"
    )
    return metrics
