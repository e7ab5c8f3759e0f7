"""Deterministic in-process metrics: counters, gauges, histograms.

The registry instruments the pipeline's hot seams — events flushed per
:class:`~repro.perf.ring.EventRing` batch, k-means iterations, cache
hits/misses/evictions, fan-out jobs and serial fallbacks — with the
contract that everything except wall-clock *values* is deterministic: two
runs with the same seed produce identical counter values and identical
histogram *bucket boundaries* (observation counts of timing histograms
naturally coincide too; only the summed seconds differ).

Histogram buckets are therefore fixed at import time as log-spaced bounds
(half-decade steps from 1µs to ~3162s) rather than adapting to the data:
adaptive buckets would make two traces incomparable and ``repro-obs
--diff`` meaningless.

Instrumented code never talks to a registry directly; it asks
:func:`repro.obs.tracer.active_metrics` for the installed one and skips
all work when tracing is off — a single ``is None`` check per seam.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, List, Tuple

#: Fixed log-spaced histogram bucket upper bounds (seconds-flavoured, but
#: unitless): half-decade steps covering 1e-6 .. ~3.16e3, one overflow
#: bucket above.  Fixed so that any two traces bucket identically.
BUCKET_BOUNDS: Tuple[float, ...] = tuple(
    round(10.0 ** (exp / 2.0), 10) for exp in range(-12, 8)
)


def _bucket_label(bound: float) -> str:
    return f"le_{bound:.3g}"


#: Deterministic bucket labels, in bound order, plus the overflow bucket.
BUCKET_LABELS: Tuple[str, ...] = tuple(
    [_bucket_label(b) for b in BUCKET_BOUNDS] + ["le_inf"]
)


class Histogram:
    """Fixed-bucket histogram: counts per log-spaced bound, plus sum."""

    __slots__ = ("count", "total", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.buckets: List[int] = [0] * (len(BUCKET_BOUNDS) + 1)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.buckets[bisect_left(BUCKET_BOUNDS, value)] += 1

    def as_dict(self) -> Dict[str, Any]:
        # Zero buckets are elided: the labels are fixed, so absence is
        # unambiguous and the trace line stays small.
        return {
            "count": self.count,
            "sum": self.total,
            "buckets": {
                BUCKET_LABELS[i]: n
                for i, n in enumerate(self.buckets)
                if n
            },
        }

    def merge_dict(self, data: Dict[str, Any]) -> None:
        self.count += int(data.get("count", 0))
        self.total += float(data.get("sum", 0.0))
        labels = {label: i for i, label in enumerate(BUCKET_LABELS)}
        for label, n in data.get("buckets", {}).items():
            if label in labels:
                self.buckets[labels[label]] += int(n)


class MetricsRegistry:
    """Counters, gauges and histograms, keyed by dotted metric name.

    Metric kinds are disjoint namespaces enforced by usage, not types:
    ``inc`` creates/updates a counter, ``gauge`` overwrites a gauge,
    ``observe`` feeds a histogram.  ``as_dict`` renders everything with
    sorted keys so a dumped registry is canonical and diffable.
    """

    __slots__ = ("counters", "gauges", "histograms")

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}

    # -- writers -----------------------------------------------------------

    def inc(self, name: str, value: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        hist.observe(value)

    # -- lifecycle ---------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.counters or self.gauges or self.histograms)

    def reset(self) -> None:
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()

    # -- rendering / merging ----------------------------------------------

    def as_dict(self) -> Dict[str, Any]:
        return {
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "gauges": {k: self.gauges[k] for k in sorted(self.gauges)},
            "histograms": {
                k: self.histograms[k].as_dict()
                for k in sorted(self.histograms)
            },
        }

    def merge(self, data: Dict[str, Any]) -> None:
        """Fold a dumped registry (e.g. a worker's per-job delta) into this
        one: counters add, gauges last-write-wins, histograms add."""
        for name, value in data.get("counters", {}).items():
            self.inc(name, int(value))
        for name, value in data.get("gauges", {}).items():
            self.gauge(name, float(value))
        for name, hist_data in data.get("histograms", {}).items():
            hist = self.histograms.get(name)
            if hist is None:
                hist = self.histograms[name] = Histogram()
            hist.merge_dict(hist_data)
