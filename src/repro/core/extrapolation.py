"""Weight-based extrapolation (Sec. III-G, Eqs. 1 and 2).

``total_runtime = sum_i runtime_i * multiplier_i`` where a looppoint's
multiplier is the ratio of its cluster's filtered instruction mass to its
own filtered instruction count.  The same weighting applies to any event
count (cache misses, branch mispredicts, ...), which is how Fig. 7's
metrics are predicted.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..clustering.simpoint import ClusterInfo
from ..errors import ClusteringError
from ..obs.attribution import (
    ErrorAttribution,
    attribute_error,
    emit_attribution,
    offline_scores,
)
from ..timing.metrics import SimMetrics
from ..timing.mcsim import SimulationResult


def extrapolate_metrics(
    region_results: Sequence[SimulationResult],
    clusters: Sequence[ClusterInfo],
    allow_missing: bool = False,
) -> SimMetrics:
    """Combine per-looppoint metrics into a whole-program prediction.

    ``region_results[i].region_id`` must equal the representative slice
    index of some cluster.  ``allow_missing`` skips clusters whose
    representative was never simulated (used by the naive baseline, whose
    regions can overrun the execution) — the lost mass then shows up as
    prediction error, as it should.
    """
    by_rep: Dict[int, ClusterInfo] = {c.representative: c for c in clusters}
    if len(by_rep) != len(clusters):
        raise ClusteringError("duplicate representative slice indices")
    total = SimMetrics()
    seen = set()
    for result in region_results:
        cluster = by_rep.get(result.region_id)
        if cluster is None:
            raise ClusteringError(
                f"region {result.region_id} does not match any cluster "
                f"representative"
            )
        if result.region_id in seen:
            raise ClusteringError(
                f"region {result.region_id} simulated twice"
            )
        seen.add(result.region_id)
        total = total.plus(result.metrics.scaled(cluster.multiplier))
    missing = set(by_rep) - seen
    if missing and not allow_missing:
        raise ClusteringError(f"no simulation results for looppoints {sorted(missing)}")
    return total


def prediction_error(predicted: float, actual: float) -> float:
    """Absolute percentage error of a prediction."""
    if actual == 0:
        raise ClusteringError("actual value is zero; error undefined")
    return 100.0 * abs(predicted - actual) / abs(actual)


def attribute_extrapolation_error(
    clusters: Sequence[ClusterInfo],
    region_results: Sequence[SimulationResult],
    slice_filtered: Sequence[float],
    predicted_cycles: float,
    actual_cycles: Optional[float] = None,
    emit: bool = True,
) -> ErrorAttribution:
    """Decompose the extrapolation error across clusters (Ekman-style).

    Each cluster's uncertainty score converts its within-cluster
    instruction-count variance and its representative's offset from the
    cluster mean into cycles via the representative's CPI; the signed
    total error (predicted − actual) is then allocated proportionally,
    so the per-cluster attributions sum back to the total — the
    reconciliation ``tests/test_obs_v2.py`` pins.  With ``emit`` the
    decomposition lands as ``attribution.*`` gauges and attributes on
    the current span (free when tracing is off).
    """
    rep_cycles = {
        result.region_id: float(result.metrics.cycles)
        for result in region_results
    }
    attribution = attribute_error(
        offline_scores(clusters, rep_cycles, slice_filtered),
        predicted_cycles=predicted_cycles,
        actual_cycles=actual_cycles,
    )
    if emit:
        emit_attribution(attribution)
    return attribution
