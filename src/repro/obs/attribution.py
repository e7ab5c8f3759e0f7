"""Per-cluster extrapolation-error attribution (Ekman-style).

The pipeline's headline number is one scalar — predicted vs actual
runtime — which says nothing about *where* the error comes from.  This
module decomposes it: every cluster gets an **uncertainty score** built
from the spread its single representative may be hiding, and the total
signed error is allocated across clusters in proportion to those scores.

The score follows the two-phase stratified-sampling literature (Ekman,
"CPU Simulation Using Two-Phase Stratified Sampling"; the same shape as
the live estimator's priors in :mod:`repro.analysis.online`): a
cluster's expected contribution to prediction error grows with the
within-cluster variance of its members' instruction masses, with how far
the representative sits from the cluster mean, and with the
representative's cycles-per-instruction (which converts count spread
into cycle spread).

Offline runs score ``cpi * sqrt(var(member_counts) + (rep - mean)^2) *
len(members)``; live runs reuse the estimator's frozen priors
(``mass * dispersion * cpi``).  Either way the allocation is::

    attributed_j = total_error * score_j / sum(scores)

(falling back to mass-proportional shares when every score is zero, e.g.
singleton clusters), so the attributions **reconcile**: they sum to the
total error by construction, which the XAR002-style test pins down.

Pure math on duck-typed inputs — no imports from clustering or timing,
so ``repro.obs`` stays leaf-like.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class ClusterErrorAttribution:
    """One cluster's slice of the total extrapolation error."""

    cluster_id: int
    #: Filtered-instruction mass the cluster extrapolates over.
    mass: float
    #: Unnormalized uncertainty score (cycles-flavoured spread proxy).
    score: float
    #: ``score / sum(scores)`` (mass-proportional when all scores are 0).
    share: float
    #: ``total_error * share``; ``None`` when no reference run exists.
    error_cycles: Optional[float]


@dataclass(frozen=True)
class ErrorAttribution:
    """The full decomposition of one run's extrapolation error."""

    #: Signed total: predicted minus actual cycles (``None`` without a
    #: full-run reference).
    total_error_cycles: Optional[float]
    predicted_cycles: float
    actual_cycles: Optional[float]
    clusters: List[ClusterErrorAttribution]

    def top(self, n: int = 10) -> List[ClusterErrorAttribution]:
        """The ``n`` largest contributors, by |error| then share."""
        return sorted(
            self.clusters,
            key=lambda c: (
                -abs(c.error_cycles if c.error_cycles is not None else 0.0),
                -c.share, c.cluster_id,
            ),
        )[:n]

    def reconciliation_residue(self) -> float:
        """|sum(per-cluster errors) - total| — zero modulo float rounding."""
        if self.total_error_cycles is None:
            return 0.0
        return abs(
            sum(c.error_cycles or 0.0 for c in self.clusters)
            - self.total_error_cycles
        )


def attribute_error(
    scored: Sequence[Tuple[int, float, float]],
    predicted_cycles: float,
    actual_cycles: Optional[float] = None,
) -> ErrorAttribution:
    """Allocate the total error over ``(cluster_id, mass, score)`` triples.

    Scores are clamped non-negative; non-finite scores count as zero.
    When every score is zero the shares fall back to mass proportions
    (and to uniform shares if the masses are zero too), so the
    attributions always sum to the total.
    """
    total: Optional[float] = None
    if actual_cycles is not None:
        total = float(predicted_cycles) - float(actual_cycles)
    scores = [
        s if math.isfinite(s) and s > 0.0 else 0.0
        for _, _, s in scored
    ]
    denom = sum(scores)
    if denom <= 0.0:
        masses = [max(0.0, m) for _, m, _ in scored]
        mass_denom = sum(masses)
        if mass_denom > 0.0:
            shares = [m / mass_denom for m in masses]
        else:
            n = max(1, len(scored))
            shares = [1.0 / n] * len(scored)
    else:
        shares = [s / denom for s in scores]
    clusters = [
        ClusterErrorAttribution(
            cluster_id=int(cid),
            mass=float(mass),
            score=float(score),
            share=float(share),
            error_cycles=(
                total * share if total is not None else None
            ),
        )
        for (cid, mass, _), score, share in zip(scored, scores, shares)
    ]
    return ErrorAttribution(
        total_error_cycles=total,
        predicted_cycles=float(predicted_cycles),
        actual_cycles=(
            float(actual_cycles) if actual_cycles is not None else None
        ),
        clusters=clusters,
    )


def offline_scores(
    clusters: Sequence[Any],
    rep_cycles: Dict[int, float],
    slice_filtered: Sequence[float],
) -> List[Tuple[int, float, float]]:
    """Score triples for an offline selection.

    ``clusters`` are :class:`~repro.clustering.simpoint.ClusterInfo`-shaped
    (``cluster_id``/``representative``/``members``/``instruction_mass``);
    ``rep_cycles`` maps a representative slice index to its simulated
    cycles; ``slice_filtered`` is the per-slice filtered instruction
    count.  The score converts within-cluster count spread plus the
    representative's offset from the cluster mean into cycles via the
    representative's CPI.
    """
    n_slices = len(slice_filtered)
    out: List[Tuple[int, float, float]] = []
    for cluster in clusters:
        rep = cluster.representative
        rep_count = (
            float(slice_filtered[rep]) if 0 <= rep < n_slices else 0.0
        )
        cycles = float(rep_cycles.get(rep, 0.0))
        cpi = cycles / rep_count if rep_count > 0 else 0.0
        counts = [
            float(slice_filtered[m])
            for m in cluster.members
            if 0 <= m < n_slices
        ]
        if counts:
            mean = sum(counts) / len(counts)
            var = sum((c - mean) ** 2 for c in counts) / len(counts)
            delta = rep_count - mean
        else:
            var = 0.0
            delta = 0.0
        score = cpi * math.sqrt(var + delta * delta) * max(1, len(counts))
        out.append(
            (int(cluster.cluster_id), float(cluster.instruction_mass), score)
        )
    return out


def live_scores(
    cluster_reports: Sequence[Any],
    sample_cycles: Dict[int, float],
    sample_filtered: Dict[int, float],
) -> List[Tuple[int, float, float]]:
    """Score triples for a live pass: the estimator's frozen priors.

    ``cluster_reports`` are
    :class:`~repro.analysis.online.LiveClusterReport`-shaped
    (``cluster_id``/``representative``/``mass``/``dispersion``/
    ``samples``); ``sample_cycles``/``sample_filtered`` map a simulated
    region index to its cycles and filtered count.  The prior is
    ``mass * dispersion * rep_cpi``, shrunk by ``1/sqrt(m)`` for a
    cluster that earned ``m`` detailed samples through top-ups — exactly
    the per-cluster terms the running estimate combines.
    """
    out: List[Tuple[int, float, float]] = []
    for cluster in cluster_reports:
        rep = cluster.representative
        filtered = float(sample_filtered.get(rep, 0.0))
        cycles = float(sample_cycles.get(rep, 0.0))
        cpi = cycles / filtered if filtered > 0 else 0.0
        m = max(1, len(getattr(cluster, "samples", ()) or ()))
        score = (
            float(cluster.mass) * float(cluster.dispersion) * cpi
            / math.sqrt(m)
        )
        out.append((int(cluster.cluster_id), float(cluster.mass), score))
    return out


def emit_attribution(
    attribution: ErrorAttribution, prefix: str = "attribution",
) -> None:
    """Publish an attribution as gauges + attributes on the current span.

    Zero-cost when tracing is off (the usual ``is None`` fast path).
    Gauges carry the machine-readable decomposition —
    ``attribution.cluster.<id>.share`` (always) and ``.error_cycles``
    (when a reference exists) — which is what ``repro-obs report``
    reads back.
    """
    from .tracer import active_metrics, active_tracer

    reg = active_metrics()
    if reg is not None:
        if attribution.total_error_cycles is not None:
            reg.gauge(
                f"{prefix}.total_error_cycles",
                attribution.total_error_cycles,
            )
        reg.gauge(f"{prefix}.clusters", float(len(attribution.clusters)))
        for cluster in attribution.clusters:
            base = f"{prefix}.cluster.{cluster.cluster_id}"
            reg.gauge(f"{base}.share", round(cluster.share, 9))
            if cluster.error_cycles is not None:
                reg.gauge(
                    f"{base}.error_cycles", round(cluster.error_cycles, 6)
                )
    tracer = active_tracer()
    if tracer.enabled:
        top = attribution.top(3)
        tracer.set_current(
            f"{prefix}_top",
            [[c.cluster_id, round(c.share, 6)] for c in top],
        )
        if attribution.total_error_cycles is not None:
            tracer.set_current(
                f"{prefix}_total_error_cycles",
                round(attribution.total_error_cycles, 6),
            )
