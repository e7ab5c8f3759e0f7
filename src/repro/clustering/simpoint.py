"""Representative selection: the SimPoint procedure over sliced BBVs.

Sweep k = 1..maxK, score each K-means clustering with BIC, pick the smallest
k whose (min-max normalized) BIC clears a threshold (the SimPoint tool's
default 0.9), and take the slice closest to each centroid as the cluster
representative.  The representative's weight is its cluster's share of
filtered instructions — the "multiplier" numerator of Eq. (2) in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..errors import ClusteringError
from ..obs.tracer import active_metrics
from .bic import bic_scorer
from .kmeans import DistanceColumns, KMeansResult, kmeans, kmeanspp_seed
from .projection import DEFAULT_DIMENSIONS, project


@dataclass(frozen=True)
class SimPointOptions:
    """Knobs of the selection procedure (paper defaults)."""

    max_k: int = 50
    bic_threshold: float = 0.9
    projection_dim: int = DEFAULT_DIMENSIONS
    seed: int = 42
    weighted: bool = True
    #: K-means restarts per k (best inertia wins); reduces init noise in
    #: the BIC curve.
    n_init: int = 3

    def __post_init__(self) -> None:
        for name in ("max_k", "n_init", "projection_dim"):
            if getattr(self, name) < 1:
                raise ClusteringError(
                    f"SimPointOptions.{name} must be >= 1, got "
                    f"{getattr(self, name)}"
                )
        # NaN fails the comparison too.
        if not 0.0 <= self.bic_threshold <= 1.0:
            raise ClusteringError(
                f"SimPointOptions.bic_threshold must be in [0, 1], got "
                f"{self.bic_threshold}"
            )


@dataclass
class ClusterInfo:
    """One cluster and its chosen representative slice."""

    cluster_id: int
    representative: int          # slice index
    members: List[int]           # slice indices
    instruction_mass: float      # sum of member filtered instruction counts
    multiplier: float            # mass / representative's own count (Eq. 2)


@dataclass
class SimPointSelection:
    """The outcome of region selection."""

    k: int
    clusters: List[ClusterInfo]
    labels: np.ndarray
    bic_by_k: Dict[int, float]

    @property
    def representative_indices(self) -> List[int]:
        return [c.representative for c in self.clusters]


def select_simpoints(
    bbvs: np.ndarray,
    instruction_counts: Sequence[float],
    options: Optional[SimPointOptions] = None,
    ineligible: Optional[Sequence[int]] = None,
    jobs: int = 1,
) -> SimPointSelection:
    """Cluster slice BBVs and select one representative per cluster.

    ``ineligible`` slices are passed over as representatives whenever
    their cluster has an eligible member (their instruction mass still
    counts toward their cluster's multiplier).  A cluster made up only of
    ineligible slices still needs a representative, so it falls back to
    choosing among them.  The pipeline passes the program-startup slices
    here: they execute the same code as later occurrences but on cold
    microarchitectural state, so they are valid cluster *members* but poor
    cluster *representatives* — the standard SimPoint practice of steering
    clear of initialization.

    ``jobs > 1`` fans the sweep's independent seeded k-fits across a
    process pool (each fit is deterministic given its seed, so the result
    is bit-identical to the serial sweep).  The serial sweep shares one
    :class:`~repro.clustering.kmeans.DistanceColumns` memo across every k
    and restart; each fan-out task computes its own.
    """
    opts = options or SimPointOptions()
    counts = np.asarray(instruction_counts, dtype=np.float64)
    if bbvs.ndim != 2 or bbvs.shape[0] != counts.shape[0]:
        raise ClusteringError(
            f"BBV matrix {bbvs.shape} does not match {counts.shape[0]} counts"
        )
    n = bbvs.shape[0]
    points = project(bbvs, opts.projection_dim, opts.seed)
    weights = counts if opts.weighted else None

    # Sweep k; keep every clustering so the winner can be reused.  The sweep
    # stays well below n: with n - k residual degrees of freedom near zero
    # the variance estimate collapses and BIC diverges.
    max_k = min(opts.max_k, max(1, n // 2)) if n > 1 else 1
    results, scores = _sweep(points, weights, opts, max_k, jobs)

    chosen_k = _choose_k(scores, opts.bic_threshold)
    chosen = results[chosen_k]
    reg = active_metrics()
    if reg is not None:
        reg.inc("select.runs")
        reg.inc("select.ks_swept", len(scores))
        reg.gauge("select.chosen_k", chosen_k)
    clusters = _build_clusters(
        points, counts, chosen, frozenset(ineligible or ())
    )
    return SimPointSelection(
        k=chosen_k, clusters=clusters, labels=chosen.labels, bic_by_k=scores
    )


def _restarts_for(n: int, opts: SimPointOptions) -> int:
    # Restarts fight k-means init noise; with many points the landscape is
    # well determined and a single init keeps ref-scale sweeps affordable.
    return 1 if n > 800 else opts.n_init


def _fit_k(task, columns: Optional[DistanceColumns] = None) -> KMeansResult:
    """Best-of-restarts k-means fit for one k (module-level: picklable).

    Each restart is ``kmeans(points, k, seed=...)``, seeded through the
    ``columns`` memo; a fan-out worker gets none and computes its own.
    """
    points, weights, k, base_seed, n_init = task
    if columns is None:
        columns = DistanceColumns(points)
    best = None
    for restart in range(n_init):
        rng = np.random.default_rng(base_seed + k + 1000 * restart)
        candidate = kmeans(
            points, k, weights=weights,
            init_centroids=kmeanspp_seed(points, k, rng, columns),
        )
        if best is None or candidate.inertia < best.inertia:
            best = candidate
    return best


def _scorer(points: np.ndarray) -> Callable[[KMeansResult], float]:
    """BIC per fit; ``-inf`` once k leaves no residual degrees of freedom."""
    n = points.shape[0]
    bic = bic_scorer(points)
    return lambda fit: bic(fit) if n > fit.k else float("-inf")


def _sweep(
    points: np.ndarray,
    weights: Optional[np.ndarray],
    opts: SimPointOptions,
    max_k: int,
    jobs: int,
):
    """Independent seeded fit per k.

    Each k's fit depends only on its seed, so the sweep is embarrassingly
    parallel; with ``jobs > 1`` the k-fits fan out across a process pool
    and the results are bit-identical to the serial order.
    """
    n_init = _restarts_for(points.shape[0], opts)
    tasks = [
        (points, weights, k, opts.seed, n_init) for k in range(1, max_k + 1)
    ]
    score = _scorer(points)
    if jobs > 1 and len(tasks) > 1:
        from ..parallel.executor import fanout_map

        fits = fanout_map(_fit_k, tasks, jobs)
    else:
        columns = DistanceColumns(points)
        fits = [_fit_k(task, columns) for task in tasks]
    results: Dict[int, KMeansResult] = {}
    scores: Dict[int, float] = {}
    for fit in fits:
        results[fit.k] = fit
        scores[fit.k] = score(fit)
    return results, scores


def _choose_k(scores: Dict[int, float], threshold: float) -> int:
    """Smallest k whose (smoothed, min-max normalized) BIC clears threshold.

    K-means is run from a single seeded initialization per k, so the raw BIC
    curve carries init noise: an isolated spike at large k must not define
    the normalization ceiling.  A short moving average removes the spikes
    while preserving the knee the SimPoint rule looks for.
    """
    finite = {k: s for k, s in scores.items() if np.isfinite(s)}
    if not finite:
        return 1
    ks = sorted(finite)
    raw = np.array([finite[k] for k in ks], dtype=np.float64)
    if len(ks) > 2:
        window = min(5, len(ks))
        kernel = np.ones(window) / window
        pad = window // 2
        padded = np.concatenate([np.repeat(raw[0], pad), raw,
                                 np.repeat(raw[-1], pad)])
        smooth = np.convolve(padded, kernel, mode="valid")[: len(ks)]
    else:
        smooth = raw
    lo, hi = float(smooth.min()), float(smooth.max())
    if hi == lo:
        return ks[0]
    for k, s in zip(ks, smooth):
        if (s - lo) / (hi - lo) >= threshold:
            return k
    return ks[-1]


def _build_clusters(
    points: np.ndarray,
    counts: np.ndarray,
    result: KMeansResult,
    ineligible: frozenset = frozenset(),
) -> List[ClusterInfo]:
    clusters: List[ClusterInfo] = []
    for j in range(result.k):
        members = np.flatnonzero(result.labels == j)
        if members.size == 0:
            continue
        all_members = members
        eligible = np.array(
            [m for m in members if int(m) not in ineligible], dtype=np.int64
        )
        if eligible.size:
            members = eligible
        dists = ((points[members] - result.centroids[j]) ** 2).sum(axis=1)
        # Near-duplicate BBVs (nearly) tie on distance; a plain argmin would
        # then systematically elect the earliest such slice, which sits at
        # the start of the run (cold caches) and is microarchitecturally
        # atypical.  Among candidates within 1e-12 of the minimum, take the
        # median-position member: an interior, typical occurrence.
        cutoff = float(dists.min()) + 1e-12
        tied = members[dists <= cutoff]
        representative = int(tied[len(tied) // 2])
        mass = float(counts[all_members].sum())
        own = float(counts[representative])
        if own <= 0:
            raise ClusteringError(
                f"representative slice {representative} has no filtered "
                f"instructions; cannot weight cluster {j}"
            )
        clusters.append(
            ClusterInfo(
                cluster_id=j,
                representative=representative,
                members=[int(m) for m in all_members],
                instruction_mass=mass,
                multiplier=mass / own,
            )
        )
    clusters.sort(key=lambda c: c.representative)
    return clusters
