"""Representative selection: the SimPoint procedure over sliced BBVs.

Score K-means clusterings for k = 1..maxK with BIC, pick the smallest k
whose (smoothed, min-max normalized) BIC clears a threshold (the SimPoint
tool's default 0.9), and take the slice closest to each centroid as the
cluster representative.  The representative's weight is its cluster's
share of filtered instructions — the "multiplier" numerator of Eq. (2) in
the paper.

The sweep fits k = 1, 2, ... in order and stops once an exact upper bound
on the BIC (:func:`~repro.clustering.bic.bic_upper_bound`) proves that no
k it has not fitted can raise the smoothed curve's maximum; it then fits
maxK-2..maxK so the curve's right end is known.  Every fitted k gets the
fit and score the exhaustive sweep would give it, and the chosen k is the
exhaustive sweep's unless the exhaustive curve's minimum lies at a k whose
window was never fitted (see ``_choose_k``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ClusteringError
from ..obs.tracer import active_metrics
from .bic import bic_scorer, bic_upper_bound
from .kmeans import KMeansResult, kmeans, kmeanspp_indices
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
    #: BIC of every k the sweep fitted, in increasing k: k = 1..m, where
    #: the bound stopped the sweep, then maxK-2..maxK.  Not every k in
    #: 1..maxK.
    bic_by_k: Dict[int, float]


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

    ``jobs`` is ignored: the sweep always runs in the calling process,
    because a process pool made it slower on the slice counts it sees.
    The parameter stays for callers that still pass it.
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
    results, scores = _sweep(points, weights, opts, max_k)

    chosen_k = _choose_k(scores, max_k, opts.bic_threshold)
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


def _seeds(
    points: np.ndarray, ks: Sequence[int], base_seed: int, n_init: int
) -> np.ndarray:
    """Lockstep k-means++ seeds; row ``i * n_init + r`` is restart ``r``
    of ``ks[i]``, drawn from its own seed ``base_seed + k + 1000 * r``."""
    fits = [(k, r) for k in ks for r in range(n_init)]
    return kmeanspp_indices(
        points,
        [k for k, _ in fits],
        [np.random.default_rng(base_seed + k + 1000 * r) for k, r in fits],
    )


def _best_fit(
    points: np.ndarray,
    weights: Optional[np.ndarray],
    k: int,
    seeds: np.ndarray,
) -> KMeansResult:
    """Best-inertia k-means fit over the restarts seeded by ``seeds`` rows."""
    best = None
    for row in seeds:
        candidate = kmeans(
            points, k, weights=weights, init_centroids=points[row[:k]]
        )
        if best is None or candidate.inertia < best.inertia:
            best = candidate
    return best


def _scorer(points: np.ndarray) -> Callable[[KMeansResult], float]:
    """BIC per fit; ``-inf`` once k leaves no residual degrees of freedom."""
    n = points.shape[0]
    bic = bic_scorer(points)
    return lambda fit: bic(fit) if n > fit.k else float("-inf")


#: Width of the moving average over the BIC curve, in k.
_WINDOW = 5

#: Relative margin the stop test keeps between the curve's maximum and the
#: bound: far above the rounding in the scores and the bound, far below
#: the ``(d+1)/2*log(n) - d/2`` the bound falls per k.
_SLACK = 1e-9


def _window(max_k: int) -> Tuple[int, int]:
    """(width, pad): k's window is ``k - pad .. k - pad + width - 1``,
    each clamped to [1, maxK]."""
    width = min(_WINDOW, max_k) if max_k > 2 else 1
    return width, width // 2


def _sweep(
    points: np.ndarray,
    weights: Optional[np.ndarray],
    opts: SimPointOptions,
    max_k: int,
):
    """Seeded fits of k = 1..m, where the BIC bound settles the maximum of
    the smoothed curve, then of k = maxK-2..maxK.

    Every (k, restart) fit is seeded in one lockstep batch over all
    maxK values of k, and each k's fit depends only on its own seeds, so
    a fitted k's fit and score are the exhaustive sweep's, bit for bit.

    After fitting k = m, the windows of k <= m - pad are fully fitted and
    their smoothed maximum ``best`` is known.  A window that reaches past
    m averages at most its fitted scores and ``UB(j)`` for each j > m.
    Those bounds only fall as the window moves right (``UB`` falls per
    k), so once ``best`` clears them for k = m-pad+1..m+pad+1, no k left
    unfitted can raise the maximum, and the sweep stops.
    """
    n_init = _restarts_for(points.shape[0], opts)
    seeds = _seeds(points, range(1, max_k + 1), opts.seed, n_init)
    score = _scorer(points)
    bound = bic_upper_bound(points)
    results: Dict[int, KMeansResult] = {}
    scores: Dict[int, float] = {}

    def fit(k: int) -> None:
        rows = seeds[(k - 1) * n_init:k * n_init]
        results[k] = _best_fit(points, weights, k, rows)
        scores[k] = score(results[k])

    width, pad = _window(max_k)

    def smoothed(k: int, m: int) -> float:
        """k's smoothed score, with ``UB(j)`` for every j > m."""
        total = 0.0
        for i in range(k - pad, k + width - pad):
            j = min(max(i, 1), max_k)
            total += scores[j] if j <= m else bound(j)
        return total / width

    best = float("-inf")
    m = 0
    while m < max_k:
        m += 1
        fit(m)
        # The stop test needs 5-wide windows: maxK >= 5, so n >= 10, and
        # ``UB`` falls per k (it does for n >= 3).  ``last_full`` is the
        # last k whose window is fully fitted.
        last_full = m - (width - pad - 1)
        if max_k < _WINDOW or last_full < 1:
            continue
        best = max(best, smoothed(last_full, m))
        if all(
            best - smoothed(k, m) > _SLACK * max(abs(best), 1.0)
            for k in range(last_full + 1, min(last_full + width, max_k) + 1)
        ):
            break
    for k in range(max(m + 1, max_k - 2), max_k + 1):
        fit(k)
    return results, scores


def _smooth(scores: Dict[int, float], max_k: int) -> np.ndarray:
    """Moving average of the BIC curve by k, one entry per k = 1..maxK.

    A k's window is ``_window``'s, clamped to [1, maxK]; an entry is NaN
    where its window holds a k without a finite score.
    """
    raw = np.full(max_k, np.nan)
    for k, s in scores.items():
        if np.isfinite(s):
            raw[k - 1] = s
    width, pad = _window(max_k)
    kernel = np.ones(width) / width
    padded = np.concatenate([np.repeat(raw[0], pad), raw,
                             np.repeat(raw[-1], pad)])
    return np.convolve(padded, kernel, mode="valid")[:max_k]


def _choose_k(scores: Dict[int, float], max_k: int, threshold: float) -> int:
    """Smallest k whose (smoothed, min-max normalized) BIC clears threshold.

    K-means is run from a few seeded initializations per k, so the raw BIC
    curve carries init noise: an isolated spike at large k must not define
    the normalization ceiling.  A short moving average removes the spikes
    while preserving the knee the SimPoint rule looks for.

    Only the k whose windows are fully scored are read.  The sweep's stop
    rule makes their maximum the whole curve's, so the chosen k is the
    exhaustive sweep's whenever their minimum is too; the minimum is read
    over those windows plus k = maxK, and the exhaustive curve's could sit
    at a k between them.
    """
    smooth = _smooth(scores, max_k)
    ks = np.flatnonzero(~np.isnan(smooth)) + 1
    if ks.size == 0:
        return 1
    values = smooth[ks - 1]
    lo, hi = float(values.min()), float(values.max())
    if hi == lo:
        return int(ks[0])
    for k, s in zip(ks, values):
        if (s - lo) / (hi - lo) >= threshold:
            return int(k)
    return int(ks[-1])


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
