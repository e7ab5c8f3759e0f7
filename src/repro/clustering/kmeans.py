"""K-means with k-means++ seeding (Forgy/Lloyd iteration), pure numpy.

The assignment step runs in GEMM form (``|x|^2 + |c|^2 - 2 x . c^T`` with
row chunking, see :mod:`repro.perf.kernels`): the squared distances
without an ``O(n * k * d)`` temporary, and the inner product goes through
BLAS.  The update step accumulates weighted sums per cluster with a single
``np.bincount`` over flattened ``(cluster, dimension)`` cells.

k-means++ centroids are always data points, so the distance column a draw
adds, ``|points - points[j]|^2``, depends only on ``j``.
:class:`DistanceColumns` memoizes those columns; a caller fitting the same
points many times (the SimPoint k sweep) shares one memo across fits via
:func:`kmeanspp_seed` and ``kmeans(init_centroids=...)``.  Each draw is the
explicit inverse-CDF form of ``rng.choice(n, p=...)``: the same
arithmetic and the same rng consumption, without ``choice``'s argument
validation on every draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..errors import ClusteringError
from ..obs.tracer import active_metrics
from ..perf.kernels import assign_labels, weighted_means
from ..resilience import KMEANS_DIVERGE, maybe_inject


@dataclass
class KMeansResult:
    """Labels, centroids, and the within-cluster sum of squares."""

    labels: np.ndarray
    centroids: np.ndarray
    inertia: float
    k: int
    iterations: int


class DistanceColumns:
    """Memoized squared distances from every point to point ``j``.

    ``columns[j]`` is ``((points - points[j]) ** 2).sum(axis=1)``, computed
    on first use.  Callers must not write into a returned column.
    """

    def __init__(self, points: np.ndarray) -> None:
        self.points = points
        self._columns: Dict[int, np.ndarray] = {}

    def __getitem__(self, j: int) -> np.ndarray:
        column = self._columns.get(j)
        if column is None:
            points = self.points
            column = self._columns[j] = ((points - points[j]) ** 2).sum(axis=1)
        return column


def weighted_draw(
    rng: np.random.Generator, dist2: np.ndarray, total: float
) -> int:
    """Index drawn with probability ``dist2 / total``.

    The inverse-CDF computation ``rng.choice(n, p=dist2 / total)``
    performs, consuming one ``rng.random()`` exactly like it.
    """
    if not np.isfinite(total):
        raise ClusteringError(
            f"k-means++ draw over non-finite distance mass {total!r}"
        )
    cdf = np.cumsum(dist2 / total)
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), "right"))


def kmeanspp_seed(
    points: np.ndarray,
    k: int,
    rng: np.random.Generator,
    columns: Optional[DistanceColumns] = None,
) -> np.ndarray:
    """k-means++ initial centroids (``columns`` memoizes distance columns)."""
    if columns is None:
        columns = DistanceColumns(points)
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]), dtype=points.dtype)
    first = int(rng.integers(n))
    centroids[0] = points[first]
    dist2 = columns[first].copy()
    for i in range(1, k):
        total = dist2.sum()
        if total <= 0.0:
            # All remaining points coincide with a chosen centroid: any
            # fill is equivalent (the extra centroids own empty clusters),
            # so use the deterministic one — duplicating the first
            # centroid — rather than consuming an rng draw for a choice
            # that cannot matter.
            centroids[i:] = centroids[0]
            break
        choice = weighted_draw(rng, dist2, total)
        centroids[i] = points[choice]
        np.minimum(dist2, columns[choice], out=dist2)
    return centroids


def kmeans(
    points: np.ndarray,
    k: int,
    seed: int = 0,
    max_iter: int = 100,
    tol: float = 1e-8,
    weights: Optional[np.ndarray] = None,
    init_centroids: Optional[np.ndarray] = None,
) -> KMeansResult:
    """Lloyd's algorithm; optionally instruction-weighted points.

    Weighting points by their instruction counts makes big slices pull
    centroids harder, matching how extrapolation later weights clusters.

    ``init_centroids`` skips k-means++ seeding and starts Lloyd iteration
    from the given ``(k, d)`` array — the hook the SimPoint sweep uses both
    to warm-start k from k-1 and to seed with a shared
    :class:`DistanceColumns` memo (``kmeanspp_seed(points, k,
    default_rng(seed), columns)`` gives exactly the centroids ``seed``
    would).
    """
    if points.ndim != 2:
        raise ClusteringError(f"expected 2-D points, got shape {points.shape}")
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ClusteringError(f"need 1 <= k <= {n}, got k={k}")
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (n,) or np.any(weights < 0):
            raise ClusteringError("weights must be non-negative, one per point")

    maybe_inject(KMEANS_DIVERGE, f"kmeans:k={k}")
    if init_centroids is not None:
        centroids = np.asarray(init_centroids, dtype=np.float64)
        if centroids.shape != (k, points.shape[1]):
            raise ClusteringError(
                f"init_centroids shape {centroids.shape} does not match "
                f"(k={k}, d={points.shape[1]})"
            )
        centroids = centroids.copy()
    else:
        centroids = kmeanspp_seed(points, k, np.random.default_rng(seed))
    labels = np.zeros(n, dtype=np.int64)
    iterations = 0
    # The counter is read after the loop for the iteration report.
    for iterations in range(1, max_iter + 1):  # noqa: B007
        labels, min_d2 = assign_labels(points, centroids)
        new_centroids, wsum = weighted_means(points, labels, k, weights)
        empty = wsum == 0
        if empty.any():
            # Re-seed empty (or zero-weight) clusters at the farthest point.
            far = int(min_d2.argmax())
            new_centroids[empty] = points[far]
        shift = float(((new_centroids - centroids) ** 2).sum())
        centroids = new_centroids
        if shift <= tol:
            break
    labels, min_d2 = assign_labels(points, centroids)
    inertia = float(min_d2.sum())
    reg = active_metrics()
    if reg is not None:  # once per fit, never per iteration
        reg.inc("kmeans.fits")
        reg.inc("kmeans.iterations", iterations)
    return KMeansResult(
        labels=labels, centroids=centroids, inertia=inertia, k=k,
        iterations=iterations,
    )
