"""K-means with k-means++ seeding (Forgy/Lloyd iteration), pure numpy.

The assignment step runs in GEMM form (``|x|^2 + |c|^2 - 2 x . c^T`` with
row chunking, see :mod:`repro.perf.kernels`): the squared distances
without an ``O(n * k * d)`` temporary, and the inner product goes through
BLAS.  The update step accumulates weighted sums per cluster with a single
``np.bincount`` over flattened ``(cluster, dimension)`` cells.

k-means++ seeding runs many fits in lockstep: :func:`kmeanspp_indices`
advances every fit of a batch by one draw per step, each fit drawing from
its own rng, so a step's numpy calls serve all of them.
:func:`kmeanspp_seed` is its one-fit case.  Seeded centroids are always
data points, so the distance column a draw adds,
``|points - points[j]|^2``, depends only on ``j``; :class:`DistanceColumns`
memoizes those columns across the fits of one batch.  Each draw is the
explicit inverse-CDF form of ``rng.choice(n, p=...)``: the same
arithmetic and the same rng consumption, without ``choice``'s argument
validation on every draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

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
            diff = points - points[j]
            np.square(diff, out=diff)
            column = self._columns[j] = diff.sum(axis=1)
        return column


def weighted_draws(
    rngs: Sequence[np.random.Generator],
    dist2: np.ndarray,
    totals: np.ndarray,
) -> np.ndarray:
    """Per row ``r``, an index drawn with probability ``dist2[r] / totals[r]``.

    Row ``r`` gets the inverse-CDF computation
    ``rngs[r].choice(n, p=dist2[r] / totals[r])`` performs, consuming one
    ``rngs[r].random()`` exactly like it: a row-wise ``cumsum`` over the
    C-contiguous ``dist2`` adds in the same order as the 1-D call, and on a
    non-decreasing cdf ``count(cdf <= u)`` is ``searchsorted(u, "right")``.
    """
    if not np.isfinite(totals).all():
        raise ClusteringError(
            "k-means++ draw over non-finite distance mass "
            f"{totals[~np.isfinite(totals)][0]!r}"
        )
    cdf = dist2 / totals[:, None]
    np.cumsum(cdf, axis=1, out=cdf)
    cdf /= cdf[:, -1:]
    u = np.array([rng.random() for rng in rngs])
    return np.count_nonzero(cdf <= u[:, None], axis=1)


def kmeanspp_indices(
    points: np.ndarray,
    ks: Sequence[int],
    rngs: Sequence[np.random.Generator],
) -> np.ndarray:
    """k-means++ seeding of many fits in lockstep, as point indices.

    Fit ``f`` seeds ``ks[f]`` centroids from its own ``rngs[f]``.  Row ``f``
    of the ``(fits, max(ks))`` result holds its centroids' point indices in
    draw order; entries past ``ks[f]`` are unspecified.  Each step draws
    once for every fit still seeding, so every fit gets the indices, and
    leaves its rng in the state, that seeding it alone would.  Only index
    arrays and one distance row per seeding fit are held: a caller
    materializes a fit's centroids, ``points[row[:k]]``, when it runs it.
    """
    columns = DistanceColumns(points)
    sizes = np.asarray(ks, dtype=np.int64)
    chosen = np.empty((sizes.size, int(sizes.max())), dtype=np.int64)
    chosen[:, 0] = [rng.integers(points.shape[0]) for rng in rngs]
    # ``live`` lists the fits still seeding; row ``r`` of ``dist2`` holds
    # each point's squared distance to fit ``live[r]``'s nearest centroid.
    live = np.flatnonzero(sizes > 1)
    dist2 = np.array([columns[j] for j in chosen[live, 0].tolist()])
    for i in range(1, chosen.shape[1]):
        totals = dist2.sum(axis=1)
        flat = totals <= 0.0
        if flat.any():
            # All of a fit's points coincide with its chosen centroids: any
            # fill is equivalent (the extra centroids own empty clusters),
            # so use the deterministic one — duplicating the first
            # centroid — rather than consuming an rng draw for a choice
            # that cannot matter.
            chosen[live[flat], i:] = chosen[live[flat], :1]
            keep = ~flat
            live, dist2, totals = live[keep], dist2[keep], totals[keep]
        picks = weighted_draws([rngs[f] for f in live], dist2, totals)
        chosen[live, i] = picks
        more = sizes[live] > i + 1
        if not more.any():
            break
        live, dist2 = live[more], dist2[more]
        added = np.array([columns[j] for j in picks[more].tolist()])
        np.minimum(dist2, added, out=dist2)
    return chosen


def kmeanspp_seed(
    points: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ initial centroids: the one-fit case of the lockstep seeder."""
    return points[kmeanspp_indices(points, [k], [rng])[0, :k]]


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
    from the given ``(k, d)`` array — the hook the SimPoint sweep uses to
    run the fits it seeded in lockstep (``kmeanspp_seed(points, k,
    default_rng(seed))`` gives exactly the centroids ``seed`` would).

    The loop stops as soon as an assignment repeats the labels of an
    update that reseeded no empty cluster.  From there the update would
    reproduce the current centroids bit for bit, so the shift would be 0
    and the loop would stop at this iteration anyway, and the final
    assignment would repeat this one; taking this one in its place leaves
    labels, centroids, inertia and ``iterations`` unchanged.
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
    x2 = np.einsum("ij,ij->i", points, points)
    if weights is None:
        weights = np.ones(n, dtype=np.float64)
    weighted = (weights[:, None] * points).ravel()
    # The last update's labels, kept only if it reseeded no cluster and a
    # zero shift ends the loop (tol >= 0): an assignment that repeats them
    # has converged (see the docstring).
    settled = None
    final = None
    iterations = 0
    # The counter is read after the loop for the iteration report.
    for iterations in range(1, max_iter + 1):  # noqa: B007
        labels, min_d2 = assign_labels(points, centroids, x2=x2)
        if settled is not None and np.array_equal(labels, settled):
            final = labels, min_d2
            break
        new_centroids, wsum = weighted_means(
            points, labels, k, weights, weighted
        )
        empty = wsum == 0
        reseeded = bool(empty.any())
        if reseeded:
            # Re-seed empty (or zero-weight) clusters at the farthest point.
            far = int(min_d2.argmax())
            new_centroids[empty] = points[far]
        shift = float(((new_centroids - centroids) ** 2).sum())
        centroids = new_centroids
        settled = None if reseeded or not tol >= 0.0 else labels
        if shift <= tol:
            break
    labels, min_d2 = final or assign_labels(points, centroids, x2=x2)
    inertia = float(min_d2.sum())
    reg = active_metrics()
    if reg is not None:  # once per fit, never per iteration
        reg.inc("kmeans.fits")
        reg.inc("kmeans.iterations", iterations)
    return KMeansResult(
        labels=labels, centroids=centroids, inertia=inertia, k=k,
        iterations=iterations,
    )
