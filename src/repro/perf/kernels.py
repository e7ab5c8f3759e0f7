"""Clustering kernels: the K-means reductions.

The K-means assignment step used to broadcast
``points[:, None, :] - centroids[None, :, :]``, allocating an
``O(n * k * d)`` temporary per Lloyd iteration.  :func:`assign_labels`
computes the same squared distances in the GEMM form
``|x|^2 + |c|^2 - 2 x . c^T`` with row chunking, so peak memory is bounded
by ``chunk_rows * k`` at any population size and the inner product runs
through BLAS.  :func:`weighted_means` replaces the per-cluster
boolean-mask update loop with a single ``np.bincount`` pass over flattened
``(cluster, dimension)`` cells instead of ``k`` mask scans (or one
``bincount`` per dimension).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

#: Row-chunk size for the GEMM assignment: bounds the distance temporary at
#: ``DEFAULT_CHUNK_ROWS * k`` doubles regardless of the population size.
DEFAULT_CHUNK_ROWS = 16384


def assign_labels(
    points: np.ndarray,
    centroids: np.ndarray,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    x2: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Nearest-centroid assignment; returns ``(labels, min_sq_dist)``.

    Processes ``chunk_rows`` points at a time so the ``chunk x k`` distance
    temporary stays bounded at any ``n * k``.  ``x2`` is the points'
    squared norms, ``einsum("ij,ij->i", points, points)``: a caller that
    assigns the same points many times computes them once.
    """
    n = points.shape[0]
    labels = np.empty(n, dtype=np.int64)
    min_d2 = np.empty(n, dtype=np.float64)
    if x2 is None:
        x2 = np.einsum("ij,ij->i", points, points)
    c2 = np.einsum("ij,ij->i", centroids, centroids)
    for lo in range(0, n, chunk_rows):
        hi = min(lo + chunk_rows, n)
        chunk = points[lo:hi]
        d2 = x2[lo:hi, None] + c2[None, :] - 2.0 * (chunk @ centroids.T)
        np.maximum(d2, 0.0, out=d2)
        labels[lo:hi] = d2.argmin(axis=1)
        min_d2[lo:hi] = d2[np.arange(hi - lo), labels[lo:hi]]
    return labels, min_d2


def weighted_means(
    points: np.ndarray,
    labels: np.ndarray,
    k: int,
    weights: Optional[np.ndarray] = None,
    weighted: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-cluster weighted means via one ``np.bincount`` accumulation.

    Every ``(cluster, dimension)`` pair is one flattened cell
    ``label * d + j``; a single ``bincount`` over all ``n * d`` cells sums
    each cell's points in index order — the same additions, in the same
    order, as a per-dimension ``bincount`` loop, so the result is
    bit-identical to it.

    ``weighted`` is ``(weights[:, None] * points).ravel()``: a caller that
    updates the same points many times computes it once.

    Returns ``(means, weight_sums)``; a cluster with zero total weight gets
    a zero row in ``means`` (callers re-seed empty clusters themselves).
    """
    n, d = points.shape
    if weights is None:
        weights = np.ones(n, dtype=np.float64)
    if weighted is None:
        weighted = (weights[:, None] * points).ravel()
    wsum = np.bincount(labels, weights=weights, minlength=k)
    cells = (labels[:, None] * d + np.arange(d)).ravel()
    acc = np.bincount(cells, weights=weighted, minlength=k * d).reshape(k, d)
    nonzero = wsum > 0
    if nonzero.all():
        return acc / wsum[:, None], wsum
    means = np.zeros((k, d), dtype=np.float64)
    means[nonzero] = acc[nonzero] / wsum[nonzero, None]
    return means, wsum
