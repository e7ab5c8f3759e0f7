"""Bayesian Information Criterion for a K-means clustering.

The spherical-Gaussian BIC of Pelleg & Moore (X-means), the same criterion
the SimPoint tool uses to score clusterings (the paper cites Schwarz's BIC,
Sec. III-E).  Higher is better.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from ..errors import ClusteringError
from .kmeans import KMeansResult

_VARIANCE_FLOOR = 1e-12

#: Fraction of the data's overall per-dimension variance below which tighter
#: clusters stop improving the likelihood.  Real BBV profiles carry sampling
#: noise that keeps K-means inertia bounded away from zero; our synthetic
#: slices can be near-duplicates, which would make the ML variance collapse
#: and the likelihood diverge with k.  The floor models that measurement
#: noise (relative, so it is invariant to projection scaling).
DEFAULT_NOISE_FLOOR = 0.1


def bic_score(
    points: np.ndarray,
    result: KMeansResult,
    noise_floor: float = DEFAULT_NOISE_FLOOR,
) -> float:
    """BIC of ``result`` as a model of ``points``.

    Uses the closed-form spherical-Gaussian log-likelihood:

    ``l = sum_j nj*log(nj) - n*log(n) - n*d/2*log(2*pi*var) - d*(n-k)/2``

    with ``var`` the pooled ML variance (floored at ``noise_floor**2`` times
    the data's overall variance), penalized by ``p/2 * log(n)`` free
    parameters, ``p = k*(d+1)``.
    """
    return bic_scorer(points, noise_floor)(result)


def bic_scorer(
    points: np.ndarray, noise_floor: float = DEFAULT_NOISE_FLOOR
) -> Callable[[KMeansResult], float]:
    """:func:`bic_score` for many clusterings of the same ``points``.

    The data's overall variance is computed once, not once per
    clustering; every score is bit-identical to :func:`bic_score`'s.
    """
    n, d = points.shape
    noise_variance = _noise_variance(points, noise_floor)

    def score(result: KMeansResult) -> float:
        k = result.k
        if n <= k:
            raise ClusteringError(
                f"BIC needs more points ({n}) than clusters ({k})"
            )
        variance = result.inertia / (d * (n - k))
        variance = max(variance, noise_variance, _VARIANCE_FLOOR)

        sizes = np.bincount(result.labels, minlength=k).astype(np.float64)
        nonzero = sizes[sizes > 0]
        log_likelihood = (
            float((nonzero * np.log(nonzero)).sum())
            - n * math.log(n)
            - 0.5 * n * d * math.log(2.0 * math.pi * variance)
            - 0.5 * d * (n - k)
        )
        num_params = k * (d + 1)
        return log_likelihood - 0.5 * num_params * math.log(n)

    return score


def bic_upper_bound(
    points: np.ndarray, noise_floor: float = DEFAULT_NOISE_FLOOR
) -> Callable[[int], float]:
    """``UB(k)``: no clustering of ``points`` into ``k`` clusters scores
    higher under :func:`bic_scorer` (exact arithmetic).

    ``UB(k) = -n*d/2*log(2*pi*v) - d*(n-k)/2 - k*(d+1)/2*log(n)``, with
    ``v`` the score's variance floor.  It holds because the pooled
    variance never drops below ``v`` and ``sum_j nj*log(nj) <= n*log(n)``.
    ``UB`` falls by ``(d+1)/2*log(n) - d/2`` per k, which is positive for
    ``n >= 3``.
    """
    n, d = points.shape
    variance = max(_noise_variance(points, noise_floor), _VARIANCE_FLOOR)
    base = -0.5 * n * d * math.log(2.0 * math.pi * variance)
    log_n = math.log(n)
    return lambda k: base - 0.5 * d * (n - k) - 0.5 * k * (d + 1) * log_n


def _noise_variance(points: np.ndarray, noise_floor: float) -> float:
    return noise_floor ** 2 * float(points.var(axis=0).mean())
