"""Small statistics helpers used across experiments."""

from __future__ import annotations

import math
from typing import Iterable


def mean_absolute(values: Iterable[float]) -> float:
    """Mean of absolute values (the paper's 'average absolute error')."""
    vals = [abs(v) for v in values]
    if not vals:
        raise ValueError("mean_absolute of no values")
    return sum(vals) / len(vals)


def geomean(values: Iterable[float]) -> float:
    """Geometric mean (speedup aggregation)."""
    vals = list(values)
    if not vals:
        raise ValueError("geomean of no values")
    if any(v <= 0 for v in vals):
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in vals) / len(vals))

