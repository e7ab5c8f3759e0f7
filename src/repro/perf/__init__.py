"""repro.perf: the batched event hot path and vectorized analysis kernels.

* :mod:`repro.perf.ring` — the fixed-capacity block-event ring that the
  functional engine and the constrained replayer flush to observers in
  batches (parallel numpy columns) instead of per-event Python dispatch;
* :mod:`repro.perf.kernels` — GEMM-form K-means assignment with row
  chunking and ``np.bincount`` centroid updates.

Timing lives outside the package: ``benchmarks/e2e`` measures every
layer and end to end.
"""

from .kernels import assign_labels, squared_distances, weighted_means
from .ring import (
    DEFAULT_CAPACITY,
    FLAG_LIBRARY,
    EventBatch,
    EventRing,
    batch_start_indices,
)

__all__ = [
    "DEFAULT_CAPACITY",
    "FLAG_LIBRARY",
    "EventBatch",
    "EventRing",
    "assign_labels",
    "batch_start_indices",
    "squared_distances",
    "weighted_means",
]
