"""Incremental clustering of region signatures for live sampling.

Pac-Sim's online counterpart of SimPoint: regions arrive one at a time
as the single live replay closes them, and each must be classified
immediately — "matches an existing cluster, extrapolate from its
representative" or "novel, simulate in detail and admit as a new
representative".  There is no k sweep and no BIC: k grows exactly when
a signature lands farther than the novelty threshold from every
centroid.

Signatures are the offline pipeline's fingerprints — L1-normalized
BBVs, randomly projected with the same seeded matrix — so a probe
prefix compares to a stored exemplar by *shape*, not length.  Nearest-
centroid queries go through :func:`repro.perf.kernels.assign_labels`
(the GEMM form the select stage uses), which is the warm start: the
online clusterer reuses the exact assignment kernel, so its matched/
novel decisions are consistent with what an offline k-means pass over
the same centroids would assign.

Each cluster keeps a seeded reservoir of member exemplars and running
distance moments; the dispersion is the Ekman-style first-phase spread
estimate that drives the top-up pass (which cluster deserves one more
detailed sample) in :mod:`repro.analysis.online`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..errors import ClusteringError
from ..perf.kernels import assign_labels
from .projection import DEFAULT_DIMENSIONS, random_projection

#: Exemplars kept per cluster (reservoir sampling, seeded).
RESERVOIR_SIZE = 8


@dataclass
class OnlineCluster:
    """One admitted phase: representative, members, running spread."""

    cluster_id: int
    representative: int
    centroid: np.ndarray
    members: List[int] = field(default_factory=list)
    #: Filtered instruction mass of all members (the Eq. 2 numerator).
    mass: int = 0
    #: Reservoir of (region index, signature) exemplars.
    reservoir: List[Tuple[int, np.ndarray]] = field(default_factory=list)
    #: Running moments of member distance-at-classify-time.
    sum_d: float = 0.0
    sum_d2: float = 0.0
    _signature_sum: Optional[np.ndarray] = None
    _seen: int = 0

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def dispersion(self) -> float:
        """RMS signature distance of members from the centroid.

        The Ekman first-phase spread proxy: clusters whose members
        scatter widely in fingerprint space are the ones whose single
        representative least deserves to speak for them.
        """
        if not self.members:
            return 0.0
        return float(np.sqrt(self.sum_d2 / len(self.members)))


class OnlineClusterer:
    """Classify-then-maybe-admit clustering over streaming signatures.

    ``threshold`` is the novelty distance in signature space: a closing
    region whose signature lies farther than this from every centroid is
    novel.  Any value <= 0 forces *every* region novel — the forced-novel
    mode the equivalence suite pins against the offline pipeline.
    ``seed`` drives the signature projection and the exemplar reservoirs.
    """

    def __init__(self, input_dim: int, threshold: float, seed: int) -> None:
        if input_dim < 1:
            raise ClusteringError(f"input_dim must be >= 1, got {input_dim}")
        self.threshold = threshold
        self.input_dim = input_dim
        self._projection: Optional[np.ndarray] = (
            random_projection(input_dim, DEFAULT_DIMENSIONS, seed)
            if input_dim > DEFAULT_DIMENSIONS else None
        )
        self.clusters: List[OnlineCluster] = []
        self._centroids: Optional[np.ndarray] = None
        self._rng = np.random.default_rng(seed)

    # -- signatures -----------------------------------------------------------

    def signature(self, bbv: np.ndarray) -> np.ndarray:
        """Project one BBV exactly as the offline select stage would.

        L1 normalization first (shape, not length), then the seeded
        random projection — the same math as
        :func:`repro.clustering.projection.project` on a 1-row matrix.
        """
        if bbv.ndim != 1 or bbv.shape[0] != self.input_dim:
            raise ClusteringError(
                f"expected a {self.input_dim}-dim BBV, got shape {bbv.shape}"
            )
        norm = float(np.abs(bbv).sum())
        normalized = bbv / (norm if norm != 0.0 else 1.0)
        if self._projection is None:
            return normalized
        return normalized @ self._projection

    # -- classify / admit -----------------------------------------------------

    def classify(
        self, signature: np.ndarray
    ) -> Tuple[Optional[OnlineCluster], float]:
        """Nearest cluster and its distance; ``(None, inf)`` when novel.

        A non-positive threshold (forced-novel mode) never matches, and
        an empty model is trivially novel.
        """
        if not self.clusters or self.threshold <= 0.0:
            return None, float("inf")
        labels, min_d2 = assign_labels(
            signature[None, :], self._centroid_matrix()
        )
        distance = float(np.sqrt(min_d2[0]))
        if distance > self.threshold:
            return None, distance
        return self.clusters[int(labels[0])], distance

    def admit(
        self, region_index: int, signature: np.ndarray, mass: int
    ) -> OnlineCluster:
        """Open a new cluster with ``region_index`` as representative."""
        cluster = OnlineCluster(
            cluster_id=len(self.clusters),
            representative=region_index,
            centroid=signature.copy(),
        )
        self.clusters.append(cluster)
        self._centroids = None
        self._attach(cluster, region_index, signature, 0.0, mass)
        return cluster

    def attach(
        self,
        cluster: OnlineCluster,
        region_index: int,
        signature: np.ndarray,
        distance: float,
        mass: int,
    ) -> None:
        """Fold a matched region into its cluster's running state."""
        self._attach(cluster, region_index, signature, distance, mass)

    def _attach(
        self,
        cluster: OnlineCluster,
        region_index: int,
        signature: np.ndarray,
        distance: float,
        mass: int,
    ) -> None:
        cluster.members.append(region_index)
        cluster.mass += mass
        cluster.sum_d += distance
        cluster.sum_d2 += distance * distance
        cluster._seen += 1
        if cluster._signature_sum is None:
            cluster._signature_sum = signature.astype(np.float64).copy()
        else:
            cluster._signature_sum += signature
        cluster.centroid = cluster._signature_sum / cluster._seen
        self._centroids = None
        # Reservoir sampling (algorithm R): every member has equal odds
        # of being an exemplar no matter how long the stream runs.
        reservoir = cluster.reservoir
        if len(reservoir) < RESERVOIR_SIZE:
            reservoir.append((region_index, signature.copy()))
        else:
            slot = int(self._rng.integers(0, cluster._seen))
            if slot < RESERVOIR_SIZE:
                reservoir[slot] = (region_index, signature.copy())

    def _centroid_matrix(self) -> np.ndarray:
        if self._centroids is None:
            self._centroids = np.stack(
                [c.centroid for c in self.clusters]
            )
        return self._centroids

    @property
    def k(self) -> int:
        return len(self.clusters)
