"""SimPoint-style clustering: projection, K-means, BIC model selection.

Section III-E of the paper: BBVs are projected down to 100 dimensions by
random linear projection, clustered with K-means for k up to ``maxK = 50``,
and the clustering is chosen with a BIC goodness criterion; the BBV closest
to each centroid becomes the cluster representative.
"""

from .projection import random_projection, project
from .kmeans import KMeansResult, kmeans
from .bic import bic_score
from .simpoint import SimPointOptions, SimPointSelection, ClusterInfo, select_simpoints
from .online import OnlineCluster, OnlineClusterer

__all__ = [
    "random_projection",
    "project",
    "KMeansResult",
    "kmeans",
    "bic_score",
    "SimPointOptions",
    "SimPointSelection",
    "ClusterInfo",
    "select_simpoints",
    "OnlineCluster",
    "OnlineClusterer",
]
