"""Golden digests of SimPoint selection, and its kernels' bit-identity.

Speeding up the k-means/BIC sweep must not move a single bit of its
output.  Each digest is a sha256 over the chosen ``k``, the labels, the
chosen fit's centroid bytes, ``bic_by_k`` and every cluster tuple; each
selection digest is the same without ``bic_by_k``.  The
profiled cases run the offline pipeline at tiny scale (record seed 0,
serial) through its ``select`` stage; the synthetic case has n > 800
slices, so every k is fitted from a single k-means++ restart.  The digests
were recorded with the per-dimension ``bincount`` update, the
``rng.choice`` k-means++ draw and no distance-column memo.  The selection
digests were recorded with the exhaustive k-sweep; the full digests of
lbm, ep and npb-is were re-recorded when the sweep began to stop at the
BIC bound, because their ``bic_by_k`` now holds only the fitted k (19, 21
and 49 of 50; see ``tests/test_select_pruned.py``).
"""

from __future__ import annotations

import hashlib
import struct
from typing import Tuple

import numpy as np
import pytest

from repro import LoopPointOptions, LoopPointPipeline, WaitPolicy
from repro.clustering import simpoint
from repro.clustering.kmeans import kmeans, weighted_draws
from repro.clustering.simpoint import SimPointOptions, select_simpoints
from repro.config import get_scale
from repro.errors import ClusteringError
from repro.perf.kernels import weighted_means
from repro.workloads.registry import get_workload

#: (workload, input class, threads, wait policy) per profiled case.
PROFILED = {
    "619.lbm_s.1": ("619.lbm_s.1", "train", 8, "passive"),
    "npb-ep": ("npb-ep", "C", 8, "passive"),
    "657.xz_s.2-active": ("657.xz_s.2", "train", 4, "active"),
    "npb-is": ("npb-is", "C", 8, "passive"),
}

GOLDEN = {
    "619.lbm_s.1":
        "e58d2f3741899322f3f53f1b389e16745863fefc186b0b3e367ff9f94b4f13ee",
    "npb-ep":
        "9a11ae7a2b21eb5b547102700d868a767ecd0b5cd41ba4b71d15b8ac996af38c",
    "657.xz_s.2-active":
        "f414d70cce6843bbd825487dc9d2bd399b7ceec7ee75e956ae48ed275f7e7b41",
    "npb-is":
        "94551e82b637118bf4c30d71926bf1a6760604a190fe1cb36933318c305a3b97",
    "synthetic-n900":
        "2dafd828f8f989f31588cacc1ab2a0759484d0c276946f807241b9d961bf23dd",
}

#: The same digests without ``bic_by_k``: what the selection is (k, labels,
#: chosen centroids, clusters), whichever k the sweep scored to find it.
SELECTION_GOLDEN = {
    "619.lbm_s.1":
        "e43fac7c2977e49604beda440c58b0c7e8733d67365bd13f3a1d6d224e18ebe5",
    "npb-ep":
        "4e3364b2d94ceebc18f9cbd795c4dbe780d8ee5e419befa80c47c84ad5171822",
    "657.xz_s.2-active":
        "9adbb9d37eb5f1539924d005dc8de2f7622f560430d7e34816320547e222cf96",
    "npb-is":
        "038850ba112182b0f408c23883a4f893f78603e6f2098c077678b0da13061ebb",
    "synthetic-n900":
        "836502dac6f0bbe6e22e60e38bf12d04d064e3a1d5b802519b442782e28dd496",
}


def _capture_chosen_fit(monkeypatch) -> list:
    """Record the k-means fit ``select_simpoints`` builds clusters from."""
    seen = []
    build = simpoint._build_clusters

    def spy(points, counts, result, *args, **kwargs):
        seen.append(result)
        return build(points, counts, result, *args, **kwargs)

    monkeypatch.setattr(simpoint, "_build_clusters", spy)
    return seen


def selection_digest(selection, fit, with_bic: bool = True) -> str:
    h = hashlib.sha256()
    h.update(struct.pack("<q", selection.k))
    h.update(np.ascontiguousarray(selection.labels, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(fit.centroids, dtype=np.float64).tobytes())
    if with_bic:
        for k in sorted(selection.bic_by_k):
            h.update(struct.pack("<qd", k, selection.bic_by_k[k]))
    for c in selection.clusters:
        h.update(repr((
            c.cluster_id, c.representative, tuple(c.members),
            struct.pack("<d", c.instruction_mass),
            struct.pack("<d", c.multiplier),
        )).encode())
    return h.hexdigest()


def profiled_digests(case: str, monkeypatch) -> Tuple[str, str]:
    name, input_class, nthreads, wait = PROFILED[case]
    scale = get_scale("tiny")
    workload = get_workload(name, input_class, nthreads, scale=scale)
    options = LoopPointOptions(
        wait_policy=WaitPolicy(wait), scale=scale, record_seed=0, jobs=1,
    )
    seen = _capture_chosen_fit(monkeypatch)
    selection = LoopPointPipeline(workload, options=options).select()
    return _digests(selection, seen[-1])


def _digests(selection, fit) -> Tuple[str, str]:
    """(with ``bic_by_k``, selection only)."""
    return (
        selection_digest(selection, fit),
        selection_digest(selection, fit, with_bic=False),
    )


def synthetic_digests(monkeypatch) -> Tuple[str, str]:
    rng = np.random.default_rng(2024)
    phases = rng.random((6, 48))
    bbvs = phases[rng.integers(0, 6, size=900)]
    bbvs = bbvs + rng.normal(scale=0.05, size=bbvs.shape)
    counts = rng.integers(500, 1500, size=900).astype(np.float64)
    seen = _capture_chosen_fit(monkeypatch)
    selection = select_simpoints(
        np.abs(bbvs), counts, SimPointOptions(max_k=12),
        ineligible=range(20),
    )
    return _digests(selection, seen[-1])


@pytest.mark.parametrize("case", sorted(PROFILED))
def test_profiled_selection_matches_golden(case, monkeypatch):
    assert profiled_digests(case, monkeypatch) == (
        GOLDEN[case], SELECTION_GOLDEN[case]
    )


def test_synthetic_single_restart_selection_matches_golden(monkeypatch):
    assert synthetic_digests(monkeypatch) == (
        GOLDEN["synthetic-n900"], SELECTION_GOLDEN["synthetic-n900"]
    )


def _per_dimension_means(points, labels, k, weights):
    """The update step as one ``bincount`` per dimension."""
    n, d = points.shape
    if weights is None:
        weights = np.ones(n, dtype=np.float64)
    wsum = np.bincount(labels, weights=weights, minlength=k)
    acc = np.empty((k, d), dtype=np.float64)
    for j in range(d):
        acc[:, j] = np.bincount(
            labels, weights=weights * points[:, j], minlength=k
        )
    nonzero = wsum > 0
    means = np.zeros((k, d), dtype=np.float64)
    means[nonzero] = acc[nonzero] / wsum[nonzero, None]
    return means, wsum


def test_weighted_means_bitwise_equals_per_dimension_loop():
    for seed in range(40):
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(1, 300)), int(rng.integers(1, 40))
        k = int(rng.integers(1, 12))
        points = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4)
        labels = rng.integers(0, k, size=n)
        weights = rng.uniform(0.0, 3.0, size=n)
        weights[rng.random(n) < 0.3] = 0.0
        for w in (weights, None):
            # k + 2 clusters: at least two are empty.
            got = weighted_means(points, labels, k + 2, w)
            want = _per_dimension_means(points, labels, k + 2, w)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()


def test_weighted_draw_equals_rng_choice():
    for seed in range(1500):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 200))
        dist2 = rng.random(n) ** 3
        dist2[rng.random(n) < 0.2] = 0.0
        dist2[int(rng.integers(n))] += 1e-3
        total = dist2.sum()
        ours = np.random.default_rng(seed + 10_000)
        ref = np.random.default_rng(seed + 10_000)
        drawn = weighted_draws([ours], dist2[None], np.array([total]))
        assert drawn[0] == int(ref.choice(n, p=dist2 / total))
        # Same rng consumption: the streams stay in lockstep.
        assert ours.random() == ref.random()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_weighted_draw_rejects_non_finite_mass(bad):
    dist2 = np.array([1.0, bad, 2.0])
    with pytest.raises(ClusteringError):
        weighted_draws(
            [np.random.default_rng(0)], dist2[None], np.array([dist2.sum()])
        )


def test_kmeanspp_on_non_finite_points_raises_clustering_error():
    points = np.arange(12.0).reshape(6, 2)
    points[3, 1] = np.nan
    with pytest.raises(ClusteringError):
        kmeans(points, 3, seed=1)
