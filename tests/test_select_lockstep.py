"""Bit-identity of the lockstep k-means++ seeder and the Lloyd early exit.

The SimPoint sweep seeds every (k, restart) fit in lockstep and stops each
Lloyd loop as soon as its labels repeat.  Both must reproduce the
straightforward forms bit for bit: per-fit ``rng.choice(n, p=...)``
k-means++ seeding and the Lloyd loop that always recomputes the centroids,
tests the shift and reassigns after the loop.  Those forms are inlined
below as oracles.  The select memory budget and its counters are pinned
too, so the exit cannot change what a traced run reports.
"""

from __future__ import annotations

import importlib
import tracemalloc

import numpy as np
import pytest

from repro import LoopPointOptions, LoopPointPipeline, WaitPolicy
from repro.clustering.kmeans import kmeans, kmeanspp_indices, kmeanspp_seed
from repro.clustering.simpoint import SimPointOptions, select_simpoints
from repro.config import get_scale
from repro.errors import ClusteringError
from repro.obs.tracer import Tracer, obs_scope
from repro.perf.kernels import assign_labels, weighted_means
from repro.workloads.registry import get_workload

# ``repro.clustering`` re-exports the function under the module's name.
kmeans_module = importlib.import_module("repro.clustering.kmeans")


def reference_seed(points, k, rng):
    """One fit's k-means++ seeding through ``rng.choice``."""
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]), dtype=points.dtype)
    first = int(rng.integers(n))
    centroids[0] = points[first]
    dist2 = ((points - points[first]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = dist2.sum()
        if total <= 0.0:
            centroids[i:] = centroids[0]
            break
        if not np.isfinite(total):
            raise ClusteringError("non-finite distance mass")
        choice = int(rng.choice(n, p=dist2 / total))
        centroids[i] = points[choice]
        np.minimum(
            dist2, ((points - points[choice]) ** 2).sum(axis=1), out=dist2
        )
    return centroids


def reference_kmeans(points, k, seed, weights, max_iter=100, tol=1e-8):
    """The Lloyd loop without the labels-repeat exit.

    Returns ``(labels, centroids, inertia, iterations, reseed_then_repeat)``;
    the flag says an assignment repeated the labels of an update that
    reseeded an empty cluster, where the exit must not fire.
    """
    centroids = reference_seed(points, k, np.random.default_rng(seed))
    previous, reseeded, reseed_then_repeat = None, False, False
    iterations = 0
    for iterations in range(1, max_iter + 1):  # noqa: B007
        labels, min_d2 = assign_labels(points, centroids)
        if reseeded and np.array_equal(labels, previous):
            reseed_then_repeat = True
        new_centroids, wsum = weighted_means(points, labels, k, weights)
        empty = wsum == 0
        reseeded = bool(empty.any())
        if reseeded:
            new_centroids[empty] = points[int(min_d2.argmax())]
        shift = float(((new_centroids - centroids) ** 2).sum())
        centroids = new_centroids
        previous = labels
        if shift <= tol:
            break
    labels, min_d2 = assign_labels(points, centroids)
    return (
        labels, centroids, float(min_d2.sum()), iterations,
        reseed_then_repeat,
    )


def _ep_like(rng, n=172, distinct=3):
    """ep-train's shape: many slices, a handful of distinct BBV rows."""
    rows = np.abs(rng.normal(size=(distinct, 24)))
    return rows[rng.integers(0, distinct, size=n)]


def _cases():
    """(points, k, seed, weights, max_iter, tol) over the shapes that
    exercise every exit of the Lloyd loop."""
    cases = []
    for s in range(40):
        rng = np.random.default_rng(s)
        n, d = int(rng.integers(2, 160)), int(rng.integers(1, 30))
        centers = rng.normal(0, 4, size=(int(rng.integers(1, 8)), d))
        points = centers[rng.integers(0, len(centers), size=n)]
        points = points + rng.normal(0, 0.3, size=(n, d))
        weights = rng.uniform(0.1, 3.0, size=n)
        weights[rng.random(n) < 0.25] = 0.0  # zero-weight clusters
        for k in {1, max(1, n // 2), int(rng.integers(1, n + 1))}:
            for w in (weights, None):
                cases.append((points, k, s, w, 100, 1e-8))
    for s in range(12):
        rng = np.random.default_rng(100 + s)
        points = _ep_like(rng)
        weights = rng.uniform(0.5, 2.0, size=points.shape[0])
        for k in (1, 2, 3, 5, 12, 50, 86):
            cases.append((points, k, s, weights, 100, 1e-8))
    rng = np.random.default_rng(7)
    points = np.abs(rng.normal(size=(120, 10)))
    for max_iter, tol in ((0, 1e-8), (1, 1e-8), (2, 1e-8), (100, 0.0),
                          (7, -1.0), (7, float("nan"))):
        cases.append((points, 9, 3, None, max_iter, tol))
    return cases


def test_kmeans_equals_the_reference_lloyd_loop(monkeypatch):
    updates = []
    counted = kmeans_module.weighted_means

    def spy(*args, **kwargs):
        updates.append(1)
        return counted(*args, **kwargs)

    monkeypatch.setattr(kmeans_module, "weighted_means", spy)
    reference_updates, reseed_then_repeat = 0, 0
    for points, k, seed, weights, max_iter, tol in _cases():
        fit = kmeans(points, k, seed=seed, max_iter=max_iter, tol=tol,
                     weights=weights)
        labels, centroids, inertia, iterations, flag = reference_kmeans(
            points, k, seed, weights, max_iter=max_iter, tol=tol
        )
        assert np.array_equal(fit.labels, labels)
        assert fit.centroids.tobytes() == centroids.tobytes()
        assert fit.inertia == inertia
        assert fit.iterations == iterations
        reference_updates += iterations
        reseed_then_repeat += flag
    # The early exit fired (fewer updates than reference iterations), and
    # the inputs include the reseed-then-repeat case it must not fire on.
    assert len(updates) < reference_updates
    assert reseed_then_repeat > 0


def _populations():
    rng = np.random.default_rng(5)
    yield np.ones((8, 3))  # all duplicates: every draw step is degenerate
    yield _ep_like(rng)  # degenerate after a few distinct draws
    yield np.abs(rng.normal(size=(60, 7)))
    yield rng.random((200, 16)) ** 4 * 1e-6  # tiny distance masses
    yield np.repeat(np.abs(rng.normal(size=(9, 5))), 11, axis=0)


@pytest.mark.parametrize("which", range(5))
def test_lockstep_seeding_equals_per_fit_rng_choice(which):
    points = list(_populations())[which]
    n = points.shape[0]
    fits = [(k, seed) for seed in range(6) for k in
            sorted({1, 2, 3, max(1, n // 4), max(1, n // 2), n})]
    rngs = [np.random.default_rng(seed) for _, seed in fits]
    chosen = kmeanspp_indices(points, [k for k, _ in fits], rngs)
    for (k, seed), row, rng in zip(fits, chosen, rngs):
        ref = np.random.default_rng(seed)
        assert points[row[:k]].tobytes() == reference_seed(
            points, k, ref
        ).tobytes()
        # Same rng consumption: each fit's stream ends where it would alone.
        assert rng.bit_generator.state == ref.bit_generator.state


def test_one_fit_seed_is_the_lockstep_row():
    points = np.abs(np.random.default_rng(3).normal(size=(50, 4)))
    for k in (1, 4, 50):
        alone = kmeanspp_seed(points, k, np.random.default_rng(k))
        batch = kmeanspp_indices(
            points, [k, 50, 1], [np.random.default_rng(s) for s in (k, 9, 8)]
        )
        assert alone.tobytes() == points[batch[0, :k]].tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_lockstep_seeding_rejects_non_finite_mass(bad):
    points = np.abs(np.random.default_rng(0).normal(size=(12, 3)))
    points[4, 1] = bad
    with pytest.raises(ClusteringError):
        kmeanspp_indices(
            points, [3, 5, 1], [np.random.default_rng(s) for s in range(3)]
        )


# ---------------------------------------------------------------------------
# The memory budget and the counters of select.

#: ``tracemalloc`` peak (bytes) of ``select_simpoints`` at the commit before
#: lockstep seeding (numpy 2.4, CPython 3.11).  The serial sweep must not
#: materialize every seeded fit at once, nor an (m x n x d) temporary.
PARENT_PEAK_BYTES = {"synthetic-n900": 1_793_917, "lbm-shaped": 2_120_595}


def _synthetic_n900():
    """``test_select_golden``'s synthetic input."""
    rng = np.random.default_rng(2024)
    phases = rng.random((6, 48))
    bbvs = phases[rng.integers(0, 6, size=900)]
    bbvs = bbvs + rng.normal(scale=0.05, size=bbvs.shape)
    counts = rng.integers(500, 1500, size=900).astype(np.float64)
    return np.abs(bbvs), counts, SimPointOptions(max_k=12)


def _lbm_shaped():
    """lbm-train's select shape: 195 slices, 100-dimensional BBVs, the
    default k sweep (50 k, 3 restarts)."""
    rng = np.random.default_rng(619)
    phases = rng.random((12, 100))
    bbvs = phases[rng.integers(0, 12, size=195)]
    bbvs = np.abs(bbvs + rng.normal(scale=0.02, size=bbvs.shape))
    counts = rng.integers(800, 1200, size=195).astype(np.float64)
    return bbvs, counts, SimPointOptions()


@pytest.mark.parametrize(
    "case, inputs",
    [("synthetic-n900", _synthetic_n900), ("lbm-shaped", _lbm_shaped)],
)
def test_select_peak_memory_within_ten_percent_of_parent(case, inputs):
    bbvs, counts, opts = inputs()
    select_simpoints(bbvs, counts, opts)  # warm numpy's one-time buffers
    tracemalloc.start()
    try:
        select_simpoints(bbvs, counts, opts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.10 * PARENT_PEAK_BYTES[case]


def test_lbm_tiny_select_counters_unchanged(tmp_path):
    scale = get_scale("tiny")
    workload = get_workload("619.lbm_s.1", "train", 8, scale=scale)
    pipeline = LoopPointPipeline(workload, options=LoopPointOptions(
        wait_policy=WaitPolicy.PASSIVE, scale=scale, record_seed=0, jobs=1,
    ))
    pipeline.profile()
    tracer = Tracer(str(tmp_path / "select.trace.jsonl"))
    with obs_scope(tracer):
        pipeline.select()
    counters = dict(tracer.metrics.counters)
    chosen_k = tracer.metrics.gauges["select.chosen_k"]
    tracer.finish()
    assert {
        name: counters[name] for name in (
            "kmeans.fits", "kmeans.iterations", "select.ks_swept",
            "select.runs",
        )
    } == {
        # The bounded sweep fits 19 of 50 k (k = 1..16 and 48..50), three
        # restarts each.
        "kmeans.fits": 57, "kmeans.iterations": 189,
        "select.ks_swept": 19, "select.runs": 1,
    }
    assert chosen_k == 8
