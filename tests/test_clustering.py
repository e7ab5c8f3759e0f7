"""Tests for projection, K-means, BIC, and SimPoint selection."""

import numpy as np
import pytest

from repro.clustering import (
    SimPointOptions,
    bic_score,
    kmeans,
    project,
    random_projection,
    select_simpoints,
)
from repro.errors import ClusteringError


def _grouped_points(groups=3, per=20, dim=40, noise=0.01, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0, 1, size=(groups, dim))
    pts = np.vstack([
        centers[g] + rng.normal(0, noise, size=(per, dim))
        for g in range(groups)
    ])
    labels = np.repeat(np.arange(groups), per)
    return pts, labels


class TestProjection:
    def test_matrix_deterministic(self):
        a = random_projection(200, 100, seed=4)
        b = random_projection(200, 100, seed=4)
        assert np.array_equal(a, b)
        assert a.shape == (200, 100)

    def test_different_seeds_differ(self):
        assert not np.array_equal(
            random_projection(50, 10, seed=1), random_projection(50, 10, seed=2)
        )

    def test_projection_reduces_dimension(self):
        pts = np.random.default_rng(0).uniform(0, 1, (30, 400))
        out = project(pts, 100, seed=0)
        assert out.shape == (30, 100)

    def test_low_dim_input_only_normalized(self):
        pts = np.array([[2.0, 2.0], [1.0, 3.0]])
        out = project(pts, 100)
        assert out.shape == (2, 2)
        assert np.allclose(np.abs(out).sum(axis=1), 1.0)

    def test_l1_normalization_makes_scale_invariant(self):
        pts = np.array([[1.0, 3.0], [10.0, 30.0]])
        out = project(pts, 100)
        assert np.allclose(out[0], out[1])

    def test_zero_rows_safe(self):
        pts = np.zeros((3, 5))
        out = project(pts, 100)
        assert np.isfinite(out).all()

    def test_invalid_input(self):
        with pytest.raises(ClusteringError):
            project(np.zeros(5))


class TestKMeans:
    def test_recovers_separated_groups(self):
        pts, truth = _grouped_points()
        result = kmeans(pts, 3, seed=1)
        # Each found cluster maps to exactly one true group.
        for j in range(3):
            members = truth[result.labels == j]
            assert len(set(members.tolist())) == 1

    def test_k1_centroid_is_mean(self):
        pts, _ = _grouped_points()
        result = kmeans(pts, 1)
        assert np.allclose(result.centroids[0], pts.mean(axis=0))

    def test_inertia_decreases_with_k(self):
        pts, _ = _grouped_points(noise=0.2)
        inertias = [kmeans(pts, k, seed=0).inertia for k in (1, 2, 3, 6)]
        assert inertias == sorted(inertias, reverse=True)

    def test_weights_pull_centroid(self):
        pts = np.array([[0.0], [1.0]])
        result = kmeans(pts, 1, weights=np.array([3.0, 1.0]))
        assert result.centroids[0][0] == pytest.approx(0.25)

    def test_invalid_k(self):
        pts, _ = _grouped_points()
        with pytest.raises(ClusteringError):
            kmeans(pts, 0)
        with pytest.raises(ClusteringError):
            kmeans(pts, len(pts) + 1)

    def test_bad_weights(self):
        pts, _ = _grouped_points()
        with pytest.raises(ClusteringError):
            kmeans(pts, 2, weights=np.array([1.0]))

    def test_deterministic_given_seed(self):
        pts, _ = _grouped_points(noise=0.3)
        a = kmeans(pts, 4, seed=9)
        b = kmeans(pts, 4, seed=9)
        assert np.array_equal(a.labels, b.labels)

    def test_duplicate_points_ok(self):
        pts = np.ones((10, 3))
        result = kmeans(pts, 2, seed=0)
        assert result.inertia == pytest.approx(0.0)


class TestBIC:
    def test_prefers_true_k(self):
        pts, _ = _grouped_points(groups=3, noise=0.01)
        scores = {
            k: bic_score(pts, kmeans(pts, k, seed=k)) for k in (1, 2, 3, 5, 8)
        }
        assert max(scores, key=scores.get) == 3

    def test_needs_more_points_than_clusters(self):
        pts = np.zeros((3, 2))
        with pytest.raises(ClusteringError):
            bic_score(pts, kmeans(pts, 3))

    def test_noise_floor_guards_duplicates(self):
        # Near-identical points: BIC must not diverge for large k.
        rng = np.random.default_rng(0)
        pts = np.ones((40, 10)) + rng.normal(0, 1e-9, (40, 10))
        low = bic_score(pts, kmeans(pts, 2, seed=0))
        high = bic_score(pts, kmeans(pts, 15, seed=0))
        assert low > high  # penalty dominates once variance is floored


class TestSimPointSelection:
    def test_selects_structure(self):
        pts, truth = _grouped_points(groups=4, per=15)
        counts = np.full(len(pts), 100.0)
        sel = select_simpoints(pts, counts)
        # The BIC knee may slightly over-split, but never under-split
        # well-separated groups, and each cluster stays pure.
        assert 4 <= sel.k <= 8
        for c in sel.clusters:
            groups = {int(truth[m]) for m in c.members}
            assert len(groups) == 1

    def test_multipliers_conserve_mass(self):
        pts, _ = _grouped_points(groups=3)
        rng = np.random.default_rng(1)
        counts = rng.uniform(50, 150, len(pts))
        sel = select_simpoints(pts, counts)
        reconstructed = sum(
            c.multiplier * counts[c.representative] for c in sel.clusters
        )
        assert reconstructed == pytest.approx(counts.sum())

    def test_representative_is_member(self):
        pts, _ = _grouped_points(groups=3)
        counts = np.full(len(pts), 1.0)
        sel = select_simpoints(pts, counts)
        for c in sel.clusters:
            assert c.representative in c.members

    def test_members_partition_slices(self):
        pts, _ = _grouped_points(groups=3)
        counts = np.full(len(pts), 1.0)
        sel = select_simpoints(pts, counts)
        all_members = sorted(m for c in sel.clusters for m in c.members)
        assert all_members == list(range(len(pts)))

    def test_max_k_respected(self):
        pts = np.random.default_rng(0).uniform(0, 1, (30, 8))
        counts = np.full(30, 1.0)
        sel = select_simpoints(
            pts, counts, SimPointOptions(max_k=3)
        )
        assert sel.k <= 3

    @pytest.mark.parametrize("field, value", [
        ("max_k", 0),
        ("n_init", 0),
        ("n_init", -2),
        ("projection_dim", 0),
        ("bic_threshold", -1.0),
        ("bic_threshold", 1.5),
        ("bic_threshold", float("nan")),
    ])
    def test_out_of_range_options_rejected(self, field, value):
        with pytest.raises(ClusteringError, match=field):
            SimPointOptions(**{field: value})

    @pytest.mark.parametrize("threshold", [0.0, 1.0])
    def test_bic_threshold_bounds_accepted(self, threshold):
        assert SimPointOptions(bic_threshold=threshold).bic_threshold == threshold

    def test_single_point(self):
        sel = select_simpoints(np.ones((1, 4)), np.array([5.0]))
        assert sel.k == 1
        assert sel.clusters[0].multiplier == pytest.approx(1.0)

    def test_mismatched_counts_rejected(self):
        with pytest.raises(ClusteringError):
            select_simpoints(np.ones((3, 4)), np.ones(2))

    def test_zero_count_representative_rejected(self):
        pts = np.vstack([np.zeros((2, 4)), np.ones((2, 4))])
        counts = np.array([0.0, 0.0, 1.0, 1.0])
        with pytest.raises(ClusteringError):
            select_simpoints(pts, counts)

    def test_representative_not_systematically_first(self):
        """Ties between identical BBVs must not elect the run's first slice
        (cold start) — Sec. III-F warmup discussion."""
        pts = np.ones((21, 6))
        counts = np.full(21, 1.0)
        sel = select_simpoints(pts, counts)
        assert sel.k == 1
        assert sel.clusters[0].representative not in (0, 20)
