"""The batched event hot path: equivalence, the ring, and the fast kernels.

The optimization's contract is *bit-identical* observer state between
per-event delivery (a capacity-1 ring feeding observers through
``on_block``/``on_sync`` one event at a time) and the batched ring, for the
engine and for the constrained replayer.  These tests enforce that contract
across wait policies, seeds, and awkward ring capacities, then cover the
ring's internals, the GEMM k-means kernels, the sweep
modes, and the parallel k-fit fan-out.
"""

import numpy as np
import pytest

from repro.clustering.kmeans import kmeans, kmeanspp_seed
from repro.clustering.simpoint import SimPointOptions, select_simpoints
from repro.exec_engine.engine import ExecutionEngine
from repro.exec_engine.observers import Observer, SyncEventLog
from repro.perf.kernels import assign_labels, weighted_means
from repro.perf.ring import EventRing
from repro.pinplay.recorder import record_execution
from repro.pinplay.replayer import ConstrainedReplayer
from repro.policy import WaitPolicy
from repro.profiling.filters import FilterPolicy
from repro.profiling.slicer import LoopAlignedSlicer

from conftest import PerEvent, build_toy
from reference_observers import InstructionCounter, TraceCollector


def _observers(nthreads, limit=None):
    return (
        InstructionCounter(nthreads),
        SyncEventLog(nthreads),
        TraceCollector(limit=limit),
    )


def _run(*, per_event=False, policy=WaitPolicy.PASSIVE, seed=0, nthreads=4,
         capacity=None, limit=None):
    """One engine run; ``per_event`` selects the per-event reference."""
    program, tp, omp = build_toy(nthreads_hint=nthreads)
    obs = _observers(nthreads, limit)
    kwargs = {}
    if per_event:
        kwargs["batch_capacity"] = 1
    elif capacity is not None:
        kwargs["batch_capacity"] = capacity
    engine = ExecutionEngine(
        program, tp, omp, nthreads, wait_policy=policy, seed=seed,
        observers=(PerEvent(*obs),) if per_event else obs, **kwargs,
    )
    return engine.run(), obs


def _assert_equal_state(reference, batched):
    result_l, obs_l = reference
    result_b, obs_b = batched
    assert result_l == result_b
    assert obs_l[0].per_thread_total == obs_b[0].per_thread_total
    assert obs_l[0].per_thread_filtered == obs_b[0].per_thread_filtered
    assert obs_l[1].per_thread == obs_b[1].per_thread
    assert obs_l[1].gseq_order == obs_b[1].gseq_order
    assert obs_l[2].blocks == obs_b[2].blocks
    assert obs_l[2].syncs == obs_b[2].syncs


class TestEngineBatchEquivalence:
    @pytest.mark.parametrize("policy", [WaitPolicy.PASSIVE, WaitPolicy.ACTIVE])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_bit_identical_results(self, policy, seed):
        _assert_equal_state(
            _run(per_event=True, policy=policy, seed=seed),
            _run(policy=policy, seed=seed),
        )

    def test_odd_capacity(self):
        """A capacity that never aligns with quantum boundaries."""
        _assert_equal_state(_run(per_event=True), _run(capacity=7))

    def test_capacity_one(self):
        _assert_equal_state(_run(per_event=True), _run(capacity=1))

    def test_bounded_trace_same_truncation_point(self):
        """A finite collector cap forces strict ordering; the clipped
        prefix must be identical to per-event delivery's."""
        _assert_equal_state(
            _run(per_event=True, limit=100), _run(limit=100)
        )

    def test_third_party_observer_sees_per_event_calls(self):
        """An observer that only defines on_block gets the same calls in
        the same order through the base-class batch shim."""

        class Spy(Observer):
            def __init__(self):
                self.calls = []

            def on_block(self, tid, block, repeat):
                self.calls.append((tid, block.bid, repeat))

        program, tp, omp = build_toy()
        runs = []
        for capacity in (1, 8192):
            spy = Spy()
            ExecutionEngine(
                program, tp, omp, 4, observers=(spy,), seed=0,
                batch_capacity=capacity,
            ).run()
            runs.append(spy.calls)
        assert runs[0] == runs[1]


class TestReplayerBatchEquivalence:
    def _pinball(self, nthreads=4):
        program, tp, omp = build_toy(nthreads_hint=nthreads)
        pinball, _ = record_execution(program, tp, omp, nthreads, seed=3)
        return program, pinball

    def test_bit_identical_replay(self):
        program, pinball = self._pinball()
        obs_l = _observers(4)
        r_l = ConstrainedReplayer(
            program, pinball, observers=(PerEvent(*obs_l),),
            batch_capacity=1,
        ).run()
        obs_b = _observers(4)
        r_b = ConstrainedReplayer(
            program, pinball, observers=obs_b, batch_capacity=13,
        ).run()
        _assert_equal_state((r_l, obs_l), (r_b, obs_b))

    def test_slicer_identical_through_batches(self):
        program, pinball = self._pinball()
        policy = FilterPolicy()
        markers = [b for b in program.blocks if policy.marker_eligible(b)]

        def run(per_event):
            slicer = LoopAlignedSlicer(
                4, program.num_blocks, markers, slice_size=600
            )
            if per_event:
                replayer = ConstrainedReplayer(
                    program, pinball, observers=(PerEvent(slicer),),
                    batch_capacity=1,
                )
            else:
                replayer = ConstrainedReplayer(
                    program, pinball, observers=(slicer,)
                )
            replayer.run()
            return slicer

        reference, batched = run(True), run(False)
        assert len(reference.slices) == len(batched.slices)
        for a, b in zip(reference.slices, batched.slices):
            assert (a.start, a.end) == (b.start, b.end)
            assert np.array_equal(a.bbv, b.bbv)
            assert a.filtered_instructions == b.filtered_instructions
            assert a.total_instructions == b.total_instructions
            assert a.per_thread_filtered == b.per_thread_filtered
            assert a.start_filtered == b.start_filtered
            assert a.extrapolated == b.extrapolated
        assert reference.tracker.snapshot() == batched.tracker.snapshot()


class TestRingInternals:
    def test_flush_on_sync_reflects_observers(self):
        class Strict(Observer):
            pass

        class Relaxed(Observer):
            needs_flush_before_sync = False

        program, _, _ = build_toy()
        blocks = program.blocks
        assert EventRing(blocks, 2, [Relaxed()]).flush_on_sync is False
        assert EventRing(blocks, 2, [Relaxed(), Strict()]).flush_on_sync

    def test_duplicate_pairs_accumulate_onto_prior_counts(self):
        """Repeated (tid, bid) pairs inside one numpy-path batch add up,
        on top of counts the ring started with."""
        program, _, _ = build_toy()
        nblocks = program.num_blocks
        initial = [[0] * nblocks for _ in range(2)]
        initial[0][2] = 10  # thread 0 already ran block 2 ten times
        ring = EventRing(
            program.blocks, 2, [], capacity=4096,
            initial_exec_counts=initial,
        )
        rows = [(0, 2, 3), (0, 2, 1), (1, 2, 5), (0, 1, 2), (1, 2, 1),
                (0, 2, 4)] * 10  # 60 events: above SMALL_BATCH_THRESHOLD
        for row in rows:
            ring.append(*row)
        ring.flush()
        assert ring.small_flushes == 0 and ring.flushes == 1
        counts = ring.exec_counts()
        assert counts[0][2] == 10 + 10 * (3 + 1 + 4)
        assert counts[1][2] == 10 * (5 + 1)
        assert counts[0][1] == 10 * 2

    def test_batched_delivery_matches_per_event_delivery(self):
        """The numpy flush hands observers the same (tid, bid, repeat)
        stream, and leaves the same counts, as one event at a time."""
        class Recorder(Observer):
            def __init__(self):
                self.calls = []

            def on_block(self, tid, block, repeat):
                self.calls.append((tid, block.bid, repeat))

        program, _, _ = build_toy()
        rng = np.random.default_rng(11)
        events = list(zip(
            rng.integers(0, 2, size=300).tolist(),
            rng.integers(0, program.num_blocks, size=300).tolist(),
            rng.integers(1, 6, size=300).tolist(),
        ))
        runs = []
        for capacity in (1, 4096):
            recorder = Recorder()
            ring = EventRing(program.blocks, 2, [recorder], capacity=capacity)
            for event in events:
                ring.append(*event)
            runs.append((recorder.calls, ring.exec_counts()))
        assert runs[0][0] == events
        assert runs[0] == runs[1]

    def test_counts_survive_small_and_large_flushes(self):
        program, _, _ = build_toy()
        nblocks = program.num_blocks
        counter = InstructionCounter(2)
        ring = EventRing(program.blocks, 2, [counter], capacity=4096)
        for i in range(10):  # below SMALL_BATCH_THRESHOLD
            ring.append(i % 2, 0, 1)
        ring.flush()
        for i in range(500):  # above it
            ring.append(i % 2, 0, 1)
        ring.flush()
        counts = ring.exec_counts()
        assert counts[0][0] == 255 and counts[1][0] == 255
        assert len(counts) == 2 and len(counts[0]) == nblocks


class TestKernels:
    def test_assign_labels_matches_broadcast(self):
        rng = np.random.default_rng(5)
        points = rng.normal(size=(300, 17))
        centroids = rng.normal(size=(9, 17))
        labels, min_d2 = assign_labels(points, centroids, chunk_rows=64)
        d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        assert np.array_equal(labels, d2.argmin(axis=1))
        assert np.allclose(min_d2, d2.min(axis=1))
        assert (min_d2 >= 0).all()

    def test_weighted_means_matches_masked_scan(self):
        rng = np.random.default_rng(6)
        points = rng.normal(size=(200, 5))
        labels = rng.integers(0, 4, size=200)
        weights = rng.uniform(0.5, 2.0, size=200)
        means, wsum = weighted_means(points, labels, 5, weights)
        for j in range(4):
            mask = labels == j
            expect = (
                (points[mask] * weights[mask, None]).sum(axis=0)
                / weights[mask].sum()
            )
            assert np.allclose(means[j], expect)
        assert wsum[4] == 0.0 and np.all(means[4] == 0.0)

    def test_kmeans_gemm_and_broadcast_agree(self):
        """GEMM-assignment Lloyd matches an inline broadcast-assignment
        Lloyd started from the same k-means++ seeding."""
        rng = np.random.default_rng(7)
        points = np.abs(rng.normal(size=(250, 12)))
        fit = kmeans(points, 6, seed=11)

        def broadcast_d2(centroids):
            return ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(
                axis=2
            )

        centroids = kmeanspp_seed(points, 6, np.random.default_rng(11))
        for _ in range(100):
            d2 = broadcast_d2(centroids)
            new, wsum = weighted_means(points, d2.argmin(axis=1), 6)
            empty = wsum == 0
            if empty.any():
                new[empty] = points[d2.min(axis=1).argmax()]
            shift = ((new - centroids) ** 2).sum()
            centroids = new
            if shift <= 1e-8:
                break
        d2 = broadcast_d2(centroids)
        assert np.array_equal(fit.labels, d2.argmin(axis=1))
        assert np.allclose(fit.centroids, centroids)
        assert fit.inertia == pytest.approx(d2.min(axis=1).sum())

    def test_kmeanspp_degenerate_is_deterministic(self):
        """All-identical points: the surplus centroids duplicate the first
        pick instead of consuming rng draws."""
        points = np.ones((8, 3))
        a = kmeans(points, 4, seed=2)
        b = kmeans(points, 4, seed=2)
        assert np.array_equal(a.centroids, b.centroids)
        assert (a.centroids == 1.0).all()
        assert a.inertia == 0.0

    def test_kmeans_weights_pull_centroid(self):
        points = np.array([[0.0], [1.0]])
        heavy_left = kmeans(points, 1, weights=np.array([9.0, 1.0]))
        assert heavy_left.centroids[0, 0] == pytest.approx(0.1)

    def test_kmeans_warm_start_shape_checked(self):
        points = np.zeros((10, 2))
        from repro.errors import ClusteringError

        with pytest.raises(ClusteringError):
            kmeans(points, 3, init_centroids=np.zeros((2, 2)))


def _population(n=240, dim=16, k=5, seed=9):
    rng = np.random.default_rng(seed)
    centers = rng.normal(0, 8, size=(k, dim))
    labels = rng.integers(0, k, size=n)
    matrix = np.abs(centers[labels] + rng.normal(0, 0.5, size=(n, dim)))
    return matrix, rng.uniform(0.5, 2.0, size=n)


class TestSweepModes:
    def test_parallel_full_sweep_is_bit_identical(self):
        matrix, weights = _population()
        opts = SimPointOptions(max_k=12, seed=42)
        serial = select_simpoints(matrix, weights, opts, jobs=1)
        fanned = select_simpoints(matrix, weights, opts, jobs=2)
        assert serial.k == fanned.k
        assert [c.representative for c in serial.clusters] == [
            c.representative for c in fanned.clusters
        ]
        assert np.array_equal(serial.labels, fanned.labels)
        assert serial.bic_by_k == fanned.bic_by_k

    @pytest.mark.parametrize("max_k", [0, -3])
    def test_nonpositive_max_k_rejected(self, max_k):
        from repro.errors import ClusteringError

        matrix, weights = _population(n=40)
        with pytest.raises(ClusteringError, match="max_k"):
            select_simpoints(matrix, weights, SimPointOptions(max_k=max_k))
