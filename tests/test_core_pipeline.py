"""Tests for extrapolation, speedups, warmup cuts, and the full pipeline."""

import pickle

import pytest

from repro.clustering.simpoint import ClusterInfo
from repro.config import GAINESTOWN_8CORE
from repro.core import (
    LoopPointOptions,
    LoopPointPipeline,
    WarmupStrategy,
    compute_speedups,
    extrapolate_metrics,
    prediction_error,
    region_cuts_for_selection,
)
from repro.core import looppoint
from repro.core.report import format_result_table
from repro.errors import ClusteringError, RegionError, SimulationError
from repro.policy import WaitPolicy
from repro.profiling import profile_result
from repro.profiling.profile_result import profile_pinball
from repro.timing.mcsim import SimulationResult
from repro.timing.metrics import SimMetrics

from conftest import TEST_SCALE


def _cluster(rep, members, mass, own):
    return ClusterInfo(
        cluster_id=rep, representative=rep, members=members,
        instruction_mass=mass, multiplier=mass / own,
    )


def _result(rid, cycles, instructions=1000):
    return SimulationResult(
        region_id=rid,
        metrics=SimMetrics(cycles=cycles, instructions=instructions),
        start_cycle=0,
        end_cycle=cycles,
    )


class TestExtrapolation:
    def test_equation_one(self):
        clusters = [
            _cluster(0, [0, 1, 2], mass=300.0, own=100.0),  # mult 3
            _cluster(5, [5], mass=100.0, own=100.0),        # mult 1
        ]
        results = [_result(0, cycles=50), _result(5, cycles=80)]
        total = extrapolate_metrics(results, clusters)
        assert total.cycles == 50 * 3 + 80

    def test_missing_region_rejected(self):
        clusters = [_cluster(0, [0], 10.0, 10.0), _cluster(1, [1], 10.0, 10.0)]
        with pytest.raises(ClusteringError):
            extrapolate_metrics([_result(0, 5)], clusters)

    def test_allow_missing(self):
        clusters = [_cluster(0, [0], 10.0, 10.0), _cluster(1, [1], 10.0, 10.0)]
        total = extrapolate_metrics([_result(0, 5)], clusters,
                                    allow_missing=True)
        assert total.cycles == 5

    def test_unknown_region_rejected(self):
        clusters = [_cluster(0, [0], 10.0, 10.0)]
        with pytest.raises(ClusteringError):
            extrapolate_metrics([_result(9, 5)], clusters)

    def test_duplicate_result_rejected(self):
        clusters = [_cluster(0, [0], 10.0, 10.0)]
        with pytest.raises(ClusteringError):
            extrapolate_metrics([_result(0, 5), _result(0, 5)], clusters)

    def test_prediction_error(self):
        assert prediction_error(110, 100) == pytest.approx(10.0)
        assert prediction_error(90, 100) == pytest.approx(10.0)
        with pytest.raises(ClusteringError):
            prediction_error(1, 0)


class TestSpeedups:
    def _profile(self, demo_workload):
        from repro.core.looppoint import LoopPointPipeline

        pipe = LoopPointPipeline(
            demo_workload,
            options=LoopPointOptions(scale=TEST_SCALE),
        )
        return pipe.profile(), pipe.select()

    def test_theoretical_definitions(self, demo_workload):
        profile, selection = self._profile(demo_workload)
        report = compute_speedups(profile, selection.clusters)
        total = profile.filtered_instructions
        reps = [
            profile.slices[c.representative].filtered_instructions
            for c in selection.clusters
        ]
        assert report.theoretical_serial == pytest.approx(total / sum(reps))
        assert report.theoretical_parallel == pytest.approx(total / max(reps))
        assert report.actual_serial is None

    def test_parallel_at_least_serial(self, demo_workload):
        profile, selection = self._profile(demo_workload)
        report = compute_speedups(profile, selection.clusters)
        assert report.theoretical_parallel >= report.theoretical_serial >= 1.0

    def test_empty_clusters_rejected(self, demo_workload):
        profile, _ = self._profile(demo_workload)
        with pytest.raises(ClusteringError):
            compute_speedups(profile, [])


class TestWarmupCuts:
    def test_cuts_respect_budget(self, demo_workload):
        pipe = LoopPointPipeline(
            demo_workload, options=LoopPointOptions(scale=TEST_SCALE)
        )
        profile, selection = pipe.profile(), pipe.select()
        cuts = region_cuts_for_selection(profile, selection.clusters, 2000)
        for cut, cluster in zip(cuts, selection.clusters):
            s = profile.slices[cluster.representative]
            assert cut.warmup_filtered == max(0, s.start_filtered - 2000)

    def test_none_strategy_zero_warmup(self, demo_workload):
        pipe = LoopPointPipeline(
            demo_workload, options=LoopPointOptions(scale=TEST_SCALE)
        )
        cuts = region_cuts_for_selection(
            pipe.profile(), pipe.select().clusters, 2000,
            strategy=WarmupStrategy.NONE,
        )
        for cut, cluster in zip(cuts, pipe.select().clusters):
            s = pipe.profile().slices[cluster.representative]
            assert cut.warmup_filtered == s.start_filtered

    def test_negative_budget_rejected(self, demo_workload):
        pipe = LoopPointPipeline(
            demo_workload, options=LoopPointOptions(scale=TEST_SCALE)
        )
        with pytest.raises(RegionError):
            region_cuts_for_selection(pipe.profile(), pipe.select().clusters, -1)


class TestPipelineEndToEnd:
    @pytest.fixture(scope="class")
    def pipeline(self, demo_workload):
        return LoopPointPipeline(
            demo_workload,
            options=LoopPointOptions(
                wait_policy=WaitPolicy.ACTIVE, scale=TEST_SCALE
            ),
        )

    def test_stages_cached(self, pipeline):
        assert pipeline.record() is pipeline.record()
        assert pipeline.profile() is pipeline.profile()
        assert pipeline.select() is pipeline.select()

    def test_regions_ordered_and_bounded(self, pipeline):
        regions = pipeline.regions()
        ids = [r.region_id for r in regions]
        assert ids == sorted(ids)
        assert len(regions) == len(pipeline.select().clusters)

    def test_run_accuracy(self, pipeline):
        result = pipeline.run()
        assert result.actual is not None
        assert result.runtime_error_pct < 12.0
        assert result.num_looppoints <= result.num_slices

    def test_metric_errors_keys(self, pipeline):
        result = pipeline.run()
        errors = result.metric_errors()
        for key in ("runtime_error_pct", "branch_mpki_absdiff",
                    "l2_mpki_absdiff", "ipc_error_pct"):
            assert key in errors

    def test_speedups_positive(self, pipeline):
        result = pipeline.run()
        sp = result.speedup
        assert sp.theoretical_serial > 1.0
        assert sp.actual_parallel > sp.actual_serial

    def test_skip_full_simulation(self, demo_workload):
        pipe = LoopPointPipeline(
            demo_workload, options=LoopPointOptions(scale=TEST_SCALE)
        )
        result = pipe.run(simulate_full=False)
        assert result.actual is None
        assert result.runtime_error_pct is None

    def test_constrained_mode(self, demo_workload):
        pipe = LoopPointPipeline(
            demo_workload, options=LoopPointOptions(scale=TEST_SCALE)
        )
        result = pipe.run(constrained=True)
        # Constrained replay distorts timing but stays in the ballpark.
        assert result.runtime_error_pct < 60.0

    def test_report_table(self, pipeline):
        result = pipeline.run()
        table = format_result_table([result])
        assert "demo-matrix-1" in table
        assert "err%" in table

    def test_insufficient_cores_rejected(self, demo_workload):
        with pytest.raises(SimulationError):
            LoopPointPipeline(
                demo_workload, system=GAINESTOWN_8CORE.with_cores(2)
            )


class TestRecordTimeDCFG:
    """Offline profiling takes its markers from the record-time DCFG."""

    @staticmethod
    def _replay_profile(pipe):
        """The profile a DCFG replay of the recorded pinball gives."""
        return profile_pinball(
            pipe.workload.program, pipe.record(), pipe.slice_size
        )

    def test_profile_matches_replay_built_dcfg(self, demo_workload):
        pipe = LoopPointPipeline(
            demo_workload, options=LoopPointOptions(scale=TEST_SCALE)
        )
        assert pickle.dumps(pipe.profile()) == pickle.dumps(
            self._replay_profile(pipe)
        )

    def test_cache_miss_never_replays_for_the_dcfg(
        self, demo_workload, monkeypatch
    ):
        def no_replay(*args, **kwargs):
            raise AssertionError("DCFG replay on a record cache miss")

        monkeypatch.setattr(looppoint, "build_dcfg_from_pinball", no_replay)
        monkeypatch.setattr(
            profile_result, "build_dcfg_from_pinball", no_replay
        )
        pipe = LoopPointPipeline(
            demo_workload, options=LoopPointOptions(scale=TEST_SCALE)
        )
        pipe.select()
        assert pipe.marker_pcs() == pipe.profile().marker_pcs

    def test_record_cache_hit_falls_back_to_replay(
        self, demo_workload, tmp_path, monkeypatch
    ):
        options = LoopPointOptions(scale=TEST_SCALE, cache_dir=str(tmp_path))
        LoopPointPipeline(demo_workload, options=options).record()
        replays = []
        build = looppoint.build_dcfg_from_pinball

        def counting_build(*args, **kwargs):
            replays.append(1)
            return build(*args, **kwargs)

        monkeypatch.setattr(
            looppoint, "build_dcfg_from_pinball", counting_build
        )
        pipe = LoopPointPipeline(demo_workload, options=options)
        profile = pipe.profile()
        pipe.marker_pcs()
        assert pipe.artifacts.hits["record"] == 1
        assert replays == [1]  # one replay serves profile and marker_pcs
        assert pickle.dumps(profile) == pickle.dumps(
            self._replay_profile(pipe)
        )
