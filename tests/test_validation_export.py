"""Tests for workload validation and result export, including a
suite-wide model validation sweep."""

import json

import pytest

from repro.analysis.export import (
    metrics_dict,
    result_summary,
    write_csv,
    write_result_json,
    write_suite_json,
)
from repro.core import LoopPointOptions, LoopPointPipeline
from repro.errors import ReproError, WorkloadError
from repro.timing.metrics import SimMetrics
from repro.workloads import NPB_APPS, SPEC_TRAIN_APPS, get_workload
from repro.workloads.validation import (
    observed_primitives,
    validate_or_raise,
    validate_workload,
)

from conftest import TEST_SCALE


class TestValidation:
    def test_demo_passes(self, demo_workload):
        report = validate_workload(demo_workload)
        assert report.passed, report.failures()

    def test_validate_or_raise_passes(self, demo_workload):
        assert validate_or_raise(demo_workload).passed

    def test_detects_broken_estimate(self, demo_workload):
        # Sabotage the metadata-free path by wrapping total_instructions.
        class Lying:
            def __init__(self, tp):
                self._tp = tp
                self.constructs = tp.constructs

            def total_instructions(self, n):
                return self._tp.total_instructions(n) + 1

        import copy

        broken = copy.copy(demo_workload)
        broken.thread_program = Lying(demo_workload.thread_program)
        report = validate_workload(broken)
        assert "instruction_estimate" in report.failures()
        with pytest.raises(WorkloadError):
            validate_or_raise(broken)

    @pytest.mark.parametrize("name", SPEC_TRAIN_APPS + NPB_APPS)
    def test_suite_models_validate(self, name):
        workload = get_workload(name, scale=TEST_SCALE)
        report = validate_workload(workload)
        assert report.passed, (name, report.failures(), report.details)

    def test_observed_primitives_demo(self, demo_workload):
        seen = observed_primitives(demo_workload)
        assert seen["sta4"] and seen["bar"]
        assert not seen["dyn4"]


class TestExport:
    def test_write_csv_roundtrip(self, tmp_path):
        path = write_csv(
            tmp_path / "fig.csv", ["app", "err"], [["lbm", 1.2], ["xz", 9.9]]
        )
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "app,err"
        assert lines[1] == "lbm,1.2"

    def test_write_csv_validates_width(self, tmp_path):
        with pytest.raises(ReproError):
            write_csv(tmp_path / "bad.csv", ["a", "b"], [[1]])

    def test_metrics_dict_includes_rates(self):
        m = SimMetrics(cycles=100, instructions=400, l2_misses=4)
        d = metrics_dict(m)
        assert d["ipc"] == pytest.approx(4.0)
        assert d["l2_mpki"] == pytest.approx(10.0)
        assert d["cycles"] == 100

    @pytest.fixture(scope="class")
    def demo_result(self, demo_workload):
        pipeline = LoopPointPipeline(
            demo_workload, options=LoopPointOptions(scale=TEST_SCALE)
        )
        return pipeline.run()

    def test_result_summary_fields(self, demo_result):
        summary = result_summary(demo_result)
        assert summary["num_looppoints"] == demo_result.num_looppoints
        assert "runtime_error_pct" in summary
        assert len(summary["regions"]) == demo_result.num_looppoints

    def test_result_json_roundtrip(self, tmp_path, demo_result):
        path = write_result_json(tmp_path / "r.json", demo_result)
        loaded = json.loads(path.read_text())
        assert loaded["workload"] == demo_result.workload
        assert loaded["speedup"]["theoretical_serial"] > 1.0

    def test_suite_json(self, tmp_path, demo_result):
        path = write_suite_json(tmp_path / "suite.json", [demo_result] * 2)
        loaded = json.loads(path.read_text())
        assert len(loaded) == 2
