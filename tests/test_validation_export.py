"""Tests for workload validation, including a suite-wide model
validation sweep."""

import pytest

from repro.errors import WorkloadError
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
