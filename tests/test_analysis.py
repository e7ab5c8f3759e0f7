"""Tests for the analysis helpers and the evaluation cache."""

import pytest

from repro.analysis import (
    EvaluationCache,
    ascii_table,
    bar_chart,
    geomean,
    mean_absolute,
)
from repro.policy import WaitPolicy

from conftest import TEST_SCALE


class TestStats:
    def test_mean_absolute(self):
        assert mean_absolute([1, -2, 3]) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            mean_absolute([])

    def test_geomean(self):
        assert geomean([1, 4]) == pytest.approx(2.0)
        assert geomean([10, 10, 10]) == pytest.approx(10.0)
        with pytest.raises(ValueError):
            geomean([1, 0])


class TestTables:
    def test_ascii_table_alignment(self):
        out = ascii_table(["app", "err%"], [["lbm", 1.234], ["xz", 10.5]],
                          title="Fig")
        lines = out.splitlines()
        assert lines[0] == "Fig"
        assert "app" in lines[1] and "err%" in lines[1]
        assert len({len(l) for l in lines[2:]}) <= 2

    def test_bar_chart_linear_and_log(self):
        values = {"a": 1.0, "b": 100.0}
        linear = bar_chart(values, width=20)
        logd = bar_chart(values, width=20, log=True)
        assert linear.count("#") > 0
        # In log space, 'a' gets an empty bar but is still listed.
        assert "a" in logd and "b" in logd

    def test_bar_chart_empty_rejected(self):
        with pytest.raises(ValueError):
            bar_chart({})


class TestEvaluationCache:
    def test_workload_and_pipeline_memoized(self):
        cache = EvaluationCache(scale=TEST_SCALE)
        w1 = cache.workload("demo-matrix-1", nthreads=4)
        w2 = cache.workload("demo-matrix-1", nthreads=4)
        assert w1 is w2
        p1 = cache.pipeline("demo-matrix-1", nthreads=4)
        p2 = cache.pipeline("demo-matrix-1", nthreads=4)
        assert p1 is p2

    def test_distinct_keys_distinct_pipelines(self):
        cache = EvaluationCache(scale=TEST_SCALE)
        a = cache.pipeline("demo-matrix-1", nthreads=4,
                           wait_policy=WaitPolicy.ACTIVE)
        b = cache.pipeline("demo-matrix-1", nthreads=4,
                           wait_policy=WaitPolicy.PASSIVE)
        assert a is not b

    def test_result_memoized(self):
        cache = EvaluationCache(scale=TEST_SCALE)
        r1 = cache.looppoint_result("demo-matrix-1", nthreads=4)
        r2 = cache.looppoint_result("demo-matrix-1", nthreads=4)
        assert r1 is r2
        assert r1.runtime_error_pct is not None

    def test_inorder_system(self):
        cache = EvaluationCache(scale=TEST_SCALE)
        assert not cache.system(8, inorder=True).core.out_of_order
        assert cache.system(16).num_cores == 16
