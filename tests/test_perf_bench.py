"""The repro-bench harness: schema, check semantics, baseline handling."""

import json

import pytest

from repro.perf.bench import (
    BenchError,
    REGRESSION_MARGIN,
    check_report,
    default_baseline_path,
    format_summary,
    load_baseline,
    load_scenarios,
    run_bench,
    write_report,
)


@pytest.fixture(scope="module")
def smoke_report():
    return run_bench(smoke=True, reps=1)


class TestHarness:
    def test_scenarios_module_loads(self):
        wl = load_scenarios()
        assert wl.NTHREADS >= 1
        matrix, weights = wl.build_select_population(n=50)
        assert matrix.shape == (50, 64) and weights.shape == (50,)

    def test_missing_scenarios_raise(self, tmp_path):
        with pytest.raises(BenchError):
            load_scenarios(tmp_path / "nope.py")

    def test_report_schema(self, smoke_report):
        assert smoke_report["schema"] == "repro-bench/1"
        assert smoke_report["smoke"] is True
        assert set(smoke_report["scenarios"]) == {
            "engine_fine", "engine_coarse", "select", "pipeline_e2e",
        }
        for name, data in smoke_report["scenarios"].items():
            assert data["fast_wall_seconds"] > 0
            # Only pipeline_e2e has an in-process legacy side; the seed
            # walls in baseline.json are every other scenario's reference.
            if name == "pipeline_e2e":
                assert data["legacy_wall_seconds"] > 0
                assert data["ratio"] > 0
            else:
                assert "ratio" not in data
        # Smoke sizes differ from the baseline's: no seed comparison.
        assert smoke_report["speedup_vs_baseline"] is None

    def test_report_roundtrips(self, smoke_report, tmp_path):
        path = tmp_path / "BENCH_perf.json"
        write_report(smoke_report, path)
        assert json.loads(path.read_text())["schema"] == "repro-bench/1"

    def test_summary_mentions_every_scenario(self, smoke_report):
        text = format_summary(smoke_report)
        for name in smoke_report["scenarios"]:
            assert name in text


class TestBaselineAndChecks:
    def test_committed_baseline_is_valid(self):
        baseline = load_baseline(default_baseline_path())
        assert baseline is not None
        assert set(baseline["expected_min_ratio"]) <= set(
            baseline["scenarios"]
        )
        for data in baseline["scenarios"].values():
            assert data["wall_seconds"] > 0

    def test_bad_schema_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text('{"schema": "other/9"}')
        with pytest.raises(BenchError):
            load_baseline(path)

    def test_check_passes_at_floor(self):
        report = {"scenarios": {"engine_fine": {"ratio": 2.0}}}
        baseline = {"expected_min_ratio": {"engine_fine": 2.0}}
        verdict = check_report(report, baseline)
        assert verdict["pass"]

    def test_check_tolerates_up_to_25_percent(self):
        floor = 2.0
        just_inside = floor * (1.0 - REGRESSION_MARGIN) + 1e-9
        report = {"scenarios": {"engine_fine": {"ratio": just_inside}}}
        baseline = {"expected_min_ratio": {"engine_fine": floor}}
        assert check_report(report, baseline)["pass"]

    def test_check_fails_past_25_percent(self):
        report = {"scenarios": {"engine_fine": {"ratio": 1.49}}}
        baseline = {"expected_min_ratio": {"engine_fine": 2.0}}
        verdict = check_report(report, baseline)
        assert not verdict["pass"]
        assert verdict["checks"][0]["threshold"] == pytest.approx(1.5)

    def test_check_fails_on_missing_scenario(self):
        report = {"scenarios": {}}
        baseline = {"expected_min_ratio": {"select": 1.5}}
        assert not check_report(report, baseline)["pass"]

    def test_smoke_report_clears_committed_floors(self, smoke_report):
        """The CI gate end-to-end: current code vs committed floors."""
        baseline = load_baseline(default_baseline_path())
        assert check_report(smoke_report, baseline)["pass"]

    def test_threshold_is_rounded(self):
        """floor * 0.75 in binary floating point gave the historical
        0.8999999999999999; reported thresholds are rounded."""
        report = {"scenarios": {"engine_coarse": {"ratio": 1.0}}}
        baseline = {"expected_min_ratio": {"engine_coarse": 1.2}}
        verdict = check_report(report, baseline)
        assert verdict["checks"][0]["threshold"] == 0.9


class TestBaselineShaStaleness:
    def _pair(self, recorded, current):
        report = {
            "scenarios": {"engine_fine": {"ratio": 99.0}},
            "baseline_sha": recorded,
        }
        baseline = {
            "expected_min_ratio": {"engine_fine": 2.0},
            "sha": current,
        }
        return report, baseline

    def _sha_check(self, verdict):
        return next(
            c for c in verdict["checks"] if c["scenario"] == "baseline_sha"
        )

    def test_matching_sha_is_fresh(self):
        report, baseline = self._pair("abc123", "abc123")
        verdict = check_report(report, baseline)
        c = self._sha_check(verdict)
        assert not c["stale"] and c["pass"] and verdict["pass"]

    def test_stale_sha_reported_but_passes_by_default(self):
        report, baseline = self._pair("abc123", "def456")
        verdict = check_report(report, baseline)
        c = self._sha_check(verdict)
        assert c["stale"] and c["pass"] and verdict["pass"]

    def test_stale_sha_fails_when_strict(self):
        report, baseline = self._pair("abc123", "def456")
        verdict = check_report(
            report, baseline, require_fresh_baseline=True
        )
        c = self._sha_check(verdict)
        assert c["stale"] and not c["pass"] and not verdict["pass"]

    def test_unknown_sha_never_stale(self):
        report, baseline = self._pair(None, "def456")
        verdict = check_report(
            report, baseline, require_fresh_baseline=True
        )
        assert not self._sha_check(verdict)["stale"]
        assert verdict["pass"]

    def test_committed_report_is_fresh_against_committed_baseline(self):
        """The anchor of this PR: the committed BENCH_perf.json evidence
        must have been recorded against the baseline now in the tree."""
        import json as _json
        from repro.perf.bench import repo_root

        bench_path = repo_root() / "BENCH_perf.json"
        report = _json.loads(bench_path.read_text())
        baseline = load_baseline(default_baseline_path())
        verdict = check_report(
            report, baseline, require_fresh_baseline=True
        )
        assert not self._sha_check(verdict)["stale"]
        assert verdict["pass"]
