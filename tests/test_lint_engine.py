"""Lint family scheduling, baselines, SARIF, and the CLI surface that
drives them."""

import json

import pytest

from repro.config import get_scale
from repro.core.looppoint import LoopPointOptions, LoopPointPipeline
from repro.lint.baseline import (
    BaselineError,
    apply_baseline,
    load_baseline,
    write_baseline,
)
from repro.lint.findings import LintReport, make_finding, rule_families
from repro.lint.runner import LintOptions, family_enabled, lint_pipeline
from repro.lint.sarif import report_to_sarif, validate_sarif
from repro.workloads.registry import get_workload


def _pipeline():
    scale = get_scale("tiny")
    workload = get_workload("demo-matrix-1", None, 4, scale=scale)
    return LoopPointPipeline(workload, options=LoopPointOptions(scale=scale))


class TestFamilyShortCircuit:
    def test_disabling_all_replay_families_constructs_no_replayer(
        self, monkeypatch
    ):
        import repro.lint.runner as runner

        class Exploding:
            def __init__(self, *a, **k):
                raise AssertionError(
                    "analysis replay ran despite every replay family "
                    "being disabled"
                )

        monkeypatch.setattr(runner, "ConstrainedReplayer", Exploding)
        disable = frozenset(
            rid for family in ("dcfg", "concurrency", "perf",
                               "dominance", "xar", "invariance")
            for rid in rule_families()[family]
        )
        report = lint_pipeline(_pipeline(), LintOptions(disable=disable))
        for family in ("dcfg", "concurrency", "perf", "dominance", "xar",
                       "invariance"):
            assert report.family_sources[family] == "skipped"
        # The cheap families still ran.
        assert report.family_sources["markers"] == "computed"

    def test_disabling_mark004_skips_the_invariance_replay(
        self, monkeypatch
    ):
        import repro.lint.runner as runner

        def exploding(*a, **k):
            raise AssertionError(
                "invariance re-profile ran despite MARK004 being disabled"
            )

        monkeypatch.setattr(runner, "check_replay_invariance", exploding)
        report = lint_pipeline(_pipeline(), LintOptions(
            disable=frozenset({"MARK004"})
        ))
        assert report.family_sources["invariance"] == "skipped"

    def test_no_invariance_option_still_skips(self, monkeypatch):
        import repro.lint.runner as runner

        def exploding(*a, **k):
            raise AssertionError(
                "invariance re-profile ran despite check_invariance=False"
            )

        monkeypatch.setattr(runner, "check_replay_invariance", exploding)
        report = lint_pipeline(
            _pipeline(), LintOptions(check_invariance=False)
        )
        assert report.family_sources["invariance"] == "skipped"

    def test_family_enabled_reflects_disable_set(self):
        disable = frozenset(rule_families()["dominance"])
        assert not family_enabled("dominance", disable)
        assert family_enabled("dcfg", disable)

    def test_options_reject_unknown_disable(self):
        with pytest.raises(ValueError):
            LintOptions(disable=frozenset({"NOPE001"}))


class TestBaseline:
    def _report(self):
        report = LintReport(subject="t")
        report.add(make_finding("DCFG001", "node 3", "broken flow"))
        report.add(make_finding("CONF005", "1 slice(s)", "too few"))
        return report

    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "baseline.json")
        report = self._report()
        assert write_baseline(report, path) == 2

        # Same findings again: all baselined, exit code clean.
        again = self._report()
        matched = apply_baseline(again, load_baseline(path))
        assert matched == 2
        assert again.findings == []
        assert len(again.baselined) == 2
        assert again.exit_code == 0

        # A new finding survives the baseline and fails the run.
        third = self._report()
        third.add(make_finding("CONC001", "lock 9", "fresh cycle"))
        apply_baseline(third, load_baseline(path))
        assert [f.rule_id for f in third.findings] == ["CONC001"]
        assert third.exit_code == 1

    def test_rewrite_carries_baselined_findings_forward(self, tmp_path):
        path = str(tmp_path / "baseline.json")
        write_baseline(self._report(), path)
        report = self._report()
        apply_baseline(report, load_baseline(path))
        report.add(make_finding("CONC001", "lock 9", "fresh cycle"))
        # Re-writing while a baseline is applied accepts old + new.
        assert write_baseline(report, path) == 3

    def test_load_rejects_damage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{torn", "utf-8")
        with pytest.raises(BaselineError):
            load_baseline(str(path))
        path.write_text(json.dumps({"schema": 99, "findings": {}}), "utf-8")
        with pytest.raises(BaselineError):
            load_baseline(str(path))
        with pytest.raises(BaselineError):
            load_baseline(str(tmp_path / "missing.json"))


class TestSarif:
    def _report(self):
        report = LintReport(subject="demo/x")
        report.passes_run = ["dcfg"]
        report.add(make_finding("DCFG001", "node 3", "broken flow"))
        report.add(make_finding(
            "MARK006", "region 2", "end bypasses start",
            witness=("ENTRY", "init.hdr", "work.hdr"),
        ))
        report.baselined.append(
            make_finding("CONF005", "1 slice(s)", "known debt")
        )
        return report

    def test_export_validates_against_2_1_0(self):
        doc = report_to_sarif(self._report())
        assert doc["version"] == "2.1.0"
        assert validate_sarif(doc) == []

    def test_witness_becomes_code_flow(self):
        doc = report_to_sarif(self._report())
        results = doc["runs"][0]["results"]
        flows = [r for r in results if "codeFlows" in r]
        assert len(flows) == 1
        steps = flows[0]["codeFlows"][0]["threadFlows"][0]["locations"]
        names = [
            s["location"]["logicalLocations"][0]["name"] for s in steps
        ]
        assert names == ["ENTRY", "init.hdr", "work.hdr"]

    def test_baselined_findings_are_marked_unchanged(self):
        doc = report_to_sarif(self._report())
        results = doc["runs"][0]["results"]
        states = {
            r["ruleId"]: r.get("baselineState") for r in results
        }
        assert states["CONF005"] == "unchanged"
        assert states["DCFG001"] is None

    def test_validator_catches_seeded_damage(self):
        doc = report_to_sarif(self._report())
        doc["runs"][0]["results"][0]["level"] = "fatal"
        del doc["runs"][0]["tool"]["driver"]["name"]
        doc["version"] = "2.0.0"
        problems = validate_sarif(doc)
        assert len(problems) == 3

    def test_rule_index_resolution_is_checked(self):
        doc = report_to_sarif(self._report())
        doc["runs"][0]["results"][0]["ruleIndex"] = 10_000
        assert validate_sarif(doc)


class TestDocsAndCli:
    def test_rule_docs_are_in_sync_with_registry(self):
        from repro.lint.rules_doc import rules_markdown

        with open("docs/LINT_RULES.md", "r", encoding="utf-8") as fh:
            committed = fh.read()
        assert committed == rules_markdown(), (
            "docs/LINT_RULES.md is stale — regenerate with "
            "PYTHONPATH=src python -m repro.lint.rules_doc docs/LINT_RULES.md"
        )

    def test_cli_explain(self, capsys):
        from repro.lint.cli import main

        assert main(["--explain", "XAR004"]) == 0
        out = capsys.readouterr().out
        assert "XAR004" in out and "family xar" in out

    def test_cli_explain_unknown_rule(self):
        from repro.lint.cli import main

        with pytest.raises(SystemExit):
            main(["--explain", "NOPE001"])

    def test_cli_list_rules_shows_families(self, capsys):
        from repro.lint.cli import main

        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for family in ("dcfg", "xar", "dominance", "invariance"):
            assert family in out

    def test_cli_baseline_workflow(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        from repro.lint.cli import main

        baseline = str(tmp_path / "baseline.json")
        assert main([
            "demo-matrix-1", "-n", "4", "--write-baseline", baseline,
        ]) == 0
        doc = load_baseline(baseline)
        assert doc["schema"] == 1
        assert main([
            "demo-matrix-1", "-n", "4", "--baseline", baseline,
        ]) == 0

    def test_cli_sarif_export(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        from repro.lint.cli import main

        sarif_path = tmp_path / "lint.sarif"
        assert main([
            "demo-matrix-1", "-n", "4", "--sarif", str(sarif_path),
            "--no-invariance",
        ]) == 0
        doc = json.loads(sarif_path.read_text("utf-8"))
        assert validate_sarif(doc) == []
