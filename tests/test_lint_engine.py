"""Lint family scheduling and the CLI surface that drives it."""

import json

import pytest

from repro.config import get_scale
from repro.core.looppoint import LoopPointOptions, LoopPointPipeline
from repro.lint.findings import make_finding, rule_families
from repro.lint.runner import LintOptions, family_enabled, lint_pipeline
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

    def test_cli_reports_the_known_finding(self, monkeypatch, capsys):
        """657.xz_s.2 carries one known CONC003 true positive; the JSON
        row names it by rule, location and fingerprint."""
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        from repro.lint.cli import main

        assert main(["657.xz_s.2", "-n", "4", "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        found = [
            (f["rule_id"], f["location"], f["fingerprint"])
            for f in report["findings"]
        ]
        assert found == [(
            "CONC003", "stream_merge_crit_3.crit (pc 0x4000ac)",
            "f5a45826153245e90ad2",
        )]

    def test_cli_disable_suppresses_the_known_finding(
        self, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        from repro.lint.cli import main

        assert main([
            "657.xz_s.2", "-n", "4", "--no-invariance",
            "--disable", "CONC003",
        ]) == 0
        assert "(suppressed: CONC003)" in capsys.readouterr().out


class TestFingerprint:
    def test_identity_is_rule_location_and_message(self):
        base = make_finding("DCFG001", "node 3", "broken flow")
        assert len(base.fingerprint) == 20
        assert base.as_dict()["fingerprint"] == base.fingerprint
        # Severity and witness are presentation, not identity.
        same = make_finding(
            "DCFG001", "node 3", "broken flow",
            witness=("ENTRY", "node 3"),
        )
        assert same.fingerprint == base.fingerprint
        for other in (
            make_finding("CONC001", "node 3", "broken flow"),
            make_finding("DCFG001", "node 4", "broken flow"),
            make_finding("DCFG001", "node 3", "broken flows"),
        ):
            assert other.fingerprint != base.fingerprint
