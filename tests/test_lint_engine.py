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
            rid for family in ("concurrency", "dominance")
            for rid in rule_families()[family]
        )
        report = lint_pipeline(_pipeline(), LintOptions(disable=disable))
        for family in ("concurrency", "dominance"):
            assert report.family_sources[family] == "skipped"
        # The static family still ran.
        assert report.family_sources["markers"] == "computed"

    def test_replay_attaches_only_what_the_families_read(
        self, monkeypatch
    ):
        """One analysis replay: a DCFG builder for MARK006, a concurrency
        analyzer and a sync log for the CONC rules — and nothing else."""
        import repro.lint.runner as runner

        attached = []
        real = runner.ConstrainedReplayer

        def spy(program, pinball, observers=()):
            attached.append([type(ob).__name__ for ob in observers])
            return real(program, pinball, observers=observers)

        monkeypatch.setattr(runner, "ConstrainedReplayer", spy)
        lint_pipeline(_pipeline())
        assert attached == [
            ["DCFGBuilder", "ConcurrencyAnalyzer", "SyncEventLog"]
        ]
        attached.clear()
        lint_pipeline(_pipeline(), LintOptions(
            disable=frozenset(rule_families()["dominance"])
        ))
        assert attached == [["ConcurrencyAnalyzer", "SyncEventLog"]]

    def test_family_enabled_reflects_disable_set(self):
        disable = frozenset(rule_families()["dominance"])
        assert not family_enabled("dominance", disable)
        assert family_enabled("concurrency", disable)

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

        assert main(["--explain", "MARK006"]) == 0
        out = capsys.readouterr().out
        assert "MARK006" in out and "family dominance" in out

    def test_cli_explain_unknown_rule(self):
        from repro.lint.cli import main

        with pytest.raises(SystemExit):
            main(["--explain", "NOPE001"])

    def test_cli_list_rules_shows_families(self, capsys):
        from repro.lint.cli import main

        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for family in ("markers", "dominance", "concurrency"):
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
            "657.xz_s.2", "-n", "4", "--disable", "CONC003",
        ]) == 0
        assert "(suppressed: CONC003)" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", [
        ["--no-invariance"], ["--trace", "run.trace.jsonl"],
    ])
    def test_retired_flags_are_gone(self, flag, capsys):
        from repro.lint.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["demo-matrix-1", *flag])
        assert exc.value.code == 2
        assert flag[0] in capsys.readouterr().err

    def test_retired_rule_id_is_unknown(self, capsys):
        from repro.lint.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["demo-matrix-1", "--disable", "MARK004"])
        assert exc.value.code == 2
        assert "MARK004" in capsys.readouterr().err


class TestFingerprint:
    def test_identity_is_rule_location_and_message(self):
        base = make_finding("MARK001", "node 3", "broken flow")
        assert len(base.fingerprint) == 20
        assert base.as_dict()["fingerprint"] == base.fingerprint
        # Severity and witness are presentation, not identity.
        same = make_finding(
            "MARK001", "node 3", "broken flow",
            witness=("ENTRY", "node 3"),
        )
        assert same.fingerprint == base.fingerprint
        for other in (
            make_finding("CONC001", "node 3", "broken flow"),
            make_finding("MARK001", "node 4", "broken flow"),
            make_finding("MARK001", "node 3", "broken flows"),
        ):
            assert other.fingerprint != base.fingerprint
