"""Tests for the repro.lint workload checks.

Each pass family gets a planted violation: a spin-loop marker, a
non-header marker, a lock-order cycle, a divergent barrier sequence, a
happens-before race — and the test asserts the expected rule id fires
(and nothing unrelated does on clean inputs).
"""

import json

import pytest

from repro.config import get_scale
from repro.core.looppoint import LoopPointOptions, LoopPointPipeline
from repro.exec_engine.events import (
    SYNC_BARRIER,
    SYNC_LOCK_ACQ,
    SYNC_LOCK_REL,
)
from repro.errors import ProgramStructureError, WorkloadError
from repro.exec_engine.flowcontrol import DEFAULT_FLOW_WINDOW
from repro.exec_engine.observers import SyncEventLog
from repro.lint import Finding, LintOptions, LintReport, RULES, Severity
from repro.lint.concurrency_passes import (
    ConcurrencyAnalyzer,
    check_barrier_divergence,
    check_lock_order,
    check_races,
)
from repro.lint.findings import make_finding
from repro.lint.runner import lint_pipeline
from repro.lint.marker_passes import check_marker_blocks
from repro.workloads.registry import get_workload

from conftest import build_toy

TINY = get_scale("tiny")


def _rules(findings):
    return {f.rule_id for f in findings}


# ---------------------------------------------------------------------------
# diagnostics core


class TestFindings:
    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError):
            Finding("NOPE999", Severity.ERROR, "here", "boom")

    def test_default_severity_from_registry(self):
        f = make_finding("CONF005", "x", "y")
        assert f.severity is Severity.WARNING
        f = make_finding("MARK001", "x", "y")
        assert f.severity is Severity.ERROR

    def test_exit_code_and_counts(self):
        report = LintReport(subject="t")
        assert report.exit_code == 0
        report.add(make_finding("CONF005", "w", "m"))  # warning
        assert report.exit_code == 0
        report.add(make_finding("MARK001", "p", "m"))  # error
        assert report.exit_code == 1
        assert report.counts() == {"info": 0, "warning": 1, "error": 1}

    def test_json_round_trip(self):
        report = LintReport(subject="t")
        report.add(make_finding("CONC001", "locks", "cycle"))
        report.mark_pass("concurrency")
        data = json.loads(report.to_json())
        assert data["subject"] == "t"
        assert data["findings"][0]["rule_id"] == "CONC001"
        assert data["findings"][0]["severity"] == "error"
        assert "concurrency" in data["passes_run"]

    def test_render_table_lists_rule_ids(self):
        report = LintReport(subject="t")
        report.add(make_finding("MARK002", "pc 0x1", "spin loop"))
        assert "MARK002" in report.render_table()

    def test_every_rule_has_paper_ref_and_summary(self):
        for rule in RULES.values():
            assert rule.summary
            assert rule.paper_ref


# ---------------------------------------------------------------------------
# marker validity passes


class TestMarkerPasses:
    @pytest.fixture(scope="class")
    def toy_program(self):
        program, _tp, _omp = build_toy()
        return program

    def test_spin_loop_marker_rejected(self, toy_program):
        # Planted violation: a library spin-loop header used as a marker.
        spin = next(
            b for b in toy_program.blocks
            if b.image.is_library and b.is_loop_header
        )
        findings = check_marker_blocks(toy_program, [spin.pc])
        assert _rules(findings) == {"MARK002"}

    def test_non_header_marker_rejected(self, toy_program):
        plain = next(
            b for b in toy_program.blocks
            if not b.image.is_library and not b.is_loop_header
        )
        findings = check_marker_blocks(toy_program, [plain.pc])
        assert _rules(findings) == {"MARK001"}

    def test_unknown_pc_raises(self, toy_program):
        with pytest.raises(ProgramStructureError):
            check_marker_blocks(toy_program, [0xDEAD0000])

    def test_valid_marker_clean(self, toy_program):
        hdr = toy_program.routine("compute").entry
        assert hdr.is_loop_header
        assert check_marker_blocks(toy_program, [hdr.pc]) == []

    def test_single_slice_profile_warns(self):
        # One slice spanning the whole run: the markers family reports
        # CONF005, and lint computes nothing that needs a replay.
        workload = get_workload("demo-matrix-1", None, 4, scale=TINY)
        pipeline = LoopPointPipeline(workload, options=LoopPointOptions(
            scale=TINY, slice_size=10**9,
        ))
        disable = frozenset(
            rid for rid, rule in RULES.items() if rule.family != "markers"
        )
        report = lint_pipeline(pipeline, LintOptions(disable=disable))
        assert [f.rule_id for f in report.findings] == ["CONF005"]
        assert report.findings[0].severity == Severity.WARNING
        assert report.family_sources["markers"] == "computed"


# ---------------------------------------------------------------------------
# concurrency passes


class _FakeImage:
    is_library = False
    name = "main"


class _FakeBlock:
    """Just enough of a BasicBlock for ConcurrencyAnalyzer.on_block."""

    def __init__(self, bid, name="shared_update"):
        self.bid = bid
        self.name = name
        self.pc = 0x400000 + bid
        self.image = _FakeImage()
        self.mem_ops = [(0, None, True, False)]  # one write
        self.n_atomics = 0


class TestConcurrencyPasses:
    def test_lock_order_cycle(self):
        # Planted violation: t0 takes 1 then 2, t1 takes 2 then 1.
        an = ConcurrencyAnalyzer(2)
        g = iter(range(100))
        an.on_sync(0, SYNC_LOCK_ACQ, 1, None, next(g))
        an.on_sync(0, SYNC_LOCK_ACQ, 2, None, next(g))
        an.on_sync(0, SYNC_LOCK_REL, 2, None, next(g))
        an.on_sync(0, SYNC_LOCK_REL, 1, None, next(g))
        an.on_sync(1, SYNC_LOCK_ACQ, 2, None, next(g))
        an.on_sync(1, SYNC_LOCK_ACQ, 1, None, next(g))
        an.on_sync(1, SYNC_LOCK_REL, 1, None, next(g))
        an.on_sync(1, SYNC_LOCK_REL, 2, None, next(g))
        findings = check_lock_order(an)
        assert _rules(findings) == {"CONC001"}
        assert findings[0].severity is Severity.ERROR

    def test_nested_locks_without_cycle_clean(self):
        an = ConcurrencyAnalyzer(2)
        for tid in (0, 1):
            an.on_sync(tid, SYNC_LOCK_ACQ, 1, None, 0)
            an.on_sync(tid, SYNC_LOCK_ACQ, 2, None, 1)
            an.on_sync(tid, SYNC_LOCK_REL, 2, None, 2)
            an.on_sync(tid, SYNC_LOCK_REL, 1, None, 3)
        assert check_lock_order(an) == []

    def test_locked_vs_bare_race(self):
        # t0 writes the block under lock 1; t1 writes it with no lock and
        # no happens-before edge -> CONC003.
        an = ConcurrencyAnalyzer(2)
        block = _FakeBlock(3)
        an.on_sync(0, SYNC_LOCK_ACQ, 1, None, 0)
        an.on_block(0, block, 1)
        an.on_sync(0, SYNC_LOCK_REL, 1, None, 1)
        # Advance t1's clock without ordering it against t0.
        an.on_sync(1, SYNC_LOCK_ACQ, 2, None, 2)
        an.on_sync(1, SYNC_LOCK_REL, 2, None, 3)
        an.on_block(1, block, 1)
        findings = check_races(an)
        assert _rules(findings) == {"CONC003"}

    def test_release_acquire_orders_accesses(self):
        # Same shape, but t1 takes the same lock: release->acquire edge
        # orders the accesses, so no race.
        an = ConcurrencyAnalyzer(2)
        block = _FakeBlock(3)
        an.on_sync(0, SYNC_LOCK_ACQ, 1, None, 0)
        an.on_block(0, block, 1)
        an.on_sync(0, SYNC_LOCK_REL, 1, None, 1)
        an.on_sync(1, SYNC_LOCK_ACQ, 1, None, 2)
        an.on_sync(1, SYNC_LOCK_REL, 1, None, 3)
        an.on_block(1, block, 1)
        assert check_races(an) == []

    def test_barrier_divergence(self):
        # Planted violation: thread 1 visits barrier 2 where thread 0
        # visited barrier 1.
        log = SyncEventLog(2)
        for gseq, bid in enumerate([0, 1]):
            log.on_sync(0, SYNC_BARRIER, bid, None, gseq)
        for gseq, bid in enumerate([0, 2], start=2):
            log.on_sync(1, SYNC_BARRIER, bid, None, gseq)
        findings = check_barrier_divergence(log)
        assert _rules(findings) == {"CONC002"}
        assert "position 1" in findings[0].message

    def test_identical_barrier_sequences_clean(self):
        log = SyncEventLog(2)
        gseq = 0
        for bid in (0, 1, 2):
            for tid in (0, 1):
                log.on_sync(tid, SYNC_BARRIER, bid, None, gseq)
                gseq += 1
        assert check_barrier_divergence(log) == []


# ---------------------------------------------------------------------------
# pipeline-config checks: the former CONF001/CONF004 rules now raise where
# the options are parsed (ReproScale's CONF002 check is in test_config).


class TestConfigPasses:
    def test_oversized_flow_window(self):
        workload = get_workload("demo-matrix-1", None, 4, scale=TINY)
        with pytest.raises(WorkloadError, match="flow-control window"):
            LoopPointPipeline(workload, options=LoopPointOptions(
                scale=TINY, slice_size=2 * DEFAULT_FLOW_WINDOW - 1,
            ))

    def test_default_window_ok_for_roomy_slices(self):
        workload = get_workload("demo-matrix-1", None, 4, scale=TINY)
        for slice_size in (2 * DEFAULT_FLOW_WINDOW, 30_000):
            pipeline = LoopPointPipeline(workload, options=LoopPointOptions(
                scale=TINY, slice_size=slice_size,
            ))
            assert pipeline.slice_size == slice_size

    def test_bad_startup_fraction(self):
        for bad in (-0.1, 1.5):
            with pytest.raises(WorkloadError, match="startup_fraction"):
                LoopPointOptions(startup_fraction=bad)
        # 1.0 parses; select() rejects it by name once the profile shows
        # every slice is barred.
        for ok in (0.0, 1.0):
            options = LoopPointOptions(startup_fraction=ok)
            assert options.startup_fraction == ok


# ---------------------------------------------------------------------------
# end-to-end: runner + CLIs


class TestEndToEnd:
    def test_options_reject_unknown_rule(self):
        with pytest.raises(ValueError):
            LintOptions(disable=frozenset({"BOGUS999"}))

    def test_demo_workload_lints_clean(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        from repro.lint.cli import main

        assert main(["demo-matrix-1", "-n", "4"]) == 0

    def test_cli_json_output(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        from repro.lint.cli import main

        code = main(["demo-matrix-1", "-n", "4", "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert "demo-matrix-1" in data["subject"]
        assert data["passes_run"] == ["concurrency", "markers", "dominance"]
        assert set(data["family_sources"].values()) == {"computed"}

    def test_cli_list_rules(self, capsys):
        from repro.lint.cli import main

        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("MARK001", "MARK006", "CONC003", "CONF005"):
            assert rule_id in out

    def test_run_looppoint_lint_flag(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        from repro.cli import main

        assert main(["-p", "demo-matrix-1", "-n", "4", "--lint",
                     "--no-fullsim"]) == 0

    @pytest.mark.parametrize("rule_id", ["BOGUS", "MARK004"])
    def test_run_looppoint_rejects_unknown_disable(self, capsys, rule_id):
        """An unknown id — a typo, or a rule lint no longer has — exits 2
        naming the flag and the id, before any workload is built."""
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["-p", "demo-matrix-1", "-n", "4", "--lint",
                  "--disable", rule_id])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--disable" in err and rule_id in err

    def test_run_looppoint_rejects_unknown_disable_without_lint(
        self, capsys
    ):
        """Without --lint the flag does nothing, but an unknown id is
        still a typo: same exit 2 and message, before any workload is
        built."""
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["-p", "demo-matrix-1", "-n", "4", "--no-fullsim",
                  "--disable", "BOGUS"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--disable: unknown rule id(s)" in err and "BOGUS" in err

    def test_error_finding_forces_nonzero_exit(self):
        # The CLIs return report.exit_code; one error must flip it to 1.
        report = LintReport(subject="t")
        report.add(make_finding("MARK001", "n", "broken"))
        assert report.exit_code == 1

    def test_pipeline_lint_option(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        scale = get_scale()
        workload = get_workload("demo-matrix-1", None, 4, scale=scale)
        pipeline = LoopPointPipeline(
            workload, options=LoopPointOptions(scale=scale)
        )
        pipeline.run(simulate_full=False)
        report = lint_pipeline(pipeline)
        assert report is not None
        assert report.exit_code == 0
