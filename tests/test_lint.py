"""Tests for the repro.lint static-analysis subsystem.

Each pass family gets a planted violation: a spin-loop marker, a broken
flow-conservation graph, a lock-order cycle, a divergent barrier sequence —
and the test asserts the expected rule id fires (and nothing unrelated
does on clean inputs).
"""

import json

import numpy as np
import pytest

from repro.config import get_scale
from repro.core.looppoint import LoopPointOptions, LoopPointPipeline
from repro.dcfg import DCFG
from repro.dcfg.graph import ENTRY
from repro.exec_engine.events import (
    SYNC_BARRIER,
    SYNC_LOCK_ACQ,
    SYNC_LOCK_REL,
)
from repro.errors import WorkloadError
from repro.exec_engine.flowcontrol import DEFAULT_FLOW_WINDOW
from repro.exec_engine.observers import SyncEventLog
from repro.isa import ProgramBuilder
from repro.lint import Finding, LintOptions, LintReport, RULES, Severity
from repro.lint.concurrency_passes import (
    ConcurrencyAnalyzer,
    check_barrier_divergence,
    check_gseq_integrity,
    check_lock_order,
    check_races,
)
from repro.lint.dcfg_passes import (
    check_dominators,
    check_flow_conservation,
    check_irreducibility,
    check_reachability,
)
from repro.lint.findings import make_finding
from repro.lint.runner import lint_pipeline
from repro.lint.marker_passes import check_marker_blocks, check_monotone_counts
from repro.profiling import Marker
from repro.profiling.slicer import Slice
from repro.workloads.registry import get_workload

from conftest import build_toy

TINY = get_scale("tiny")


def _graph(edges):
    pb = ProgramBuilder("g")
    rt = pb.routine("r")
    for i in range(10):
        rt.block(f"b{i}", ialu=1)
    program = pb.finalize()
    g = DCFG(program)
    for src, dst, count in edges:
        g.add_edge(src, dst, count)
    return g


def _rules(findings):
    return {f.rule_id for f in findings}


# ---------------------------------------------------------------------------
# diagnostics core


class TestFindings:
    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError):
            Finding("NOPE999", Severity.ERROR, "here", "boom")

    def test_default_severity_from_registry(self):
        f = make_finding("DCFG003", "x", "y")
        assert f.severity is Severity.WARNING
        f = make_finding("DCFG001", "x", "y")
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
# DCFG structural passes


class TestDCFGPasses:
    def test_clean_diamond(self):
        g = _graph([(ENTRY, 0, 2), (0, 1, 1), (0, 2, 1), (1, 3, 1),
                    (2, 3, 1)])
        g.node_counts.update({0: 2, 1: 1, 2: 1, 3: 2})
        assert check_flow_conservation(g, nthreads=2) == []
        assert check_reachability(g) == []
        assert check_dominators(g) == []

    def test_broken_flow_conservation(self):
        # Node 0 emits more flow than it receives: impossible execution.
        g = _graph([(ENTRY, 0, 1), (0, 1, 5)])
        findings = check_flow_conservation(g, nthreads=1)
        assert "DCFG001" in _rules(findings)
        assert any("out-flow" in f.message for f in findings)

    def test_execution_count_mismatch(self):
        g = _graph([(ENTRY, 0, 1), (0, 1, 1)])
        g.node_counts.update({0: 7, 1: 1})  # in-flow of 0 is 1, not 7
        findings = check_flow_conservation(g)
        assert any("recorded executions" in f.message for f in findings)

    def test_thread_deficit_checked(self):
        # Exactly one thread terminates (deficit 1), but the pinball claims
        # two threads ran: one thread's trace vanished without a trace.
        g = _graph([(ENTRY, 0, 1), (0, 1, 1), (1, 0, 1)])
        findings = check_flow_conservation(g, nthreads=2)
        assert any("deficit" in f.message for f in findings)

    def test_unreachable_node(self):
        g = _graph([(ENTRY, 0, 1), (5, 6, 1)])
        findings = check_reachability(g)
        assert _rules(findings) == {"DCFG002"}

    def test_irreducible_cycle_flagged_as_warning(self):
        g = _graph([(ENTRY, 0, 1), (0, 1, 1), (0, 2, 1),
                    (1, 2, 3), (2, 1, 3)])
        findings = check_irreducibility(g)
        assert _rules(findings) == {"DCFG003"}
        assert all(f.severity is Severity.WARNING for f in findings)

    def test_reducible_loop_not_flagged(self):
        g = _graph([(ENTRY, 0, 1), (0, 1, 5), (1, 0, 4), (0, 2, 1)])
        assert check_irreducibility(g) == []

    def test_dominator_cross_check_clean_on_irreducible(self):
        # CHK and the oracle must agree even where no natural loops exist.
        g = _graph([(ENTRY, 0, 1), (0, 1, 1), (0, 2, 1),
                    (1, 2, 3), (2, 1, 3), (1, 1, 8)])
        assert check_dominators(g) == []


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

    def test_unknown_pc_rejected(self, toy_program):
        findings = check_marker_blocks(toy_program, [0xDEAD0000])
        assert _rules(findings) == {"MARK005"}

    def test_valid_marker_clean(self, toy_program):
        hdr = toy_program.routine("compute").entry
        assert hdr.is_loop_header
        assert check_marker_blocks(toy_program, [hdr.pc]) == []

    def _slice(self, index, start, end):
        return Slice(
            index=index, start=start, end=end, bbv=np.zeros(4),
            filtered_instructions=100, total_instructions=120,
            per_thread_filtered=[25, 25, 25, 25],
            start_filtered=index * 100,
        )

    def test_monotone_counts_clean(self):
        a, b = Marker(0x400, 10), Marker(0x400, 20)
        slices = [self._slice(0, None, a), self._slice(1, a, b),
                  self._slice(2, b, None)]
        assert check_monotone_counts(slices) == []

    def test_non_increasing_count_flagged(self):
        a, b = Marker(0x400, 10), Marker(0x400, 10)  # count did not advance
        slices = [self._slice(0, None, a), self._slice(1, a, b),
                  self._slice(2, b, None)]
        findings = check_monotone_counts(slices)
        assert _rules(findings) == {"MARK003"}

    def test_disjoint_boundaries_flagged(self):
        a, b = Marker(0x400, 10), Marker(0x400, 20)
        slices = [self._slice(0, None, a),
                  self._slice(1, Marker(0x400, 11), b)]  # start != prev end
        findings = check_monotone_counts(slices)
        assert _rules(findings) == {"MARK003"}

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
        an.on_block(0, block, 1, 0)
        an.on_sync(0, SYNC_LOCK_REL, 1, None, 1)
        # Advance t1's clock without ordering it against t0.
        an.on_sync(1, SYNC_LOCK_ACQ, 2, None, 2)
        an.on_sync(1, SYNC_LOCK_REL, 2, None, 3)
        an.on_block(1, block, 1, 0)
        findings = check_races(an)
        assert _rules(findings) == {"CONC003"}

    def test_release_acquire_orders_accesses(self):
        # Same shape, but t1 takes the same lock: release->acquire edge
        # orders the accesses, so no race.
        an = ConcurrencyAnalyzer(2)
        block = _FakeBlock(3)
        an.on_sync(0, SYNC_LOCK_ACQ, 1, None, 0)
        an.on_block(0, block, 1, 0)
        an.on_sync(0, SYNC_LOCK_REL, 1, None, 1)
        an.on_sync(1, SYNC_LOCK_ACQ, 1, None, 2)
        an.on_sync(1, SYNC_LOCK_REL, 1, None, 3)
        an.on_block(1, block, 1, 0)
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
        assert check_gseq_integrity(log) == []

    def test_gseq_duplicate_and_gap(self):
        log = SyncEventLog(1)
        for g in (0, 1, 1, 3):  # 1 duplicated, 2 missing
            log.on_sync(0, SYNC_BARRIER, 0, None, g)
        findings = check_gseq_integrity(log)
        assert _rules(findings) == {"CONC004"}
        assert len(findings) == 2


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

        code = main(["demo-matrix-1", "-n", "4", "--json", "--no-invariance"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert "demo-matrix-1" in data["subject"]
        assert set(data["passes_run"]) == {
            "dcfg", "concurrency", "perf", "markers", "invariance",
            "dominance", "xar", "live",
        }
        # --no-invariance skips the family instead of silently running it.
        assert data["family_sources"]["invariance"] == "skipped"
        # Offline run: the live audit has nothing to check.
        assert data["family_sources"]["live"] == "skipped"

    def test_cli_list_rules(self, capsys):
        from repro.lint.cli import main

        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("DCFG001", "MARK004", "CONC003", "CONF005"):
            assert rule_id in out

    def test_run_looppoint_lint_flag(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        from repro.cli import main

        assert main(["-p", "demo-matrix-1", "-n", "4", "--lint",
                     "--no-fullsim"]) == 0

    def test_error_finding_forces_nonzero_exit(self):
        # The CLIs return report.exit_code; one error must flip it to 1.
        report = LintReport(subject="t")
        report.add(make_finding("DCFG001", "n", "broken"))
        assert report.exit_code == 1

    def test_pipeline_lint_option(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        scale = get_scale()
        workload = get_workload("demo-matrix-1", None, 4, scale=scale)
        pipeline = LoopPointPipeline(
            workload, options=LoopPointOptions(scale=scale, lint=True)
        )
        result = pipeline.run(simulate_full=False)
        assert result.lint_report is not None
        assert result.lint_report.exit_code == 0
