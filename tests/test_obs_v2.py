"""Observability v2: attribution, history, reader.

Covers the second-generation obs contracts:

* per-cluster error attributions **reconcile** — they sum to the total
  extrapolation error by construction (Eq. (2)-style, on the demo and an
  NPB workload, offline and live);
* the run-history store appends crash-safely, enforces retention, and
  its regression gate passes identical reruns while failing a seeded
  accuracy regression, and its loader rejects records that would poison
  the gate's baseline; a window or row count below 1 is refused;
* the bounded trace reader keeps truncation/corruption accounting
  correct across multi-segment traces, and refuses budgets below 1.
"""

from __future__ import annotations

import json
import os

import pytest

from conftest import TEST_SCALE
from repro.core.looppoint import LoopPointOptions, LoopPointPipeline
from repro.obs import (
    HistoryError,
    HistoryRecord,
    HistoryStore,
    TraceError,
    TraceLimits,
    attribute_error,
    check_regression,
    read_trace,
    render_diff,
    render_report,
)
from repro.obs.cli import main as obs_main
from repro.obs.history import history_path_for
from repro.workloads.demo import build_demo_matrix
from repro.workloads.registry import get_workload


def _options(**kw):
    kw.setdefault("scale", TEST_SCALE)
    return LoopPointOptions(**kw)


def _write_lines(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


def _start(pid=100, trace_id="t0", mono=50.0):
    return {"type": "trace-start", "schema": "repro-trace/1",
            "trace_id": trace_id, "pid": pid, "epoch": 1000.0, "mono": mono}


def _span(span_id, name, pid=100, t0=50.0, dur=1.0, parent=None, **attrs):
    record = {"type": "span", "id": span_id, "name": name, "pid": pid,
              "t0": t0, "dur": dur, "cpu": dur / 2}
    if parent is not None:
        record["parent"] = parent
    if attrs:
        record["attrs"] = attrs
    return record


def _end(pid=100, trace_id="t0", spans=0, open_spans=0):
    return {"type": "trace-end", "trace_id": trace_id, "pid": pid,
            "spans": spans, "open_spans": open_spans}


def _metrics(counters=None, gauges=None, histograms=None, pid=100):
    return {"type": "metrics", "trace_id": "t0", "pid": pid, "scope": "run",
            "metrics": {"counters": counters or {}, "gauges": gauges or {},
                        "histograms": histograms or {}}}


def _hist_dict():
    from repro.obs.metrics import Histogram

    h = Histogram()
    for v in (0.001, 0.002, 0.5, 2.0):
        h.observe(v)
    return h.as_dict()


def _record(ts, err=1.0, **kw):
    defaults = dict(
        workload="demo/demo-matrix-1.test.4t", mode="offline", ts=ts,
        run_id=f"run{ts:.0f}", runtime_error_pct=err,
        wall_s=0.5, predicted_cycles=1000,
    )
    defaults.update(kw)
    return HistoryRecord(**defaults)


# ---------------------------------------------------------------------------
# Error attribution: the allocation math.
# ---------------------------------------------------------------------------


def _residue(att):
    """|sum(per-cluster errors) - total|: zero modulo float rounding."""
    if att.total_error_cycles is None:
        return 0.0
    return abs(
        sum(c.error_cycles or 0.0 for c in att.clusters)
        - att.total_error_cycles
    )


class TestAttribution:
    def test_shares_follow_scores_and_reconcile(self):
        att = attribute_error(
            [(0, 10.0, 1.0), (1, 30.0, 3.0)],
            predicted_cycles=110.0, actual_cycles=100.0,
        )
        assert att.total_error_cycles == pytest.approx(10.0)
        assert [c.share for c in att.clusters] == pytest.approx([0.25, 0.75])
        assert [c.error_cycles for c in att.clusters] == pytest.approx(
            [2.5, 7.5]
        )
        assert _residue(att) < 1e-9

    def test_zero_scores_fall_back_to_mass_proportions(self):
        att = attribute_error(
            [(0, 10.0, 0.0), (1, 30.0, 0.0)],
            predicted_cycles=90.0, actual_cycles=100.0,
        )
        assert [c.share for c in att.clusters] == pytest.approx([0.25, 0.75])
        # The signed total is negative; the allocation still reconciles.
        assert sum(c.error_cycles for c in att.clusters) == pytest.approx(-10.0)

    def test_zero_scores_and_masses_fall_back_to_uniform(self):
        att = attribute_error(
            [(0, 0.0, 0.0), (1, 0.0, 0.0)],
            predicted_cycles=110.0, actual_cycles=100.0,
        )
        assert [c.share for c in att.clusters] == pytest.approx([0.5, 0.5])

    def test_bad_scores_clamp_to_zero(self):
        att = attribute_error(
            [(0, 1.0, -5.0), (1, 1.0, float("nan")),
             (2, 1.0, float("inf")), (3, 1.0, 2.0)],
            predicted_cycles=110.0, actual_cycles=100.0,
        )
        assert [c.score for c in att.clusters] == [0.0, 0.0, 0.0, 2.0]
        assert att.clusters[3].share == pytest.approx(1.0)
        assert _residue(att) < 1e-9

    def test_no_reference_means_no_error_cycles(self):
        att = attribute_error([(0, 1.0, 1.0)], predicted_cycles=110.0)
        assert att.total_error_cycles is None
        assert att.clusters[0].error_cycles is None
        assert att.clusters[0].share == pytest.approx(1.0)
        assert _residue(att) == 0.0

    def test_top_orders_by_error_magnitude(self):
        att = attribute_error(
            [(0, 1.0, 1.0), (1, 1.0, 5.0), (2, 1.0, 2.0)],
            predicted_cycles=92.0, actual_cycles=100.0,
        )
        assert [c.cluster_id for c in att.top(2)] == [1, 2]


class TestAttributionReconciliation:
    """The reconciliation acceptance bar: emitted per-cluster attributions
    sum to the total extrapolation error, on real pipeline runs."""

    def _check_trace(self, path, result):
        data = read_trace(path)
        gauges = data.gauges()
        total = gauges["attribution.total_error_cycles"]
        expected = (
            float(result.predicted.cycles) - float(result.actual.cycles)
        )
        assert total == pytest.approx(expected, abs=1e-6)
        errors = [
            v for name, v in gauges.items()
            if name.startswith("attribution.cluster.")
            and name.endswith(".error_cycles")
        ]
        shares = [
            v for name, v in gauges.items()
            if name.startswith("attribution.cluster.")
            and name.endswith(".share")
        ]
        assert len(errors) == len(shares) == result.num_looppoints
        assert sum(errors) == pytest.approx(total, abs=1e-4)
        assert sum(shares) == pytest.approx(1.0, abs=1e-6)
        assert all(s >= 0 for s in shares)
        # The stage span carries the top contributors for triage.
        (span,) = [s for s in data.spans if s.name == "stage:attribution"]
        top = span.attrs["attribution_top"]
        assert top and all(len(entry) == 2 for entry in top)

    def test_demo_offline(self, tmp_path):
        workload = build_demo_matrix(1, nthreads=4, scale=TEST_SCALE)
        path = str(tmp_path / "demo.trace.jsonl")
        result = LoopPointPipeline(
            workload, options=_options(trace_path=path)
        ).run(simulate_full=True)
        self._check_trace(path, result)

    def test_npb_offline(self, tmp_path):
        workload = get_workload("npb-is", None, 4, scale=TEST_SCALE)
        path = str(tmp_path / "npb.trace.jsonl")
        result = LoopPointPipeline(
            workload, options=_options(trace_path=path)
        ).run(simulate_full=True)
        self._check_trace(path, result)

    def test_demo_live(self, tmp_path):
        workload = build_demo_matrix(1, nthreads=4, scale=TEST_SCALE)
        path = str(tmp_path / "live.trace.jsonl")
        result = LoopPointPipeline(
            workload, options=_options(trace_path=path)
        ).run_live(simulate_full=True)
        data = read_trace(path)
        gauges = data.gauges()
        total = gauges["attribution.total_error_cycles"]
        assert total == pytest.approx(
            float(result.predicted.cycles) - float(result.actual.cycles),
            abs=1e-6,
        )
        errors = [
            v for name, v in gauges.items()
            if name.startswith("attribution.cluster.")
            and name.endswith(".error_cycles")
        ]
        assert sum(errors) == pytest.approx(total, abs=1e-4)

    def test_untraced_run_is_bit_identical(self, tmp_path):
        """The attribution stage must not perturb the null path."""
        workload = build_demo_matrix(1, nthreads=4, scale=TEST_SCALE)
        plain = LoopPointPipeline(
            workload, options=_options()
        ).run(simulate_full=True)
        traced = LoopPointPipeline(
            build_demo_matrix(1, nthreads=4, scale=TEST_SCALE),
            options=_options(trace_path=str(tmp_path / "t.trace.jsonl")),
        ).run(simulate_full=True)
        assert plain.predicted == traced.predicted
        assert plain.actual == traced.actual


# ---------------------------------------------------------------------------
# Run-history store + regression gate.
# ---------------------------------------------------------------------------


class TestHistoryStore:
    def test_append_load_round_trip(self, tmp_path):
        path = str(tmp_path / "h.jsonl")
        store = HistoryStore(path)
        store.append(_record(1.0, counters={"fallbacks": 0, "slices": 6}))
        store.append(_record(2.0, mode="live", err=None))
        records, corrupt = store.load()
        assert corrupt == 0
        assert [r.ts for r in records] == [1.0, 2.0]
        assert records[0].counters == {"fallbacks": 0, "slices": 6}
        assert records[1].runtime_error_pct is None
        assert records[1].mode == "live"

    def test_line_with_retired_coverage_field_loads(self, tmp_path, capsys):
        # Records used to carry coverage_pct (and a retries counter);
        # such lines load as they were, with the retired field ignored.
        path = str(tmp_path / "h.jsonl")
        old = _record(1.0, counters={"retries": 0, "fallbacks": 0}).as_dict()
        old["coverage_pct"] = 100.0
        _write_lines(path, [old])
        store = HistoryStore(path)
        assert store.append(_record(2.0)) == 2
        records, corrupt = store.load()
        assert corrupt == 0
        del old["coverage_pct"]
        assert records[0].as_dict() == old
        assert obs_main(["history", path, "--check"]) == 0
        assert "history check OK" in capsys.readouterr().out

    def test_torn_line_skipped_and_counted(self, tmp_path):
        path = str(tmp_path / "h.jsonl")
        HistoryStore(path).append(_record(1.0))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"workload": "demo", "ts"')  # torn: no newline flush
        records, corrupt = HistoryStore(path).load()
        assert len(records) == 1 and corrupt == 1
        # Appending after the torn line still yields parseable records:
        # the torn fragment merges into the next line and is skipped.
        HistoryStore(path).append(_record(2.0))
        records, corrupt = HistoryStore(path).load()
        assert [r.ts for r in records] == [1.0] and corrupt == 1

    @pytest.mark.parametrize("fragment", [
        '{"schema": "repro-his',
        '{"schema": "repro-history/1", "ts": 1.5',
        '{"schema": "repro-history/1", "ts": ',
        "not json at all",
        "}",
    ], ids=[
        "cut-mid-value", "cut-mid-number", "cut-after-colon", "plain-text",
        "stray-brace",
    ])
    def test_torn_line_between_records_is_skipped(self, tmp_path, fragment):
        path = str(tmp_path / "h.jsonl")
        _write_lines(path, [_record(1.0).as_dict()])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(fragment + "\n")
            fh.write(json.dumps(_record(2.0).as_dict()) + "\n")
        records, corrupt = HistoryStore(path).load()
        assert [r.ts for r in records] == [1.0, 2.0] and corrupt == 1

    @pytest.mark.parametrize("line", ["null", "[1, 2]", '"run"', "3"],
                             ids=["null", "array", "string", "number"])
    def test_parsed_non_object_line_is_refused(self, tmp_path, line):
        # Valid JSON is not a torn write: the loader names the line
        # instead of silently counting it as corrupt.
        path = str(tmp_path / "h.jsonl")
        _write_lines(path, [_record(1.0).as_dict()])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        with pytest.raises(HistoryError, match=r"h\.jsonl:2: .*not an object"):
            HistoryStore(path).load()

    def test_blank_lines_are_not_torn(self, tmp_path):
        path = tmp_path / "h.jsonl"
        line = json.dumps(_record(1.0).as_dict())
        path.write_text(f"\n{line}\n  \n\n")
        records, corrupt = HistoryStore(str(path)).load()
        assert [r.ts for r in records] == [1.0] and corrupt == 0

    def test_retention_compacts_to_newest(self, tmp_path):
        path = str(tmp_path / "h.jsonl")
        store = HistoryStore(path, max_records=3)
        for ts in range(1, 6):
            store.append(_record(float(ts)))
        records, _ = store.load()
        assert [r.ts for r in records] == [3.0, 4.0, 5.0]

    def test_history_path_for_is_namespaced(self, tmp_path):
        path = history_path_for(str(tmp_path), "demo/demo-matrix-1")
        assert path.endswith("history/demo_demo-matrix-1.history.jsonl")


class TestRegressionGate:
    def test_identical_reruns_pass(self):
        records = [_record(float(ts), err=1.5) for ts in range(1, 6)]
        assert check_regression(records) == []

    def test_single_record_passes(self):
        assert check_regression([_record(1.0)]) == []

    def test_seeded_error_regression_fails(self):
        records = [_record(float(ts), err=1.0) for ts in range(1, 5)]
        records.append(_record(5.0, err=3.0))
        (regression,) = check_regression(records)
        assert regression.metric == "runtime_error_pct"
        assert "exceeds" in regression.detail

    def test_small_wobble_passes(self):
        records = [_record(float(ts), err=2.0) for ts in range(1, 5)]
        records.append(_record(5.0, err=2.3))  # < base+0.5pp and < base*1.25
        assert check_regression(records) == []

    def test_window_bounds_the_baseline(self):
        # Ancient bad runs outside the window must not mask a regression.
        records = [_record(float(ts), err=9.0) for ts in range(1, 4)]
        records += [_record(float(ts), err=1.0) for ts in range(4, 9)]
        records.append(_record(9.0, err=5.0))
        assert check_regression(records, window=5)
        assert check_regression(records, window=50) == []

    @pytest.mark.parametrize("window", [0, -10])
    def test_window_below_one_rejected(self, window):
        # An empty baseline would pass any regression.
        records = [_record(float(ts), err=1.0) for ts in range(1, 4)]
        records.append(_record(4.0, err=10.0))
        with pytest.raises(ValueError, match="window"):
            check_regression(records, window=window)

    def test_window_of_one_is_the_previous_run(self):
        # The smallest legal window judges the newest run against the one
        # run before it, not a wider baseline.
        records = [_record(float(ts), err=1.0) for ts in range(1, 4)]
        records += [_record(4.0, err=10.0), _record(5.0, err=10.0)]
        assert check_regression(records, window=1) == []
        (regression,) = check_regression(records, window=4)
        assert regression.metric == "runtime_error_pct"


class TestHistoryCli:
    def test_trend_and_check_pass(self, tmp_path, capsys):
        path = str(tmp_path / "h.jsonl")
        store = HistoryStore(path)
        for ts in (1.0, 2.0):
            store.append(_record(ts, err=1.5))
        assert obs_main(["history", path]) == 0
        out = capsys.readouterr().out
        assert "run history" in out and "1.500%" in out
        assert obs_main(["history", path, "--check"]) == 0
        assert "history check OK" in capsys.readouterr().out

    def test_check_fails_on_regression(self, tmp_path, capsys):
        path = str(tmp_path / "h.jsonl")
        store = HistoryStore(path)
        for ts in (1.0, 2.0, 3.0):
            store.append(_record(ts, err=1.0))
        store.append(_record(4.0, err=4.0))
        assert obs_main(["history", path, "--check"]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    @pytest.mark.parametrize("flag,value", [
        ("--window", "0"), ("--window", "-10"),
        ("--last", "0"), ("--last", "-2"),
    ])
    def test_count_below_one_exits_2(self, tmp_path, capsys, flag, value):
        path = str(tmp_path / "h.jsonl")
        store = HistoryStore(path)
        for ts in (1.0, 2.0, 3.0):
            store.append(_record(ts, err=1.0))
        store.append(_record(4.0, err=10.0))
        with pytest.raises(SystemExit) as exc:
            obs_main(["history", path, "--check", flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_window_of_one_accepted(self, tmp_path, capsys):
        path = str(tmp_path / "h.jsonl")
        store = HistoryStore(path)
        for ts in (1.0, 2.0, 3.0):
            store.append(_record(ts, err=1.0))
        for ts in (4.0, 5.0):
            store.append(_record(ts, err=10.0))
        assert obs_main(["history", path, "--check", "--window", "1"]) == 0
        assert "(1 prior run(s))" in capsys.readouterr().out
        assert obs_main(["history", path, "--check", "--window", "4"]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert obs_main(["history", str(tmp_path / "none.jsonl")]) == 2
        assert "no history records" in capsys.readouterr().err

    def test_invalid_record_exits_2(self, tmp_path, capsys):
        path = str(tmp_path / "h.jsonl")
        HistoryStore(path).append(_record(1.0))
        bad = _record(2.0).as_dict()
        bad["schema"] = "repro-history/0"
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(bad) + "\n")
        assert obs_main(["history", path, "--check"]) == 2
        assert "schema marker" in capsys.readouterr().err

    def test_run_survives_a_damaged_history_file(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.cli import main

        monkeypatch.setenv("REPRO_SCALE", "tiny")
        cache = str(tmp_path / "cache")
        path = history_path_for(cache, "demo-matrix-1")
        os.makedirs(os.path.dirname(path))
        bad = _record(1.0).as_dict()
        del bad["mode"]
        _write_lines(path, [bad])
        assert main(["-p", "demo-matrix-1", "-n", "4", "--no-fullsim",
                     "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "append failed" in out and "run unaffected" in out
        # Nothing was written behind the bad line.
        with open(path, encoding="utf-8") as fh:
            assert len(fh.readlines()) == 1


class TestHistoryLint:
    """The loader rejects what the retired lint audit used to report."""

    def test_clean_file_passes(self, tmp_path):
        path = str(tmp_path / "h.jsonl")
        store = HistoryStore(path)
        store.append(_record(1.0))
        store.append(_record(2.0))
        records, corrupt = store.load()
        assert [r.ts for r in records] == [1.0, 2.0] and corrupt == 0

    def test_wrong_schema_and_backwards_time_flagged(self, tmp_path):
        path = str(tmp_path / "h.jsonl")
        good = _record(5.0).as_dict()
        stale = _record(1.0).as_dict()
        bad_schema = _record(6.0).as_dict()
        bad_schema["schema"] = "repro-history/0"
        _write_lines(path, [good, stale])
        with pytest.raises(HistoryError, match=r"h\.jsonl:2: .*precedes"):
            HistoryStore(path).load()
        _write_lines(path, [good, bad_schema])
        with pytest.raises(HistoryError, match="schema marker"):
            HistoryStore(path).load()

    def test_missing_fields_flagged(self, tmp_path):
        path = str(tmp_path / "h.jsonl")
        doc = _record(1.0).as_dict()
        del doc["run_id"]
        _write_lines(path, [doc])
        with pytest.raises(HistoryError, match="run_id"):
            HistoryStore(path).load()
        doc = _record(1.0).as_dict()
        doc["mode"] = "speculative"
        _write_lines(path, [doc])
        with pytest.raises(HistoryError, match="neither"):
            HistoryStore(path).load()

    @pytest.mark.parametrize("field", ["wall_s", "mode", "schema"])
    def test_missing_field_is_not_defaulted(self, tmp_path, field):
        # A default would enter the trend as wall 0.0 or mode "offline";
        # the loader must refuse the line instead.
        path = str(tmp_path / "h.jsonl")
        doc = _record(1.0).as_dict()
        del doc[field]
        _write_lines(path, [_record(0.5).as_dict(), doc])
        with pytest.raises(HistoryError, match=field):
            HistoryStore(path).load()

    def test_append_refuses_a_backwards_clock(self, tmp_path):
        path = str(tmp_path / "h.jsonl")
        store = HistoryStore(path)
        store.append(_record(5.0))
        with pytest.raises(HistoryError, match="precedes"):
            store.append(_record(4.0))
        # The refused record was never written: the file still loads.
        records, corrupt = store.load()
        assert [r.ts for r in records] == [5.0] and corrupt == 0
        assert store.append(_record(5.0)) == 2


# ---------------------------------------------------------------------------
# Bounded reader across multi-segment traces (appended runs).
# ---------------------------------------------------------------------------


class TestTraceLimits:
    @pytest.mark.parametrize(
        "field", ["max_bytes", "max_spans", "max_line_bytes"]
    )
    @pytest.mark.parametrize("value", [0, -5])
    def test_budget_below_one_rejected(self, field, value):
        with pytest.raises(TraceError, match=field):
            TraceLimits(**{field: value})

    @pytest.mark.parametrize("flag,value", [
        ("--max-bytes", "0"), ("--max-bytes", "-5"),
        ("--max-spans", "0"), ("--max-spans", "-1"),
    ])
    def test_cli_budget_below_one_exits_2(self, tmp_path, capsys, flag, value):
        path = str(tmp_path / "t.jsonl")
        _write_lines(path, [_start(), _span("64.1", "run"), _end(spans=1)])
        with pytest.raises(SystemExit) as exc:
            obs_main([flag, value, "report", path])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_budget_of_one_accepted(self):
        limits = TraceLimits(max_bytes=1, max_spans=1, max_line_bytes=1)
        assert (limits.max_bytes, limits.max_spans, limits.max_line_bytes) == (
            1, 1, 1,
        )

    def test_cli_span_budget_of_one_truncates(self, tmp_path, capsys):
        path = str(tmp_path / "t.jsonl")
        _write_lines(path, [
            _start(), _span("64.1", "run"),
            _span("64.2", "stage:profile", parent="64.1"), _end(spans=2),
        ])
        assert obs_main(["--max-spans", "1", "report", path]) == 0
        assert "TRUNCATED" in capsys.readouterr().out


class TestMultiSegmentReader:
    def test_corruption_in_earlier_segment_stays_counted(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        _write_lines(path, [_start(trace_id="t0"), _span("64.1", "run"),
                            _end(trace_id="t0", spans=1)])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"type": "span", "id"\n')  # torn write, segment 1
        with open(path, "a", encoding="utf-8") as fh:
            for record in [_start(trace_id="t1"),
                           _span("64.9", "run", t0=60.0),
                           _end(trace_id="t1", spans=1)]:
                fh.write(json.dumps(record) + "\n")
        data = read_trace(path)
        assert data.segments == 2
        assert data.trace_id == "t1"
        # Spans reset to the last segment; damage accounting does not.
        assert [s.span_id for s in data.spans] == ["64.9"]
        assert data.corrupt_lines == 1
        assert "corrupt_lines=1" in render_report(data).splitlines()[1]

    def test_span_budget_truncates_across_segments(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        first = [_start(trace_id="t0")] + [
            _span(f"64.{i}", f"s{i}") for i in range(2)
        ] + [_end(trace_id="t0", spans=2)]
        second = [_start(trace_id="t1")] + [
            _span(f"65.{i}", f"x{i}") for i in range(6)
        ] + [_end(trace_id="t1", spans=6)]
        _write_lines(path, first + second)
        # The span budget bounds *accumulated* spans, which a trace-start
        # resets — so a small first segment parses whole and the budget
        # runs out inside the larger SECOND segment.
        data = read_trace(path, TraceLimits(max_spans=4))
        assert data.truncated
        assert data.segments == 2
        assert all(s.span_id.startswith("65.") for s in data.spans)
        assert len(data.spans) == 4
        # Budget runs out inside the FIRST segment: the reader never even
        # reaches the second trace-start.
        data = read_trace(path, TraceLimits(max_spans=2))
        assert data.truncated
        assert data.segments == 1
        assert all(s.span_id.startswith("64.") for s in data.spans)
        # The BYTE budget is global (it bounds the read, not a segment):
        # exhausting it mid-file leaves only the first segment parsed.
        data = read_trace(path, TraceLimits(max_bytes=300))
        assert data.truncated
        assert data.segments == 1

    def test_worker_records_bind_to_last_segment(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        segment2 = [
            _start(trace_id="t1", pid=100),
            _span("64.1", "run", pid=100),
            {"type": "process", "pid": 300, "epoch": 2000.0, "mono": 1.0},
            _span("c8.1", "region:0", pid=300, t0=1.1, dur=0.2,
                  parent="64.1"),
            _end(trace_id="t1", pid=100, spans=2),
        ]
        _write_lines(path, [_start(trace_id="t0"), _span("9.1", "old"),
                            _end(trace_id="t0", spans=1)] + segment2)
        data = read_trace(path)
        assert data.segments == 2
        assert 300 in data.clocks
        worker = {s.span_id: s for s in data.spans}["c8.1"]
        assert data.abs_time(worker) == pytest.approx(2000.1)


# ---------------------------------------------------------------------------
# Report v2: histograms, attribution table, error series, fanout guard.
# ---------------------------------------------------------------------------


class TestReportV2:
    def test_histogram_table_shows_true_mean(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        _write_lines(path, [
            _start(), _span("64.1", "run"),
            _metrics(histograms={"job.seconds": _hist_dict()}),
            _end(spans=1),
        ])
        text = render_report(read_trace(path))
        assert "histograms (exact sum/count, true means)" in text
        # mean = (0.001 + 0.002 + 0.5 + 2.0) / 4 = 0.625750
        assert "0.625750" in text

    def test_worker_histograms_merge(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        _write_lines(path, [
            _start(),
            _span("64.1", "run"),
            _metrics(histograms={"job.seconds": _hist_dict()}, pid=100),
            _metrics(histograms={"job.seconds": _hist_dict()}, pid=200),
            _end(spans=1),
        ])
        hist = read_trace(path).histograms()["job.seconds"]
        assert hist.count == 8
        assert hist.total == pytest.approx(2 * 2.503)

    def test_diff_renders_histogram_aggregates(self, tmp_path):
        a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        for path, scale in ((a, 1), (b, 2)):
            hist = _hist_dict()
            hist["count"] *= scale
            hist["sum"] *= scale
            _write_lines(path, [
                _start(), _span("64.1", "run"),
                _metrics(histograms={"job.seconds": hist}), _end(spans=1),
            ])
        text = render_diff(read_trace(a), read_trace(b))
        assert "histogram exact aggregates, A vs B" in text
        assert "job.seconds" in text

    def test_attribution_table_renders_and_sorts(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        _write_lines(path, [
            _start(), _span("64.1", "run"),
            _metrics(gauges={
                "attribution.total_error_cycles": -50.0,
                "attribution.clusters": 2.0,
                "attribution.cluster.0.share": 0.2,
                "attribution.cluster.0.error_cycles": -10.0,
                "attribution.cluster.1.share": 0.8,
                "attribution.cluster.1.error_cycles": -40.0,
            }),
            _end(spans=1),
        ])
        text = render_report(read_trace(path))
        assert "top error contributors" in text
        assert "total extrapolation error -50 cycles" in text
        # Largest |error| first.  The report opens with the trace path,
        # which may itself contain "-10" (pytest-10, pytest-100, ...), so
        # only the table after the section heading is searched.
        table = text[text.index("top error contributors"):]
        assert table.index("-40") < table.index("-10")

    def test_error_series_elides_long_runs(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        estimates = [round(0.5 - 0.03 * i, 4) for i in range(12)]
        _write_lines(path, [
            _start(),
            _span("64.1", "run", t0=50.0, dur=2.0),
            _span("64.2", "live:topup", t0=50.1, dur=0.5, parent="64.1",
                  stage="live", estimates=estimates),
            _metrics(counters={"live.regions": 6, "live.simulated": 2,
                               "live.skipped": 4}),
            _end(spans=2),
        ])
        text = render_report(read_trace(path))
        assert "error-estimate series (12 point(s))" in text
        assert "..." in text
        assert "0.5000" in text and "0.1700" in text

    def test_fanout_guard_survives_garbage_workers_and_zero_dur(
        self, tmp_path
    ):
        path = str(tmp_path / "t.jsonl")
        _write_lines(path, [
            _start(),
            _span("64.1", "run", t0=50.0, dur=2.0),
            _span("64.2", "fanout", t0=50.1, dur=0.0, parent="64.1",
                  workers="garbage"),
            _span("64.3", "region:0", t0=50.1, dur=0.0, parent="64.2"),
            _span("64.4", "fanout", t0=50.2, dur=0.5, parent="64.1",
                  workers=0),
            _end(spans=4),
        ])
        text = render_report(read_trace(path))
        assert "efficiency 0%" in text
        # Garbage coerces to the 1-worker default, zero stays zero.
        assert "on 1 worker(s)" in text
        assert "on 0 worker(s)" in text
