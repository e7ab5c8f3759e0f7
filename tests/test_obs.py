"""Observability: span tracing, metrics, span-tree checks, the repro-obs CLI.

Covers the contracts the obs subsystem promises:

* spans nest, carry attributes, and survive the worker-process boundary
  (``jobs=4`` region-pinball spans stitch under the parent's fan-out
  span);
* telemetry is deterministic modulo timestamps — two seeded runs produce
  identical counters;
* the NullTracer fast path is bit-identical to an untraced run;
* malformed span trees are named in ``repro-obs report``'s header and
  make it exit 1, and the bounded parser flags truncation and corrupt
  lines instead of OOMing;
* ``repro-obs`` renders report/folded/diff output from trace files.
"""

from __future__ import annotations

import json

import pytest

from conftest import TEST_SCALE
from repro.core.looppoint import LoopPointOptions, LoopPointPipeline
from repro.obs import (
    BUCKET_BOUNDS,
    Console,
    MetricsRegistry,
    NULL_TRACER,
    SpanContext,
    TraceError,
    TraceLimits,
    Tracer,
    active_metrics,
    active_tracer,
    check_span_tree,
    folded_stacks,
    obs_scope,
    read_trace,
    render_diff,
    render_report,
    worker_tracer,
)
from repro.obs.cli import main as obs_main
from repro.obs.metrics import BUCKET_LABELS, Histogram
from repro.workloads.demo import build_demo_matrix


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


# ---------------------------------------------------------------------------
# Metrics registry.
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_counters_gauges_histograms(self):
        reg = MetricsRegistry()
        assert not reg
        reg.inc("a")
        reg.inc("a", 4)
        reg.gauge("g", 2.5)
        reg.observe("h", 0.001)
        assert reg
        data = reg.as_dict()
        assert data["counters"] == {"a": 5}
        assert data["gauges"] == {"g": 2.5}
        assert data["histograms"]["h"]["count"] == 1

    def test_bucket_bounds_are_fixed_and_sorted(self):
        assert list(BUCKET_BOUNDS) == sorted(BUCKET_BOUNDS)
        assert len(BUCKET_LABELS) == len(BUCKET_BOUNDS) + 1
        assert BUCKET_LABELS[-1] == "le_inf"
        # Same observations -> identical dicts, regardless of registry.
        a, b = Histogram(), Histogram()
        for v in (1e-7, 0.003, 0.5, 10.0, 1e9):
            a.observe(v)
            b.observe(v)
        assert a.as_dict() == b.as_dict()

    def test_overflow_bucket(self):
        h = Histogram()
        h.observe(1e9)
        assert h.as_dict()["buckets"] == {"le_inf": 1}

    def test_zero_buckets_elided(self):
        h = Histogram()
        h.observe(0.5)
        assert len(h.as_dict()["buckets"]) == 1

    def test_merge_adds_counters_and_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("n", 2)
        b.inc("n", 3)
        b.gauge("g", 7.0)
        b.observe("h", 0.1)
        a.merge(b.as_dict())
        data = a.as_dict()
        assert data["counters"]["n"] == 5
        assert data["gauges"]["g"] == 7.0
        assert data["histograms"]["h"]["count"] == 1

    def test_reset(self):
        reg = MetricsRegistry()
        reg.inc("x")
        reg.reset()
        assert not reg


# ---------------------------------------------------------------------------
# Tracer: nesting, attributes, readback, scopes.
# ---------------------------------------------------------------------------


class TestTracer:
    def test_nested_spans_round_trip(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        tracer = Tracer(path, workload="w")
        with tracer.span("run", workload="w"):
            with tracer.span("stage:profile", stage="profile") as span:
                span.set("cache", "miss")
        summary = tracer.finish()
        assert summary["spans"] == 2
        data = read_trace(path)
        assert data.schema == "repro-trace/1"
        assert data.meta == {"workload": "w"}
        by_name = {s.name: s for s in data.spans}
        child = by_name["stage:profile"]
        assert child.parent == by_name["run"].span_id
        assert child.attrs == {"stage": "profile", "cache": "miss"}
        assert data.end["open_spans"] == 0
        assert not check_span_tree(data)

    def test_exception_marks_error_attr(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        tracer = Tracer(path)
        with pytest.raises(ValueError):
            with tracer.span("run"):
                raise ValueError("boom")
        tracer.finish()
        (span,) = read_trace(path).spans
        assert span.attrs["error"] == "ValueError"

    def test_segments_accumulate_reader_takes_last(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        for marker in ("first", "second"):
            tracer = Tracer(path, marker=marker)
            with tracer.span("run"):
                pass
            tracer.finish()
        data = read_trace(path)
        assert data.segments == 2
        assert data.meta == {"marker": "second"}
        assert len(data.spans) == 1

    def test_obs_scope_installs_and_restores(self, tmp_path):
        assert active_tracer() is NULL_TRACER
        assert active_metrics() is None
        tracer = Tracer(str(tmp_path / "t.jsonl"))
        with obs_scope(tracer):
            assert active_tracer() is tracer
            assert active_metrics() is tracer.metrics
        assert active_tracer() is NULL_TRACER
        tracer.finish()

    def test_null_tracer_installs_nothing(self):
        with obs_scope(NULL_TRACER):
            assert active_metrics() is None
        with obs_scope(None):
            assert active_metrics() is None
        # The shared no-op span supports the full Span surface.
        span = NULL_TRACER.span("x", anything=1)
        span.set("k", "v")
        with span:
            pass
        assert NULL_TRACER.current_context() is None
        assert NULL_TRACER.finish() is None

    def test_worker_tracer_continuation(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        parent = Tracer(path)
        with parent.span("fanout"):
            ctx = parent.current_context()
        assert isinstance(ctx, SpanContext)
        worker = worker_tracer(ctx)
        assert worker.trace_id == parent.trace_id
        # Cached per (path, trace id): one 'process' record per worker.
        assert worker_tracer(ctx) is worker
        with worker.span("region:0", parent=ctx.span_id):
            pass
        parent.finish()
        data = read_trace(path)
        by_name = {s.name: s for s in data.spans}
        assert by_name["region:0"].parent == by_name["fanout"].span_id
        assert worker_tracer(None) is NULL_TRACER

    def test_metrics_record_emitted_on_finish(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        tracer = Tracer(path)
        tracer.metrics.inc("demo.counter", 3)
        tracer.finish()
        data = read_trace(path)
        assert data.counters() == {"demo.counter": 3}


# ---------------------------------------------------------------------------
# Pipeline integration: worker stitching, determinism, NullTracer identity.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def traced_parallel(tmp_path_factory):
    """One jobs=4 traced checkpoint-driven run (the route that fans out)
    shared by the stitching assertions."""
    tmp = tmp_path_factory.mktemp("obs-par")
    workload = build_demo_matrix(1, nthreads=4, scale=TEST_SCALE)
    path = str(tmp / "par.trace.jsonl")
    pipeline = LoopPointPipeline(
        workload, options=_options(jobs=4, trace_path=path)
    )
    result = pipeline.run(simulate_full=False, constrained=True)
    return pipeline, result, read_trace(path)


class TestPipelineTracing:
    def test_run_summary_and_root_span(self, traced_parallel):
        pipeline, _, data = traced_parallel
        assert pipeline.last_trace is not None
        assert pipeline.last_trace["spans"] > 0
        roots = data.roots()
        assert len(roots) == 1 and roots[0].name == "run"

    def test_trace_names_the_binary_mode(self, tmp_path):
        workload = build_demo_matrix(1, nthreads=4, scale=TEST_SCALE)
        path = str(tmp_path / "binary.trace.jsonl")
        pipeline = LoopPointPipeline(
            workload, options=_options(jobs=1, trace_path=path)
        )
        pipeline.run(simulate_full=False)
        data = read_trace(path)
        assert data.meta["mode"] == "binary"
        assert data.meta["workload"] == pipeline.workload.full_name
        # Only run_live tags its root span with a mode.
        assert "mode" not in data.roots()[0].attrs

    def test_binary_trace_has_no_fanout_span(self, tmp_path):
        # jobs=4 on the binary route: one serial sweep, no pool.
        workload = build_demo_matrix(1, nthreads=4, scale=TEST_SCALE)
        path = str(tmp_path / "binary4.trace.jsonl")
        LoopPointPipeline(
            workload, options=_options(jobs=4, trace_path=path)
        ).run(simulate_full=False)
        names = {s.name for s in read_trace(path).spans}
        assert "stage:simulate" in names
        assert "fanout" not in names
        assert not [n for n in names if n.startswith("region:")]

    def test_trace_names_the_live_mode(self, tmp_path):
        workload = build_demo_matrix(1, nthreads=4, scale=TEST_SCALE)
        path = str(tmp_path / "live.trace.jsonl")
        pipeline = LoopPointPipeline(
            workload, options=_options(jobs=1, trace_path=path)
        )
        pipeline.run_live(simulate_full=False)
        data = read_trace(path)
        assert data.meta["mode"] == "live"
        (root,) = data.roots()
        assert root.name == "run" and root.attrs["mode"] == "live"
        assert pipeline.last_trace["trace_id"] == data.trace_id
        assert pipeline.last_trace["spans"] == len(data.spans)

    def test_stage_walls_cover_run_wall(self, traced_parallel):
        _, _, data = traced_parallel
        root = data.roots()[0]
        top = data.children()[root.span_id]
        names = {s.name for s in top}
        assert {"stage:profile", "stage:select", "stage:simulate",
                "stage:extrapolate"} <= names
        total = sum(s.dur for s in top)
        # Sequential stages partition the run; the residue is glue
        # (speedup accounting).
        assert total <= root.dur * 1.01
        assert total >= root.dur * 0.5

    def test_worker_spans_stitch_under_simulate(self, traced_parallel):
        pipeline, _, data = traced_parallel
        assert pipeline.last_execution is not None  # pool ran
        by_id = data.by_id()
        regions = [s for s in data.spans if s.name.startswith("region:")]
        worker_regions = [s for s in regions if s.pid != data.root_pid]
        assert worker_regions, "no worker-side region spans"
        for span in worker_regions:
            fanout = by_id[span.parent]
            assert fanout.name == "fanout"
            simulate = by_id[fanout.parent]
            assert simulate.name == "stage:simulate"
            assert span.pid in data.clocks  # process clock anchor written

    def test_cache_attr_on_stage_spans(self, traced_parallel):
        _, _, data = traced_parallel
        stage_spans = [s for s in data.spans
                       if s.name in ("stage:profile", "stage:select")]
        assert stage_spans
        assert all(s.attrs.get("cache") == "miss" for s in stage_spans)

    def test_trace_has_a_well_formed_span_tree(self, traced_parallel):
        _, _, data = traced_parallel
        assert check_span_tree(data) == []

    def test_report_renders(self, traced_parallel):
        _, _, data = traced_parallel
        text = render_report(data)
        assert "per-stage breakdown" in text
        assert "critical path" in text
        assert "fanout[" in text
        folded = folded_stacks(data)
        assert any(line.startswith("run;stage:simulate;fanout")
                   for line in folded.splitlines())

    def test_null_tracer_runs_are_bit_identical(self, tmp_path,
                                                traced_parallel):
        _, traced, _ = traced_parallel
        workload = build_demo_matrix(1, nthreads=4, scale=TEST_SCALE)
        untraced = LoopPointPipeline(
            workload, options=_options(jobs=4)
        ).run(simulate_full=False, constrained=True)
        assert untraced.predicted == traced.predicted
        assert (
            [r.metrics.cycles for r in untraced.region_results]
            == [r.metrics.cycles for r in traced.region_results]
        )

    def test_counters_deterministic_across_seeded_runs(self, tmp_path):
        counters = []
        for tag in ("a", "b"):
            workload = build_demo_matrix(1, nthreads=4, scale=TEST_SCALE)
            path = str(tmp_path / f"{tag}.trace.jsonl")
            LoopPointPipeline(
                workload, options=_options(jobs=1, trace_path=path)
            ).run(simulate_full=False)
            counters.append(read_trace(path).counters())
        assert counters[0] == counters[1]
        assert counters[0]["engine.runs"] >= 1
        assert counters[0]["replay.runs"] >= 1
        assert counters[0]["kmeans.fits"] >= 1
        assert "counters identical" in render_diff(
            read_trace(str(tmp_path / "a.trace.jsonl")),
            read_trace(str(tmp_path / "b.trace.jsonl")),
        )


# ---------------------------------------------------------------------------
# Rerun cache counts (the stats line of a restarted run).
# ---------------------------------------------------------------------------


class TestRerunCacheCounts:
    def test_rerun_counts_loaded_stages_as_hits(self, tmp_path):
        workload = build_demo_matrix(1, nthreads=4, scale=TEST_SCALE)
        opts = dict(cache_dir=str(tmp_path / "cache"))
        first = LoopPointPipeline(workload, options=_options(**opts))
        result = first.run(simulate_full=False)
        rerun = LoopPointPipeline(workload, options=_options(**opts))
        again = rerun.run(simulate_full=False)
        assert again.predicted == result.predicted
        # The profile and select hits never need the record artifact.
        assert rerun.artifacts.stats_line().startswith(
            "profile=hit select=hit | hits=2 misses=0 stores=0"
        )

    def test_live_rerun_line_names_every_stage(self, tmp_path, monkeypatch):
        from repro.errors import SimulationError

        workload = build_demo_matrix(1, nthreads=4, scale=TEST_SCALE)
        opts = dict(cache_dir=str(tmp_path / "cache"))
        reference = LoopPointPipeline(
            workload, options=_options()
        ).run_live(simulate_full=False)

        def record_dcfg_then_fail(self, live_options):
            self.marker_pcs()
            raise SimulationError("live pass cut off")

        with monkeypatch.context() as patch:
            patch.setattr(
                LoopPointPipeline, "_compute_live", record_dcfg_then_fail
            )
            with pytest.raises(SimulationError):
                LoopPointPipeline(
                    workload, options=_options(**opts)
                ).run_live(simulate_full=False)
        rerun = LoopPointPipeline(workload, options=_options(**opts))
        result = rerun.run_live(simulate_full=False)
        assert result.predicted == reference.predicted
        assert rerun.artifacts.stats_line().startswith(
            "record=hit dcfg=hit live=miss | hits=2 misses=1 stores=1"
        )

    def test_stats_line_orders_stages_as_the_pipeline_runs(self, tmp_path):
        from repro.parallel.artifacts import ArtifactCache

        cache = ArtifactCache(tmp_path / "cache")
        for stage in ("live", "select", "dcfg", "profile", "record"):
            assert cache.load(stage, {"k": 1}) is None
        assert cache.stats_line().startswith(
            "record=miss dcfg=miss profile=miss select=miss live=miss | "
        )

    def test_stats_line_reports_evictions(self, tmp_path):
        from repro.parallel.artifacts import ArtifactCache

        cache = ArtifactCache(tmp_path / "cache")
        cache.store("record", {"k": 1}, [1, 2, 3])
        # Corrupt the stored artifact; the next load evicts and misses.
        (path,) = (tmp_path / "cache").rglob("*.pkl.gz")
        path.write_bytes(b"garbage")
        assert cache.load("record", {"k": 1}) is None
        assert cache.evictions["record"] == 1
        assert "evictions=1" in cache.stats_line()


# ---------------------------------------------------------------------------
# Bounded trace reading + span-tree checks.
# ---------------------------------------------------------------------------


class TestTraceReader:
    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(TraceError, match="not found"):
            read_trace(str(tmp_path / "nope.jsonl"))

    def test_no_segment_raises(self, tmp_path):
        path = tmp_path / "junk.jsonl"
        path.write_text("not json\n{\"type\": \"span\"}\n")
        with pytest.raises(TraceError, match="no trace-start"):
            read_trace(str(path))

    def test_span_limit_truncates(self, tmp_path):
        path = str(tmp_path / "big.jsonl")
        spans = [_span(f"64.{i}", f"s{i}", parent="64.0")
                 for i in range(1, 21)]
        _write_lines(path, [_start(), _span("64.0", "run", dur=100.0),
                            *spans, _end()])
        data = read_trace(path, TraceLimits(max_spans=5))
        assert data.truncated
        assert len(data.spans) == 5
        header = render_report(data).splitlines()[1]
        assert header.endswith(" TRUNCATED")
        # Missing-parent defects are suppressed under truncation.
        assert not [d for d in check_span_tree(data) if "parent" in d]

    def test_corrupt_lines_counted(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        _write_lines(str(path), [_start(), _span("64.1", "run"), _end()])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"type": "span", "id"\n')
        data = read_trace(str(path))
        assert data.corrupt_lines == 1
        assert "corrupt_lines=1" in render_report(data).splitlines()[1]


def _defects(path):
    return check_span_tree(read_trace(path))


class TestSpanTree:
    def test_clean_synthetic_trace(self, tmp_path):
        path = str(tmp_path / "ok.jsonl")
        _write_lines(path, [
            _start(),
            _span("64.2", "stage:profile", t0=50.1, dur=0.5, parent="64.1"),
            _span("64.1", "run", t0=50.0, dur=1.0),
            _end(spans=2),
        ])
        assert _defects(path) == []

    def test_unclosed_spans_at_trace_end(self, tmp_path):
        path = str(tmp_path / "open.jsonl")
        tracer = Tracer(path)
        tracer.span("run")
        tracer.span("stage:profile")
        tracer.finish()  # two spans still open
        assert _defects(path) == [
            "2 span(s) still open at trace-end — traced work that never "
            "finished"
        ]

    def test_missing_trace_end(self, tmp_path):
        path = str(tmp_path / "killed.jsonl")
        _write_lines(path, [_start(), _span("64.1", "run")])
        (defect,) = _defects(path)
        assert defect.startswith("no trace-end record")

    def test_child_outside_parent_interval(self, tmp_path):
        path = str(tmp_path / "bad.jsonl")
        _write_lines(path, [
            _start(),
            _span("64.1", "run", t0=50.0, dur=1.0),
            _span("64.2", "stage:x", t0=52.0, dur=1.0, parent="64.1"),
            _end(spans=2),
        ])
        (defect,) = _defects(path)
        assert defect.startswith("64.2: ") and "outside" in defect

    def test_worker_span_with_no_parent(self, tmp_path):
        path = str(tmp_path / "orphan.jsonl")
        _write_lines(path, [
            _start(pid=100),
            _span("64.1", "run", pid=100),
            {"type": "process", "pid": 200, "epoch": 1000.0, "mono": 10.0},
            _span("c8.1", "region:0", pid=200, t0=10.1, dur=0.2,
                  parent="64.99"),
            _end(pid=100, spans=2),
        ])
        (defect,) = _defects(path)
        assert defect.startswith("c8.1: worker span")

    def test_cross_process_span_without_clock_anchor(self, tmp_path):
        path = str(tmp_path / "unanchored.jsonl")
        _write_lines(path, [
            _start(pid=100),
            _span("64.1", "run", pid=100),
            _span("c8.1", "region:0", pid=200, t0=10.1, dur=0.2,
                  parent="64.1"),
            _end(pid=100, spans=2),
        ])
        (defect,) = _defects(path)
        assert "clock-anchor" in defect

    def test_report_names_defects_and_exits_1(self, tmp_path, capsys):
        """A killed run's trace still reads and renders; the header names
        the defect and the exit status reports it."""
        path = str(tmp_path / "clean.jsonl")
        _write_lines(path, [_start(), _span("64.1", "run"), _end(spans=1)])
        assert obs_main(["report", path]) == 0
        assert "span-tree defect" not in capsys.readouterr().out
        killed = str(tmp_path / "killed.jsonl")
        _write_lines(killed, [_start(), _span("64.1", "run")])
        assert obs_main(["report", killed]) == 1
        out = capsys.readouterr().out
        assert "  span-tree defect: no trace-end record" in out
        assert "critical path" in out
        notrace = tmp_path / "not-a-trace.jsonl"
        notrace.write_text("hello\n")
        assert obs_main(["report", str(notrace)]) == 2

    def test_truncated_trace_reports_exit_0(self, tmp_path, capsys):
        """A trace cut at the parser's bounds is a prefix of the run: its
        defects are printed, but they do not fail the report."""
        path = str(tmp_path / "big.jsonl")
        spans = [_span(f"64.{i}", f"s{i}", parent="64.0", t0=60.0)
                 for i in range(2, 21)]
        _write_lines(path, [
            _start(), _span("64.0", "run", dur=100.0),
            _span("64.1", "late", parent="64.0", t0=500.0), *spans, _end(),
        ])
        assert obs_main(["--max-spans", "5", "report", path]) == 0
        out = capsys.readouterr().out
        assert "TRUNCATED" in out
        assert "span-tree defect: 64.1: span 'late'" in out


# ---------------------------------------------------------------------------
# The repro-obs CLI.
# ---------------------------------------------------------------------------


def _synthetic_run(path, dur_profile, events):
    _write_lines(path, [
        _start(),
        _span("64.1", "run", t0=50.0, dur=2.0),
        _span("64.2", "stage:profile", t0=50.1, dur=dur_profile,
              parent="64.1", stage="profile"),
        {"type": "metrics", "trace_id": "t0", "pid": 100, "scope": "run",
         "metrics": {"counters": {"engine.events": events},
                     "gauges": {}, "histograms": {}}},
        _end(spans=2),
    ])


class TestObsCli:
    def test_report(self, tmp_path, capsys):
        path = str(tmp_path / "a.jsonl")
        _synthetic_run(path, 0.5, 100)
        assert obs_main(["report", path]) == 0
        out = capsys.readouterr().out
        assert "per-stage breakdown" in out
        assert "stage:profile" in out
        assert "engine.events" in out

    def test_folded_to_file(self, tmp_path, capsys):
        path = str(tmp_path / "a.jsonl")
        _synthetic_run(path, 0.5, 100)
        out_file = tmp_path / "stacks.folded"
        assert obs_main(["folded", path, "-o", str(out_file)]) == 0
        lines = out_file.read_text().splitlines()
        assert "run;stage:profile 500000" in lines
        # run self time: 2.0s minus the 0.5s child.
        assert "run 1500000" in lines

    def test_diff_identical_and_differing(self, tmp_path, capsys):
        a = str(tmp_path / "a.jsonl")
        b = str(tmp_path / "b.jsonl")
        _synthetic_run(a, 0.5, 100)
        _synthetic_run(b, 0.5, 100)
        assert obs_main(["diff", a, b]) == 0
        assert "counters identical" in capsys.readouterr().out
        _synthetic_run(b, 1.0, 150)
        assert obs_main(["diff", a, b]) == 0
        out = capsys.readouterr().out
        assert "counters that differ" in out
        assert "engine.events" in out
        assert "+100.0%" in out

    def test_unreadable_trace_exits_2(self, tmp_path, capsys):
        assert obs_main(["report", str(tmp_path / "missing.jsonl")]) == 2
        assert "repro-obs" in capsys.readouterr().err

    def test_export_subcommand_is_gone(self, tmp_path, capsys):
        path = str(tmp_path / "a.jsonl")
        _synthetic_run(path, 0.5, 100)
        with pytest.raises(SystemExit) as exc:
            obs_main(["export", path])
        assert exc.value.code == 2
        assert "invalid choice: 'export'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Console.
# ---------------------------------------------------------------------------


class TestConsole:
    def test_status_format_and_quiet(self, capsys):
        console = Console()
        console.status("cache", "hits=1")
        assert capsys.readouterr().out == "[cache] hits=1\n"
        quiet = Console(quiet=True)
        quiet.status("cache", "hits=1")
        assert capsys.readouterr().out == ""

    def test_error_and_result_survive_quiet(self, capsys):
        console = Console(quiet=True)
        console.error("run-looppoint", "FAILED: boom")
        console.result("table")
        captured = capsys.readouterr()
        assert captured.err == "[run-looppoint] FAILED: boom\n"
        assert captured.out == "table\n"
