"""Rendering a parsed trace: stage breakdown, critical path, folded
stacks, and run-vs-run diff.

The stage table aggregates the *top-level* spans (direct children of the
run root): the pipeline runs its stages sequentially, so their wall times
partition the run wall time, and the table's footer reports exactly that
coverage (the residue is un-spanned glue).  Nested stage spans (``record``
computing lazily inside ``profile``) show with their ancestry path, so no
time is double-counted at the top level.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .trace import SpanRecord, TraceData, check_span_tree


def _ascii_table(headers, rows, title=""):
    # Imported lazily: the analysis package pulls in the whole pipeline,
    # which itself imports repro.obs for instrumentation — a top-level
    # import here would be circular.
    from ..analysis.tables import ascii_table

    return ascii_table(headers, rows, title=title)


def _span_paths(trace: TraceData) -> List[Tuple[str, SpanRecord]]:
    """Every span with its ``root;...;name`` ancestry path (cycle-safe)."""
    by_id = trace.by_id()
    out: List[Tuple[str, SpanRecord]] = []
    for span in trace.spans:
        names = [span.name]
        seen = {span.span_id}
        cursor = span
        while cursor.parent is not None:
            parent = by_id.get(cursor.parent)
            if parent is None or parent.span_id in seen:
                break
            names.append(parent.name)
            seen.add(parent.span_id)
            cursor = parent
        out.append((";".join(reversed(names)), span))
    return out


def _self_seconds(trace: TraceData) -> Dict[str, float]:
    """Span id -> wall time not covered by its children (clamped >= 0:
    parallel children can legitimately overlap their parent)."""
    children = trace.children()
    out: Dict[str, float] = {}
    for span in trace.spans:
        child_total = sum(c.dur for c in children.get(span.span_id, []))
        out[span.span_id] = max(0.0, span.dur - child_total)
    return out


def _run_root(trace: TraceData) -> Optional[SpanRecord]:
    roots = trace.roots()
    if not roots:
        return None
    # A well-formed trace has exactly one root ("run"); tolerate more by
    # taking the longest.
    return max(roots, key=lambda s: s.dur)


def stage_breakdown(
    trace: TraceData,
) -> Tuple[List[List[object]], float, float]:
    """(rows, stage_total_seconds, run_seconds) of the top-level table."""
    root = _run_root(trace)
    run_dur = root.dur if root is not None else 0.0
    children = trace.children()
    top = children.get(root.span_id, []) if root is not None else []
    agg: Dict[str, List[float]] = {}
    order: List[str] = []
    for span in sorted(top, key=lambda s: s.t0):
        if span.name not in agg:
            agg[span.name] = [0, 0.0, 0.0]
            order.append(span.name)
        entry = agg[span.name]
        entry[0] += 1
        entry[1] += span.dur
        entry[2] += span.cpu
    rows: List[List[object]] = []
    total = 0.0
    for name in order:
        count, wall, cpu = agg[name]
        total += wall
        pct = 100.0 * wall / run_dur if run_dur > 0 else 0.0
        rows.append([name, int(count), f"{wall:.4f}s", f"{cpu:.4f}s",
                     f"{pct:.1f}%"])
    return rows, total, run_dur


def region_breakdown(trace: TraceData) -> List[List[object]]:
    """Aggregate ``region:*`` spans across processes: the per-region cost
    picture for parallel runs (worker spans included)."""
    regions = [s for s in trace.spans if s.name.startswith("region:")]
    agg: Dict[str, List[float]] = {}
    for span in regions:
        entry = agg.setdefault(span.name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += span.dur
        entry[2] = max(entry[2], span.dur)
    rows = []
    for name in sorted(agg, key=lambda n: -agg[n][1]):
        count, wall, worst = agg[name]
        rows.append([name, int(count), f"{wall:.4f}s", f"{worst:.4f}s"])
    return rows


def _as_int(value: object, default: int = 0) -> int:
    """Attribute values come from JSON written by arbitrary (possibly
    damaged) producers; coerce defensively instead of crashing the
    report."""
    try:
        return int(float(value))  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return default


def critical_path_lines(trace: TraceData) -> List[str]:
    """One line per fan-out: busy vs elapsed, the critical region, and
    worker efficiency — the parallel-run summary the paper's speedup
    argument needs.  Jobs re-run in the parent after the pool round
    (``fallback`` region spans) are counted apart and are no part of the
    busy time or efficiency."""
    children = trace.children()
    lines = []
    for span in trace.spans:
        if span.name != "fanout":
            continue
        # Tiny or forced-serial runs can leave a fanout span with a
        # missing/zero workers attribute or zero elapsed time; every
        # denominator here must survive that.
        workers = _as_int(span.attrs.get("workers", 1), 1)
        regions = [
            c for c in children.get(span.span_id, [])
            if c.name.startswith("region:")
        ]
        ran = [c for c in regions if not c.attrs.get("fallback")]
        reruns = len(regions) - len(ran)
        busy = sum(c.dur for c in ran)
        crit = max(ran, key=lambda c: c.dur) if ran else None
        efficiency = (
            busy / (workers * span.dur)
            if workers > 0 and span.dur > 0 else 0.0
        )
        crit_text = (
            f"critical {crit.name} {crit.dur:.4f}s" if crit is not None
            else "no region spans"
        )
        rerun_text = f", {reruns} re-run(s) in the parent" if reruns else ""
        lines.append(
            f"fanout[{span.span_id}]: {len(ran)} region span(s) on "
            f"{workers} worker(s){rerun_text}, elapsed {span.dur:.4f}s, "
            f"busy {busy:.4f}s, {crit_text}, efficiency {efficiency:.0%}"
        )
    if not lines:
        lines.append("no fan-out spans (serial run, or simulate was cached)")
    return lines


def folded_stacks(trace: TraceData) -> str:
    """Flamegraph-style folded stacks: ``a;b;c <self-microseconds>``.

    Feed to any standard ``flamegraph.pl``-compatible renderer.  Values
    are self times so stack totals reconstruct parent walls.
    """
    self_s = _self_seconds(trace)
    totals: Dict[str, int] = {}
    for path, span in _span_paths(trace):
        micros = int(round(self_s[span.span_id] * 1e6))
        totals[path] = totals.get(path, 0) + micros
    return "\n".join(f"{path} {value}" for path, value in sorted(totals.items()))


def histogram_rows(trace: TraceData) -> List[List[object]]:
    """Per-histogram rows with the *true* mean (exact sum over exact
    count, both carried in the trace) instead of a bucket-midpoint
    estimate."""
    rows: List[List[object]] = []
    for name, hist in sorted(trace.histograms().items()):
        mean = hist.total / hist.count if hist.count > 0 else 0.0
        rows.append([
            name, hist.count, f"{hist.total:.6f}", f"{mean:.6f}",
        ])
    return rows


def attribution_rows(trace: TraceData) -> List[List[object]]:
    """Top error contributors, reconstructed from ``attribution.*``
    gauges (emitted by the extrapolation stage / the live pass)."""
    gauges = trace.gauges()
    by_cluster: Dict[str, Dict[str, float]] = {}
    prefix = "attribution.cluster."
    for name, value in gauges.items():
        if not name.startswith(prefix):
            continue
        tail = name[len(prefix):]
        cluster_id, _, metric = tail.partition(".")
        if not metric:
            continue
        by_cluster.setdefault(cluster_id, {})[metric] = value
    if not by_cluster:
        return []

    def sort_key(item):
        cid, metrics = item
        return (
            -abs(metrics.get("error_cycles", 0.0)),
            -metrics.get("share", 0.0),
            _as_int(cid),
        )

    rows: List[List[object]] = []
    for cluster_id, metrics in sorted(by_cluster.items(), key=sort_key)[:10]:
        error = metrics.get("error_cycles")
        rows.append([
            cluster_id,
            f"{metrics.get('share', 0.0) * 100.0:.1f}%",
            f"{error:+.0f}" if error is not None else "--",
        ])
    return rows


def error_series_line(trace: TraceData) -> Optional[str]:
    """The live error-estimate time series, read back from the
    ``live:topup`` span's ``estimates`` attribute (initial estimate,
    then one value per top-up — monotone non-increasing)."""
    for span in trace.spans:
        if span.name != "live:topup":
            continue
        series = span.attrs.get("estimates")
        if not isinstance(series, list) or not series:
            continue
        try:
            values = [float(v) for v in series]
        except (TypeError, ValueError):
            continue
        shown = values if len(values) <= 8 else (
            values[:4] + values[-4:]
        )
        text = " -> ".join(f"{v:.4f}" for v in shown[:4])
        if len(values) > 8:
            text += " -> ... -> " + " -> ".join(
                f"{v:.4f}" for v in shown[4:]
            )
        elif len(shown) > 4:
            text += " -> " + " -> ".join(f"{v:.4f}" for v in shown[4:])
        return (
            f"error-estimate series ({len(values)} point(s)): {text}"
        )
    return None


def live_coverage_lines(trace: TraceData) -> List[str]:
    """The ``--live`` run summary, reconstructed from ``live.*`` metrics.

    Empty for offline traces.  Counters carry the region/cluster tallies
    and the ``live.final_error_estimate`` gauge the estimator's value
    after the last top-up — together the coverage story of a streaming
    run: how much of the execution was simulated in detail versus
    extrapolated from an admitted representative.
    """
    counters = trace.counters()
    regions = counters.get("live.regions")
    if regions is None:
        return []
    simulated = counters.get("live.simulated", 0)
    skipped = counters.get("live.skipped", 0)
    clusters = counters.get("live.clusters", 0)
    topups = counters.get("live.topups", 0)
    extrapolated = counters.get("live.extrapolated_filtered", 0)
    lines = [
        f"{regions} region(s): {simulated} simulated in detail, "
        f"{skipped} fast-forwarded and extrapolated",
        f"{clusters} cluster(s) admitted, {topups} top-up sample(s)",
        f"{extrapolated} filtered instruction(s) covered by extrapolation",
    ]
    estimate = trace.gauges().get("live.final_error_estimate")
    if estimate is not None:
        lines.append(f"final error estimate {estimate:.4f}")
    return lines


def render_report(trace: TraceData) -> str:
    """The full ``repro-obs report`` text for one trace."""
    header = [
        f"trace {trace.trace_id} ({trace.path})",
        f"  segments={trace.segments} spans={len(trace.spans)} "
        f"processes={len(trace.clocks)} "
        f"metrics_records={len(trace.metrics)}"
        + (" TRUNCATED" if trace.truncated else "")
        + (f" corrupt_lines={trace.corrupt_lines}"
           if trace.corrupt_lines else ""),
    ]
    if trace.meta:
        meta = " ".join(f"{k}={v}" for k, v in sorted(trace.meta.items()))
        header.append(f"  {meta}")
    header.extend(
        f"  span-tree defect: {d}" for d in check_span_tree(trace)
    )
    parts = ["\n".join(header)]
    rows, total, run_dur = stage_breakdown(trace)
    if rows:
        table = _ascii_table(
            ["stage", "count", "wall", "cpu", "of run"], rows,
            title="per-stage breakdown (top-level spans)",
        )
        coverage = 100.0 * total / run_dur if run_dur > 0 else 0.0
        parts.append(
            f"{table}\n  stages cover {total:.4f}s of the "
            f"{run_dur:.4f}s run ({coverage:.1f}%)"
        )
    else:
        parts.append("no completed top-level spans (crashed run?)")
    region_rows = region_breakdown(trace)
    if region_rows:
        parts.append(_ascii_table(
            ["region", "attempts", "wall", "worst"], region_rows,
            title="per-region cost (all processes)",
        ))
    parts.append("critical path\n  " + "\n  ".join(critical_path_lines(trace)))
    live_lines = live_coverage_lines(trace)
    series = error_series_line(trace)
    if series:
        live_lines.append(series)
    if live_lines:
        parts.append("live coverage\n  " + "\n  ".join(live_lines))
    contrib_rows = attribution_rows(trace)
    if contrib_rows:
        total = trace.gauges().get("attribution.total_error_cycles")
        table = _ascii_table(
            ["cluster", "share", "error cycles"], contrib_rows,
            title="top error contributors",
        )
        if total is not None:
            table += f"\n  total extrapolation error {total:+.0f} cycles"
        parts.append(table)
    counters = trace.counters()
    if counters:
        counter_rows = [[name, counters[name]] for name in sorted(counters)]
        parts.append(_ascii_table(["counter", "value"], counter_rows,
                                 title="counters (parent + workers)"))
    hist_rows = histogram_rows(trace)
    if hist_rows:
        parts.append(_ascii_table(
            ["histogram", "count", "sum", "mean"], hist_rows,
            title="histograms (exact sum/count, true means)",
        ))
    return "\n\n".join(parts)


def _stage_walls(trace: TraceData) -> Dict[str, float]:
    rows, _, _ = stage_breakdown(trace)
    return {str(row[0]): float(str(row[2]).rstrip("s")) for row in rows}


def render_diff(a: TraceData, b: TraceData) -> str:
    """Stage walls and counters of trace ``b`` relative to ``a``."""
    walls_a, walls_b = _stage_walls(a), _stage_walls(b)
    rows = []
    for name in sorted(set(walls_a) | set(walls_b)):
        wa = walls_a.get(name)
        wb = walls_b.get(name)
        delta = (wb or 0.0) - (wa or 0.0)
        if wa and wb:
            rel = f"{100.0 * (wb - wa) / wa:+.1f}%"
        else:
            rel = "only in A" if wb is None else (
                "only in B" if wa is None else "--"
            )
        rows.append([
            name,
            f"{wa:.4f}s" if wa is not None else "--",
            f"{wb:.4f}s" if wb is not None else "--",
            f"{delta:+.4f}s",
            rel,
        ])
    parts = [
        f"A: trace {a.trace_id} ({a.path})\nB: trace {b.trace_id} ({b.path})"
    ]
    if rows:
        parts.append(_ascii_table(
            ["stage", "A wall", "B wall", "delta", "rel"], rows,
            title="stage wall times, A vs B",
        ))
    counters_a, counters_b = a.counters(), b.counters()
    counter_rows = []
    for name in sorted(set(counters_a) | set(counters_b)):
        va = counters_a.get(name, 0)
        vb = counters_b.get(name, 0)
        if va != vb:
            counter_rows.append([name, va, vb, vb - va])
    if counter_rows:
        parts.append(_ascii_table(
            ["counter", "A", "B", "delta"], counter_rows,
            title="counters that differ",
        ))
    else:
        parts.append("counters identical (deterministic telemetry)")
    # Histograms compare on their exact aggregates: observation counts
    # are deterministic for a seeded run (only the summed seconds of
    # timing histograms legitimately differ), so a count delta is a
    # regression signal, not noise.
    hists_a, hists_b = a.histograms(), b.histograms()
    hist_rows = []
    for name in sorted(set(hists_a) | set(hists_b)):
        ha, hb = hists_a.get(name), hists_b.get(name)
        ca = ha.count if ha is not None else 0
        cb = hb.count if hb is not None else 0
        mean_a = ha.total / ha.count if ha is not None and ha.count else 0.0
        mean_b = hb.total / hb.count if hb is not None and hb.count else 0.0
        hist_rows.append([
            name, ca, cb, cb - ca,
            f"{mean_a:.6f}", f"{mean_b:.6f}",
        ])
    if hist_rows:
        parts.append(_ascii_table(
            ["histogram", "A count", "B count", "delta", "A mean",
             "B mean"],
            hist_rows, title="histogram exact aggregates, A vs B",
        ))
    # Live runs promise determinism too: same seed, same stream of
    # matched/novel decisions, so the extrapolated-region tallies must
    # agree between runs.  A divergence here is a replay bug, not noise.
    live_names = sorted(
        name for name in set(counters_a) | set(counters_b)
        if name.startswith("live.")
    )
    if live_names:
        diverged = [
            name for name in live_names
            if counters_a.get(name, 0) != counters_b.get(name, 0)
        ]
        parts.append(
            "live determinism BROKEN: extrapolated-region counts differ "
            f"({', '.join(diverged)})" if diverged else
            "live determinism OK: extrapolated-region counts identical"
        )
    return "\n\n".join(parts)
