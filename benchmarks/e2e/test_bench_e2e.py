"""Checks of the end-to-end benchmark itself, with one rep per workload.

Not part of the tier-1 suite (``testpaths`` is ``tests``); run it
explicitly, from the repository root:

    PYTHONPATH=src python3 -m pytest benchmarks/e2e/test_bench_e2e.py -q

It takes about a minute on a two-core machine.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = HERE / "run.py"


def _run(*args: str):
    proc = subprocess.run(
        [sys.executable, str(RUN), *args], cwd=str(ROOT),
        capture_output=True, text=True, timeout=600,
    )
    return proc.returncode, proc.stdout.strip().splitlines(), proc.stderr


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced run of every workload, one rep each."""
    tmp = tmp_path_factory.mktemp("e2e")
    out, spans = tmp / "results.json", tmp / "spans.jsonl"
    code, lines, stderr = _run(
        "--reps", "1", "--trace", "1", "--out", str(out),
        "--spans", str(spans),
    )
    assert code == 0, stderr
    return {
        "lines": lines,
        "results": json.loads(out.read_text()),
        "spans": [json.loads(line) for line in spans.read_text().splitlines()],
    }


def test_every_benchmark_metric_is_printed_with_its_unit(traced):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    printed = {}
    for line in traced["lines"][:-1]:
        workload, metric, *rest = line.split()
        if len(rest) == 2:
            printed[(workload, metric)] = (float(rest[0]), rest[1])
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"] + spec["per_layer"]:
            value, unit = printed[(workload, metric["name"])]
            assert unit == metric["unit"], (workload, metric["name"])
    final = json.loads(traced["lines"][-1])
    assert final["correct"] and final["failed"] == 0
    assert {k.split("/", 1)[1] for k in final["metrics"]} == {
        m["name"] for m in spec["per_layer"]
    }


def test_traced_run_reproduces_untraced_digests(traced):
    for name, result in traced["results"]["workloads"].items():
        assert result["failed"] == 0, (name, result["errors"])
        assert len(result["sim_digest"]) == 64


def test_spans_nest_and_cover_each_rep(traced):
    spans = traced["spans"]
    by_id = defaultdict(dict)
    for span in spans:
        by_id[(span["workload"], span["rep"], span["traced"])][span["id"]] = span
    roots = 0
    for key, group in by_id.items():
        for span in group.values():
            assert span["start"] <= span["end"]
            if span["parent"] is None:
                assert span["name"] == "rep"
                continue
            parent = group[span["parent"]]
            assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]
        traced_root = [s for s in group.values()
                       if s["parent"] is None and s["traced"]]
        for root in traced_root:
            roots += 1
            covered = sum(
                s["end"] - s["start"] for s in group.values()
                if s["parent"] == root["id"]
            )
            assert covered >= 0.98 * (root["end"] - root["start"]), key
    assert roots == 4  # one traced rep per workload


def test_digest_mismatch_fails_the_run(tmp_path):
    expect = tmp_path / "expect.json"
    expect.write_text(json.dumps(
        {"workloads": {"ep-train": {"sim_digest": "0" * 64}}}
    ))
    code, lines, _ = _run(
        "--workload", "ep-train", "--reps", "1", "--expect", str(expect),
        "--out", str(tmp_path / "r.json"),
    )
    assert code != 0
    frac = [float(line.split()[2]) for line in lines
            if line.startswith("ep-train failed_frac ")]
    assert frac and frac[0] > 0
    final = json.loads(lines[-1])
    assert final["failed"] >= 1 and not final["correct"]


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "ep-train"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
