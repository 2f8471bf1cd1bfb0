"""Tests of the benchmark itself: the correctness check must bite.

Run from the repository root::

    python3 -m pytest kavbench/test_kavbench.py -q
"""

from __future__ import annotations

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import child  # noqa: E402
import common  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


@pytest.fixture
def tiny_jsonl(tmp_path, monkeypatch):
    """A small seeded verify_jsonl input in a private cache directory."""
    monkeypatch.setattr(inputs, "CACHE_DIR", tmp_path)
    monkeypatch.setitem(inputs.SHAPES, "verify_jsonl", {"registers": 6, "ops": 60})
    return inputs.prepare("verify_jsonl", 7)


def _flip(result):
    return dataclasses.replace(result, is_k_atomic=not result.is_k_atomic)


def test_clean_unit_has_no_failures(tiny_jsonl):
    runner = child.Runner("verify_jsonl", tiny_jsonl["files"], tiny_jsonl["refs"])
    raw, probe, ops, failed, _windows = runner.unit()
    assert ops == 360 and failed == 0 and raw > 0 and probe > 0


def test_corrupted_verdict_counts_its_register_ops(tiny_jsonl, monkeypatch):
    runner = child.Runner("verify_jsonl", tiny_jsonl["files"], tiny_jsonl["refs"])
    verify_file = runner.engine.verify_file

    def corrupted(path, k):
        report = verify_file(path, k)
        key = sorted(report.results)[0]
        report.results[key] = _flip(report.results[key])
        return report

    monkeypatch.setattr(runner.engine, "verify_file", corrupted)
    _raw, _probe, ops, failed, _windows = runner.unit()
    first = sorted(tiny_jsonl["refs"][0])[0]
    assert failed == tiny_jsonl["refs"][0][first][1] == 60
    assert ops == 360


def test_reason_and_witness_differences_are_failures(tiny_jsonl):
    from repro import Engine

    ref = tiny_jsonl["refs"][0]
    results = Engine().verify_file(tiny_jsonl["files"][0], inputs.K).results
    assert child.count_failures(results, ref, True) == 0
    no_key = next(key for key, (sig, _n) in ref.items() if not sig[0])
    yes_key = next(key for key, (sig, _n) in ref.items() if sig[0])
    bad_reason = dict(results)
    bad_reason[no_key] = dataclasses.replace(results[no_key], reason="something else")
    assert child.count_failures(bad_reason, ref, True) == ref[no_key][1]
    bad_witness = dict(results)
    witness = results[yes_key].witness
    bad_witness[yes_key] = dataclasses.replace(results[yes_key], witness=witness[::-1])
    assert child.count_failures(bad_witness, ref, True) == ref[yes_key][1]
    missing = dict(results)
    del missing[yes_key]
    assert child.count_failures(missing, ref, True) == ref[yes_key][1]


def test_undecoded_witness_is_accepted_only_where_none_is_decoded(tiny_jsonl):
    from repro import Engine

    ref = tiny_jsonl["refs"][0]
    results = Engine().verify_file(tiny_jsonl["files"][0], inputs.K).results
    stripped = {key: dataclasses.replace(r, witness=None) for key, r in results.items()}
    yes_ops = sum(n for sig, n in ref.values() if sig[0])
    assert child.count_failures(stripped, ref, False) == 0
    assert child.count_failures(stripped, ref, True) == yes_ops


def test_stream_references_carry_the_full_history_reason(tmp_path, monkeypatch):
    from repro.core.api import verify
    from repro.io.formats import load_trace

    monkeypatch.setattr(inputs, "CACHE_DIR", tmp_path)
    monkeypatch.setitem(inputs.SHAPES, "stream_rolling", {"registers": 6, "ops": 40, "streams": 1})
    prepared = inputs.prepare("stream_rolling", 5)
    trace = load_trace(prepared["files"][0])
    ref = prepared["refs"][0]
    assert any(not sig[0] for sig, _n in ref.values())
    for key, (sig, ops) in ref.items():
        full = verify(trace[key], inputs.K, algorithm="lbt", kernel="object")
        assert sig == inputs.signature(full) and ops == len(trace[key])


def test_inputs_are_deterministic_per_seed(tmp_path, monkeypatch):
    monkeypatch.setitem(inputs.SHAPES, "serve_pooled", {"registers": 2, "ops": 20, "streams": 2})
    monkeypatch.setattr(inputs, "CACHE_DIR", tmp_path / "a")
    first = inputs.prepare("serve_pooled", 3)
    monkeypatch.setattr(inputs, "CACHE_DIR", tmp_path / "b")
    second = inputs.prepare("serve_pooled", 3)
    assert first["refs"] == second["refs"]
    texts = [[Path(p).read_text() for p in run["files"]] for run in (first, second)]
    assert texts[0] == texts[1]


def test_tracing_wraps_and_restores(tiny_jsonl):
    from repro import Engine
    from repro.algorithms import fzf

    original = fzf.verify_2atomic_fzf
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        assert fzf.verify_2atomic_fzf is not original
        Engine().verify_file(tiny_jsonl["files"][0], inputs.K)
    finally:
        uninstall()
    assert fzf.verify_2atomic_fzf is original
    metrics = tracing.layer_metrics(tracing.totals(tracer), 1, 1.0)
    assert metrics["io.ops_decoded"] == 360
    assert metrics["algorithms.calls"] == 6
    assert metrics["io.decode_s"] > 0 and metrics["core.preprocess_s"] > 0
    assert set(metrics) <= set(tracing.LAYER_METRICS)


def test_measure_pools_its_processes(tiny_jsonl, tmp_path, monkeypatch):
    monkeypatch.setattr(common, "CACHE_DIR", tmp_path)
    monkeypatch.setattr(run, "PROCESSES", 2)
    monkeypatch.setattr(run, "WARMUP_S", 0.0)
    data = run.measure("verify_jsonl", 7, 0.2, trace=True)
    assert len(data["units"]) >= 10  # at least five timed units per process
    assert data["attempted"] == 360 * len(data["units"]) and data["failed"] == 0
    layers = data["layers"]
    assert layers["io.ops_decoded"] == pytest.approx(360)
    assert layers["algorithms.calls"] == pytest.approx(6)
    assert 0.5 < layers["trace.coverage_frac"] <= 1.0


def test_probe_touches_no_gc_tracked_state():
    import gc

    before = len(gc.get_objects())
    for _ in range(5):
        common.probe_ms()
    assert len(gc.get_objects()) - before < 5


def test_run_refuses_without_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "kavbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "kavbench/run.py", "--workload", "verify_jsonl",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
