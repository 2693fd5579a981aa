"""The benchmark's own tests.

Run from the repository root::

    python3 -m pytest perfbench -q

The smoke tests drive ``perfbench/run.py`` exactly as a user would, with
a one-second measurement per workload and mode (about two minutes in
all).
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import ledger, recipe, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")


def manifest() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_bench(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


# -- the manifest --------------------------------------------------------
def test_manifest_names_every_workload_and_bounds_setup_loosest():
    data = manifest()
    assert set(data) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in data["workloads"]] == list(
        workloads.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in data["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    names = [m["name"] for m in data["end_to_end"] + data["per_layer"]]
    assert len(names) == len(set(names))


# -- smoke pass of every workload ----------------------------------------
@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = manifest()["per_layer" if trace else "end_to_end"]
    assert {name: entry["unit"]
            for name, entry in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    if trace:
        assert (result["metrics"]["ledger.closure_err"]["value"]
                <= ledger.CLOSURE_TOLERANCE)
    else:
        assert all(entry["value"] > 0
                   for entry in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("paper_calls", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- the selection oracle ------------------------------------------------
def test_oracle_catches_an_injected_wrong_selection(monkeypatch):
    """A runtime that serves one wrong thread count in every ten calls
    must be caught: the run counts the mismatches and is not correct."""
    from repro.core.library import AdsalaRuntime

    monkeypatch.setattr(recipe, "SETUP_REPEATS", 1)
    honest_run = AdsalaRuntime.run
    calls = {"n": 0}

    def tampered(self, spec):
        record = honest_run(self, spec)
        calls["n"] += 1
        if calls["n"] % 10 == 0:
            grid = list(self.thread_grid)
            wrong = grid[(grid.index(record.n_threads) + 1) % len(grid)]
            record = type(record)(spec=record.spec, n_threads=wrong,
                                  runtime=record.runtime,
                                  memoised=record.memoised)
        return record

    monkeypatch.setattr(AdsalaRuntime, "run", tampered)
    out = asyncio.run(workloads.paper_calls(seed=3, seconds=0.5,
                                            trace=False))
    assert out.mismatches == calls["n"] // 10 > 0
    assert not out.correct


# -- the ledger ------------------------------------------------------------
class _Nested:
    def outer(self):
        self.inner()
        return "done"

    def inner(self):
        sum(range(20000))


def test_span_self_times_partition_the_outer_span():
    obj = _Nested()
    recorder = ledger.SpanRecorder()
    recorder.wrap(obj, "outer", "serve.outer")
    recorder.wrap(obj, "inner", "engine.inner")
    assert obj.outer() == "done"
    recorder.restore()
    assert "outer" not in vars(obj) and "inner" not in vars(obj)
    total = recorder.total_s["serve.outer"]
    parts = recorder.self_s["serve.outer"] + recorder.self_s["engine.inner"]
    assert parts == pytest.approx(total, rel=1e-9)
    assert recorder.calls == {"serve.outer": 1, "engine.inner": 1}


def test_closure_error_and_layer_split():
    split = ledger.layer_split({"engine.cache": 2.0, "engine.service": 3.0,
                                "machine.timed_run": 5.0})
    assert split["engine"] == 5.0 and split["machine"] == 5.0
    assert ledger.closure_error(sum(split.values()), 10.5) == \
        pytest.approx(0.5 / 10.5)


def _ledger_outcome(parts_us, differenced, end_to_end_us, plain_us):
    out = workloads.Outcome("unit")
    delta = {"cache_hits": 0, "cache_misses": 4, "n_table_hits": 0,
             "n_table_fallbacks": 4, "n_model_passes": 4}
    workloads._ledger_metrics(out, parts_us, differenced, end_to_end_us,
                              traced_us=sum(parts_us.values()),
                              plain_us=plain_us, requests=4, delta=delta)
    return out


def test_ledger_checks_can_fail():
    """The closure check compares the traced spans with the untraced
    pass, and a differenced layer below zero fails the run."""
    parts = {"compile.plan": 60.0, "machine.timed_run": 40.0}
    closes = _ledger_outcome(parts, {"serve.overhead": 50.0}, 150.0, 100.0)
    assert closes.correct
    assert closes.metrics["ledger.closure_err"] == pytest.approx(0.0)
    # Spans 30% above the untraced pass they should account for.
    bloated = _ledger_outcome(parts, {"serve.overhead": 80.0}, 150.0, 70.0)
    assert not bloated.correct
    assert bloated.metrics["trace.overhead_frac"] == pytest.approx(100 / 70
                                                                  - 1)
    negative = _ledger_outcome(parts, {"serve.overhead": 0.0,
                                       "fleet.pipe": -5.0}, 95.0, 100.0)
    assert not negative.correct
    assert any("fleet.pipe is not negative" in text and not ok
               for text, ok in negative.checks)


def test_an_episode_meets_the_limit_only_without_failures_or_backlog():
    fast = {"failed": 0, "latencies": [0.004] * 99 + [0.02],
            "drain_s": 0.01}
    assert workloads._meets_limit(fast)
    assert not workloads._meets_limit(dict(fast, failed=1))
    assert not workloads._meets_limit(dict(fast, drain_s=0.2))
    assert not workloads._meets_limit(dict(fast, latencies=[0.004] * 90
                                           + [0.2] * 10))
