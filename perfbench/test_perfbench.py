"""Self-test of the benchmark: one short round of each workload.

Run from the repo root (it is outside the tier-1 ``tests/`` tree)::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench.registry import END_TO_END, PER_LAYER, WORKLOADS, benchmark_json  # noqa: E402
from perfbench.spans import SpanRecorder  # noqa: E402


def _run(*args: str, cwd: str = ROOT) -> tuple:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    return proc, (json.loads(lines[-1]) if lines else None)


def _check_result(result: dict, units: dict) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
        assert metric["unit"] == units[name], name


def test_benchmark_json_matches_registry():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        assert json.load(handle) == benchmark_json()


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_one_round_emits_every_end_to_end_metric(workload):
    proc, result = _run("--workload", workload, "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr[-2000:]
    _check_result(result, {name: unit for name, (unit, _, _) in END_TO_END.items()})
    assert all(result["metrics"][name]["value"] > 0 for name in END_TO_END)


def test_traced_run_emits_every_per_layer_metric():
    proc, result = _run("--workload", "spawn-churn", "--seconds", "2", "--trace", "1")
    assert proc.returncode == 0, proc.stderr[-2000:]
    _check_result(result, {name: entry["unit"] for name, entry in PER_LAYER.items()})
    assert result["metrics"]["supervision.restarts"]["value"] == 8  # one per supervised pipe


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"),
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("results", "__pycache__"),
    )
    proc, result = _run("--workload", "fig6-light", "--seconds", "1", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert result is None


def test_times_are_scaled_by_the_slowdown_around_each_job():
    from perfbench.harness import Window, end_to_end

    # Two jobs of the same work, the second on a host twice as slow.
    window = Window(elapsed=3.0, attempted=2, items=6, cpu_s=3.0)
    window.job_s = [1.0, 2.0]
    window.job_slowdown = [1.0, 2.0]
    window.first_item = [(0.1, 1.0), (0.2, 2.0)]
    scaled = end_to_end(window, setup_s=0.5, scaled=True)
    raw = end_to_end(window, setup_s=0.5, scaled=False)
    assert scaled["job_p90_ms"][0] == pytest.approx(1000.0)
    assert scaled["first_item_p90_ms"][0] == pytest.approx(100.0)
    assert scaled["items_per_s"][0] == pytest.approx(3.0)  # 6 items in 2 s
    assert scaled["cpu_ms_per_job"][0] == pytest.approx(1000.0)
    assert raw["job_p90_ms"][0] == pytest.approx(1900.0)
    assert raw["items_per_s"][0] == pytest.approx(2.0)


def test_self_time_subtracts_children():
    spans = SpanRecorder()
    spans.spans += [
        (1, "job", 0.0, 10.0, None, 1),
        (2, "layer", 2.0, 5.0, 1, 1),
        (3, "layer", 4.0, 7.0, 1, 1),
    ]
    # The children overlap on [4, 5]: covered time is their union, 5 s.
    assert spans.self_times()["job"] == [5.0]
