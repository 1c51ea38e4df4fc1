"""Smoke tests for the benchmark itself, on tiny inputs (``--tiny``)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracing
from run import END_TO_END, PER_LAYER

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--seed", "3", "--seconds", "1", "--tiny", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", ["screen-ckpt", "screen-http", "review-large"])
def test_traced_tiny_run_is_correct_and_reports_every_layer(workload):
    proc = _run(ROOT, "--workload", workload, "--trace", "1")
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == list(PER_LAYER)


def test_untraced_tiny_run_reports_every_end_to_end_metric():
    proc = _run(ROOT, "--workload", "screen-http", "--trace", "0")
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "screen-ckpt", "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_self_time_subtracts_only_the_covered_part_of_children():
    # parent 0..100 with children 10..30 and 20..50 (overlapping), grandchild inside
    spans = [
        tracing.Span((0, "p", 0, 100, -1, 0, None, 0, None)),
        tracing.Span((1, "c", 10, 30, 0, 0, None, 0, None)),
        tracing.Span((2, "c", 20, 50, 0, 0, None, 0, None)),
        tracing.Span((3, "g", 12, 14, 1, 0, None, 0, None)),
    ]
    assert tracing.self_ns(spans) == {0: 60, 1: 18, 2: 30, 3: 2}
    assert tracing.union_ns([(0, 10), (5, 20), (30, 40)], lo=8, hi=35) == 17
