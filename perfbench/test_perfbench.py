"""Tests of the benchmark itself (not part of the library's test suite).

    python -m pytest perfbench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import workload  # noqa: E402


@pytest.mark.parametrize("pct", [50.0, 75.0, 90.0, 99.0, 99.9])
def test_tail_sample_floor_leaves_ten_beyond(pct):
    n = metrics.samples_for_tail(pct)
    assert metrics.latency_summary([i / 1e3 for i in range(n)], pct)["tail_samples_beyond"] >= 10
    below = metrics.latency_summary([i / 1e3 for i in range(n - 1)], pct)
    assert below["tail_samples_beyond"] < 10


def test_tail_is_nearest_rank():
    summary = metrics.latency_summary([i / 1e3 for i in range(1, 101)], 75.0)
    assert math.isclose(summary["latency_tail_ms"], 75.0)
    assert summary["tail_samples_beyond"] == 25


def test_calibration_scales_by_local_kernel_time():
    cal = workload.Calibration()
    n = 3 * workload.CALIBRATION_WINDOW
    cal.starts = [float(i) for i in range(n)]
    # The host runs at reference speed, then at half speed.
    cal.durations = [workload.KERNEL_REF_S] * (n // 2) + [2 * workload.KERNEL_REF_S] * (n - n // 2)
    scale = cal.scale([0.5, n - 0.5])
    assert scale[0] == 1.0
    assert scale[1] == 0.5


def test_self_check():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--self-check"], cwd=ROOT,
                          capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count(": ok") == 4


def test_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cmd = [sys.executable, *spec["command"][1:], "--workload", "search", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
