"""Smoke test of the benchmark itself; runs in well under a minute.

    python3 -m pytest bench/test_smoke.py

Every workload runs untraced and traced, with the MovieQA shape swapped for
a tiny stand-in (--tiny), through the command BENCHMARK.json names. The
result line must carry every metric BENCHMARK.json names, with its unit, and
the readable report must print setup_s, eval_q_per_s, eval_acc, wall_s,
peak_rss_mb, failed_frac and, on the train workloads, train_items_per_s.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
REPORTED = ("setup_s", "eval_q_per_s", "eval_acc", "wall_s", "peak_rss_mb", "failed_frac")


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric(workload, trace):
    out = _run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "0",
               "--trace", str(trace), "--tiny")
    assert out.returncode == 0, out.stdout + out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], metric["name"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"]), metric["name"]
    if not trace:
        for metric in expected:
            assert result["metrics"][metric["name"]]["value"] != 0, metric["name"]
        printed = {line.split()[0] for line in lines[:-1] if line.strip()}
        names = REPORTED + (("train_items_per_s",) if workload.endswith("-train") else ())
        assert set(names) <= printed


def test_fails_without_the_program(tmp_path):
    """Beside BENCHMARK.json and bench/ alone, the command exits nonzero and
    prints no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
               "--trace", "0")
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_tracer_restores_entry_points():
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]
    try:
        import spans

        def current():
            return {(m, a): getattr(importlib.import_module(m), a, None)
                    for m, a, _ in spans.ENTRY_POINTS}

        before = current()
        with pytest.raises(RuntimeError):
            with spans.Tracer():
                assert all(current()[k] is not v for k, v in before.items() if v is not None)
                raise RuntimeError("traced work failed")
        assert current() == before
    finally:
        del sys.path[:2]
