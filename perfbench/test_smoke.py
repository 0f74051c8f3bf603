"""Tiny-size smoke run of the benchmark: all three workloads, untraced and traced.

    python3 -m pytest -q perfbench

Checks that each metric BENCHMARK.json names is printed with its unit and
that no op failed.  Not part of the tier-1 suite (tests/).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)


def _run(workload: str, trace: int) -> tuple[str, dict]:
    proc = subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return proc.stdout, json.loads(lines[-1])


def _check(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced(workload):
    out, result = _run(workload, 0)
    _check(result, BENCH["end_to_end"])
    assert all(result["metrics"][m["name"]]["value"] > 0 for m in BENCH["end_to_end"])
    fail_frac = next(ln.split()[1] for ln in out.splitlines() if ln.startswith("fail_frac"))
    assert float(fail_frac) == 0


def test_traced():
    _, result = _run(BENCH["workloads"][0]["name"], 1)
    _check(result, BENCH["per_layer"])


def test_refuses_without_sources(tmp_path):
    """With only the benchmark's files present, it exits nonzero, printing no result."""
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", "profile_sweep", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
