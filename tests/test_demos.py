"""Smoke test of the demos: each runs to the end and prints its last claim."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]

# one line each demo prints only once its checks have run
DEMO_LINES = {
    "mean_values_demo.py": "the 1-lambda distance keeps growing: lambda pretends to be nothing",
    "modified_character_demo.py": "(predicted exactly: True)",
    "window_identities_demo.py": "every element reverified from its full factorization",
}


@pytest.mark.parametrize("name", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(name):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert DEMO_LINES[name] in proc.stdout  # a new demo needs its line here
