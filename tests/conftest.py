import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
# a bare `python3 -m pytest` from the checkout root imports the package from
# src/, and so do the subprocesses that the tests start
SRC = str(Path(__file__).resolve().parent.parent / "src")
sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(
    [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
)

from multsum import character_by_index


@pytest.fixture(scope="session")
def chi4():
    return character_by_index(4, "real")


@pytest.fixture(scope="session")
def chi5():
    return character_by_index(5, "real")
