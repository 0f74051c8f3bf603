import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from multsum import character_by_index


@pytest.fixture(scope="session")
def chi4():
    return character_by_index(4, "real")


@pytest.fixture(scope="session")
def chi5():
    return character_by_index(5, "real")
