import sys
from pathlib import Path

import pytest

# make gtools, and the benchmark's ILP oracle it uses, importable as plain
# modules from every test file
sys.path[:0] = [str(Path(__file__).parent), str(Path(__file__).parent.parent / "perfbench")]

from ridom.nordhaus import GammaCache


@pytest.fixture(scope="session")
def gamma2_cache() -> GammaCache:
    """One shared memo for the 2-rainbow solver across the whole run.

    The acceptance sweeps and the Nordhaus-Gaddum tests hit the same
    small graphs thousands of times; sharing the cache keeps the suite
    inside its time budgets without changing any observable result.
    """
    return {}
