import sys
from pathlib import Path

import pytest

# make gtools, and the benchmark's ILP oracle it uses, importable as plain
# modules from every test file
sys.path[:0] = [str(Path(__file__).parent), str(Path(__file__).parent.parent / "perfbench")]

from ridom.nordhaus import GammaCache


@pytest.fixture(scope="session")
def gamma2_cache() -> GammaCache:
    """One shared ``ng_record`` cache across the whole run.

    The complement-sum window sweep and the value table tests ask for the
    records of the same small graphs many times; sharing the cache, which
    maps a graph to its value and its complement's, keeps the suite inside
    its time budgets without changing any observable result.
    """
    return {}
