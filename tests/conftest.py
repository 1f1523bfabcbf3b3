import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from mertenslab import dirichlet, summatory


@pytest.fixture(scope="session")
def store_1e5():
    return summatory.PrefixSums(10 ** 5)


@pytest.fixture(scope="session")
def store_1e4():
    return summatory.PrefixSums(10 ** 4)


@pytest.fixture(scope="session")
def table_2e4(store_1e5):
    return dirichlet.build_arith_table(store_1e5, 2 * 10 ** 4)
