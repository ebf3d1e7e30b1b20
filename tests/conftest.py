import sys
from functools import cache
from pathlib import Path

import numpy as np
import pytest

from epsakit.gradcheck import run_suite

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(1234))


@pytest.fixture(scope="session")
def gradcheck_run():
    """run_suite(scope, seed), computed once per (scope, seed) and shared by
    every test of the session that asks for it."""
    return cache(run_suite)
