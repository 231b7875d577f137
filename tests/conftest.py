import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(autouse=True)
def clear_trial_start():
    """Start every test with an empty ``bench._trial_start`` memo.

    A test that counts block calls must not depend on which test ran before
    it and left a trial's channel draw and seeded start behind.
    """
    from pimin import bench
    bench._trial_start.cache_clear()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
