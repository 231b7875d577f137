import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(autouse=True)
def clear_memos():
    """Start every test with empty one-entry memos.

    A test that counts block calls must not depend on which test ran before
    it and left a channel draw, a seeded start or start forms behind.
    """
    from pimin import bccd, bench
    bench._trial_channels.cache_clear()
    bccd._seeded_start.cache_clear()
    bccd._start_forms_memo.clear()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
