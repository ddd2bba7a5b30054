from functools import lru_cache

import numpy as np
import pytest
from hypothesis import settings

from tracelab import fem2d

# property tests draw the same examples on every run
settings.register_profile("tracelab", derandomize=True, database=None, deadline=None, max_examples=40)
settings.load_profile("tracelab")


@lru_cache(maxsize=None)
def asm(kind: str, n: int) -> fem2d.Assembly:
    """One shared Assembly per (kind, n); Assembly is immutable."""
    return fem2d.assemble(fem2d.gen_mesh(kind, n))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
