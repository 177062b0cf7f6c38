import tracemalloc

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def peak_bytes():
    """``peak_bytes(f, *args)`` -> (f(*args), peak bytes tracemalloc saw allocated during the call)."""

    def measure(f, *args):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = f(*args)
            return out, tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    return measure
