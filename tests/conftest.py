import tracemalloc

import numpy as np
import pytest

from slvq.labels import SoftLabelMatrix


def random_labels(rng, n, c, alpha=0.5):
    """Dirichlet-distributed label rows (smaller alpha -> peakier)."""
    return SoftLabelMatrix(rng.dirichlet(np.full(c, alpha), size=n))


def traced_peak(fn, *args):
    """Call ``fn(*args)``; return its result and the peak bytes it held above
    what was allocated before the call, returned result included. numpy
    reports its array buffers to tracemalloc, so they are counted."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
