"""Shared test fixtures."""

import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """``measure(fn, *args, **kwargs)``: the peak bytes ``tracemalloc`` sees while ``fn`` runs.

    Arrays made before the call do not count; what ``fn`` returns does, up to its return.
    """
    def measure(fn, *args, **kwargs) -> int:
        tracemalloc.start()
        try:
            fn(*args, **kwargs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return measure
