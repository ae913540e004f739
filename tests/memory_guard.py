"""Traced memory of one call, for the tests' peak-memory guards."""

import tracemalloc


def traced_peak(fn, *args, **kwargs) -> int:
    """Bytes that ``fn(*args, **kwargs)`` held at its traced peak, over those held at its start."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
