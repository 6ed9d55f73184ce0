"""The tracemalloc peak of one call, for the tests' memory bounds."""

import tracemalloc


def traced_peak(fn, *args) -> int:
    """Bytes at the tracemalloc peak while fn(*args) runs; its result is
    dropped after the peak is read."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
