"""Fixtures shared by the test modules."""

import tracemalloc

import pytest

from hgdiff import numerics

# usable CPU counts the worker-count tests force: inline, two and three
# workers, and more CPUs than most of their inputs have blocks
WORKER_COUNTS = (1, 2, 3, 16)


def _allocations(fn, *args, **kwargs):
    """Call ``fn(*args, **kwargs)`` and return (result, peak, held): the most
    bytes the call had allocated at once, and the bytes it left allocated,
    as tracemalloc counts them. numpy reports its array buffers to
    tracemalloc, so both include every array the call made."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args, **kwargs)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    return result, peak - base, current - base


@pytest.fixture
def allocations():
    """The :func:`_allocations` probe: ``allocations(fn, *args)`` gives
    (result, peak bytes, held bytes) of that one call."""
    return _allocations


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(n)`` makes :func:`numerics.map_blocks` see n usable CPUs,
    for work that calls the BLAS and work that does not."""
    def force(n):
        monkeypatch.setattr(numerics, "_cpu_count", lambda blas=True: n)
    return force
