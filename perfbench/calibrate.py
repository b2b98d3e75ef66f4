"""A fixed reference kernel that measures how fast the machine runs right now.

On a machine shared with other tenants, the speed one process gets drifts by
a third within minutes, more than the bounds by which a change may slow the
program. So run.py times this kernel in its own process just before and just
after each job (three passes each; the job's child process never runs it, so
its memory and timings are untouched), and reports the job's end-to-end
times in reference seconds:

    reference seconds = wall seconds * REFERENCE_S / median of the six passes

The kernel is benchmark code and never changes with the program, so a change
that makes the program faster or slower moves the reported times in full;
only a change in machine speed, which slows the kernel as well, cancels out.
Its work mixes what the program spends its time on: an interpreter loop over
Python objects, small numpy operations, row gathers and segment sums over a
sparse-like index, a sort, and writes to freshly allocated memory.
"""

import time

import numpy as np

# median kernel time on a 2-core Xeon at 2.1 GHz (Python 3.11, numpy 2.4,
# one BLAS thread), so that reference seconds read close to wall seconds there
REFERENCE_S = 0.2

_rng = np.random.default_rng(0)
_TABLE = _rng.standard_normal((12000, 32))
_INDEX = _rng.integers(0, 12000, 40000)
_STARTS = np.arange(0, 40000, 4)
_SMALL = _rng.standard_normal((100, 32))
_WEIGHT = _rng.standard_normal((32, 32))
_KEYS = _rng.standard_normal(200000)
_ROWS = [(i, i * 7 % 1000) for i in range(20000)]


def kernel():
    """One pass of the reference work; returns a checksum so none is skipped."""
    total = 0.0
    seen = {}
    for _ in range(80):  # interpreter: tuples, dict updates, comparisons
        for row, col in _ROWS:
            if col >= row:
                seen[col] = seen.get(col, 0) + 1
    total += len(seen)
    x = _SMALL
    for _ in range(2400):  # many small array operations
        x = np.tanh(x @ _WEIGHT) * 0.5 + _SMALL
    total += float(x.sum())
    for _ in range(4):  # gather rows, then sum segments of them
        total += float(np.add.reduceat(_TABLE[_INDEX], _STARTS, axis=0)[0, 0])
    for _ in range(2):
        total += float(np.sort(_KEYS)[0]) + float(np.argsort(_KEYS)[0])
    fresh = np.empty(8_000_000)  # first touch of 64 MB
    fresh.fill(1.0)
    total += float(fresh[-1])
    return total


def timed():
    started = time.perf_counter()
    kernel()
    return time.perf_counter() - started
