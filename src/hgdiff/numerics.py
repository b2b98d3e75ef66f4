"""Numeric substrate: CSR sparse matrices, seeded sampling, Adam, gradient checking.

Everything runs in float64. Randomness flows through counter-based Philox
streams so any result is reproducible from (seed, call sequence) alone, and
every hand-derived gradient in the toolkit is certified against central
finite differences via :func:`grad_check`.
"""

from __future__ import annotations

import copy
import hashlib
import os
from dataclasses import dataclass

import numpy as np


# The slope of every leaky ReLU: the encoder's, the denoiser's and the
# classifier's. For 0 <= slope <= 1, max(x, slope * x) is x where x >= 0 and
# slope * x where x < 0, signed zeros and NaN included, so it equals the
# branch form np.where(x >= 0, x, slope * x) bit for bit.
LEAKY_SLOPE = 0.2


class ShapeError(ValueError):
    """Operands with incompatible shapes."""


class GradCheckError(RuntimeError):
    """A finite-difference probe evaluated to a non-finite value."""


def as_matrix(a, name="matrix"):
    """Coerce to a 2-d float64 array, rejecting anything else."""
    out = np.asarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise ShapeError(f"{name} must be 2-d, got shape {out.shape}")
    return out


@dataclass
class CsrMatrix:
    """Sparse matrix in compressed-row form.

    Invariants: row_offsets is nondecreasing with length rows+1, column
    indices are strictly increasing within each row, and all values are
    finite. :func:`hetgraph.normalize` builds every matrix a run uses.
    """

    rows: int
    cols: int
    row_offsets: np.ndarray
    col_indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.row_offsets = np.asarray(self.row_offsets, dtype=np.int64)
        self.col_indices = np.asarray(self.col_indices, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.float64)
        self.validate()

    def validate(self):
        if self.rows < 0 or self.cols < 0:
            raise ShapeError("negative matrix dimensions")
        if self.row_offsets.shape != (self.rows + 1,):
            raise ShapeError("row_offsets must have length rows+1")
        if self.row_offsets[0] != 0 or self.row_offsets[-1] != self.col_indices.size:
            raise ShapeError("row_offsets must start at 0 and end at nnz")
        if np.any(np.diff(self.row_offsets) < 0):
            raise ShapeError("row_offsets must be nondecreasing")
        if self.col_indices.size != self.values.size:
            raise ShapeError("col_indices and values must have the same length")
        if self.col_indices.size:
            if self.col_indices.min() < 0 or self.col_indices.max() >= self.cols:
                raise ShapeError("column index out of range")
            bad = np.diff(self.col_indices) <= 0
            # a column index may drop where a new row starts
            starts = self.row_offsets[1:-1]
            bad[starts[(0 < starts) & (starts < self.nnz)] - 1] = False
            if bad.any():
                r = np.searchsorted(self.row_offsets, np.argmax(bad), side="right") - 1
                raise ShapeError(f"column indices not strictly increasing in row {r}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("sparse values must be finite")

    @property
    def nnz(self):
        return int(self.values.size)

    def to_dense(self):
        out = np.zeros((self.rows, self.cols))
        row_of = np.repeat(np.arange(self.rows), np.diff(self.row_offsets))
        out[row_of, self.col_indices] = self.values
        return out

    def transpose(self):
        # a stable sort by column keeps each new row's columns (the old rows)
        # increasing
        order = np.argsort(self.col_indices, kind="stable")
        row_of = np.repeat(np.arange(self.rows, dtype=np.int64), np.diff(self.row_offsets))
        offsets = np.zeros(self.cols + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.col_indices, minlength=self.cols), out=offsets[1:])
        return CsrMatrix(self.cols, self.rows, offsets, row_of[order], self.values[order])

    def degree_buckets(self):
        """Rows grouped for :func:`spmm`, memoized on the instance (safe
        because values are immutable by convention after construction).

        One `(rows, cols, vals)` triple per group: the group's rows, and
        their column indices and values as (len(rows), k) arrays in stored
        order, k the group's largest nonzero count. Degrees are taken from
        the largest down, and the next degree's rows join the current group
        while the group pads at most `_PAD_ENTRIES` entries; a shorter row is
        padded to k with value 0.0 at a repeat of its last column. Rows with
        no nonzeros are in no group.
        """
        cached = getattr(self, "_buckets", None)
        if cached is None:
            counts = np.diff(self.row_offsets)
            order = np.argsort(-counts, kind="stable")  # largest degree first
            per_count = np.bincount(counts)
            groups = []  # (largest degree, rows, padded entries)
            for k in np.flatnonzero(per_count[1:])[::-1] + 1:
                top, n, pad = groups[-1] if groups else (k, 0, 0)
                pad += per_count[k] * (top - k)
                if groups and pad <= _PAD_ENTRIES:
                    groups[-1] = (top, n + per_count[k], pad)
                else:
                    groups.append((k, per_count[k], 0))
            cached, start = [], 0
            for k, n, _ in groups:
                rows = order[start:start + n]
                start += n
                row_k, slots = counts[rows][:, None], np.arange(k)
                pos = self.row_offsets[rows][:, None] + np.minimum(slots, row_k - 1)
                vals = self.values[pos]
                vals[slots >= row_k] = 0.0
                cached.append((rows, self.col_indices[pos], vals))
            self._buckets = cached
        return cached


# padded entries a degree group of CsrMatrix.degree_buckets may hold. Each
# group costs spmm a gather, an einsum and a scatter, ~6.5 us of calls at
# any size; 64 padded entries at d = 32 cost ~2.5 us of gathered zero
# products (one BLAS thread, 2-vCPU Xeon). Desk relations (200 x 100 users x
# items) fall from 16-19 groups to 6-7, with 10-13% of their entries
# padded; mid relations (8k x 4k), whose low degrees hold hundreds of rows
# each, merge only their sparse top degrees and pad ~0.1%.
_PAD_ENTRIES = 64


def spmm(a: CsrMatrix, b) -> np.ndarray:
    """Sparse @ dense product, O(nnz * d) with no per-row Python work.

    Rows are grouped by nonzero count (:meth:`CsrMatrix.degree_buckets`);
    each group of n rows padded to k entries is one gather of its (n, k, d)
    operand rows and one contraction over k. For d >= 2 a row's products
    are summed in stored column order from +0.0, whatever the other rows
    hold, so reruns are bit-identical. A padded entry adds 0.0 times a
    finite operand, a product of +-0.0, to a partial sum that is never -0.0,
    so for finite operands padding changes no bit. At d = 1 the contraction
    keeps several partial sums over k, so a row's last bits depend on its
    group's k; reruns are still bit-identical. Rows with no nonzeros stay
    zero.
    """
    b = as_matrix(b, "dense operand")
    if a.cols != b.shape[0]:
        raise ShapeError(f"spmm shape mismatch: {a.rows}x{a.cols} @ {b.shape}")
    out = np.zeros((a.rows, b.shape[1]))
    for rows, cols, vals in a.degree_buckets():
        out[rows] = np.einsum("nk,nkd->nd", vals, b[cols])
    return out


# values one np.bincount call of scatter_add takes: wider scatters run over
# column blocks, so their int64 keys and copied values stay near 0.5 MB each
_SCATTER_VALUES = 1 << 16


def scatter_add(index, values, rows):
    """``np.add.at(np.zeros(...), index, values)`` over `rows` rows, bit for bit.

    `values` is 1-d or (len(index), d). np.bincount adds each value into its
    bin in input order starting from +0.0, which is the order add.at uses,
    without add.at's per-element dispatch. Each column's sums are the same
    whichever columns share a call, so more than `_SCATTER_VALUES` values
    are summed a block of columns at a time.
    """
    index = np.asarray(index, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    if values.shape[:1] != index.shape or values.ndim > 2:
        raise ShapeError(f"scatter values {values.shape} vs index {index.shape}")
    if index.size and (index.min() < 0 or index.max() >= rows):
        raise ShapeError(f"scatter index outside 0..{rows - 1}")
    d = values.shape[1] if values.ndim == 2 else 1
    columns = values.reshape(index.size, d)
    width = max(1, _SCATTER_VALUES // max(1, index.size))
    out = np.empty((rows, d))
    for start in range(0, d, width):
        block = columns[:, start:start + width]
        w = block.shape[1]
        keys = (index[:, None] * w + np.arange(w)).ravel()
        # bincount returns int64 zeros when it is given no values at all;
        # the assignment casts them
        out[:, start:start + w] = np.bincount(
            keys, weights=block.ravel(), minlength=rows * w).reshape(rows, w)
    return out.reshape((rows,) + values.shape[1:])


def row_blocks(a, rows):
    """`a` cut by np.array_split into near-equal blocks of about `rows` rows.
    A one-row matrix product takes another BLAS path and rounds differently,
    so no block has a single row unless `a` has one."""
    return np.array_split(a, max(1, min(-(-len(a) // rows), len(a) // 2)))


def map_blocks(fn, blocks, blas=True):
    """``[fn(block) for block in blocks]``, the calls spread over
    :func:`worker_count` worker threads; an exception raised in a call
    reaches the caller.

    numpy and BLAS release the GIL while they work on an array, so blocks
    run side by side. The caller fixes the blocks, never the CPU count, so
    the results are the same whatever the worker count; `taskset` limits
    the CPUs. One block or one CPU runs inline and starts no thread. `fn`
    must be safe to run on distinct blocks at once; `blas=False` says that
    it calls no BLAS.
    """
    workers = worker_count(len(blocks), blas)
    if workers <= 1:
        return [fn(block) for block in blocks]
    from concurrent.futures import ThreadPoolExecutor  # only when threads start
    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(fn, blocks))


def worker_count(n_blocks, blas=True):
    """The threads :func:`map_blocks` runs `n_blocks` blocks on, at most one
    per usable CPU; 1 means inline."""
    return min(n_blocks, _cpu_count(blas))


def _cpu_count(blas=True):
    """The CPUs this process may run on. For work that calls the BLAS
    (`blas`), 1 unless the BLAS runs one thread per call: threaded OpenBLAS
    products called from several threads at once wait on each other, and on
    a 2-vCPU host a mid-link evaluation took 0.73 s on two block workers
    against 0.58 s inline, both with two BLAS threads."""
    if blas and _blas_threads() != 1:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _blas_threads():
    """OpenBLAS's thread count as it reads it at load: the first of these
    variables set to a positive integer, else None for one per CPU."""
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            threads = int(os.environ.get(name, ""))
        except ValueError:
            continue
        if threads > 0:
            return threads
    return None


_STREAM_SALT = b"hgdiff-stream"


def _label_key(label: str) -> int:
    digest = hashlib.sha256(_STREAM_SALT + label.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


class Rng:
    """Seeded random stream backed by the counter-based Philox 4x64 generator.

    Identical (seed, derivation path, call sequence) gives bit-identical
    samples on any platform. `derive` forks a statistically independent
    stream keyed by a label, so unrelated consumers never share state.
    """

    def __init__(self, seed, _path=()):
        self.seed = int(seed)
        self._path = tuple(int(k) for k in _path)
        ss = np.random.SeedSequence(self.seed, spawn_key=self._path)
        self._gen = np.random.Generator(np.random.Philox(ss))

    def derive(self, label: str) -> "Rng":
        return Rng(self.seed, self._path + (_label_key(label),))

    def normal(self, rows, cols):
        if rows <= 0 or cols <= 0:
            raise ShapeError(f"gaussian sample needs positive shape, got {rows}x{cols}")
        return self._gen.standard_normal((rows, cols))

    def standard_normal(self, shape):
        return self._gen.standard_normal(shape)

    def uniform(self, size=None):
        return self._gen.random(size)

    def raw(self, n):
        """The stream's next n 64-bit words as uint64. `uniform` maps a word
        w to exactly (w >> 11) * 2**-53 and takes one word per value, so n
        words leave the stream where n doubles would."""
        return self._gen.bit_generator.random_raw(n)

    def integers(self, low, high, size=None):
        return self._gen.integers(low, high, size=size)

    def choice(self, n, size, replace=False):
        return self._gen.choice(n, size=size, replace=replace)

    def permutation(self, n):
        return self._gen.permutation(n)

    def ahead(self, k):
        """A new stream whose draws are this stream's doubles after its next
        k; this stream does not move.

        Philox is counter-based: past the doubles left in its 4-value buffer,
        `advance` skips whole 4-value blocks, and the last 1-4 are drawn, so
        the new stream's state is the one k draws would leave. The cached
        32-bit half of a 64-bit draw, which integer draws consume, goes with
        the copy.
        """
        state = self._gen.bit_generator.state
        bits = np.random.Philox(0)  # seeded only to be replaced
        bits.state = state
        used = min(k, 4 - state["buffer_pos"])
        bits.random_raw(used)  # a double is one 64-bit draw
        if k > used:
            bits.advance((k - used - 1) // 4)  # empties the buffer and the half
            bits.random_raw((k - used - 1) % 4 + 1)
            moved = bits.state
            moved["has_uint32"], moved["uinteger"] = state["has_uint32"], state["uinteger"]
            bits.state = moved
        out = copy.copy(self)
        out._gen = np.random.Generator(bits)
        return out


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Moment accumulators for one parameter array."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    lr: float = 1e-3

    @classmethod
    def for_param(cls, param, lr=1e-3):
        param = np.asarray(param)
        return cls(np.zeros_like(param, dtype=np.float64),
                   np.zeros_like(param, dtype=np.float64), 0, lr)


def adam_step(state: AdamState, param, grad):
    """Bias-corrected Adam update applied to `param` in place."""
    param = np.asarray(param)
    grad = np.asarray(grad, dtype=np.float64)
    if param.shape != grad.shape:
        raise ShapeError(f"param {param.shape} vs grad {grad.shape}")
    if state.m.shape != param.shape:
        raise ShapeError(f"optimizer state {state.m.shape} vs param {param.shape}")
    state.step += 1
    state.m *= ADAM_BETA1
    state.m += (1.0 - ADAM_BETA1) * grad
    state.v *= ADAM_BETA2
    state.v += (1.0 - ADAM_BETA2) * grad * grad
    m_hat = state.m / (1.0 - ADAM_BETA1 ** state.step)
    v_hat = state.v / (1.0 - ADAM_BETA2 ** state.step)
    param -= state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return param


def grad_check(f, analytic_grad, point, h=1e-5):
    """Max relative disagreement between an analytic gradient and central
    finite differences of `f` around `point`.

    Error per coordinate is |analytic - fd| / max(1, |fd|); non-finite probe
    values raise GradCheckError rather than being skipped.
    """
    x0 = np.asarray(point, dtype=np.float64)
    g = np.asarray(analytic_grad, dtype=np.float64)
    if g.shape != x0.shape:
        raise ShapeError(f"gradient {g.shape} vs point {x0.shape}")
    worst = 0.0
    flat0 = x0.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat0.size):
        for sign in (+1.0, -1.0):
            probe = x0.copy()
            probe.reshape(-1)[i] += sign * h
            val = float(f(probe))
            if not np.isfinite(val):
                raise GradCheckError(f"non-finite value {val} probing coordinate {i}")
            if sign > 0:
                f_plus = val
            else:
                f_minus = val
        fd = (f_plus - f_minus) / (2.0 * h)
        err = abs(gflat[i] - fd) / max(1.0, abs(fd))
        worst = max(worst, err)
    return worst
