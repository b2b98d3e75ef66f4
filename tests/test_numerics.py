import os
import threading

import numpy as np
import pytest

from hgdiff import numerics
from hgdiff.numerics import (
    AdamState,
    CsrMatrix,
    GradCheckError,
    Rng,
    ShapeError,
    adam_step,
    grad_check,
    map_blocks,
    scatter_add,
    spmm,
)

from conftest import WORKER_COUNTS


def csr(rows, cols, r, c, values):
    """A rows x cols CSR matrix of distinct entries (r[i], c[i]) = values[i],
    given in any order."""
    r, c = np.asarray(r, dtype=np.int64), np.asarray(c, dtype=np.int64)
    order = np.lexsort((c, r))
    offsets = np.concatenate([[0], np.cumsum(np.bincount(r, minlength=rows))])
    return CsrMatrix(rows, cols, offsets, c[order], np.asarray(values, dtype=np.float64)[order])


def identity(n):
    return csr(n, n, np.arange(n), np.arange(n), np.ones(n))


def random_csr(rng, rows, cols, density=0.3):
    mask = rng.uniform((rows, cols)) < density
    r, c = np.nonzero(mask)
    vals = rng.standard_normal(r.size)
    return csr(rows, cols, r, c, vals)


def spread_degree_csr(rng, rows, cols):
    """A CSR matrix whose rows draw their density from 0 to 1, so its
    nonzero counts spread over many degrees, some rows left empty."""
    mask = rng.uniform((rows, cols)) < rng.uniform((rows, 1)) ** 2
    r, c = np.nonzero(mask)
    return csr(rows, cols, r, c, rng.standard_normal(r.size))


def spmm_per_degree(a, b):
    """Reference for spmm: one gather and one contraction over k per nonzero
    count k, with no padding."""
    out = np.zeros((a.rows, b.shape[1]))
    counts = np.diff(a.row_offsets)
    for k in np.unique(counts[counts > 0]):
        rows = np.flatnonzero(counts == k)
        pos = a.row_offsets[rows][:, None] + np.arange(k)
        out[rows] = np.einsum("nk,nkd->nd", a.values[pos], b[a.col_indices[pos]])
    return out


class TestCsr:
    def test_identity_spmm(self):
        b = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(spmm(identity(2), b), b)

    def test_zero_matrix_annihilates(self):
        a = csr(3, 3, [], [], [])
        b = np.arange(9.0).reshape(3, 3)
        assert np.array_equal(spmm(a, b), np.zeros((3, 3)))

    def test_swap_rows(self):
        a = csr(2, 2, [0, 1], [1, 0], [1.0, 1.0])
        b = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(spmm(a, b), np.array([[3.0, 4.0], [1.0, 2.0]]))

    def test_spmm_matches_dense_oracle(self):
        rng = Rng(7)
        cases = []
        for trial in range(25):
            rows = int(rng.integers(1, 33))
            inner = int(rng.integers(1, 33))
            cols = int(rng.integers(1, 9))
            cases.append((random_csr(rng.derive(f"a{trial}"), rows, inner),
                          rng.derive(f"b{trial}").standard_normal((inner, cols))))
        # empty rows between and around filled ones
        gaps = rng.derive("gaps")
        cases.append((csr(7, 5, [1, 1, 4, 4, 4], [0, 3, 1, 2, 4],
                                         gaps.standard_normal(5)),
                      gaps.standard_normal((5, 3))))
        # skewed degrees: one row holds most nonzeros
        skew = rng.derive("skew")
        r = np.concatenate([np.zeros(60, dtype=np.int64), [2, 5, 5]])
        c = np.concatenate([np.arange(60), [3, 7, 59]])
        cases.append((csr(9, 60, r, c, skew.standard_normal(r.size)),
                      skew.standard_normal((60, 4))))
        # nnz == 0
        cases.append((csr(4, 6, [], [], []),
                      rng.derive("zero").standard_normal((6, 2))))
        # d = 1 and d = 32
        for d in (1, 32):
            wide = rng.derive(f"d{d}")
            cases.append((random_csr(wide, 40, 30), wide.standard_normal((30, d))))
        for a, b in cases:
            expect = a.to_dense() @ b
            out = spmm(a, b)
            assert np.max(np.abs(out - expect)) < 1e-12
            assert np.array_equal(spmm(a, b), out)

    def test_padded_groups_match_the_per_degree_kernel_bit_for_bit(self):
        rng = Rng(31)
        cases = []
        for trial in range(12):
            rows = int(rng.integers(2, 80))
            inner = int(rng.integers(1, 60))
            cases.append(spread_degree_csr(rng.derive(f"spread{trial}"), rows, inner))
        cases.append(random_csr(rng.derive("random"), 50, 40))
        # empty rows between and around filled ones
        cases.append(csr(7, 5, [1, 1, 4, 4, 4, 6], [0, 3, 1, 2, 4, 0],
                                        rng.derive("gaps").standard_normal(6)))
        # one dominant row over rows of one and two nonzeros
        r = np.concatenate([np.zeros(60, dtype=np.int64), [2, 5, 5, 7, 8, 8]])
        c = np.concatenate([np.arange(60), [3, 7, 59, 0, 1, 2]])
        cases.append(csr(9, 60, r, c, rng.derive("skew").standard_normal(r.size)))
        padded = 0
        for a in cases:
            padded += sum(int((vals == 0.0).sum()) for _, _, vals in a.degree_buckets())
            for d in (2, 3, 32):
                b = rng.derive(f"b{a.rows}x{d}").standard_normal((a.cols, d))
                # operand rows that are all +0.0 and all -0.0
                b[::3] = 0.0
                b[1::4] = -0.0
                assert np.array_equal(bits(spmm(a, b)), bits(spmm_per_degree(a, b))), (a.rows, d)
            # at d = 1 the contraction's partial sums over k depend on the
            # group's k, so only closeness to the reference and reruns hold
            b = rng.derive(f"b{a.rows}x1").standard_normal((a.cols, 1))
            out = spmm(a, b)
            assert np.max(np.abs(out - spmm_per_degree(a, b))) < 1e-12
            assert np.array_equal(bits(spmm(a, b)), bits(out))
        assert padded > 0

    def test_degree_groups_stay_within_the_padding_budget(self):
        rng = Rng(32)
        for trial in range(20):
            a = spread_degree_csr(rng.derive(f"{trial}"), int(rng.integers(2, 120)), 70)
            counts = np.diff(a.row_offsets)
            groups = a.degree_buckets()
            assert a.degree_buckets() is groups  # memoized
            rows = np.concatenate([g[0] for g in groups]) if groups else np.zeros(0, int)
            assert np.array_equal(np.sort(rows), np.flatnonzero(counts))
            for grp_rows, cols, vals in groups:
                k = cols.shape[1]
                assert k == counts[grp_rows].max()
                assert int((k - counts[grp_rows]).sum()) <= numerics._PAD_ENTRIES
                for row, row_cols, row_vals in zip(grp_rows, cols, vals):
                    n, lo = counts[row], a.row_offsets[row]
                    assert np.array_equal(row_cols[:n], a.col_indices[lo:lo + n])
                    assert np.array_equal(row_vals[:n], a.values[lo:lo + n])
                    # padding: value +0.0 at a repeat of the row's last column
                    assert np.all(row_cols[n:] == row_cols[n - 1])
                    assert np.array_equal(bits(row_vals[n:]), bits(np.zeros(k - n)))
            # groups hold disjoint degree ranges, the largest degrees first
            for (upper, _, _), (lower, _, _) in zip(groups, groups[1:]):
                assert counts[upper].min() > counts[lower].max()

    def test_spmm_shape_mismatch(self):
        a = identity(3)
        with pytest.raises(ShapeError):
            spmm(a, np.ones((2, 2)))

    def test_transpose_round_trip(self):
        rng = Rng(11)
        cases = [random_csr(rng, 6, 9),
                 # empty rows and columns between and around filled ones
                 csr(5, 7, [3, 1, 1, 3], [5, 2, 5, 0], rng.derive("gaps").standard_normal(4)),
                 csr(4, 6, [], [], []),  # nnz == 0
                 random_csr(rng.derive("row"), 1, 8, 0.6),  # 1 x n
                 random_csr(rng.derive("col"), 8, 1, 0.6),  # n x 1
                 csr(0, 3, [], [], []), csr(3, 0, [], [], [])]
        for a in cases:
            at = a.transpose()
            assert (at.rows, at.cols) == (a.cols, a.rows)
            assert np.array_equal(at.to_dense(), a.to_dense().T)
            back = at.transpose()
            assert (back.rows, back.cols) == (a.rows, a.cols)
            for name in ("row_offsets", "col_indices", "values"):
                got, was = getattr(back, name), getattr(a, name)
                assert got.dtype == was.dtype and np.array_equal(got.view(np.int64),
                                                                 was.view(np.int64)), name

    def test_invariant_violations_rejected(self):
        with pytest.raises(ShapeError):
            CsrMatrix(2, 2, [0, 1], [0], [1.0])  # offsets wrong length
        with pytest.raises(ShapeError):
            CsrMatrix(1, 2, [0, 2], [1, 0], [1.0, 1.0])  # not increasing
        with pytest.raises(ValueError):
            CsrMatrix(1, 1, [0, 1], [0], [np.nan])

    def test_validate_checks_order_within_rows_only(self):
        # columns may drop or repeat where a row starts, empty rows included
        CsrMatrix(4, 4, [0, 2, 2, 3, 5], [1, 3, 0, 0, 2], np.ones(5))
        cases = [
            ([0, 1, 4, 4, 5], [2, 0, 1, 1, 0], 1),  # equal pair in a middle row
            ([0, 1, 4, 4, 5], [2, 0, 3, 2, 0], 1),  # descending pair in a middle row
            ([0, 1, 1, 3, 4], [2, 3, 1, 0], 2),     # descending after an empty row
        ]
        for offsets, cols, row in cases:
            with pytest.raises(ShapeError, match=f"not strictly increasing in row {row}$"):
                CsrMatrix(4, 4, offsets, cols, np.ones(len(cols)))


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


class TestScatterAdd:
    """scatter_add is np.add.at into zeros, bit for bit."""

    def reference(self, index, values, rows):
        out = np.zeros((rows,) + np.shape(values)[1:])
        np.add.at(out, index, values)
        return out

    def cases(self):
        rng = Rng(70)
        for trial, (n, rows, d) in enumerate([(1, 1, 3), (40, 5, 4), (300, 50, 32),
                                              (500, 1000, 7), (64, 3, 1)]):
            r = rng.derive(f"case{trial}")
            index = r.integers(0, rows, size=n)
            values = r.standard_normal((n, d)) * 10.0 ** r.integers(-3, 4, size=(n, 1))
            yield index, values, rows
        # signed zeros: add.at starts every row at +0.0, so -0.0 + -0.0 -> +0.0
        yield np.array([0, 0, 1, 2]), np.array([[-0.0, 1.0], [-0.0, -1.0],
                                                [-0.0, -0.0], [0.0, -0.0]]), 4
        yield np.zeros(0, dtype=np.int64), np.zeros((0, 3)), 4

    def test_matches_add_at(self):
        for index, values, rows in self.cases():
            assert np.array_equal(bits(scatter_add(index, values, rows)),
                                  bits(self.reference(index, values, rows)))
            column = values[:, 0]
            assert np.array_equal(bits(scatter_add(index, column, rows)),
                                  bits(self.reference(index, column, rows)))

    def test_column_blocks_match_add_at(self, monkeypatch):
        # budgets below one column's values, of a few columns' and of all
        for budget in (1, 7, 64, 1 << 16):
            monkeypatch.setattr(numerics, "_SCATTER_VALUES", budget)
            for index, values, rows in self.cases():
                assert np.array_equal(bits(scatter_add(index, values, rows)),
                                      bits(self.reference(index, values, rows))), budget

    def test_wide_scatter_holds_no_whole_key_array(self, allocations):
        # the step-embedding gradient of a mid-size side: 8000 rows, the
        # strided time half of a (rows, 64) gradient, 100 steps
        rng = Rng(72)
        values = rng.standard_normal((8000, 64))[:, 32:]
        index = rng.integers(0, 100, size=8000)
        out, peak, _ = allocations(scatter_add, index, values, 100)
        assert np.array_equal(bits(out), bits(self.reference(index, values, 100)))
        # one call over all 256,000 values would hold 2 MB of int64 keys and
        # a 2 MB contiguous copy of the values
        assert peak < values.size * 8, peak

    def test_strided_values_and_dtype(self):
        rng = Rng(71)
        index = rng.integers(0, 6, size=30)
        values = rng.standard_normal((30, 10))[:, 3:9:2]  # not contiguous
        out = scatter_add(index, values, 6)
        assert out.dtype == np.float64 and out.shape == (6, 3)
        assert np.array_equal(bits(out), bits(self.reference(index, values, 6)))
        assert scatter_add(np.zeros(0, dtype=np.int64), np.zeros(0), 2).dtype == np.float64

    def test_rejects_bad_index_and_shape(self):
        with pytest.raises(ShapeError):
            scatter_add(np.array([0, 3]), np.ones((2, 2)), 3)
        with pytest.raises(ShapeError):
            scatter_add(np.array([-1]), np.ones((1, 2)), 3)
        with pytest.raises(ShapeError):
            scatter_add(np.array([0, 1]), np.ones((3, 2)), 3)


class TestMapBlocks:
    """map_blocks gives fn's results in block order on any worker count."""

    def test_results_in_block_order_on_at_most_one_thread_per_cpu(self, cpus):
        blocks = np.array_split(np.arange(40.0), 7)
        for workers in WORKER_COUNTS:
            cpus(workers)
            threads = set()

            def total(block):
                threads.add(threading.get_ident())
                return float(block.sum())

            assert map_blocks(total, blocks) == [float(b.sum()) for b in blocks]
            assert 1 <= len(threads) <= min(workers, len(blocks))
            assert (threading.get_ident() in threads) == (workers == 1)

    def test_one_block_or_one_cpu_starts_no_thread(self, monkeypatch, cpus):
        def refuse(self):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        for workers, n_blocks in ((16, 1), (1, 5), (3, 0)):
            cpus(workers)
            assert map_blocks(lambda i: i * 2, range(n_blocks)) == list(range(0, 2 * n_blocks, 2))

    def test_error_in_a_worker_reaches_the_caller(self, cpus):
        def fail_on_three(i):
            if i == 3:
                raise ShapeError("bad block 3")
            return i

        for workers in WORKER_COUNTS:
            cpus(workers)
            with pytest.raises(ShapeError, match="bad block 3"):
                map_blocks(fail_on_three, range(6))

    def test_workers_need_a_one_thread_blas(self, monkeypatch):
        # OpenBLAS's variables in the order it reads them; threads <= 0 or
        # a non-number pass to the next, none set means one per CPU
        names = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
        if hasattr(os, "sched_getaffinity"):
            usable = len(os.sched_getaffinity(0))
        else:
            usable = os.cpu_count()
        for env, threads in [({}, None), ({"OMP_NUM_THREADS": "1"}, 1),
                             ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2),
                             ({"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "1"}, 1),
                             ({"OPENBLAS_NUM_THREADS": "x", "OMP_NUM_THREADS": "4"}, 4),
                             ({"GOTO_NUM_THREADS": " 1 "}, 1)]:
            for name in names:
                monkeypatch.delenv(name, raising=False)
            for name, value in env.items():
                monkeypatch.setenv(name, value)
            assert numerics._blas_threads() == threads, env
            assert numerics._cpu_count() == (usable if threads == 1 else 1), env
            assert numerics._cpu_count(blas=False) == usable, env

    def test_work_without_blas_runs_on_every_cpu(self, monkeypatch):
        # OpenBLAS left at one thread per CPU keeps BLAS work inline, not
        # work that calls no BLAS
        for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setattr(numerics.os, "sched_getaffinity", lambda pid: {0, 1, 2},
                            raising=False)
        monkeypatch.setattr(numerics.os, "cpu_count", lambda: 3)
        for blas, workers in ((True, 1), (False, 3)):
            threads = set()

            def which(i):
                threads.add(threading.get_ident())
                return i

            assert numerics.worker_count(5, blas) == workers
            assert map_blocks(which, range(5), blas=blas) == list(range(5))
            assert 1 <= len(threads) <= workers
            assert (threading.get_ident() in threads) == (workers == 1)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert numerics.worker_count(5) == numerics.worker_count(5, blas=False) == 3


class TestRng:
    def test_same_seed_same_stream(self):
        a = Rng(123).normal(4, 5)
        b = Rng(123).normal(4, 5)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = Rng(1).normal(3, 3)
        b = Rng(2).normal(3, 3)
        assert np.any(a != b)

    def test_moments(self):
        samples = Rng(99).normal(1000, 100)
        assert abs(samples.mean()) < 0.02
        assert abs(samples.var() - 1.0) < 0.05

    def test_zero_sized_rejected(self):
        with pytest.raises(ShapeError):
            Rng(0).normal(0, 4)

    def test_derive_is_deterministic_and_independent(self):
        r = Rng(5)
        a1 = r.derive("alpha").standard_normal(4)
        a2 = Rng(5).derive("alpha").standard_normal(4)
        b = Rng(5).derive("beta").standard_normal(4)
        assert np.array_equal(a1, a2)
        assert np.any(a1 != b)

    def test_derive_does_not_disturb_parent(self):
        r1, r2 = Rng(77), Rng(77)
        r1.derive("side")
        assert np.array_equal(r1.standard_normal(6), r2.standard_normal(6))


def streams_in_every_state():
    """A fresh stream, and streams left by `permutation`, `integers` and
    `uniform` calls at each 4-value buffer position, with and without a
    cached 32-bit half."""
    out = {"fresh": Rng(31)}
    for pos in (1, 2, 3, 4):
        for half in (0, 1):
            rng = Rng(31).derive(f"state{pos}{half}")
            rng.permutation(7 + pos)
            state = rng._gen.bit_generator.state
            if state["has_uint32"] != half:
                rng.integers(0, 5)  # a 32-bit draw sets or takes the cached half
            while rng._gen.bit_generator.state["buffer_pos"] != pos:
                rng.uniform(1)
            state = rng._gen.bit_generator.state
            assert (state["buffer_pos"], state["has_uint32"]) == (pos, half)
            out[f"pos{pos}half{half}"] = rng
    return out


def clone(rng):
    """A second stream in `rng`'s exact state, built without `ahead`."""
    twin = Rng(rng.seed)
    twin._gen.bit_generator.state = rng._gen.bit_generator.state
    return twin


def bit_state(rng):
    state = rng._gen.bit_generator.state
    return ({k: v.tolist() for k, v in state["state"].items()}, state["buffer"].tolist(),
            state["buffer_pos"], state["has_uint32"], state["uinteger"])


class TestAhead:
    """Rng.ahead(k) draws what the stream draws after its next k doubles."""

    offsets = list(range(10)) + [(1 << 20) + d for d in (-5, -4, -3, -1, 0, 1, 2, 3, 7)]

    def test_draws_are_the_tail_of_one_long_draw(self):
        for label, rng in streams_in_every_state().items():
            before = bit_state(rng)
            long = clone(rng).uniform(max(self.offsets) + 40)
            for k in self.offsets:
                got = rng.ahead(k).uniform(40)
                assert np.array_equal(got, long[k:k + 40]), (label, k)
            assert bit_state(rng) == before, label  # the source does not move

    def test_state_is_the_one_drawing_leaves(self):
        for label, rng in streams_in_every_state().items():
            for k in self.offsets:
                drawn = clone(rng)
                drawn.uniform(k)
                skipped = rng.ahead(k)
                assert bit_state(skipped) == bit_state(drawn), (label, k)
                assert np.array_equal(skipped.integers(0, 1000, size=7),
                                      drawn.integers(0, 1000, size=7)), (label, k)
                assert skipped.integers(0, 3) == drawn.integers(0, 3), (label, k)
                assert np.array_equal(skipped.uniform(5), drawn.uniform(5)), (label, k)


def scalar_adam_trace(grads, lr=0.05, beta1=0.9, beta2=0.999, eps=1e-8, x0=1.0):
    # independent reference implementation, plain floats
    m = v = 0.0
    x = x0
    out = []
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        x = x - lr * m_hat / (np.sqrt(v_hat) + eps)
        out.append(x)
    return out


class TestAdam:
    def test_zero_grad_is_identity(self):
        param = np.arange(6.0).reshape(2, 3)
        state = AdamState.for_param(param, lr=0.3)
        before = param.copy()
        for _ in range(3):
            adam_step(state, param, np.zeros_like(param))
        assert np.array_equal(param, before)
        assert state.step == 3

    def test_first_step_magnitude(self):
        # m_hat = g, v_hat = g^2, so the first update is ~lr
        param = np.array([[5.0]])
        state = AdamState.for_param(param, lr=0.1)
        adam_step(state, param, np.array([[2.0]]))
        assert abs((5.0 - param[0, 0]) - 0.1) < 1e-7

    def test_matches_scalar_reference(self):
        grads = [2.0, -0.5, 1.25, 0.0, 3.0]
        param = np.array([[1.0]])
        state = AdamState.for_param(param, lr=0.05)
        got = []
        for g in grads:
            adam_step(state, param, np.array([[g]]))
            got.append(param[0, 0])
        expect = scalar_adam_trace(grads)
        assert np.allclose(got, expect, rtol=0, atol=1e-15)

    def test_shape_mismatch_rejected(self):
        param = np.zeros((2, 2))
        state = AdamState.for_param(param)
        with pytest.raises(ShapeError):
            adam_step(state, param, np.zeros((2, 3)))


class TestGradCheck:
    def test_quadratic(self):
        f = lambda x: float(x[0] ** 2)
        err = grad_check(f, np.array([6.0]), np.array([3.0]), h=1e-4)
        assert err < 1e-6

    def test_constant(self):
        f = lambda x: 4.25
        err = grad_check(f, np.zeros(3), np.ones(3), h=1e-4)
        assert err == 0.0

    def test_detects_wrong_gradient(self):
        f = lambda x: float(np.sum(x ** 2))
        x = np.array([1.0, -2.0])
        err = grad_check(f, np.array([2.0, 0.0]), x, h=1e-5)
        assert err > 0.5

    def test_probe_failure_reported(self):
        f = lambda x: float(np.log(x[0]))
        with np.errstate(invalid="ignore"), pytest.raises(GradCheckError):
            grad_check(f, np.array([1e5]), np.array([1e-6]), h=1e-4)
