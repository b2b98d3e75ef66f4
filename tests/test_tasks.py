import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgdiff import tasks
from hgdiff.hetgraph import LabelSet
from hgdiff.numerics import Rng, ShapeError, grad_check
from hgdiff.tasks import (
    ClassifierParams,
    JointLossConfig,
    MaskedScores,
    TripletBatch,
    bpr_loss,
    ce_loss,
    class_metrics,
    fuse,
    joint_loss,
    positive_keys,
    rank_metrics,
    sample_triplets,
)

from conftest import WORKER_COUNTS

# ---------------------------------------------------------------- oracles


def bits(x):
    return np.ascontiguousarray(x, dtype=np.float64).view(np.int64)


def add_rows(table, rows, values):
    """``np.add.at(table, rows, values)`` as a Python loop, ``a[i] = a[i] + v``
    per row in input order. Where both addends are NaN, np.add.at may keep
    the addend's NaN rather than the running sum's, so it would not fix the
    NaN bits that a sum in input order gives."""
    for row, value in zip(rows, values):
        table[row] = table[row] + value


def reference_bpr(emb, batch, chunk):
    """Chunked BPR as a loop: one full-table gradient per chunk, summed row
    by row in triplet order, weighted by the chunk's share of the triplets
    and added in chunk order."""
    total = len(batch)
    grad = np.zeros_like(emb)
    loss = 0.0
    for start in range(0, total, chunk):
        users = batch.users[start:start + chunk]
        pos = batch.pos[start:start + chunk]
        neg = batch.neg[start:start + chunk]
        e_u, e_p, e_n = emb[users], emb[pos], emb[neg]
        diff = ((e_p - e_n) * e_u).sum(axis=1)
        part = float(np.logaddexp(0.0, -diff).mean())
        coef = (-tasks._sigmoid(-diff) / users.size)[:, None]
        g = np.zeros_like(emb)
        add_rows(g, users, coef * (e_p - e_n))
        add_rows(g, pos, coef * e_u)
        add_rows(g, neg, -coef * e_u)
        weight = users.size / total
        loss += weight * part
        grad += weight * g
    return loss, grad


def reference_sample_triplets(edges, n_items, user_offset, item_offset, rng):
    """Negative sampling with a dict of sets and a Python test per triplet."""
    edges = np.asarray(edges, dtype=np.int64)
    positives = {}
    for u, v in edges:
        positives.setdefault(int(u), set()).add(int(v))
    order = rng.permutation(edges.shape[0])
    users = edges[order, 0]
    pos = edges[order, 1]
    neg = np.asarray(rng.integers(0, n_items, size=users.size), dtype=np.int64)
    pending = np.flatnonzero([int(v) in positives.get(int(u), ())
                              for u, v in zip(users, neg)])
    while pending.size:
        neg[pending] = rng.integers(0, n_items, size=pending.size)
        pending = pending[[int(neg[i]) in positives.get(int(users[i]), ())
                           for i in pending]]
    return TripletBatch(users + user_offset, pos + item_offset, neg + item_offset)


def brute_rank(scores_row, truth, k):
    order = sorted(range(len(scores_row)), key=lambda j: (-scores_row[j], j))
    rank = order.index(truth) + 1
    if rank > k:
        return 0.0, 0.0
    return 1.0, 1.0 / math.log2(rank + 1)


def brute_f1(pred, labels, n_classes):
    def f1_of(tp, fp, fn):
        return 2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0

    tps = fps = fns = 0
    per_class = []
    for c in range(n_classes):
        tp = sum(1 for p, y in zip(pred, labels) if p == c and y == c)
        fp = sum(1 for p, y in zip(pred, labels) if p == c and y != c)
        fn = sum(1 for p, y in zip(pred, labels) if p != c and y == c)
        tps, fps, fns = tps + tp, fps + fp, fns + fn
        per_class.append(f1_of(tp, fp, fn))
    return f1_of(tps, fps, fns), sum(per_class) / n_classes


def brute_auc(scores, is_pos):
    pos = [s for s, y in zip(scores, is_pos) if y]
    neg = [s for s, y in zip(scores, is_pos) if not y]
    if not pos or not neg:
        return None
    wins = sum(1.0 if p > n else 0.5 if p == n else 0.0 for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


def loop_midranks(values):
    """Midranks by a walk over the stably sorted values: each run of values
    equal to the run's first value takes the mean of its 1-based ranks."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size)
    sorted_vals = values[order]
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2 + 1
        i = j + 1
    return ranks


# ---------------------------------------------------------------- fuse


class TestFuse:
    def test_zero_identity(self):
        a = Rng(0).normal(3, 2)
        assert np.array_equal(fuse(a, np.zeros_like(a)), a)

    def test_commutative(self):
        a, b = Rng(1).normal(3, 2), Rng(2).normal(3, 2)
        assert np.array_equal(fuse(a, b), fuse(b, a))

    def test_elementwise(self):
        a, b = Rng(3).normal(3, 2), Rng(4).normal(3, 2)
        expect = np.array([[a[i, j] + b[i, j] for j in range(2)] for i in range(3)])
        assert np.array_equal(fuse(a, b), expect)
        # the step fuses over the denoised table it has finished reading
        assert fuse(a, b, out=b) is b and np.array_equal(b, expect)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            fuse(np.ones((2, 2)), np.ones((3, 2)))


# ---------------------------------------------------------------- bpr


class TestBpr:
    def test_equal_scores_ln2(self):
        emb = np.array([[1.0, 0.0], [0.5, 0.5], [0.5, 0.5]])
        loss, _ = bpr_loss(emb, TripletBatch([0], [1], [2]))
        assert abs(loss - math.log(2)) < 1e-9

    def test_unit_score_difference(self):
        # u.(p-n) = 1
        emb = np.array([[1.0, 0.0], [1.5, 0.0], [0.5, 0.0]])
        loss, _ = bpr_loss(emb, TripletBatch([0], [1], [2]))
        assert abs(loss - math.log(1 + math.e ** -1)) < 1e-9

    def test_large_difference_goes_to_zero(self):
        losses = []
        for gap in (1.0, 5.0, 20.0):
            emb = np.array([[1.0, 0.0], [gap, 0.0], [0.0, 0.0]])
            loss, _ = bpr_loss(emb, TripletBatch([0], [1], [2]))
            losses.append(loss)
        assert losses[0] > losses[1] > losses[2]
        assert losses[2] < 1e-8

    def test_loss_is_function_of_score_differences(self):
        rng = Rng(5)
        emb = rng.normal(6, 4)
        batch = TripletBatch([0, 1, 2], [3, 4, 5], [4, 5, 3])
        loss, _ = bpr_loss(emb, batch)
        diffs = [emb[u] @ (emb[p] - emb[n])
                 for u, p, n in zip(batch.users, batch.pos, batch.neg)]
        direct = np.mean([math.log(1 + math.exp(-d)) for d in diffs])
        assert abs(loss - direct) < 1e-12

    def test_gradient_certified_three_node_toy(self):
        base = Rng(6).normal(3, 2)
        batch = TripletBatch([0], [1], [2])

        def f(flat):
            return bpr_loss(flat.reshape(3, 2), batch)[0]

        _, grad = bpr_loss(base, batch)
        assert grad_check(f, grad, base, h=1e-6) < 1e-4

    def test_empty_batch_rejected(self):
        with pytest.raises(ShapeError):
            bpr_loss(np.ones((2, 2)), TripletBatch([], [], []))
        with pytest.raises(ShapeError):
            bpr_loss(np.ones((2, 2)), TripletBatch([0], [1], [1]), chunk=0)

    def batches(self):
        rng = Rng(9)
        for trial in range(3):
            r = rng.derive(f"b{trial}")
            n = 40 + 13 * trial
            emb = r.normal(25, 6) * 10.0 ** (trial - 1)
            # few users and items, so rows repeat within chunks and across them
            yield emb, TripletBatch(r.integers(0, 5, size=n), r.integers(5, 25, size=n),
                                    r.integers(5, 25, size=n))
        # one node type: a row is a user in one triplet and an item in another
        r = rng.derive("shared")
        yield r.normal(6, 4), TripletBatch(r.integers(0, 6, size=30),
                                           r.integers(0, 6, size=30),
                                           r.integers(0, 6, size=30))
        # widths 1 and 33: one column, and one past a multiple of numpy's
        # 8-way unrolled sums
        for d in (1, 33):
            r = rng.derive(f"d{d}")
            yield r.normal(20, d), TripletBatch(r.integers(0, 4, size=35),
                                                r.integers(4, 20, size=35),
                                                r.integers(4, 20, size=35))
        # one row is the user, the positive and the negative of a triplet
        r = rng.derive("self")
        users, pos, neg = (r.integers(0, 8, size=24) for _ in range(3))
        users[5] = pos[5] = neg[5] = 3
        yield r.normal(8, 5), TripletBatch(users, pos, neg)
        # NaN and +-inf entries: their NaN gradients must match bit for bit
        r = rng.derive("nonfinite")
        emb = r.normal(12, 4)
        emb[1, 2] = np.nan
        emb[4, 0] = np.inf
        emb[7, 3] = -np.inf
        emb[9, 1] = -np.nan
        yield emb, TripletBatch(r.integers(0, 5, size=30), r.integers(5, 12, size=30),
                                r.integers(5, 12, size=30))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_chunked_matches_per_chunk_loop(self):
        for emb, batch in self.batches():
            n = len(batch)
            for chunk in (1, 7, n - 1, n, n + 5):
                loss, grad = bpr_loss(emb, batch, chunk=chunk)
                ref_loss, ref_grad = reference_bpr(emb, batch, chunk)
                assert np.array_equal(bits(loss), bits(ref_loss)), chunk
                assert np.array_equal(bits(grad), bits(ref_grad)), chunk

    def test_working_memory_is_below_three_triplet_tables(self, allocations):
        # the mid-link shape: one epoch of triplets over an 8k + 4k row table
        r = Rng(12)
        n, d = 30000, 32
        emb = r.normal(12000, d)
        batch = TripletBatch(r.integers(0, 8000, size=n), r.integers(8000, 12000, size=n),
                             r.integers(8000, 12000, size=n))
        _, peak, _ = allocations(bpr_loss, emb, batch, chunk=1024)
        assert peak < 3 * n * d * 8, peak
        # the gradient, and contiguous copies of 8 embedding columns at a
        # time: a transposed copy of the whole table would add most of one
        # more table (3.4 against 4.1 tables here)
        assert peak < 3.8 * emb.nbytes, peak / emb.nbytes

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_one_chunk_is_the_plain_mean(self):
        for emb, batch in self.batches():
            loss, grad = bpr_loss(emb, batch)
            same_loss, same_grad = bpr_loss(emb, batch, chunk=len(batch))
            assert np.array_equal(bits(loss), bits(same_loss))
            assert np.array_equal(bits(grad), bits(same_grad))


class TestSampleTriplets:
    def test_negatives_avoid_positives(self):
        edges = np.array([[0, 0], [0, 1], [1, 2]])
        batch = sample_triplets(edges, n_items=4, user_offset=0, item_offset=10,
                                rng=Rng(7), positives=positive_keys(edges, 4))
        pos_sets = {0: {0, 1}, 1: {2}}
        for u, n in zip(batch.users, batch.neg):
            assert (n - 10) not in pos_sets[int(u)]
        assert len(batch) == 3

    def test_deterministic(self):
        edges = np.array([[0, 0], [1, 1], [2, 2]])
        a = sample_triplets(edges, 5, 0, 3, Rng(8), positive_keys(edges, 5))
        b = sample_triplets(edges, 5, 0, 3, Rng(8), positive_keys(edges, 5))
        assert np.array_equal(a.neg, b.neg) and np.array_equal(a.users, b.users)

    def test_matches_dict_of_sets_reference(self):
        graphs = Rng(12)
        for trial in range(12):
            r = graphs.derive(f"g{trial}")
            n_users, n_items = int(r.integers(1, 30)), int(r.integers(2, 40))
            # up to 90% of a user's items are positives, so redraws are common
            dense = r.uniform((n_users, n_items)) < r.uniform() * 0.9
            for u in range(n_users):
                dense[u, r.integers(0, n_items)] = False  # one negative each
            edges = np.argwhere(dense)
            if edges.shape[0] == 0:
                continue
            edges = edges[r.permutation(edges.shape[0])]
            for seed in range(3):
                ref_rng, rng = Rng(100 * trial + seed), Rng(100 * trial + seed)
                ref = reference_sample_triplets(edges, n_items, 3, 50, ref_rng)
                got = sample_triplets(edges, n_items, 3, 50, rng, positive_keys(edges, n_items))
                for name in ("users", "pos", "neg"):
                    assert np.array_equal(getattr(got, name), getattr(ref, name))
                # the same number of draws left the stream at the same place
                assert rng.integers(0, 1 << 62) == ref_rng.integers(0, 1 << 62)

    def test_positive_keys(self):
        keys = positive_keys(np.array([[2, 1], [0, 3], [0, 0]]), n_items=4)
        assert keys.dtype == np.int64 and keys.tolist() == [0, 3, 9]
        assert positive_keys(np.zeros((0, 2)), n_items=4).size == 0


# ---------------------------------------------------------------- ce


def labeled(ids, classes, n_classes):
    return LabelSet("user", np.array(ids), np.array(classes), n_classes)


class TestCe:
    def test_zero_classifier_uniform(self):
        for n_classes in (2, 3, 7):
            clf = ClassifierParams(np.zeros((4, 4)), np.zeros(4),
                                   np.zeros((4, n_classes)), np.zeros(n_classes))
            emb = Rng(9).normal(5, 4)
            loss, _, _ = ce_loss(emb, clf, labeled([0, 2, 4], [0, 1, 1], n_classes))
            assert abs(loss - math.log(n_classes)) < 1e-9

    def test_confident_correct_goes_to_zero(self):
        clf = ClassifierParams(np.eye(2), np.zeros(2),
                               np.array([[50.0, -50.0], [-50.0, 50.0]]), np.zeros(2))
        emb = np.array([[1.0, 0.0], [0.0, 1.0]])
        loss, _, _ = ce_loss(emb, clf, labeled([0, 1], [0, 1], 2))
        assert loss < 1e-8

    def test_hand_computed_two_class(self):
        # identity hidden layer on positive inputs, explicit output weights
        clf = ClassifierParams(np.eye(2), np.zeros(2),
                               np.array([[1.0, -1.0], [0.5, 0.5]]),
                               np.array([0.1, -0.1]))
        emb = np.array([[2.0, 1.0]])
        logits = np.array([2 * 1.0 + 1 * 0.5 + 0.1, 2 * -1.0 + 1 * 0.5 - 0.1])
        expect = -math.log(math.exp(logits[1]) / np.exp(logits).sum())
        loss, _, _ = ce_loss(emb, clf, labeled([0], [1], 2))
        assert abs(loss - expect) < 1e-12

    def test_label_out_of_range_rejected(self):
        clf = ClassifierParams.init(2, 2, Rng(1))
        with pytest.raises(ShapeError):
            ce_loss(np.ones((3, 2)), clf, labeled([0], [5], 6))

    def test_gradients_certified(self):
        rng = Rng(10)
        clf = ClassifierParams.init(3, 2, rng)
        emb = rng.normal(6, 3)
        labels = labeled([0, 1, 3, 5], [0, 1, 1, 0], 2)
        loss, g_emb, g_clf = ce_loss(emb, clf, labels)

        assert grad_check(lambda f: ce_loss(f.reshape(6, 3), clf, labels)[0],
                          g_emb, emb, h=1e-6) < 1e-4
        for name in ("w1", "b1", "w2", "b2"):
            def f(flat, _name=name):
                p = replace(clf, **{_name: flat.reshape(getattr(clf, _name).shape)})
                return ce_loss(emb, p, labels)[0]
            err = grad_check(f, getattr(g_clf, name), getattr(clf, name), h=1e-6)
            assert err < 1e-4, f"{name} grad err {err}"


# ---------------------------------------------------------------- joint


class TestJoint:
    def test_lambda_zero(self):
        total, parts = joint_loss(0.5, 9.0, JointLossConfig(lam=0.0, l2=0.0), np.zeros((2, 2)))
        assert total == 0.5 and parts["deno_weighted"] == 0.0

    def test_direct_sum(self):
        total, _ = joint_loss(0.5, 0.25, JointLossConfig(lam=1.0, l2=0.0), np.zeros((1, 1)))
        assert abs(total - 0.75) < 1e-15

    def test_l2_term(self):
        table = np.array([[1.0, 2.0], [3.0, 4.0]])
        total, parts = joint_loss(0.0, 0.0, JointLossConfig(lam=1.0, l2=0.1), table)
        assert abs(parts["l2"] - 0.1 * 30.0) < 1e-12
        assert abs(total - 3.0) < 1e-12

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            JointLossConfig(lam=-1.0)


# ---------------------------------------------------------------- rank metrics


def tie_heavy_instances():
    """120 small (scores, truth, k, groups) ranking instances on coarse
    integer score grids."""
    rng = np.random.default_rng(12)
    for trial in range(120):
        users = int(rng.integers(1, 300 if trial % 4 == 0 else 12))
        items = int(rng.integers(2, 11))
        k = int(rng.integers(1, items + 1))
        scores = rng.integers(0, 2 if trial % 2 else 4, size=(users, items)).astype(float)
        truth = rng.integers(0, items, size=users)
        kind = trial % 3
        if kind == 0:    # ids 0, 2 and 5 only: 1, 3 and 4 are absent
            groups = rng.choice([0, 2, 5], size=users)
        elif kind == 1:  # a single group, not group 0
            groups = np.full(users, 3)
        else:            # one user per group
            groups = rng.permutation(users)
        yield scores, truth, k, groups


class TestRankMetrics:
    def test_rank_one(self):
        scores = np.array([[9.0] + [0.0] * 30])
        recall, ndcg = rank_metrics(scores, [0], k=20)
        assert recall == 1.0 and ndcg == 1.0

    def test_rank_two(self):
        scores = np.zeros((1, 30))
        scores[0, 5] = 2.0
        scores[0, 7] = 1.0
        _, ndcg = rank_metrics(scores, [7], k=20)
        assert abs(ndcg - 1 / math.log2(3)) < 1e-12

    def test_outside_cutoff(self):
        scores = np.arange(30.0)[None, ::-1].copy()
        recall, ndcg = rank_metrics(scores, [20], k=20)
        assert recall == 0.0 and ndcg == 0.0

    def test_matches_brute_force_small_instances(self):
        rng = np.random.default_rng(11)
        for trial in range(180):
            users = int(rng.integers(1, 6))
            items = int(rng.integers(2, 11))
            k = int(rng.integers(1, items + 1))
            # coarse grids of integer scores make ties common, a 0/1 grid heavy
            top = 2 if trial % 3 == 2 else 4
            scores = rng.integers(0, top, size=(users, items)).astype(float)
            truth = rng.integers(0, items, size=users)
            if trial % 3 == 1:  # truth in the first and last column
                truth = np.where(np.arange(users) % 2 == 0, 0, items - 1)
            recall, ndcg = rank_metrics(scores, truth, k)
            per_user = [brute_rank(scores[i], int(truth[i]), k) for i in range(users)]
            assert abs(recall - np.mean([r for r, _ in per_user])) < 1e-12
            assert abs(ndcg - np.mean([n for _, n in per_user])) < 1e-12

    def test_groups_equal_separate_calls(self):
        for scores, truth, k, groups in tie_heavy_instances():
            recall, ndcg, per_group = rank_metrics(scores, truth, k, groups=groups)
            assert (recall, ndcg) == rank_metrics(scores, truth, k)
            expect = {}
            for g in range(int(groups.max()) + 1):
                mask = groups == g
                if mask.any():
                    expect[g] = (*rank_metrics(scores[mask], truth[mask], k),
                                 int(mask.sum()))
            assert per_group == expect
            assert list(per_group) == sorted(per_group)

    def test_masked_scores_rank_alike_on_any_worker_count(self, monkeypatch, cpus):
        # small integer tables make every score exact and ties common, so
        # the whole masked matrix is the reference
        rng = np.random.default_rng(14)
        for trial in range(40):
            users, items = int(rng.integers(1, 60)), int(rng.integers(2, 12))
            # blocks of about 3 rows, or the whole matrix in one block
            monkeypatch.setattr(tasks, "_RANK_BLOCK_ELEMENTS",
                                3 * items if trial % 4 else 1 << 17)
            queries = rng.integers(-1, 2, size=(users, 3)).astype(float)
            table = rng.integers(-1, 2, size=(items, 3)).astype(float)
            truth = rng.integers(0, items, size=users)
            pairs = np.column_stack((rng.integers(0, users, size=2 * users),
                                     rng.integers(0, items, size=2 * users)))
            pairs = pairs[pairs[:, 1] != truth[pairs[:, 0]]]
            positives = np.unique(positive_keys(pairs, items))
            dense = queries @ table.T
            dense[pairs[:, 0], pairs[:, 1]] = -np.inf
            k = int(rng.integers(1, items + 1))
            groups = rng.integers(0, 3, size=users)
            expect = rank_metrics(dense, truth, k, groups=groups)
            blocks = MaskedScores(queries, table, positives).map(
                lambda block, start: block.copy())
            assert np.array_equal(np.vstack(blocks), dense)
            for workers in WORKER_COUNTS:
                cpus(workers)
                scores = MaskedScores(queries, table, positives)
                assert rank_metrics(scores, truth, k, groups=groups) == expect

    def test_threaded_ranking_repeats_bit_for_bit(self, monkeypatch, cpus):
        # 100 blocks of 3 rows on eight workers, each writing its rows of the
        # shared rank array, with the interpreter switching threads as often
        # as it can; a lost update would change a user's rank
        rng = np.random.default_rng(15)
        queries = rng.standard_normal((300, 8))
        table = rng.standard_normal((50, 8))
        truth = rng.integers(0, 50, size=300)
        positives = np.unique(positive_keys(
            np.column_stack((np.arange(300), (truth + 1) % 50)), 50))
        monkeypatch.setattr(tasks, "_RANK_BLOCK_ELEMENTS", 3 * 50)
        cpus(1)
        expect = rank_metrics(MaskedScores(queries, table, positives), truth, 10,
                              groups=truth % 4)
        cpus(8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(20):
                assert rank_metrics(MaskedScores(queries, table, positives), truth, 10,
                                    groups=truth % 4) == expect
        finally:
            sys.setswitchinterval(interval)

    def test_masked_scores_that_do_not_fit_are_rejected(self, monkeypatch, cpus):
        # every input is checked before a block is scored
        monkeypatch.setattr(tasks, "_RANK_BLOCK_ELEMENTS", 6)  # blocks of 2 rows
        scored = []
        score = MaskedScores._score

        def counting_score(self, i, buffer):
            scored.append(i)
            return score(self, i, buffer)

        monkeypatch.setattr(MaskedScores, "_score", counting_score)
        queries, table = np.ones((8, 2)), np.ones((3, 2))
        no_positives = np.zeros(0, dtype=np.int64)
        for workers in WORKER_COUNTS:
            cpus(workers)
            for truth, groups in (([0] * 7 + [3], None),  # a truth item past the last item
                                  ([0] * 7 + [-1], None),  # a negative truth item
                                  ([0] * 9, None),         # a user more than the rows
                                  ([0] * 7, None),         # a row more than the users
                                  ([0] * 8, [0] * 7 + [-1])):  # a negative group
                with pytest.raises(ShapeError):
                    rank_metrics(MaskedScores(queries, table, no_positives), truth, k=2,
                                 groups=groups)
            assert scored == []
        rank_metrics(MaskedScores(queries, table, no_positives), [0] * 8, k=2)
        assert sorted(scored) == [0, 1, 2, 3]

    def test_bad_input_rejected(self):
        with pytest.raises(ShapeError):
            rank_metrics(np.zeros((0, 5)), [], k=2)
        with pytest.raises(ShapeError):
            rank_metrics(np.zeros((0, 5)), [], k=2, groups=[])
        scores = np.zeros((3, 4))
        with pytest.raises(ShapeError):
            rank_metrics(scores, [0, 1, 2], k=2, groups=[0, 1])
        with pytest.raises(ShapeError):
            rank_metrics(scores, [0, 1, 2], k=2, groups=[0, -1, 1])
        # truth outside the items; a negative id would index from the row's end
        for truth in ([0, 1, -1], [0, 1, 4]):
            with pytest.raises(ShapeError):
                rank_metrics(scores, truth, k=2)
        for bad in (np.zeros((4, 4)), np.zeros((2, 4)), np.zeros(3)):
            # a row too many, a row too few, 1-d scores
            with pytest.raises(ShapeError):
                rank_metrics(bad, [0, 1, 2], k=2)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_monotone_transform_invariance_and_k_monotone(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=(3, 8))
        truth = rng.integers(0, 8, size=3)
        base = [rank_metrics(scores, truth, k) for k in range(1, 9)]
        squashed = [rank_metrics(np.tanh(scores) * 3 + 1, truth, k) for k in range(1, 9)]
        assert base == squashed
        recalls = [r for r, _ in base]
        ndcgs = [n for _, n in base]
        assert all(a <= b + 1e-15 for a, b in zip(recalls, recalls[1:]))
        assert all(a <= b + 1e-15 for a, b in zip(ndcgs, ndcgs[1:]))


# ---------------------------------------------------------------- class metrics


class TestClassMetrics:
    def test_perfect_predictions(self):
        labels = np.array([0, 1, 0, 1, 2, 2])
        scores = np.eye(3)[labels] * 5.0
        m = class_metrics(scores, labels)
        assert m.micro_f1 == 1.0 and m.macro_f1 == 1.0 and m.auc == 1.0

    def test_constant_predictor_balanced_binary(self):
        labels = np.array([0, 1] * 10)
        scores = np.ones((20, 2))
        m = class_metrics(scores, labels)
        assert m.auc == 0.5

    def test_six_sample_confusion_matrix(self):
        # pred: 1 1 0 0 1 0 ; truth: 1 0 0 1 1 0
        scores = np.array([[0, 1], [0, 1], [1, 0], [1, 0], [0, 1], [1, 0]], float)
        labels = np.array([1, 0, 0, 1, 1, 0])
        m = class_metrics(scores, labels)
        micro, macro = brute_f1([1, 1, 0, 0, 1, 0], labels.tolist(), 2)
        assert abs(m.micro_f1 - micro) < 1e-12
        assert abs(m.macro_f1 - macro) < 1e-12

    def test_midranks_match_the_loop_bit_for_bit(self):
        rng = np.random.default_rng(13)
        cases = [rng.normal(size=7900), np.round(rng.normal(size=500), 1),
                 np.full(9, 2.5), np.array([3.0]), np.empty(0),
                 np.array([np.nan, 0.0, -0.0, -np.inf, np.nan, 0.0, np.inf, -0.0])]
        for values in cases:
            assert np.array_equal(bits(tasks._midranks(values)), bits(loop_midranks(values)))

    def test_single_class_auc_undefined(self):
        m = class_metrics(np.random.default_rng(0).normal(size=(4, 2)),
                          np.zeros(4, dtype=int))
        assert m.auc is None

    def test_matches_brute_force(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            n = int(rng.integers(2, 21))
            n_classes = int(rng.integers(2, 5))
            scores = rng.integers(0, 3, size=(n, n_classes)).astype(float)
            labels = rng.integers(0, n_classes, size=n)
            m = class_metrics(scores, labels)
            pred = [int(np.argmax(scores[i])) for i in range(n)]
            micro, macro = brute_f1(pred, labels.tolist(), n_classes)
            assert abs(m.micro_f1 - micro) < 1e-12
            assert abs(m.macro_f1 - macro) < 1e-12
            if np.unique(labels).size >= 2:
                if n_classes == 2:
                    expect = brute_auc(scores[:, 1].tolist(), (labels == 1).tolist())
                else:
                    per = [brute_auc(scores[:, c].tolist(), (labels == c).tolist())
                           for c in range(n_classes)]
                    per = [a for a in per if a is not None]
                    expect = sum(per) / len(per) if per else None
                if expect is None:
                    assert m.auc is None
                else:
                    assert abs(m.auc - expect) < 1e-12
