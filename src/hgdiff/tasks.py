"""Task heads and metrics: embedding fusion, pairwise ranking loss,
cross-entropy classification, the joint objective, and evaluation metrics.

Score for a (node, node) pair is the dot product of fused embedding rows.
Ranking ties break by ascending item id; AUC uses midranks. All losses come
with hand-derived gradients.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .hetgraph import LabelSet
from .numerics import (
    LEAKY_SLOPE,
    Rng,
    ShapeError,
    as_matrix,
    map_blocks,
    row_blocks,
    scatter_add,
)


def fuse(target_emb, denoised, out=None):
    """Elementwise sum of the target-view and denoised source tables, into `out`."""
    if target_emb.shape != denoised.shape:
        raise ShapeError(f"fuse shapes differ: {target_emb.shape} vs {denoised.shape}")
    return np.add(target_emb, denoised, out=out)


@dataclass
class TripletBatch:
    """Global row indices for (user, positive item, negative item) triples."""

    users: np.ndarray
    pos: np.ndarray
    neg: np.ndarray

    def __post_init__(self):
        self.users = np.asarray(self.users, dtype=np.int64)
        self.pos = np.asarray(self.pos, dtype=np.int64)
        self.neg = np.asarray(self.neg, dtype=np.int64)
        if not (self.users.shape == self.pos.shape == self.neg.shape):
            raise ShapeError("triplet arrays must align")

    def __len__(self):
        return self.users.size


def positive_keys(edges, n_items):
    """Sorted int64 keys ``user * n_items + item`` of (user, item) edges in
    local ids: the known positives :func:`sample_triplets` avoids."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    return np.sort(edges[:, 0] * n_items + edges[:, 1])


def _is_positive(keys, users, items, n_items):
    probe = users * n_items + items
    if keys.size == 0:
        return np.zeros(probe.shape, dtype=bool)
    at = np.minimum(np.searchsorted(keys, probe), keys.size - 1)
    return keys[at] == probe


def sample_triplets(edges, n_items, user_offset, item_offset, rng: Rng, positives):
    """One uniformly drawn negative per observed edge, avoiding each user's
    known positives. Edge order is shuffled; everything comes off `rng`.

    `positives` holds the :func:`positive_keys` of the known positives.
    Negatives are drawn in vectorized rounds, redrawing only the slots that
    collided with a known positive.
    """
    edges = np.asarray(edges, dtype=np.int64)
    if edges.shape[0] == 0:
        raise ShapeError("no edges to sample triplets from")
    order = rng.permutation(edges.shape[0])
    users = edges[order, 0]
    pos = edges[order, 1]
    neg = np.asarray(rng.integers(0, n_items, size=users.size), dtype=np.int64)
    pending = np.flatnonzero(_is_positive(positives, users, neg, n_items))
    while pending.size:
        neg[pending] = rng.integers(0, n_items, size=pending.size)
        pending = pending[_is_positive(positives, users[pending], neg[pending], n_items)]
    return TripletBatch(users + user_offset, pos + item_offset, neg + item_offset)


def bpr_loss(emb, batch: TripletBatch, chunk=None):
    """Mean -log sigmoid(score difference) over triplets, plus the gradient
    with respect to the fused table (nonzero only on touched rows).

    With `chunk`, the batch is cut into consecutive chunks of that many
    triplets (the last may be shorter). Each chunk's mean loss and gradient
    are weighted by its share of the triplets and added in chunk order, with
    every sum taken in the order a per-chunk loop of row additions takes it:
    within a chunk the user, positive and negative terms in triplet order,
    then the weighted chunk sums in chunk order.

    Working memory is O(triplets + rows * d): the score differences are
    taken over row blocks, and the gradient is built one embedding column
    at a time from gathers of that column, so no (triplets, d) array lives
    through the call.
    """
    emb = np.asarray(emb, dtype=np.float64)
    n = len(batch)
    if n == 0:
        raise ShapeError("empty triplet batch")
    chunk = n if chunk is None else int(chunk)
    if chunk < 1:
        raise ShapeError(f"chunk must be >= 1, got {chunk}")
    n_rows, d = emb.shape
    diff = np.empty(n)
    # each row's sum over d is the same whichever rows share its block
    step = max(1, _BPR_BLOCK_ELEMENTS // max(1, d))
    for start in range(0, n, step):
        block = slice(start, start + step)
        prod = emb[batch.pos[block]]
        prod -= emb[batch.neg[block]]
        prod *= emb[batch.users[block]]
        diff[block] = prod.sum(axis=1)
    terms = np.logaddexp(0.0, -diff)
    starts = np.arange(0, n, chunk)
    sizes = np.minimum(chunk, n - starts)
    weights = sizes / n
    loss = 0.0
    for start, weight in zip(starts.tolist(), weights.tolist()):
        loss += weight * float(terms[start:start + chunk].mean())
    # d/d diff of a chunk's mean log(1+exp(-diff)) = -sigmoid(-diff)/chunk size
    chunk_of = np.arange(n) // chunk
    coef = -_sigmoid(-diff) / sizes[chunk_of]
    rows = np.concatenate((batch.users, batch.pos, batch.neg))
    # one group per (chunk, row): its user, positive and negative terms are
    # summed in input order, then weighted and summed per row in ascending
    # chunk order
    groups, group_of = np.unique(np.tile(chunk_of, 3) * n_rows + rows, return_inverse=True)
    group_row = groups % n_rows
    group_weight = weights[groups // n_rows]
    # one column's terms for the user, positive and negative rows, in the
    # order of `rows`: coef*(e_p - e_n), coef*e_u, -(coef*e_u)
    buf = np.empty(3 * n)
    user_term, pos_term, neg_term = buf[:n], buf[n:2 * n], buf[2 * n:]
    grad = np.empty((n_rows, d))
    for j in range(d):
        if j % _BPR_COLUMNS == 0:
            # contiguous copies of a few columns at a time, not of all of emb
            columns = np.ascontiguousarray(emb[:, j:j + _BPR_COLUMNS].T)
        col = columns[j % _BPR_COLUMNS]
        # the gathers above checked every index; "wrap" maps the negative
        # ones as indexing does and lets take write straight into `out`
        np.take(col, batch.pos, out=user_term, mode="wrap")
        np.take(col, batch.neg, out=neg_term, mode="wrap")
        user_term -= neg_term
        np.multiply(coef, user_term, out=user_term)
        np.take(col, batch.users, out=pos_term, mode="wrap")
        np.multiply(coef, pos_term, out=pos_term)
        np.negative(pos_term, out=neg_term)
        sums = np.bincount(group_of, weights=buf, minlength=group_weight.size)
        sums *= group_weight
        grad[:, j] = np.bincount(group_row, weights=sums, minlength=n_rows)
    return loss, grad


_BPR_BLOCK_ELEMENTS = 1 << 16  # gathered elements per role in a bpr_loss row block
_BPR_COLUMNS = 8  # embedding columns bpr_loss copies contiguous at a time


def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


_CLASSIFIER_INIT_SCALE = 0.1  # standard deviation of the initial weights


@dataclass
class ClassifierParams:
    """One-hidden-layer softmax classifier with d hidden units."""

    w1: np.ndarray  # (d, d)
    b1: np.ndarray
    w2: np.ndarray  # (d, classes)
    b2: np.ndarray

    @classmethod
    def init(cls, dim, n_classes, rng: Rng):
        return cls(rng.normal(dim, dim) * _CLASSIFIER_INIT_SCALE, np.zeros(dim),
                   rng.normal(dim, n_classes) * _CLASSIFIER_INIT_SCALE, np.zeros(n_classes))

    def arrays(self):
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2}


def classifier_logits(emb_rows, clf: ClassifierParams):
    pre = emb_rows @ clf.w1 + clf.b1
    hidden = np.where(pre >= 0, pre, LEAKY_SLOPE * pre)
    return hidden @ clf.w2 + clf.b2, pre, hidden


def ce_loss(emb, clf: ClassifierParams, labels: LabelSet, row_offset=0):
    """Mean negative log-likelihood of the true classes under the classifier's
    softmax, its gradient for the embedding table, and the classifier's
    gradients as a ClassifierParams."""
    emb = np.asarray(emb, dtype=np.float64)
    if labels.node_ids.size == 0:
        raise ShapeError("no labeled nodes")
    if labels.class_ids.max(initial=0) >= clf.b2.size:
        raise ShapeError("label id outside classifier class count")
    rows = labels.node_ids + row_offset
    x = emb[rows]
    logits, pre, hidden = classifier_logits(x, clf)
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    log_p = shifted - log_z[:, None]
    n = rows.size
    loss = -float(log_p[np.arange(n), labels.class_ids].mean())
    probs = np.exp(log_p)
    g_logits = probs
    g_logits[np.arange(n), labels.class_ids] -= 1.0
    g_logits /= n
    g_b2 = g_logits.sum(axis=0)
    g_w2 = hidden.T @ g_logits
    g_hidden = g_logits @ clf.w2.T
    g_pre = g_hidden * np.where(pre >= 0, 1.0, LEAKY_SLOPE)
    g_b1 = g_pre.sum(axis=0)
    g_w1 = x.T @ g_pre
    g_x = g_pre @ clf.w1.T
    grad_emb = scatter_add(rows, g_x, emb.shape[0])
    return loss, grad_emb, ClassifierParams(g_w1, g_b1, g_w2, g_b2)


@dataclass
class JointLossConfig:
    lam: float = 0.5
    l2: float = 1e-3

    def __post_init__(self):
        if not (0 <= self.lam < np.inf and 0 <= self.l2 < np.inf):
            raise ValueError(f"loss weights must be finite and >= 0, got lam={self.lam}, "
                             f"l2={self.l2}")


def joint_loss(main, deno, cfg: JointLossConfig, embed_table):
    """Total objective main + lam*deno + l2*||E0||^2, with the addends kept
    separate for logging. Non-finite parts give a non-finite total."""
    reg = cfg.l2 * float((np.asarray(embed_table) ** 2).sum())
    parts = {"main": float(main), "deno": float(deno),
             "deno_weighted": cfg.lam * float(deno), "l2": reg}
    return float(main) + cfg.lam * float(deno) + reg, parts


_RANK_BLOCK_ELEMENTS = 1 << 17  # scores per MaskedScores block


class MaskedScores:
    """``queries @ items.T`` in :func:`numerics.row_blocks` of about
    `_RANK_BLOCK_ELEMENTS` scores, with the (query row, item) pairs whose
    :func:`positive_keys` are `positives` set to -inf.

    :meth:`map` scores the blocks on worker threads. Scores equal the whole
    product's where dot products are exact; else OpenBLAS may round the last
    ``items % 8`` columns by a block's row count (seen at 257 and 300
    items), though link reports still equaled the whole product's at
    600x300, 3000x257 and 2000x1001 users x items.
    """

    def __init__(self, queries, items, positives):
        self.items, self.positives = items, positives
        self.blocks = row_blocks(queries, max(1, _RANK_BLOCK_ELEMENTS // max(1, len(items))))
        self.starts = np.cumsum([0] + [len(block) for block in self.blocks]).tolist()

    def _score(self, i, buffer):
        out = buffer[:len(self.blocks[i])]
        np.matmul(self.blocks[i], self.items.T, out=out)
        base = self.starts[i] * len(self.items)  # key of the block's first score
        lo, hi = np.searchsorted(self.positives, (base, base + out.size))
        out.reshape(-1)[self.positives[lo:hi] - base] = -np.inf
        return out

    def map(self, fn):
        """``[fn(scores, first_row) for each block]`` in row order, the
        blocks spread over :func:`numerics.map_blocks` workers, each scoring
        into its own reused buffer."""
        local = threading.local()

        def work(i):
            if not hasattr(local, "buffer"):
                local.buffer = np.empty((len(self.blocks[0]), len(self.items)))
            return fn(self._score(i, local.buffer), self.starts[i])

        return map_blocks(work, range(len(self.blocks)))


def rank_metrics(scores, truth, k, groups=None):
    """Leave-one-out Recall@k and NDCG@k averaged over users.

    `scores` is a (users, items) matrix, ranked as one block, or a
    :class:`MaskedScores`, whose blocks are scored and ranked on worker
    threads. Every input is checked before any block is scored. `truth`
    holds the single held-out item per user. An item outranks the truth
    when its score is higher, or equal with a smaller id (deterministic tie
    rule).

    With `groups`, one nonnegative group id per user, a third value maps each
    group id present to its (recall, ndcg, n_users): the means of the same
    per-user hits and gains over that group's users, in row order, so a
    group's metrics equal a separate call on its rows bit for bit.
    """
    truth = np.asarray(truth, dtype=np.int64)
    n = truth.size
    if isinstance(scores, MaskedScores):
        n_rows, n_items = scores.starts[-1], len(scores.items)
    else:
        scores = as_matrix(scores, "scores")
        n_rows, n_items = scores.shape
    if truth.ndim != 1 or n == 0 or n_rows != n:
        raise ShapeError(f"need one truth item per score row, got {truth.shape} "
                         f"for {n_rows} rows")
    if truth.min() < 0 or truth.max() >= n_items:
        raise ShapeError(f"truth items must lie in 0..{n_items - 1}")
    if groups is not None:
        groups = np.asarray(groups, dtype=np.int64)
        if groups.shape != (n,) or groups.min() < 0:
            raise ShapeError("groups must hold one nonnegative id per user")
    rank = np.ones(n, dtype=np.int64)

    def rank_block(block, start):
        # the per-row counts are below n_items, so int32 sums are exact.
        # Blocks write disjoint rows of `rank`, so they may run at once
        rows = slice(start, start + len(block))
        t = block[np.arange(len(block)), truth[rows]][:, None]
        tied_before = block == t
        tied_before &= np.arange(n_items) < truth[rows, None]
        rank[rows] += (block > t).sum(axis=1, dtype=np.int32)
        rank[rows] += tied_before.sum(axis=1, dtype=np.int32)

    if isinstance(scores, MaskedScores):
        scores.map(rank_block)
    else:
        rank_block(scores, 0)
    hit = rank <= k
    gain = np.where(hit, 1.0 / np.log2(rank + 1), 0.0)
    recall, ndcg = float(hit.mean()), float(gain.mean())
    if groups is None:
        return recall, ndcg
    per_group = {}
    for g in range(int(groups.max()) + 1):
        mask = groups == g
        size = int(np.count_nonzero(mask))
        if size:
            per_group[g] = (float(hit[mask].mean()), float(gain[mask].mean()), size)
    return recall, ndcg, per_group


@dataclass
class ClassMetrics:
    micro_f1: float
    macro_f1: float
    auc: float | None  # None when undefined (single-class test set)


def class_metrics(scores, labels):
    """Micro/Macro-F1 of the argmax prediction and midrank AUC.

    Multi-class AUC is one-vs-rest averaged over classes that have both
    positives and negatives; with no such class it is reported as undefined.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if scores.ndim != 2 or labels.shape != (scores.shape[0],):
        raise ShapeError("scores must be (nodes, classes) with one label per node")
    if labels.size == 0:
        raise ShapeError("no labeled test nodes")
    n_classes = scores.shape[1]
    pred = scores.argmax(axis=1)

    tp = np.zeros(n_classes)
    fp = np.zeros(n_classes)
    fn = np.zeros(n_classes)
    for c in range(n_classes):
        tp[c] = np.sum((pred == c) & (labels == c))
        fp[c] = np.sum((pred == c) & (labels != c))
        fn[c] = np.sum((pred != c) & (labels == c))
    micro = _f1(tp.sum(), fp.sum(), fn.sum())
    macro = float(np.mean([_f1(tp[c], fp[c], fn[c]) for c in range(n_classes)]))

    if np.unique(labels).size < 2:
        return ClassMetrics(micro, macro, None)
    if n_classes == 2:
        auc = _binary_auc(scores[:, 1], labels == 1)
    else:
        per_class = [
            _binary_auc(scores[:, c], labels == c)
            for c in range(n_classes)
            if 0 < np.sum(labels == c) < labels.size
        ]
        auc = float(np.mean(per_class)) if per_class else None
    return ClassMetrics(micro, macro, auc)


def _f1(tp, fp, fn):
    denom = 2 * tp + fp + fn
    return float(2 * tp / denom) if denom > 0 else 0.0


def _binary_auc(score, is_pos):
    """Mann-Whitney AUC with midrank tie handling."""
    n_pos = int(is_pos.sum())
    n_neg = int(is_pos.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        return None
    ranks = _midranks(score)
    rank_sum = ranks[is_pos].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


def _midranks(values):
    """1-based ranks of `values` in ascending order, each run of equal
    values taking the mean of its ranks; NaN equals nothing, so each NaN
    ranks alone."""
    order = np.argsort(values, kind="stable")
    s = values[order]
    # a run starts wherever a sorted value differs from the one before it
    starts = np.flatnonzero(np.concatenate(([True], s[1:] != s[:-1])))
    ends = np.append(starts[1:], s.size) - 1
    ranks = np.empty(s.size)
    ranks[order] = np.repeat((starts + ends) / 2 + 1, ends - starts + 1)
    return ranks
