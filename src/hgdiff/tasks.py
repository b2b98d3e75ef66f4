"""Task heads and metrics: embedding fusion, pairwise ranking loss,
cross-entropy classification, the joint objective, and evaluation metrics.

Score for a (node, node) pair is the dot product of fused embedding rows.
Ranking ties break by ascending item id; AUC uses midranks. All losses come
with hand-derived gradients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hetgraph import LabelSet
from .numerics import Rng, ShapeError, scatter_add


def fuse(target_emb, denoised):
    """Elementwise sum of the target-view table and the denoised source table."""
    a = np.asarray(target_emb, dtype=np.float64)
    b = np.asarray(denoised, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"fuse shapes differ: {a.shape} vs {b.shape}")
    return a + b


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


def sample_triplets(edges, n_items, user_offset, item_offset, rng: Rng,
                    positives=None):
    """One uniformly drawn negative per observed edge, avoiding each user's
    known positives. Edge order is shuffled; everything comes off `rng`.

    `positives` holds the :func:`positive_keys` of the known positives, by
    default those of `edges`. Negatives are drawn in vectorized rounds,
    redrawing only the slots that collided with a known positive.
    """
    edges = np.asarray(edges, dtype=np.int64)
    if edges.shape[0] == 0:
        raise ShapeError("no edges to sample triplets from")
    if positives is None:
        positives = positive_keys(edges, n_items)
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
    every sum taken in the order a per-chunk ``np.add.at`` loop takes it:
    within a chunk the user, positive and negative terms in triplet order,
    then the weighted chunk sums in chunk order.
    """
    emb = np.asarray(emb, dtype=np.float64)
    n = len(batch)
    if n == 0:
        raise ShapeError("empty triplet batch")
    chunk = n if chunk is None else int(chunk)
    if chunk < 1:
        raise ShapeError(f"chunk must be >= 1, got {chunk}")
    e_u = emb[batch.users]
    d_pn = emb[batch.pos]
    d_pn -= emb[batch.neg]
    diff = (d_pn * e_u).sum(axis=1)
    terms = np.logaddexp(0.0, -diff)
    starts = np.arange(0, n, chunk)
    sizes = np.minimum(chunk, n - starts)
    weights = sizes / n
    loss = 0.0
    for start, weight in zip(starts.tolist(), weights.tolist()):
        loss += weight * float(terms[start:start + chunk].mean())
    # d/d diff of a chunk's mean log(1+exp(-diff)) = -sigmoid(-diff)/chunk size
    chunk_of = np.arange(n) // chunk
    coef = (-_sigmoid(-diff) / sizes[chunk_of])[:, None]
    grad_terms = np.empty((3, n, emb.shape[1]))
    np.multiply(coef, d_pn, out=grad_terms[0])
    np.multiply(coef, e_u, out=grad_terms[1])
    np.negative(grad_terms[1], out=grad_terms[2])
    n_rows = emb.shape[0]
    rows = np.concatenate((batch.users, batch.pos, batch.neg))
    # one group per (chunk, row): summed in input order, then weighted and
    # summed per row in ascending chunk order
    groups, group_of = np.unique(np.tile(chunk_of, 3) * n_rows + rows, return_inverse=True)
    sums = scatter_add(group_of, grad_terms.reshape(3 * n, -1), groups.size)
    sums *= weights[groups // n_rows, None]
    return loss, scatter_add(groups % n_rows, sums, n_rows)


def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@dataclass
class ClassifierParams:
    """One-hidden-layer softmax classifier."""

    w1: np.ndarray  # (d, hidden)
    b1: np.ndarray
    w2: np.ndarray  # (hidden, classes)
    b2: np.ndarray
    slope: float = 0.2

    @classmethod
    def init(cls, dim, n_classes, rng: Rng, hidden=None, scale=0.1):
        hidden = hidden or dim
        return cls(rng.normal(dim, hidden) * scale, np.zeros(hidden),
                   rng.normal(hidden, n_classes) * scale, np.zeros(n_classes))

    def arrays(self):
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2}

    def copy(self):
        return ClassifierParams(self.w1.copy(), self.b1.copy(),
                                self.w2.copy(), self.b2.copy(), self.slope)


@dataclass
class ClassifierGrads:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def arrays(self):
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2}


def classifier_logits(emb_rows, clf: ClassifierParams):
    pre = emb_rows @ clf.w1 + clf.b1
    hidden = np.where(pre >= 0, pre, clf.slope * pre)
    return hidden @ clf.w2 + clf.b2, pre, hidden


def ce_loss(emb, clf: ClassifierParams, labels: LabelSet, row_offset=0):
    """Mean negative log-likelihood of the true classes under the classifier's
    softmax; gradients for classifier parameters and the embedding table."""
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
    g_pre = g_hidden * np.where(pre >= 0, 1.0, clf.slope)
    g_b1 = g_pre.sum(axis=0)
    g_w1 = x.T @ g_pre
    g_x = g_pre @ clf.w1.T
    grad_emb = scatter_add(rows, g_x, emb.shape[0])
    return loss, grad_emb, ClassifierGrads(g_w1, g_b1, g_w2, g_b2)


@dataclass
class JointLossConfig:
    lam: float = 0.5
    l2: float = 1e-3

    def __post_init__(self):
        if self.lam < 0 or self.l2 < 0:
            raise ValueError(f"loss weights must be nonnegative, got lam={self.lam}, "
                             f"l2={self.l2}")


def joint_loss(main, deno, cfg: JointLossConfig, embed_table):
    """Total objective main + lam*deno + l2*||E0||^2, with the addends kept
    separate for logging."""
    if not (np.isfinite(main) and np.isfinite(deno)):
        raise ValueError("joint loss needs finite components")
    reg = cfg.l2 * float((np.asarray(embed_table) ** 2).sum())
    parts = {"main": float(main), "deno": float(deno),
             "deno_weighted": cfg.lam * float(deno), "l2": reg}
    return float(main) + cfg.lam * float(deno) + reg, parts


_RANK_BLOCK_ELEMENTS = 1 << 17  # scores compared per block in rank_metrics


def rank_metrics(scores, truth, k):
    """Leave-one-out Recall@k and NDCG@k averaged over users.

    `scores` is (users, items); `truth` holds the single held-out item per
    user. An item outranks the truth when its score is higher, or equal with
    a smaller id (deterministic tie rule).
    """
    scores = np.asarray(scores, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.int64)
    if scores.ndim != 2 or truth.shape != (scores.shape[0],):
        raise ShapeError("scores must be (users, items) with one truth per user")
    n, n_items = scores.shape
    true_scores = scores[np.arange(n), truth][:, None]
    cols = np.arange(n_items)
    rank = np.ones(n, dtype=np.int64)
    # both comparisons run on one cache-sized block of rows at a time; the
    # per-row counts are below n_items, so int32 sums are exact
    step = max(1, _RANK_BLOCK_ELEMENTS // max(1, n_items))
    for start in range(0, n, step):
        rows = slice(start, start + step)
        block, t = scores[rows], true_scores[rows]
        tied_before = block == t
        tied_before &= cols < truth[rows, None]
        rank[rows] += (block > t).sum(axis=1, dtype=np.int32)
        rank[rows] += tied_before.sum(axis=1, dtype=np.int32)
    hit = rank <= k
    recall = float(hit.mean())
    ndcg = float(np.where(hit, 1.0 / np.log2(rank + 1), 0.0).mean())
    return recall, ndcg


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
