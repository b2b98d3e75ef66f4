"""Heterogeneous graph data model, file IO, normalization, and generators.

A graph holds typed node sets and named relations (ordered edge lists), one
of which is designated the target relation. All node types share one global
index space via type offsets, so every relation can be materialized as a
|V| x |V| symmetric adjacency for the propagation step.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .numerics import CsrMatrix, Rng


class GraphError(ValueError):
    """Malformed graph data or an operation misapplied to it."""


@dataclass
class Relation:
    name: str
    src_type: str
    dst_type: str
    edges: np.ndarray  # (E, 2) int64, order preserved

    def __post_init__(self):
        self.edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)


class HeteroGraph:
    """Typed node sets plus per-relation edge sets with a designated target.

    node_counts and relations keep insertion order; that order fixes the
    global index offsets and the file-order semantics used downstream.
    """

    def __init__(self, node_counts, relations, target):
        self.node_counts = dict(node_counts)
        self.relations = {r.name: r for r in relations}
        self.target = target
        if target not in self.relations:
            raise GraphError(f"target relation {target!r} not present")
        offsets = {}
        total = 0
        for t, n in self.node_counts.items():
            if n < 0:
                raise GraphError(f"negative node count for type {t!r}")
            offsets[t] = total
            total += int(n)
        self.type_offsets = offsets
        self.num_nodes = total
        for rel in self.relations.values():
            for side, t in ((0, rel.src_type), (1, rel.dst_type)):
                if t not in self.node_counts:
                    raise GraphError(f"relation {rel.name!r} uses unknown node type {t!r}")
                if rel.edges.size and (rel.edges[:, side].min() < 0
                                       or rel.edges[:, side].max() >= self.node_counts[t]):
                    raise GraphError(f"relation {rel.name!r} has endpoint outside type {t!r}")
            if not _first_occurrences(rel.edges).all():
                raise GraphError(f"relation {rel.name!r} contains duplicate edges")

    def relation_names(self):
        return list(self.relations)

    def auxiliary_names(self):
        return [n for n in self.relations if n != self.target]

    def edge_count(self, relation=None):
        if relation is None:
            return sum(r.edges.shape[0] for r in self.relations.values())
        return self.relations[relation].edges.shape[0]

    def offset(self, node_type):
        return self.type_offsets[node_type]

    def global_edges(self, relation):
        """Edges of a relation shifted into the global index space."""
        rel = self.relations[relation]
        out = rel.edges.copy()
        out[:, 0] += self.offset(rel.src_type)
        out[:, 1] += self.offset(rel.dst_type)
        return out

    def type_slice(self, node_type):
        """Rows of `node_type` in the global node index space."""
        off = self.offset(node_type)
        return slice(off, off + self.node_counts[node_type])

    def with_relations(self, names):
        """The same nodes with only the named relations; the target must be one."""
        return HeteroGraph(self.node_counts, [self.relations[n] for n in names], self.target)

    def replace_relation(self, relation: Relation):
        rels = [relation if r.name == relation.name else r for r in self.relations.values()]
        return HeteroGraph(self.node_counts, rels, self.target)

    def fingerprint(self):
        """Stable digest of node counts and every relation's edge list."""
        h = hashlib.sha256()
        for t, n in self.node_counts.items():
            h.update(f"type:{t}:{n};".encode())
        for name, rel in self.relations.items():
            h.update(f"rel:{name}:{rel.src_type}->{rel.dst_type};".encode())
            h.update(rel.edges.tobytes())
        h.update(f"target:{self.target}".encode())
        return h.hexdigest()[:16]


@dataclass
class RelationAdjacency:
    """One relation's symmetrized 0/1 adjacency and its degree normalization.

    Both matrices are square over the global index space and equal their own
    transpose bit for bit: same pattern, and `normalized[i, j]` and
    `normalized[j, i]` are the same product inv_sqrt[i] * inv_sqrt[j]. The
    encoder's backward pass relies on this and multiplies by `normalized`
    where it would otherwise need the transpose.
    """

    relation: str
    raw: CsrMatrix
    normalized: CsrMatrix


@dataclass
class LabelSet:
    node_type: str
    node_ids: np.ndarray
    class_ids: np.ndarray
    n_classes: int

    def __post_init__(self):
        self.node_ids = np.asarray(self.node_ids, dtype=np.int64)
        self.class_ids = np.asarray(self.class_ids, dtype=np.int64)
        if self.node_ids.shape != self.class_ids.shape:
            raise GraphError("label arrays must align")
        if self.class_ids.size and (self.class_ids.min() < 0
                                    or self.class_ids.max() >= self.n_classes):
            raise GraphError("class id outside declared class count")


@dataclass
class NoiseSpec:
    relation: str
    ratio: float
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.ratio <= 1.0:
            raise GraphError(f"noise ratio must lie in [0,1], got {self.ratio}")


@dataclass
class Schema:
    node_types: dict  # name -> declared count or None (infer)
    relations: list   # (name, src_type, dst_type)
    target: str
    labeled_type: str | None = None


def parse_schema(text: str) -> Schema:
    """Parse the line-based schema format.

    Directives: `node <type> [count]`, `relation <name> <src_type> <dst_type>`,
    `target <name>`, optional `labels <type>`. `#` starts a comment.
    """
    node_types: dict = {}
    relations = []
    target = None
    labeled = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        try:
            if kind == "node":
                node_types[parts[1]] = int(parts[2]) if len(parts) > 2 else None
            elif kind == "relation":
                relations.append((parts[1], parts[2], parts[3]))
            elif kind == "target":
                target = parts[1]
            elif kind == "labels":
                labeled = parts[1]
            else:
                raise GraphError(f"schema line {lineno}: unknown directive {kind!r}")
        except IndexError:
            raise GraphError(f"schema line {lineno}: too few fields in {line!r}") from None
        except ValueError:
            raise GraphError(f"schema line {lineno}: bad count in {line!r}") from None
    if target is None:
        raise GraphError("schema declares no target relation")
    if target not in {r[0] for r in relations}:
        raise GraphError(f"target {target!r} is not a declared relation")
    return Schema(node_types, relations, target, labeled)


def load_schema(path) -> Schema:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_schema(fh.read())


def load_edge_list(path, schema: Schema) -> HeteroGraph:
    """Read `src dst relation` lines into a graph, de-duplicating per relation.

    Node counts come from the schema when declared, otherwise max index + 1.
    """
    rel_types = {name: (s, d) for name, s, d in schema.relations}
    edges: dict = {name: [] for name in rel_types}
    seen: dict = {name: set() for name in rel_types}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                raise GraphError(f"{path}:{lineno}: expected 'src dst relation', got {line!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphError(f"{path}:{lineno}: non-integer endpoint in {line!r}") from None
            name = parts[2]
            if name not in rel_types:
                raise GraphError(f"{path}:{lineno}: undeclared relation {name!r}")
            if u < 0 or v < 0:
                raise GraphError(f"{path}:{lineno}: negative node id")
            if (u, v) not in seen[name]:
                seen[name].add((u, v))
                edges[name].append((u, v))

    observed = {t: 0 for t in schema.node_types}
    for name, (s, d) in rel_types.items():
        for (t, side) in ((s, 0), (d, 1)):
            top = max((e[side] for e in edges[name]), default=-1) + 1
            observed[t] = max(observed.get(t, 0), top)
    counts = {}
    for t, declared in schema.node_types.items():
        if declared is None:
            counts[t] = observed[t]
        elif observed[t] > declared:
            raise GraphError(f"node id {observed[t] - 1} outside declared "
                             f"{t!r} count {declared}")
        else:
            counts[t] = int(declared)
    rels = [Relation(name, s, d, np.array(edges[name], dtype=np.int64).reshape(-1, 2))
            for name, (s, d) in rel_types.items()]
    return HeteroGraph(counts, rels, schema.target)


def load_labels(path, node_type, n_classes=None) -> LabelSet:
    ids, classes = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise GraphError(f"{path}:{lineno}: expected 'node_id class_id'")
            ids.append(int(parts[0]))
            classes.append(int(parts[1]))
    if n_classes is None:
        n_classes = max(classes, default=-1) + 1
    return LabelSet(node_type, np.array(ids), np.array(classes), n_classes)


def normalize(g: HeteroGraph, relation, self_loops=False) -> RelationAdjacency:
    """Symmetric degree normalization of one relation over the global index
    space: entry (i,j) becomes 1/sqrt(d_i d_j), zero-degree rows/cols stay zero.

    Bipartite relations land in the off-diagonal blocks of a square matrix over
    both endpoint types, symmetrized so one product updates both sides. The
    pattern is symmetric and every raw value is exactly 1.0, so each scaled
    entry is the commutative product inv_sqrt[i] * inv_sqrt[j] and the
    normalized matrix is bitwise equal to its transpose.
    """
    if relation not in g.relations:
        raise GraphError(f"unknown relation {relation!r}")
    e = g.global_edges(relation)
    rows = np.concatenate([e[:, 0], e[:, 1]])
    cols = np.concatenate([e[:, 1], e[:, 0]])
    if self_loops:
        diag = np.arange(g.num_nodes, dtype=np.int64)
        rows = np.concatenate([rows, diag])
        cols = np.concatenate([cols, diag])
    # duplicate coordinates (self edges, both directions given) collapse to 1
    raw = CsrMatrix.from_coo(g.num_nodes, g.num_nodes, rows, cols,
                             np.ones(rows.size))
    raw = CsrMatrix(raw.rows, raw.cols, raw.row_offsets, raw.col_indices,
                    np.minimum(raw.values, 1.0))
    deg = raw.row_sums()
    inv_sqrt = np.zeros_like(deg)
    nz = deg > 0
    inv_sqrt[nz] = 1.0 / np.sqrt(deg[nz])
    return RelationAdjacency(relation, raw, raw.scale_rows_cols(inv_sqrt, inv_sqrt))


def inject_edge_noise(g: HeteroGraph, spec: NoiseSpec) -> HeteroGraph:
    """Replace floor(ratio * E) edges of one auxiliary relation with uniformly
    sampled pairs that did not occur in the original relation.

    Edge count is preserved, replaced slots keep their position in the edge
    order, and the result is a pure function of (graph, spec).
    """
    if spec.relation not in g.relations:
        raise GraphError(f"unknown relation {spec.relation!r}")
    if spec.relation == g.target:
        raise GraphError("noise injection targets auxiliary relations only")
    rel = g.relations[spec.relation]
    n_edges = rel.edges.shape[0]
    # floor, tolerant of float representation (0.3*100 == 30.000000000000004)
    k = int(spec.ratio * n_edges + 1e-9)
    if k == 0:
        return g
    rng = Rng(spec.seed).derive(f"noise:{spec.relation}")
    replace_idx = np.sort(rng.choice(n_edges, size=k, replace=False))
    n_src = g.node_counts[rel.src_type]
    n_dst = g.node_counts[rel.dst_type]
    original = {(int(u), int(v)) for u, v in rel.edges}
    if n_src * n_dst - len(original) < k:
        raise GraphError("relation too dense to replace that many edges")
    taken = set(original)
    new_edges = rel.edges.copy()
    for idx in replace_idx:
        while True:
            u = int(rng.integers(0, n_src))
            v = int(rng.integers(0, n_dst))
            if (u, v) not in taken:
                taken.add((u, v))
                new_edges[idx] = (u, v)
                break
    return g.replace_relation(Relation(rel.name, rel.src_type, rel.dst_type, new_edges))


_SYNTH_BLOCK_ELEMENTS = 1 << 20  # uniform draws held at once by the generator


def generate_synthetic(n_users, n_items, n_aux_relations, density, fidelity, seed):
    """Seeded two-community bipartite generator.

    Users and items are split into two balanced communities; target edges
    appear with probability 1.6*density inside a community and 0.4*density
    across (clamped, mean exactly `density`). Each auxiliary relation copies
    each target edge with probability `fidelity` and substitutes a uniform
    random pair otherwise. Labels are user community ids.
    """
    if n_users <= 0 or n_items <= 0 or n_aux_relations < 0:
        raise GraphError("sizes must be positive")
    if not 0.0 < density <= 1.0:
        raise GraphError(f"density must lie in (0,1], got {density}")
    if not 0.0 <= fidelity <= 1.0:
        raise GraphError(f"fidelity must lie in [0,1], got {fidelity}")
    rng = Rng(seed).derive("synth")
    user_comm = _balanced_communities(n_users, rng)
    item_comm = _balanced_communities(n_items, rng)
    p_in = min(1.0, 1.6 * density)
    p_out = 2.0 * density - p_in
    # the users x items uniform draw is taken in row blocks: consecutive
    # draws continue one Philox stream, so the edges equal those of a single
    # dense draw while memory stays O(block)
    block = max(1, _SYNTH_BLOCK_ELEMENTS // n_items)
    tu, tv = [], []
    for start in range(0, n_users, block):
        comm = user_comm[start:start + block]
        probs = np.where(comm[:, None] == item_comm[None, :], p_in, p_out)
        rows, cols = np.nonzero(rng.uniform(probs.shape) < probs)
        tu.append(rows + start)
        tv.append(cols)
    target_edges = np.stack([np.concatenate(tu), np.concatenate(tv)],
                            axis=1).astype(np.int64)

    relations = [Relation("interact", "user", "item", target_edges)]
    for r in range(n_aux_relations):
        copy = rng.uniform(target_edges.shape[0]) < fidelity
        edges = target_edges.copy()
        n_rand = int((~copy).sum())
        if n_rand:
            edges[~copy, 0] = rng.integers(0, n_users, size=n_rand)
            edges[~copy, 1] = rng.integers(0, n_items, size=n_rand)
        edges = edges[_first_occurrences(edges)]
        relations.append(Relation(f"aux{r + 1}", "user", "item", edges))
    graph = HeteroGraph({"user": n_users, "item": n_items}, relations, "interact")
    labels = LabelSet("user", np.arange(n_users), user_comm, 2)
    return graph, labels


def _balanced_communities(n, rng):
    comm = np.zeros(n, dtype=np.int64)
    comm[n // 2:] = 1
    return comm[rng.permutation(n)]


def _first_occurrences(edges):
    """Mask of the edges whose (u, v) pair has not occurred earlier.

    A stable lexsort keeps equal pairs in edge order, so the first of each
    run of equal pairs is the first occurrence. Sorting on the two columns
    rather than on a packed u * n + v key cannot overflow.
    """
    order = np.lexsort((edges[:, 1], edges[:, 0]))
    s = edges[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = np.any(s[1:] != s[:-1], axis=1)
    keep = np.zeros(order.size, dtype=bool)
    keep[order[first]] = True
    return keep


def write_dataset_files(g: HeteroGraph, labels, out_dir):
    """Write edges/schema/labels files that round-trip through the loaders."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    schema_path = os.path.join(out_dir, "schema.txt")
    edges_path = os.path.join(out_dir, "edges.txt")
    with open(schema_path, "w", encoding="utf-8") as fh:
        for t, n in g.node_counts.items():
            fh.write(f"node {t} {n}\n")
        for rel in g.relations.values():
            fh.write(f"relation {rel.name} {rel.src_type} {rel.dst_type}\n")
        fh.write(f"target {g.target}\n")
        if labels is not None:
            fh.write(f"labels {labels.node_type}\n")
    with open(edges_path, "w", encoding="utf-8") as fh:
        for rel in g.relations.values():
            for u, v in rel.edges:
                fh.write(f"{u} {v} {rel.name}\n")
    paths = {"schema": schema_path, "edges": edges_path}
    if labels is not None:
        labels_path = os.path.join(out_dir, "labels.txt")
        with open(labels_path, "w", encoding="utf-8") as fh:
            for i, c in zip(labels.node_ids, labels.class_ids):
                fh.write(f"{i} {c}\n")
        paths["labels"] = labels_path
    return paths


def sparsity_buckets(g: HeteroGraph, test_nodes, boundaries):
    """Assign each test node (source side of the target relation) to the first
    bucket whose upper bound exceeds its target-relation degree.

    Intervals are half-open, so a degree equal to a boundary falls in the next
    bucket; degrees past the last boundary share a final overflow bucket.
    """
    boundaries = np.asarray(boundaries)
    if boundaries.size and np.any(np.diff(boundaries) <= 0):
        raise GraphError("bucket boundaries must be strictly increasing")
    rel = g.relations[g.target]
    degree = np.bincount(rel.edges[:, 0], minlength=g.node_counts[rel.src_type])
    test_nodes = np.asarray(test_nodes, dtype=np.int64)
    return np.searchsorted(boundaries, degree[test_nodes], side="right")


def bucket_labels(boundaries):
    labels = [f"<{b}" for b in boundaries]
    labels.append(f">={boundaries[-1]}" if len(boundaries) else "all")
    return labels
