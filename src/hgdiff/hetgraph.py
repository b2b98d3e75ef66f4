"""Heterogeneous graph data model, file IO, normalization, and generators.

A graph holds typed node sets and named relations (ordered edge lists), one
of which is designated the target relation. All node types share one global
index space via type offsets, so every relation can be materialized as a
|V| x |V| symmetric adjacency for the propagation step.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass

import numpy as np

from .numerics import CsrMatrix, Rng


class GraphError(ValueError):
    """Malformed graph data or an operation misapplied to it."""


@dataclass
class Relation:
    """A named edge list between two node types. It holds no (u, v) pair
    twice; that is checked once, here, so graphs that carry a relation over
    do not check it again."""

    name: str
    src_type: str
    dst_type: str
    edges: np.ndarray  # (E, 2) int64, order preserved

    def __post_init__(self):
        self.edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        if not _first_occurrences(self.edges).all():
            raise GraphError(f"relation {self.name!r} contains duplicate edges")


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
    """One relation's symmetrized, degree-normalized adjacency.

    The matrix is square over the global index space and equals its own
    transpose bit for bit: the pattern is symmetric, and `normalized[i, j]` and
    `normalized[j, i]` are the same product inv_sqrt[i] * inv_sqrt[j]. The
    encoder's backward pass relies on this and multiplies by `normalized`
    where it would otherwise need the transpose.
    """

    relation: str
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


class _Rows:
    """A text file read as rows of `width` whitespace-separated fields.

    Lines break at `\\n`, `\\r\\n` and `\\r`. A line's text from its first `#`
    is a comment, fields are split at whatever `str.isspace` accepts, and
    lines with no field are skipped. Checks run one column at a time over the
    first `rows` rows. Each failing check records its error and cuts `rows`
    to the rows before it, so the next checks look only at earlier lines,
    and `check` raises the error of the first bad line in file order, as a
    reader that checks line by line would.
    """

    def __init__(self, path, width, shape_message):
        self.path, self.width = path, width
        with open(path, "r", encoding="utf-8") as fh:
            self.text = fh.read()
        self.fields, counts = _split_fields(self.text)
        self.lineno = np.flatnonzero(counts) + 1
        self.rows = self.lineno.size
        self.error = None
        bad = np.flatnonzero((counts != 0) & (counts != width))
        if bad.size:
            self.fail(int(np.count_nonzero(counts[:bad[0]])), shape_message)

    def line(self, row):
        """A row's line as the checks see it: comment cut, whitespace stripped."""
        return self.text.split("\n")[self.lineno[row] - 1].split("#", 1)[0].strip()

    def fail(self, row, message):
        """Record `message(line)` as the error at `row`."""
        self.rows = row
        self.error = f"{self.path}:{self.lineno[row]}: {message(self.line(row))}"

    def column(self, j):
        return self.fields[j:self.rows * self.width:self.width]

    def ints(self, columns, message):
        """The named columns parsed by `int`, as an int64 (rows, k) array."""
        parsed = []
        for j in columns:
            col = self.column(j)
            try:
                values = np.fromiter(map(int, col), np.int64, len(col))
            except (ValueError, OverflowError):
                row, too_large = _first_bad_int(col)
                self.fail(row, (lambda line: f"integer out of range in {line!r}")
                          if too_large else message)
                values = np.fromiter(map(int, col[:row]), np.int64, row)
            parsed.append(values)
        return np.stack([values[:self.rows] for values in parsed], axis=1)

    def first(self, bad, message):
        """Fail at the first of the current rows where `bad` holds."""
        hits = np.flatnonzero(bad[:self.rows])
        if hits.size:
            self.fail(int(hits[0]), message)

    def check(self):
        if self.error is not None:
            raise GraphError(self.error)


def _split_fields(text):
    """The fields of `text` in order, and the number on each `\\n` line, with
    every `#` comment blanked. Whitespace is found over the code points, as
    `str.split()` finds it."""
    cp = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)
    newlines = np.flatnonzero(cp == 10)
    hashes = np.flatnonzero(cp == 35)
    if hashes.size:
        # blank each line from its first `#` up to its line break
        line = np.searchsorted(newlines, hashes)
        first = np.ones(line.size, dtype=bool)
        first[1:] = line[1:] != line[:-1]
        toggle = np.zeros(cp.size + 1, dtype=np.int8)
        toggle[hashes[first]] = 1
        toggle[np.append(newlines, cp.size)[line[first]]] = -1
        cp = np.where(np.cumsum(toggle[:-1], dtype=np.int8) > 0, np.uint32(32), cp)
        text = cp.tobytes().decode("utf-32-le")
    # ASCII whitespace is 9-13, 28-31 and 32; others are looked up once each
    space = (cp == 32) | ((cp - 9) < 5) | ((cp - 28) < 4)
    high = np.flatnonzero(cp > 127)
    if high.size:
        wide = [c for c in np.unique(cp[high]).tolist() if chr(c).isspace()]
        space[high] = np.isin(cp[high], wide)
    starts = np.flatnonzero(~space & np.concatenate(([True], space[:-1])))
    before = np.searchsorted(starts, newlines)  # fields before each line break
    counts = np.diff(np.concatenate(([0], before, [starts.size])))
    return text.split(), counts


def _first_bad_int(fields):
    """Index of the first field that `int` refuses or that is past int64,
    and whether it was past int64."""
    for i, field in enumerate(fields):
        try:
            value = int(field)
        except ValueError:
            return i, False
        if not -(1 << 63) <= value < 1 << 63:
            return i, True
    raise AssertionError("every field parses")


def load_edge_list(path, schema: Schema) -> HeteroGraph:
    """Read `src dst relation` lines into a graph, de-duplicating per relation.

    Node counts come from the schema when declared, otherwise max index + 1.
    """
    rel_types = {name: (s, d) for name, s, d in schema.relations}
    index = {name: i for i, name in enumerate(rel_types)}
    table = _Rows(path, 3, lambda line: f"expected 'src dst relation', got {line!r}")
    pairs = table.ints((0, 1), lambda line: f"non-integer endpoint in {line!r}")
    names = table.column(2)
    rel = np.fromiter(map(index.get, names, itertools.repeat(-1)), np.int64, len(names))
    table.first(rel < 0, lambda line: f"undeclared relation {line.split()[2]!r}")
    table.first(np.minimum(pairs[:, 0], pairs[:, 1]) < 0, lambda line: "negative node id")
    table.check()

    relations = []
    observed = {t: 0 for t in schema.node_types}
    for i, (name, (s, d)) in enumerate(rel_types.items()):
        edges = pairs[rel == i]
        edges = edges[_first_occurrences(edges)]
        for t, side in ((s, 0), (d, 1)):
            observed[t] = max(observed.get(t, 0), int(edges[:, side].max(initial=-1)) + 1)
        relations.append(Relation(name, s, d, edges))
    counts = {}
    for t, declared in schema.node_types.items():
        if declared is None:
            counts[t] = observed[t]
        elif observed[t] > declared:
            raise GraphError(f"node id {observed[t] - 1} outside declared "
                             f"{t!r} count {declared}")
        else:
            counts[t] = int(declared)
    return HeteroGraph(counts, relations, schema.target)


def load_labels(path, node_type, n_classes=None, node_count=None) -> LabelSet:
    """Read `node_id class_id` lines. Each node is listed once, and its id
    lies in [0, node_count) when `node_count` is given."""
    table = _Rows(path, 2, lambda line: "expected 'node_id class_id'")
    pairs = table.ints((0, 1), lambda line: f"non-integer field in {line!r}")
    ids = pairs[:, 0]
    table.first(ids < 0, lambda line: "negative node id")
    if node_count is not None:
        table.first(ids >= node_count, lambda line: f"node id {int(line.split()[0])} outside "
                                                    f"{node_type!r} count {node_count}")
    repeated = np.ones(ids.size, dtype=bool)
    repeated[np.unique(ids, return_index=True)[1]] = False
    table.first(repeated, lambda line: f"node {int(line.split()[0])} listed twice")
    table.check()
    classes = pairs[:, 1]
    if n_classes is None:
        n_classes = int(classes.max(initial=-1)) + 1
    return LabelSet(node_type, ids, classes, n_classes)


def normalize(g: HeteroGraph, relation) -> RelationAdjacency:
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
    # duplicate coordinates (self edges, both directions given) collapse to 1
    raw = CsrMatrix.from_coo(g.num_nodes, g.num_nodes, rows, cols,
                             np.ones(rows.size))
    raw = CsrMatrix(raw.rows, raw.cols, raw.row_offsets, raw.col_indices,
                    np.minimum(raw.values, 1.0))
    deg = raw.row_sums()
    inv_sqrt = np.zeros_like(deg)
    nz = deg > 0
    inv_sqrt[nz] = 1.0 / np.sqrt(deg[nz])
    return RelationAdjacency(relation, raw.scale_rows_cols(inv_sqrt, inv_sqrt))


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
    p_out = 2.0 * density - p_in  # never above p_in
    # the users x items uniform draw is taken in row blocks into one buffer:
    # consecutive draws continue one Philox stream, so the edges equal those
    # of a single dense draw while memory stays O(block). A pair is an edge
    # when its draw is below p_in (same community) or p_out (across), so only
    # the draws below p_in are candidates.
    block = max(1, _SYNTH_BLOCK_ELEMENTS // n_items)
    buffer = np.empty(min(block, n_users) * n_items)
    below = np.empty(buffer.size, dtype=bool)
    tu, tv = [], []
    for start in range(0, n_users, block):
        draws = rng.uniform(out=buffer[:min(block, n_users - start) * n_items])
        cand = np.flatnonzero(np.less(draws, p_in, out=below[:draws.size]))
        rows, cols = np.divmod(cand, n_items)
        rows += start
        keep = (user_comm[rows] == item_comm[cols]) | (draws[cand] < p_out)
        tu.append(rows[keep])
        tv.append(cols[keep])
    target_edges = np.stack([np.concatenate(tu), np.concatenate(tv)], axis=1)

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


def _pair_keys(edges):
    """One int64 per edge that compares as its (u, v) pair does.

    A pair packs into (u - min u) * span_v + (v - min v) when the product of
    the two id spans fits in int64; wider ids fall back to the pair's rank.
    """
    if not edges.size:
        return np.zeros(0, dtype=np.int64)
    u, v = edges[:, 0], edges[:, 1]
    lo_u, lo_v = int(u.min()), int(v.min())
    span_v = int(v.max()) - lo_v + 1
    if (int(u.max()) - lo_u + 1) * span_v > np.iinfo(np.int64).max:
        return np.unique(edges, axis=0, return_inverse=True)[1].reshape(-1)
    return (u - lo_u) * span_v + (v - lo_v)


def _first_occurrences(edges):
    """Mask of the edges whose (u, v) pair has not occurred earlier.

    A stable sort keeps equal pairs in edge order, so the first of each run
    of equal pairs is the first occurrence.
    """
    keys = _pair_keys(edges)
    order = np.argsort(keys, kind="stable")
    s = keys[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = s[1:] != s[:-1]
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
            fh.write(_pair_lines(rel.edges, " " + rel.name))
    paths = {"schema": schema_path, "edges": edges_path}
    if labels is not None:
        labels_path = os.path.join(out_dir, "labels.txt")
        with open(labels_path, "w", encoding="utf-8") as fh:
            fh.write(_pair_lines(np.column_stack((labels.node_ids, labels.class_ids))))
        paths["labels"] = labels_path
    return paths


def _pair_lines(pairs, suffix=""):
    """One line "a b<suffix>" per row (a, b) of an (n, 2) int array, built
    by a single string format."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    line = "%d %d" + suffix.replace("%", "%%") + "\n"
    return line * len(pairs) % tuple(pairs.ravel().tolist())


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
