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

from .numerics import CsrMatrix, Rng, map_blocks, worker_count


class GraphError(ValueError):
    """Malformed graph data or an operation misapplied to it."""


@dataclass
class Relation:
    """A named edge list between two node types. It holds no (u, v) pair
    twice; that is checked once, here, so graphs that carry a relation over
    do not check it again. :meth:`deduplicated` builds one from edges that
    may repeat."""

    name: str
    src_type: str
    dst_type: str
    edges: np.ndarray  # (E, 2) int64, order preserved

    def __post_init__(self):
        self.edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        if not _first_occurrences(self.edges).all():
            raise GraphError(f"relation {self.name!r} contains duplicate edges")

    @classmethod
    def deduplicated(cls, name, src_type, dst_type, edges):
        """The relation of `edges` without each repeat of an earlier (u, v)
        pair. The sort that finds the repeats is the check, so it runs once."""
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        rel = cls.__new__(cls)
        rel.name, rel.src_type, rel.dst_type = name, src_type, dst_type
        rel.edges = edges[_first_occurrences(edges)]
        return rel


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

    def edge_count(self):
        return sum(r.edges.shape[0] for r in self.relations.values())

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
    return parse_schema(_read_text(path))


def _read_text(path):
    """A file's UTF-8 text with its line breaks read as `open` reads them:
    `\\r\\n` and a lone `\\r` become `\\n`. A file that is not UTF-8 is a
    GraphError at the line of its first bad byte."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[:exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise GraphError(f"{path}:{line}: not UTF-8 text") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


class _Rows:
    """A text file read as rows of `width` whitespace-separated fields.

    Lines break at `\\n`, `\\r\\n` and `\\r`. A line's text from its first `#`
    is a comment, fields are split at whatever `str.isspace` accepts, and
    lines with no field are skipped. A field is held as its span of code
    points in `cp`, so no field is made a string unless a check needs it.
    Checks run one column at a time over the first `rows` rows. Each failing
    check records its error and cuts `rows` to the rows before it, so the
    next checks look only at earlier lines, and `check` raises the error of
    the first bad line in file order, as a reader that checks line by line
    would.
    """

    def __init__(self, path, width, shape_message):
        self.path, self.width = path, width
        self.text = _read_text(path)
        self.cp, self.starts, self.ends, counts = _split_fields(self.text)
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
        """The (starts, ends) code-point spans of column j's fields."""
        cut = slice(j, self.rows * self.width, self.width)
        return self.starts[cut], self.ends[cut]

    def ints(self, columns, message):
        """The named columns parsed as `int` parses them, as an int64
        (rows, k) array. A field spelled `[+-]?[0-9]{1,18}` is parsed from
        its code points; any other field is passed to `int` on its own."""
        parsed = []
        for j in columns:
            starts, ends = self.column(j)
            values, plain = _plain_ints(self.cp, starts, ends)
            for i in np.flatnonzero(~plain).tolist():
                try:
                    value = int(self.text[starts[i]:ends[i]])
                except ValueError:
                    self.fail(i, message)
                    break
                if not -(1 << 63) <= value < 1 << 63:
                    self.fail(i, lambda line: f"integer out of range in {line!r}")
                    break
                values[i] = value
            parsed.append(values)
        return np.stack([values[:self.rows] for values in parsed], axis=1)

    def names(self, j, names):
        """Column j as the index of the name in `names` that each field
        spells, or -1 where it spells none of them."""
        starts, ends = self.column(j)
        ids = np.full(starts.size, -1, dtype=np.int64)
        for i, name in enumerate(names):
            hits = np.flatnonzero(ends - starts == len(name))
            for k, c in enumerate(name):
                hits = hits[self.cp[starts[hits] + k] == ord(c)]
            ids[hits] = i
        return ids

    def first(self, bad, message):
        """Fail at the first of the current rows where `bad` holds."""
        hits = np.flatnonzero(bad[:self.rows])
        if hits.size:
            self.fail(int(hits[0]), message)

    def check(self):
        if self.error is not None:
            raise GraphError(self.error)


def _split_fields(text):
    """The code points of `text` with every `#` comment blanked, each
    field's (start, end) span over them, and the number of fields on each
    `\\n` line. Whitespace is found over the code points, as `str.split()`
    finds it. ASCII text is held as uint8, other text as uint32."""
    if text.isascii():
        cp = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    else:
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
        cp = np.where(np.cumsum(toggle[:-1], dtype=np.int8) > 0, cp.dtype.type(32), cp)
    # ASCII whitespace is 9-13, 28-31 and 32; others are looked up once each
    space = (cp == 32) | ((cp - 9) < 5) | ((cp - 28) < 4)
    if cp.dtype == np.uint32:
        high = np.flatnonzero(cp > 127)
        wide = [c for c in np.unique(cp[high]).tolist() if chr(c).isspace()]
        space[high] = np.isin(cp[high], wide)
    # +1 where a field ends, -1 where one starts, with space around the text
    edge = np.diff(space.view(np.int8), prepend=np.int8(1), append=np.int8(1))
    starts = np.flatnonzero(edge == -1)
    ends = np.flatnonzero(edge == 1)
    before = np.searchsorted(starts, newlines)  # fields before each line break
    counts = np.diff(before, prepend=0, append=starts.size)
    return cp, starts, ends, counts


def _plain_ints(cp, starts, ends):
    """The fields spelled `[+-]?[0-9]{1,18}` parsed from their code points:
    int64 values, which hold only where the returned mask marks such a
    field. Eighteen digits always fit in int64."""
    sign = cp[starts]
    negative = sign == 45
    digits = starts + (negative | (sign == 43))
    length = ends - digits
    plain = (length >= 1) & (length <= 18)
    values = np.zeros(starts.size, dtype=np.int64)
    for k in range(int(length.max(initial=0, where=plain))):
        live = plain & (length > k)
        digit = cp[np.where(live, digits + k, 0)] - 48  # unsigned: below "0" wraps high
        plain &= (digit < 10) | ~live
        values = np.where(live, values * 10 + digit, values)
    return np.where(negative, -values, values), plain


def load_edge_list(path, schema: Schema) -> HeteroGraph:
    """Read `src dst relation` lines into a graph, de-duplicating per relation.

    Node counts come from the schema when declared, otherwise max index + 1.
    """
    rel_types = {name: (s, d) for name, s, d in schema.relations}
    table = _Rows(path, 3, lambda line: f"expected 'src dst relation', got {line!r}")
    pairs = table.ints((0, 1), lambda line: f"non-integer endpoint in {line!r}")
    rel = table.names(2, list(rel_types))
    table.first(rel < 0, lambda line: f"undeclared relation {line.split()[2]!r}")
    table.first(np.minimum(pairs[:, 0], pairs[:, 1]) < 0, lambda line: "negative node id")
    table.check()

    relations = []
    observed = {t: 0 for t in schema.node_types}
    for i, (name, (s, d)) in enumerate(rel_types.items()):
        edges = pairs[rel == i]
        for t, side in ((s, 0), (d, 1)):
            observed[t] = max(observed.get(t, 0), int(edges[:, side].max(initial=-1)) + 1)
        relations.append(Relation.deduplicated(name, s, d, edges))
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


def load_labels(path, node_type, node_count=None) -> LabelSet:
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
    return LabelSet(node_type, ids, classes, int(classes.max(initial=-1)) + 1)


def normalize(g: HeteroGraph, relation) -> CsrMatrix:
    """Symmetric degree normalization of one relation over the global index
    space: entry (i,j) becomes 1/sqrt(d_i d_j), zero-degree rows/cols stay zero.

    Bipartite relations land in the off-diagonal blocks of a square matrix over
    both endpoint types, symmetrized so one product updates both sides. The
    pattern is symmetric and each entry is the commutative product
    inv_sqrt[i] * inv_sqrt[j], so the normalized matrix is bitwise equal to
    its own transpose. The encoder's backward relies on this and multiplies
    by the matrix where it would otherwise need the transpose.
    """
    if relation not in g.relations:
        raise GraphError(f"unknown relation {relation!r}")
    e = g.global_edges(relation)
    n = g.num_nodes
    # duplicate coordinates (self edges, both directions given) count once;
    # sorted integers are the same whatever the sort's stability
    keys = np.sort(np.concatenate([e[:, 0] * n + e[:, 1], e[:, 1] * n + e[:, 0]]))
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    keys = keys[first]
    rows, cols = np.divmod(keys, n)
    deg = np.bincount(rows, minlength=n)
    inv_sqrt = np.zeros(n)
    nz = deg > 0
    inv_sqrt[nz] = 1.0 / np.sqrt(deg[nz])
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deg, out=offsets[1:])
    return CsrMatrix(n, n, offsets, cols, inv_sqrt[rows] * inv_sqrt[cols])


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


_SYNTH_BLOCK_ELEMENTS = 1 << 20  # users x items draws in one generator block
_SYNTH_CHUNK_WORDS = 1 << 15  # raw words a generator block holds at once


def _word_limit(p):
    """The last 64-bit word w whose double, (w >> 11) * 2**-53, is below p
    (0 < p <= 1): w >> 11 is below the exact product p * 2**53."""
    return np.uint64(int(np.ceil(p * 2.0 ** 53)) * 2 ** 11 - 1)


def check_synthetic(users, items, aux_relations, density, fidelity, seed):
    """Raise GraphError naming the first generator argument out of its
    range; a seed of None (left for the caller to choose) passes."""
    for name, value, ok, rule in (
            ("users", users, users >= 1, ">= 1"),
            ("items", items, items >= 1, ">= 1"),
            ("aux_relations", aux_relations, aux_relations >= 0, ">= 0"),
            ("density", density, 0.0 < density <= 1.0, "in (0, 1]"),
            ("fidelity", fidelity, 0.0 <= fidelity <= 1.0, "in [0, 1]"),
            ("seed", seed, seed is None or seed >= 0, ">= 0")):
        if not ok:
            raise GraphError(f"{name} must be {rule}, got {value!r}")


def generate_synthetic(n_users, n_items, n_aux_relations, density, fidelity, seed):
    """Seeded two-community bipartite generator.

    Users and items are split into two balanced communities; target edges
    appear with probability 1.6*density inside a community and 0.4*density
    across (clamped, mean exactly `density`). Each auxiliary relation copies
    each target edge with probability `fidelity` and substitutes a uniform
    random pair otherwise. Labels are user community ids.
    """
    check_synthetic(n_users, n_items, n_aux_relations, density, fidelity, seed)
    rng = Rng(seed).derive("synth")
    user_comm = _balanced_communities(n_users, rng)
    item_comm = _balanced_communities(n_items, rng)
    p_in = min(1.0, 1.6 * density)
    p_out = 2.0 * density - p_in  # never above p_in
    # the users x items uniform draw is taken in row blocks, so memory stays
    # O(block) per worker. A pair is an edge when its draw is below p_in
    # (same community) or p_out (across), so only the draws below p_in are
    # candidates; a block returns its edges' flat users x items indices.
    # A block tests its draws as raw words against word limits, a chunk of
    # words at a time; p_out is 0 at density 5e-324, and no draw is below 0.
    # Inline, the blocks continue one Philox stream; on worker threads each
    # block draws from a copy of the stream moved ahead to its first draw,
    # and the stream then moves past the whole draw. Either way the edges
    # equal those of a single dense draw.
    in_limit = _word_limit(p_in)
    out_limit = _word_limit(p_out) if p_out > 0 else None
    block = max(1, _SYNTH_BLOCK_ELEMENTS // n_items)
    starts = range(0, n_users, block)
    if worker_count(len(starts), blas=False) > 1:
        streams = [rng.ahead(start * n_items) for start in starts]
        rng = rng.ahead(n_users * n_items)
    else:
        streams = [rng] * len(starts)

    def draw_block(i):
        stop = min(starts[i] + block, n_users) * n_items
        kept = []
        for pos in range(starts[i] * n_items, stop, _SYNTH_CHUNK_WORDS):
            words = streams[i].raw(min(_SYNTH_CHUNK_WORDS, stop - pos))
            cand = np.flatnonzero(words <= in_limit)
            across = words[cand] <= out_limit if out_limit is not None else False
            cand += pos
            rows, cols = np.divmod(cand, n_items)
            kept.append(cand[(user_comm[rows] == item_comm[cols]) | across])
        return np.concatenate(kept)

    pairs = np.concatenate(map_blocks(draw_block, range(len(starts)), blas=False))
    target_edges = np.stack(np.divmod(pairs, n_items), axis=1)

    relations = [Relation("interact", "user", "item", target_edges)]
    for r in range(n_aux_relations):
        copy = rng.uniform(target_edges.shape[0]) < fidelity
        edges = target_edges.copy()
        n_rand = int((~copy).sum())
        if n_rand:
            edges[~copy, 0] = rng.integers(0, n_users, size=n_rand)
            edges[~copy, 1] = rng.integers(0, n_items, size=n_rand)
        relations.append(Relation.deduplicated(f"aux{r + 1}", "user", "item", edges))
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


# target-relation degrees that split the test users into sparsity buckets
SPARSITY_BOUNDARIES = (2, 4, 8, 16)
SPARSITY_LABELS = (*(f"<{b}" for b in SPARSITY_BOUNDARIES), f">={SPARSITY_BOUNDARIES[-1]}")


def sparsity_buckets(g: HeteroGraph, test_nodes):
    """Assign each test node (source side of the target relation) to the first
    bucket whose upper bound in SPARSITY_BOUNDARIES exceeds its
    target-relation degree.

    Intervals are half-open, so a degree equal to a boundary falls in the next
    bucket; degrees past the last boundary share a final overflow bucket.
    """
    rel = g.relations[g.target]
    degree = np.bincount(rel.edges[:, 0], minlength=g.node_counts[rel.src_type])
    test_nodes = np.asarray(test_nodes, dtype=np.int64)
    return np.searchsorted(SPARSITY_BOUNDARIES, degree[test_nodes], side="right")
