import os
import sys

import numpy as np
import pytest

from hgdiff import hetgraph
from hgdiff.hetgraph import (
    SPARSITY_BOUNDARIES,
    SPARSITY_LABELS,
    GraphError,
    HeteroGraph,
    LabelSet,
    NoiseSpec,
    Relation,
    generate_synthetic,
    inject_edge_noise,
    load_edge_list,
    load_labels,
    normalize,
    parse_schema,
    sparsity_buckets,
)
from hgdiff.numerics import CsrMatrix, Rng

from conftest import WORKER_COUNTS

TMALL_SCHEMA = """
# e-commerce style multi-behavior schema
node user
node item
relation View user item
relation Favorite user item
relation Cart user item
relation Purchase user item
target Purchase
"""


def first_occurrences_loop(edges):
    """Reference for hetgraph._first_occurrences: marks each edge whose
    (u, v) pair has not occurred earlier in the edge order."""
    seen = set()
    keep = np.zeros(edges.shape[0], dtype=bool)
    for i, (u, v) in enumerate(edges):
        key = (int(u), int(v))
        if key not in seen:
            seen.add(key)
            keep[i] = True
    return keep


def generate_synthetic_dense(n_users, n_items, n_aux_relations, density, fidelity, seed):
    """Reference for generate_synthetic: the whole users x items uniform
    matrix drawn at once."""
    rng = Rng(seed).derive("synth")
    user_comm = hetgraph._balanced_communities(n_users, rng)
    item_comm = hetgraph._balanced_communities(n_items, rng)
    p_in = min(1.0, 1.6 * density)
    p_out = 2.0 * density - p_in
    same = user_comm[:, None] == item_comm[None, :]
    probs = np.where(same, p_in, p_out)
    draws = rng.uniform((n_users, n_items))
    tu, tv = np.nonzero(draws < probs)
    target_edges = np.stack([tu, tv], axis=1).astype(np.int64)
    relations = [Relation("interact", "user", "item", target_edges)]
    for r in range(n_aux_relations):
        copy = rng.uniform(target_edges.shape[0]) < fidelity
        edges = target_edges.copy()
        n_rand = int((~copy).sum())
        if n_rand:
            edges[~copy, 0] = rng.integers(0, n_users, size=n_rand)
            edges[~copy, 1] = rng.integers(0, n_items, size=n_rand)
        edges = edges[hetgraph._first_occurrences(edges)]
        relations.append(Relation(f"aux{r + 1}", "user", "item", edges))
    return HeteroGraph({"user": n_users, "item": n_items}, relations, "interact")


def int64_fields(parts, line, where, kind):
    """The first two fields parsed by `int`, one field at a time: the first
    field `int` refuses or that is past int64 is the line's error."""
    values = []
    for field in parts[:2]:
        try:
            value = int(field)
        except ValueError:
            raise GraphError(f"{where}: non-integer {kind} in {line!r}") from None
        if not -(1 << 63) <= value < 1 << 63:
            raise GraphError(f"{where}: integer out of range in {line!r}")
        values.append(value)
    return values


def load_edge_list_loop(path, schema):
    """Reference for load_edge_list: one line at a time."""
    rel_types = {name: (s, d) for name, s, d in schema.relations}
    edges = {name: [] for name in rel_types}
    seen = {name: set() for name in rel_types}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                raise GraphError(f"{path}:{lineno}: expected 'src dst relation', got {line!r}")
            u, v = int64_fields(parts, line, f"{path}:{lineno}", "endpoint")
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


def load_labels_loop(path, node_type, node_count=None):
    """Reference for load_labels: one line at a time."""
    ids, classes = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise GraphError(f"{path}:{lineno}: expected 'node_id class_id'")
            node, cls = int64_fields(parts, line, f"{path}:{lineno}", "field")
            if node < 0:
                raise GraphError(f"{path}:{lineno}: negative node id")
            if node_count is not None and node >= node_count:
                raise GraphError(f"{path}:{lineno}: node id {node} outside "
                                 f"{node_type!r} count {node_count}")
            if node in ids:
                raise GraphError(f"{path}:{lineno}: node {node} listed twice")
            ids.append(node)
            classes.append(cls)
    return LabelSet(node_type, np.array(ids, dtype=np.int64),
                    np.array(classes, dtype=np.int64), max(classes, default=-1) + 1)


def write_dataset_files_loop(g, labels, out_dir):
    """Reference for write_dataset_files' edge and label files: one
    formatted write per line."""
    with open(out_dir / "edges.txt", "w", encoding="utf-8") as fh:
        for rel in g.relations.values():
            for u, v in rel.edges:
                fh.write(f"{u} {v} {rel.name}\n")
    if labels is not None:
        with open(out_dir / "labels.txt", "w", encoding="utf-8") as fh:
            for i, c in zip(labels.node_ids, labels.class_ids):
                fh.write(f"{i} {c}\n")


SPACES = [" ", "  ", "\t", "\xa0", "\u3000", " \t", "\x0c", "\u2003"]
BREAKS = ["\n", "\n", "\r\n", "\r"]
MIXED_SCHEMA = """node user
node item 9
relation buy user item
relation view user item
relation similar item item
target buy
"""


def spelled(rng, value):
    """`value` in one of the spellings `int` accepts."""
    form = int(rng.integers(0, 5))
    if form == 1:
        return f"+{value}"
    if form == 2:
        return f"00{value}"
    if form == 3 and value >= 10:
        return f"{value // 10}_{value % 10}"
    return str(value)


def random_lines(rng, n_lines, fields):
    """Lines of the loaders' grammar: blank and comment lines, and lines of
    `fields(rng)` joined by assorted whitespace, some with a comment."""
    lines = []
    for _ in range(n_lines):
        kind = rng.random()
        sep = lambda: SPACES[int(rng.integers(len(SPACES)))]
        if kind < 0.1:
            lines.append(sep() if rng.random() < 0.5 else "")
        elif kind < 0.2:
            lines.append(sep() + "# a comment\u3000with 3 fields")
        else:
            line = sep().join(fields(rng))
            if rng.random() < 0.3:
                line = sep() + line + sep()
            if rng.random() < 0.2:
                line += sep() + "#" + sep().join(fields(rng))
            elif rng.random() < 0.1:
                line += "#x y"
            lines.append(line)
    return lines


def edge_fields(rng):
    name = ["buy", "view", "similar"][int(rng.integers(3))]
    u = int(rng.integers(0, 9 if name == "similar" else 6))
    return [spelled(rng, u), spelled(rng, int(rng.integers(0, 9))), name]


def label_fields(rng):
    return [spelled(rng, int(rng.integers(0, 40))), spelled(rng, int(rng.integers(0, 3)))]


def write_lines(path, lines, rng):
    text = "".join(line + BREAKS[int(rng.integers(len(BREAKS)))] for line in lines)
    if lines and rng.random() < 0.3:
        text = text.rstrip("\r\n")  # no final line break
    path.write_bytes(text.encode("utf-8"))


def raised(fn, *args, **kw):
    """The GraphError message of fn(*args), or its result."""
    try:
        return fn(*args, **kw)
    except GraphError as exc:
        return f"GraphError: {exc}"


def outcome(fn, *args, **kw):
    """What fn(*args) gives, in a form that compares: its GraphError
    message, or the content of the graph or labels it returns."""
    result = raised(fn, *args, **kw)
    if isinstance(result, HeteroGraph):
        return result.fingerprint(), result.node_counts, list(result.relations)
    if isinstance(result, LabelSet):
        return result.node_ids.tolist(), result.class_ids.tolist(), result.n_classes
    return result


def same_graph(a, b):
    return (a.fingerprint() == b.fingerprint() and a.node_counts == b.node_counts
            and list(a.relations) == list(b.relations))


def toy_graph():
    return HeteroGraph(
        {"user": 3, "item": 2},
        [
            Relation("buy", "user", "item", [(0, 0), (1, 0), (2, 1)]),
            Relation("view", "user", "item", [(0, 1), (1, 1)]),
            Relation("cart", "user", "item", [(2, 0)]),
        ],
        "buy",
    )


class TestLoading:
    def test_dedup(self, tmp_path):
        schema = parse_schema("node user 2\nnode item 2\nrelation purchase user item\ntarget purchase")
        p = tmp_path / "edges.txt"
        p.write_text("0 1 purchase\n0 1 purchase\n")
        g = load_edge_list(p, schema)
        assert len(g.relations["purchase"].edges) == 1

    def test_empty_file_declared_counts(self, tmp_path):
        schema = parse_schema("node user 5\nnode item 7\nrelation buy user item\ntarget buy")
        p = tmp_path / "edges.txt"
        p.write_text("# nothing here\n")
        g = load_edge_list(p, schema)
        assert g.edge_count() == 0
        assert g.node_counts == {"user": 5, "item": 7}

    def test_tmall_shaped_schema(self, tmp_path):
        schema = parse_schema(TMALL_SCHEMA)
        p = tmp_path / "edges.txt"
        p.write_text("0 0 View\n0 0 Favorite\n1 1 Cart\n1 0 Purchase\n0 1 Purchase\n")
        g = load_edge_list(p, schema)
        assert g.target == "Purchase"
        assert list(g.relations) == ["View", "Favorite", "Cart", "Purchase"]
        assert g.node_counts == {"user": 2, "item": 2}  # inferred max index + 1

    def test_malformed_line_reports_number(self, tmp_path):
        schema = parse_schema("node user 2\nnode item 2\nrelation buy user item\ntarget buy")
        p = tmp_path / "edges.txt"
        p.write_text("0 0 buy\nnonsense line\n")
        with pytest.raises(GraphError, match=":2"):
            load_edge_list(p, schema)

    def test_out_of_range_endpoint_rejected(self, tmp_path):
        schema = parse_schema("node user 2\nnode item 2\nrelation buy user item\ntarget buy")
        p = tmp_path / "edges.txt"
        p.write_text("5 0 buy\n")
        with pytest.raises(GraphError):
            load_edge_list(p, schema)

    def test_label_file(self, tmp_path):
        p = tmp_path / "labels.txt"
        p.write_text("0 1\n2 0\n# comment\n")
        labels = load_labels(p, "user")
        assert labels.n_classes == 2
        assert list(labels.node_ids) == [0, 2]

    def test_schema_requires_target(self):
        with pytest.raises(GraphError):
            parse_schema("node user 2\nrelation buy user user")


@pytest.fixture(scope="session")
def mid_dataset_files(tmp_path_factory):
    """Edge, schema and label files of the generator's 8000 x 4000 graph."""
    graph, labels = generate_synthetic(8000, 4000, 2, 1.25e-3, 0.9, seed=4003)
    return hetgraph.write_dataset_files(graph, labels, tmp_path_factory.mktemp("mid"))


class TestLoaderMatchesReference:
    """The whole-array loaders read every file as the per-line references
    do: the same graphs and labels, or the same error at the same line."""

    def test_random_edge_files(self, tmp_path):
        rng = np.random.default_rng(11)
        schema = parse_schema(MIXED_SCHEMA)  # inferred user count, declared item count
        path = tmp_path / "edges.txt"
        for trial in range(60):
            write_lines(path, random_lines(rng, int(rng.integers(0, 40)), edge_fields), rng)
            expect = load_edge_list_loop(path, schema)
            got = load_edge_list(path, schema)
            assert same_graph(got, expect), path.read_bytes()

    def test_repeats_within_and_across_relations(self, tmp_path):
        schema = parse_schema(MIXED_SCHEMA)
        path = tmp_path / "edges.txt"
        path.write_text("1 2 buy\n1 2 view\n+1 2 buy\n3 3 similar\n1 2 buy\n01 2 view\n")
        g = load_edge_list(path, schema)
        assert same_graph(g, load_edge_list_loop(path, schema))
        assert g.relations["buy"].edges.tolist() == [[1, 2]]
        assert g.relations["view"].edges.tolist() == [[1, 2]]
        assert g.node_counts == {"user": 2, "item": 9}

    def test_every_line_break_and_whitespace(self, tmp_path):
        schema = parse_schema(MIXED_SCHEMA)
        path = tmp_path / "edges.txt"
        path.write_bytes("0\t1 buy\r\n2\xa03\u3000view\r4 5 similar # 6 7 buy\n"
                         "\x0c\n#\n5\u20030\x1cbuy\n\u0663 1 buy".encode("utf-8"))
        g = load_edge_list(path, schema)
        assert same_graph(g, load_edge_list_loop(path, schema))
        assert g.edge_count() == 5
        assert g.relations["buy"].edges.tolist() == [[0, 1], [5, 0], [3, 1]]

    def test_bad_lines_raise_the_reference_error(self, tmp_path):
        rng = np.random.default_rng(12)
        schema = parse_schema(MIXED_SCHEMA)
        path = tmp_path / "edges.txt"
        bad = ["0 1", "0 1 buy x", "x 1 buy", "0 1.5 view", "0x1 0 buy", "0 1 nope",
               "-1 0 buy", "0 -2 view", "x -1 nope", "-1 0 nope", "0 y 1 2", "0 1 Buy",
               "9 9 buy"]  # the last: user 9 fits the inferred count, item 9 does not
        for trial in range(80):
            lines = random_lines(rng, int(rng.integers(1, 30)), edge_fields)
            for _ in range(int(rng.integers(1, 3))):  # one bad line or two
                lines.insert(int(rng.integers(0, len(lines) + 1)),
                             bad[int(rng.integers(len(bad)))])
            write_lines(path, lines, rng)
            expect = raised(load_edge_list_loop, path, schema)
            assert isinstance(expect, str)
            assert raised(load_edge_list, path, schema) == expect, path.read_bytes()

    def test_earliest_error_wins(self, tmp_path):
        schema = parse_schema(MIXED_SCHEMA)
        path = tmp_path / "edges.txt"
        for text, line, words in [
            ("0 0 buy\n0 0 nope\nx 0 buy\n", 2, "undeclared relation 'nope'"),
            ("0 0 buy\n0 x buy\n0 0\n", 2, "non-integer endpoint"),
            ("-1 0 buy\n0 0\n", 1, "negative node id"),
            ("0 0\n-1 0 buy\n", 1, "expected 'src dst relation'"),
            ("0 0 buy\n-1 x nope\n", 2, "non-integer endpoint"),
            ("0 0 buy\n-1 0 nope\n", 2, "undeclared relation"),
        ]:
            path.write_text(text)
            with pytest.raises(GraphError, match=f":{line}: {words}"):
                load_edge_list(path, schema)
            assert raised(load_edge_list, path, schema) \
                == raised(load_edge_list_loop, path, schema)

    def test_ids_past_int64_are_a_line_error(self, tmp_path):
        schema = parse_schema(MIXED_SCHEMA)
        path = tmp_path / "edges.txt"
        path.write_text("0 0 buy\n0 99999999999999999999 buy\n")
        with pytest.raises(GraphError, match=":2: integer out of range"):
            load_edge_list(path, schema)

    # fields on both sides of the plain-integer path: [+-]?[0-9]{1,18} is
    # parsed from code points, every other field goes to `int`
    BOUNDARY_FIELDS = [
        "9" * 17, "9" * 18, "9" * 19, "9" * 20, "1" + "0" * 17, "1" + "0" * 18,
        "-" + "9" * 18, "-" + "9" * 19, "0" * 19 + "7",
        str(2**63 - 2), str(2**63 - 1), str(2**63),
        str(-2**63 - 1), str(-2**63), str(-2**63 + 1),
        "+0", "-0", "-", "+", "+-1", "--1", "1__0", "_1", "1_", "1_0",
        "\u0663", "\u0661\u0662", "-\u0663", "7\u0663", "\uff13", "+\uff11\uff12",
    ]
    # one non-ASCII character keeps the code points in 32 bits
    WIDE_LINE = "# caf\u00e9\n"

    def test_plain_integer_boundaries(self, tmp_path):
        schema = parse_schema("node user\nnode item\nrelation buy user item\ntarget buy\n")
        edges, labels = tmp_path / "edges.txt", tmp_path / "labels.txt"
        for field in self.BOUNDARY_FIELDS:
            for extra in ("", self.WIDE_LINE):
                for line in (f"{field} 3 buy", f"3 {field} buy"):
                    edges.write_text(f"1 2 buy\n{line}\n{extra}", encoding="utf-8")
                    assert outcome(load_edge_list, edges, schema) \
                        == outcome(load_edge_list_loop, edges, schema), line
                for line in (f"{field} 1", f"5 {field}"):
                    labels.write_text(f"{extra}0 1\n{line}\n", encoding="utf-8")
                    assert outcome(load_labels, labels, "user") \
                        == outcome(load_labels_loop, labels, "user"), line

    def test_ascii_and_wide_files_read_alike(self, tmp_path):
        rng = np.random.default_rng(14)
        schema = parse_schema(MIXED_SCHEMA)
        path = tmp_path / "edges.txt"
        for trial in range(20):
            lines = random_lines(rng, int(rng.integers(1, 30)), edge_fields)
            text = "\n".join(line.split("#")[0] for line in lines) + "\n"
            text = "".join(c if c.isascii() else " " for c in text)
            results = []
            for extra in ("", self.WIDE_LINE):
                path.write_text(text + extra, encoding="utf-8")
                results.append(outcome(load_edge_list, path, schema))
                assert results[-1] == outcome(load_edge_list_loop, path, schema), text
            assert results[0] == results[1]

    def test_relation_names_outside_ascii(self, tmp_path):
        schema = parse_schema("node user\nnode item\nrelation k\u00f6p user item\n"
                              "relation buy user item\nrelation \u8cfc\u5165 user item\n"
                              "relation bu user item\ntarget k\u00f6p\n")
        path = tmp_path / "edges.txt"
        for text in ["0 1 buy\n1 1 bu\n",  # ASCII text: the wide names match nothing
                     "0 1 buy\n1 2 k\u00f6p\n2 0 \u8cfc\u5165\n0 0 bu\n0 1 k\u00f6p\n",
                     "0 1 k\u00f6p\n1 1 kop\n",
                     "0 1 buy\n1 1 \u8cfc\n",
                     "0 1 buy\n1 1 buyer\n",
                     "0 1 buy\n1 1 k\u00f6\n",
                     "0 1 \u8cfc\u5165\u5165\n"]:
            path.write_text(text, encoding="utf-8")
            assert outcome(load_edge_list, path, schema) \
                == outcome(load_edge_list_loop, path, schema), text

    def test_mid_size_file_within_memory_bound(self, mid_dataset_files, allocations):
        """A per-field Python string cost over 20 bytes of traced memory per
        byte of this file; code-point spans cost under half of that."""
        schema = hetgraph.load_schema(mid_dataset_files["schema"])
        path = mid_dataset_files["edges"]
        got, peak, _ = allocations(load_edge_list, path, schema)
        assert same_graph(got, load_edge_list_loop(path, schema))
        size = os.path.getsize(path)
        assert size > 1_500_000
        assert peak < 14 * size

    def test_random_label_files(self, tmp_path):
        rng = np.random.default_rng(13)
        path = tmp_path / "labels.txt"
        bad = ["1", "1 2 3", "x 1", "1 y", "-1 0", "40 0", "1 0"]
        for trial in range(120):
            lines = random_lines(rng, int(rng.integers(0, 25)), label_fields)
            if trial % 2:
                lines.insert(int(rng.integers(0, len(lines) + 1)),
                             bad[int(rng.integers(len(bad)))])
            write_lines(path, lines, rng)
            for count in (None, 40):
                expect = raised(load_labels_loop, path, "user", node_count=count)
                got = raised(load_labels, path, "user", node_count=count)
                if isinstance(expect, str):
                    assert got == expect, path.read_bytes()
                else:
                    assert (got.node_ids.tolist(), got.class_ids.tolist(), got.n_classes) \
                        == (expect.node_ids.tolist(), expect.class_ids.tolist(),
                            expect.n_classes)

    def test_label_files_that_do_not_fit_are_refused(self, tmp_path):
        path = tmp_path / "labels.txt"
        for text, message in [("0 1\n75 0\n", ":2: node id 75 outside 'user' count 60"),
                              ("0 1\n-3 0\n", ":2: negative node id"),
                              ("4 1\n2 0\n+4 0\n", ":3: node 4 listed twice"),
                              ("4 1\nfour 0\n", ":2: non-integer field in 'four 0'")]:
            path.write_text(text)
            with pytest.raises(GraphError, match=message):
                load_labels(path, "user", node_count=60)


class TestWriterMatchesReference:
    """write_dataset_files writes the edge and label files byte for byte as
    the per-line reference does, and they load back to the same graph."""

    def cases(self):
        toy = toy_graph()
        yield toy, LabelSet("user", np.array([2, 0]), np.array([0, 1]), 2)
        # an empty relation, a name holding a format directive, no labels
        yield HeteroGraph({"user": 3, "item": 2},
                          [Relation("buy", "user", "item", [(0, 0), (2, 1)]),
                           Relation("v%d", "user", "item", np.zeros((0, 2), dtype=np.int64)),
                           Relation("knows", "user", "user", [(0, 2), (1, 0)])],
                          "buy"), None
        # no edges and no labeled nodes at all
        yield HeteroGraph({"user": 4, "item": 3},
                          [Relation("buy", "user", "item", np.zeros((0, 2), dtype=np.int64))],
                          "buy"), LabelSet("user", np.zeros(0, np.int64), np.zeros(0, np.int64), 0)
        yield generate_synthetic(120, 80, 3, density=0.05, fidelity=0.7, seed=4)

    def test_files_equal_reference(self, tmp_path):
        for case, (g, labels) in enumerate(self.cases()):
            ours, ref = tmp_path / f"ours{case}", tmp_path / f"ref{case}"
            ref.mkdir()
            paths = hetgraph.write_dataset_files(g, labels, ours)
            write_dataset_files_loop(g, labels, ref)
            names = ["edges"] + ([] if labels is None else ["labels"])
            assert set(paths) == {"schema", *names}
            for name in names:
                assert (ours / f"{name}.txt").read_bytes() == \
                    (ref / f"{name}.txt").read_bytes(), (case, name)
            back = load_edge_list(paths["edges"], hetgraph.load_schema(paths["schema"]))
            assert same_graph(back, g), case


def normalize_reference(g, relation):
    """Reference for hetgraph.normalize, built dense: mark the symmetrized
    coordinates once, take row sums as degrees, and scale each marked entry
    by its row's and then its column's inverse square-root degree."""
    n = g.num_nodes
    e = g.global_edges(relation)
    a = np.zeros((n, n))
    a[e[:, 0], e[:, 1]] = 1.0
    a[e[:, 1], e[:, 0]] = 1.0
    deg = a.sum(axis=1)
    inv_sqrt = np.zeros(n)
    inv_sqrt[deg > 0] = 1.0 / np.sqrt(deg[deg > 0])
    rows, cols = np.nonzero(a)
    offsets = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    return CsrMatrix(n, n, offsets, cols, inv_sqrt[rows] * inv_sqrt[cols])


class TestNormalize:
    def test_equals_reference_bit_for_bit(self):
        rng = np.random.default_rng(21)
        for trial in range(40):
            n_user, n_item, n_other = (int(x) for x in rng.integers(1, 30, size=3))
            # few nodes make self edges and edges given both ways common; the
            # "other" nodes, and nodes no edge reaches, stay isolated
            m = 0 if trial % 8 == 0 else int(rng.integers(1, 60))
            follows = np.unique(rng.integers(0, n_user, size=(m, 2)), axis=0)
            buys = np.unique(np.column_stack((rng.integers(0, n_user, size=m),
                                              rng.integers(0, n_item, size=m))), axis=0)
            g = HeteroGraph({"user": n_user, "item": n_item, "other": n_other},
                            [Relation("follow", "user", "user", follows),
                             Relation("buy", "user", "item", buys)], "buy")
            for relation in g.relations:
                got, expect = normalize(g, relation), normalize_reference(g, relation)
                assert np.array_equal(got.row_offsets, expect.row_offsets)
                assert np.array_equal(got.col_indices, expect.col_indices)
                assert np.array_equal(got.values.view(np.int64),
                                      expect.values.view(np.int64))

    def test_single_edge_unit_degrees(self):
        g = HeteroGraph({"n": 2}, [Relation("e", "n", "n", [(0, 1)])], "e")
        adj = normalize(g, "e")
        assert np.allclose(adj.to_dense(), [[0, 1], [1, 0]])

    def test_star_center_degree_two(self):
        g = HeteroGraph({"n": 3}, [Relation("e", "n", "n", [(0, 1), (0, 2)])], "e")
        dense = normalize(g, "e").to_dense()
        assert abs(dense[0, 1] - 1 / np.sqrt(2)) < 1e-12
        assert abs(dense[1, 0] - 1 / np.sqrt(2)) < 1e-12
        assert dense[1, 2] == 0.0

    def test_isolated_node_zero_row(self):
        g = HeteroGraph({"n": 3}, [Relation("e", "n", "n", [(0, 1)])], "e")
        dense = normalize(g, "e").to_dense()
        assert np.all(dense[2] == 0) and np.all(dense[:, 2] == 0)

    def test_bipartite_block_structure(self):
        g = toy_graph()
        adj = normalize(g, "buy")
        dense = adj.to_dense()
        assert dense.shape == (5, 5)
        # user block and item block are zero; off-diagonal blocks mirror
        assert np.all(dense[:3, :3] == 0) and np.all(dense[3:, 3:] == 0)
        assert np.allclose(dense, dense.T)
        # item 0 has degree 2 (users 0 and 1)
        assert abs(dense[0, 3] - 1 / np.sqrt(2)) < 1e-12

    def test_matches_dense_oracle_random(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(2, 50))
            m = int(rng.integers(1, 4 * n))
            edges = np.unique(rng.integers(0, n, size=(m, 2)), axis=0)
            g = HeteroGraph({"n": n}, [Relation("e", "n", "n", edges)], "e")
            adj = normalize(g, "e")
            a = np.zeros((n, n))
            a[edges[:, 0], edges[:, 1]] = 1
            a = np.maximum(a, a.T)
            deg = a.sum(1)
            inv = np.divide(1.0, np.sqrt(deg), out=np.zeros(n), where=deg > 0)
            expect = np.diag(inv) @ a @ np.diag(inv)
            assert np.max(np.abs(adj.to_dense() - expect)) < 1e-12
            # sparsity pattern preserved, entries bounded by 1
            assert np.array_equal(adj.to_dense() != 0, a != 0)
            assert adj.values.max(initial=0.0) <= 1.0

    def test_normalized_is_its_own_transpose(self):
        # the encoder's backward multiplies by the normalized matrix in place
        # of its transpose, so the two must agree bit for bit
        rng = np.random.default_rng(5)
        edges = np.unique(rng.integers(0, 9, size=(40, 2)), axis=0)
        graphs = [
            (HeteroGraph({"n": 9}, [Relation("e", "n", "n", edges)], "e"), "e"),
            (toy_graph(), "buy"),   # user -> item, item offset 3
            (toy_graph(), "view"),  # user 2 and item 0 isolated
        ]
        for g, rel in graphs:
            a = normalize(g, rel)
            t = a.transpose()
            assert np.array_equal(a.row_offsets, t.row_offsets)
            assert np.array_equal(a.col_indices, t.col_indices)
            assert np.array_equal(a.values, t.values)

    def test_unknown_relation(self):
        with pytest.raises(GraphError):
            normalize(toy_graph(), "nope")


def hundred_edge_graph(seed=0):
    rng = np.random.default_rng(seed)
    edges = set()
    while len(edges) < 100:
        edges.add((int(rng.integers(0, 40)), int(rng.integers(0, 40))))
    edges = np.array(sorted(edges))
    return HeteroGraph(
        {"user": 40, "item": 40},
        [Relation("buy", "user", "item", edges[:10]),
         Relation("view", "user", "item", edges)],
        "buy",
    )


class TestNoise:
    def test_ratio_zero_identity(self):
        g = hundred_edge_graph()
        out = inject_edge_noise(g, NoiseSpec("view", 0.0, seed=5))
        assert out.fingerprint() == g.fingerprint()

    def test_full_replacement_disjoint(self):
        g = hundred_edge_graph()
        out = inject_edge_noise(g, NoiseSpec("view", 1.0, seed=5))
        before = {tuple(e) for e in g.relations["view"].edges}
        after = {tuple(e) for e in out.relations["view"].edges}
        assert len(after) == 100
        assert not before & after

    def test_partial_replacement_count(self):
        g = hundred_edge_graph()
        out = inject_edge_noise(g, NoiseSpec("view", 0.3, seed=9))
        before = {tuple(e) for e in g.relations["view"].edges}
        after = {tuple(e) for e in out.relations["view"].edges}
        assert len(after) == 100
        assert len(before.symmetric_difference(after)) // 2 == 30

    def test_deterministic(self):
        g = hundred_edge_graph()
        a = inject_edge_noise(g, NoiseSpec("view", 0.5, seed=3))
        b = inject_edge_noise(g, NoiseSpec("view", 0.5, seed=3))
        assert a.fingerprint() == b.fingerprint()
        c = inject_edge_noise(g, NoiseSpec("view", 0.5, seed=4))
        assert c.fingerprint() != a.fingerprint()

    def test_target_relation_rejected(self):
        with pytest.raises(GraphError):
            inject_edge_noise(hundred_edge_graph(), NoiseSpec("buy", 0.5, seed=1))

    def test_bad_ratio_rejected(self):
        with pytest.raises(GraphError):
            NoiseSpec("view", 1.5, seed=1)

    def test_endpoint_validity_all_ratios(self):
        g = hundred_edge_graph()
        for ratio in (0.1, 0.5, 0.9):
            out = inject_edge_noise(g, NoiseSpec("view", ratio, seed=11))
            e = out.relations["view"].edges
            assert e.shape == (100, 2)
            assert e[:, 0].max() < 40 and e[:, 1].max() < 40


class TestSynthetic:
    def test_fidelity_one_copies(self):
        g, _ = generate_synthetic(30, 20, 2, density=0.1, fidelity=1.0, seed=1)
        target = {tuple(e) for e in g.relations["interact"].edges}
        for name in g.auxiliary_names():
            aux = {tuple(e) for e in g.relations[name].edges}
            assert aux <= target

    def test_deterministic(self):
        a, la = generate_synthetic(25, 15, 1, 0.2, 0.5, seed=42)
        b, lb = generate_synthetic(25, 15, 1, 0.2, 0.5, seed=42)
        assert a.fingerprint() == b.fingerprint()
        assert np.array_equal(la.class_ids, lb.class_ids)

    def test_fidelity_zero_overlap_near_density(self):
        density = 0.08
        g, _ = generate_synthetic(100, 80, 1, density, fidelity=0.0, seed=7)
        target = {tuple(e) for e in g.relations["interact"].edges}
        aux_edges = g.relations["aux1"].edges
        overlap = sum(1 for e in aux_edges if tuple(e) in target)
        n = aux_edges.shape[0]
        p = len(target) / (100 * 80)
        sigma = np.sqrt(n * p * (1 - p))
        assert abs(overlap - n * p) <= 3 * sigma

    def test_labels_are_balanced_communities(self):
        _, labels = generate_synthetic(50, 30, 1, 0.1, 0.9, seed=3)
        assert labels.n_classes == 2
        assert labels.class_ids.sum() == 25

    def test_dedupe_matches_loop_reference(self, monkeypatch):
        rng = np.random.default_rng(3)
        for n, m in ((1, 1), (3, 20), (10, 200), (50, 5000)):
            edges = rng.integers(0, n, size=(m, 2))
            assert np.array_equal(hetgraph._first_occurrences(edges),
                                  first_occurrences_loop(edges))
        assert hetgraph._first_occurrences(np.zeros((0, 2), dtype=np.int64)).shape == (0,)
        # ids whose spans overflow a packed int64 key, and negative ids
        wide = rng.integers(-2, 3, size=(300, 2)) * (1 << 61)
        assert np.array_equal(hetgraph._first_occurrences(wide), first_occurrences_loop(wide))
        narrow = rng.integers(-4, 4, size=(300, 2))
        assert np.array_equal(hetgraph._first_occurrences(narrow),
                              first_occurrences_loop(narrow))
        # generated edge arrays, hence fingerprints, are those of the loop
        def fingerprints():
            return [generate_synthetic(*size, seed=seed)[0].fingerprint()
                    for size in ((40, 30, 2, 0.1, 0.3), (200, 100, 2, 0.05, 0.9))
                    for seed in (1, 2, 3)]

        fast = fingerprints()
        monkeypatch.setattr(hetgraph, "_first_occurrences", first_occurrences_loop)
        assert fingerprints() == fast

    def test_row_blocks_match_dense_draw(self, monkeypatch, cpus):
        # p_in clamps to 1 from density 0.625 on; fidelity 0 and 1 take the
        # copy draw's extremes; blocks run inline or on worker threads
        sizes = [(1, 5, 2, 0.5, 0.9), (37, 23, 2, 0.1, 0.5), (500, 300, 1, 0.02, 0.9),
                 (29, 11, 2, 0.625, 0.0), (13, 7, 1, 1.0, 1.0), (40, 9, 2, 0.7, 0.3),
                 (31, 17, 2, 0.2, 0.0), (23, 19, 1, 0.3, 1.0)]

        def check(cases):
            for size in cases:
                for seed in (1, 2):
                    g, _ = generate_synthetic(*size, seed=seed)
                    ref = generate_synthetic_dense(*size, seed=seed)
                    assert g.fingerprint() == ref.fingerprint()

        default = hetgraph._SYNTH_BLOCK_ELEMENTS
        for workers in WORKER_COUNTS:
            cpus(workers)
            monkeypatch.setattr(hetgraph, "_SYNTH_BLOCK_ELEMENTS", default)
            # more items than the block budget: one row per block
            check([(3, default + 5, 1, 2e-5, 0.5)])
            check(sizes)
            # a budget that cuts blocks of one, two and several rows, the
            # last block shorter than the others
            for budget in (1, 50, 700):
                monkeypatch.setattr(hetgraph, "_SYNTH_BLOCK_ELEMENTS", budget)
                check(sizes)

    def test_threaded_blocks_give_one_graph_under_thread_switching(self, monkeypatch, cpus):
        # 40 blocks of 5 rows; a switch interval of 10 us makes the workers
        # interleave at nearly every bytecode
        monkeypatch.setattr(hetgraph, "_SYNTH_BLOCK_ELEMENTS", 5 * 60)
        size = (200, 60, 2, 0.1, 0.6)
        expect = generate_synthetic_dense(*size, seed=9).fingerprint()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for workers in (4, 8):
                cpus(workers)
                for _ in range(20):
                    assert generate_synthetic(*size, seed=9)[0].fingerprint() == expect
        finally:
            sys.setswitchinterval(interval)

    def test_bad_params_rejected(self):
        with pytest.raises(GraphError):
            generate_synthetic(0, 10, 1, 0.1, 0.5, seed=1)
        with pytest.raises(GraphError):
            generate_synthetic(10, 10, 1, 0.0, 0.5, seed=1)
        with pytest.raises(GraphError):
            generate_synthetic(10, 10, 1, 0.1, 1.5, seed=1)
        with pytest.raises(GraphError, match="seed must be >= 0, got -1"):
            generate_synthetic(10, 10, 1, 0.1, 0.5, seed=-1)


class TestBuckets:
    def graph_with_degrees(self, degrees):
        edges = [(u, i) for u, d in enumerate(degrees) for i in range(d)]
        return HeteroGraph(
            {"user": len(degrees), "item": max(degrees) if degrees else 1},
            [Relation("buy", "user", "item", edges),
             Relation("view", "user", "item", [(0, 0)])],
            "buy",
        )

    def test_first_bucket(self):
        g = self.graph_with_degrees([1, 20])
        ids = sparsity_buckets(g, [0, 1])
        assert list(ids) == [0, 4]

    def test_boundary_goes_to_next_bucket(self):
        g = self.graph_with_degrees(list(SPARSITY_BOUNDARIES))
        assert list(sparsity_buckets(g, [0, 1, 2, 3])) == [1, 2, 3, 4]

    def test_all_below_first_boundary(self):
        g = self.graph_with_degrees([0, 1, 1])
        assert set(sparsity_buckets(g, [0, 1, 2])) == {0}

    def test_labels(self):
        assert SPARSITY_BOUNDARIES == (2, 4, 8, 16)
        assert SPARSITY_LABELS == ("<2", "<4", "<8", "<16", ">=16")


class TestGraphValidation:
    def test_relations_are_checked_for_duplicates_once(self, monkeypatch, tmp_path):
        g = toy_graph()
        # a relation that has both a repeat and an out-of-range id reports the repeat
        with pytest.raises(GraphError, match="duplicate"):
            HeteroGraph({"n": 2}, [Relation("e", "n", "n", [(0, 5), (0, 5)])], "e")
        # a file load and a synthetic generation sort each relation once,
        # the relations that drop repeats included
        real = hetgraph._first_occurrences
        sorted_edges = []

        def count(edges):
            sorted_edges.append(len(edges))
            return real(edges)

        monkeypatch.setattr(hetgraph, "_first_occurrences", count)
        schema = parse_schema(TMALL_SCHEMA)
        p = tmp_path / "edges.txt"
        p.write_text("0 0 View\n0 0 View\n0 0 Favorite\n1 1 Cart\n1 0 Purchase\n")
        loaded = load_edge_list(p, schema)
        assert len(loaded.relations["View"].edges) == 1
        assert sorted_edges == [2, 1, 1, 1]
        sorted_edges.clear()
        synthetic, _ = generate_synthetic(30, 20, 3, 0.2, 0.5, seed=3)
        assert len(sorted_edges) == len(synthetic.relations) == 4
        assert sum(sorted_edges) > synthetic.edge_count()  # repeats were dropped

        def refuse(edges):
            raise AssertionError("a carried-over relation was checked again")

        monkeypatch.setattr(hetgraph, "_first_occurrences", refuse)
        assert g.with_relations(["buy", "cart"]).edge_count() == 4
        assert g.replace_relation(g.relations["view"]).fingerprint() == g.fingerprint()

    def test_duplicate_edges_rejected(self):
        with pytest.raises(GraphError):
            HeteroGraph({"n": 2}, [Relation("e", "n", "n", [(0, 1), (0, 1)])], "e")
        with pytest.raises(GraphError, match="duplicate"):  # repeat far apart
            HeteroGraph({"n": 3}, [Relation("e", "n", "n",
                                            [(2, 1), (0, 1), (1, 0), (2, 2), (0, 1)])], "e")
        # reversed pairs and shared endpoints are distinct edges
        HeteroGraph({"n": 3}, [Relation("e", "n", "n", [(0, 1), (1, 0), (0, 2), (2, 1)])], "e")

    def test_missing_target_rejected(self):
        with pytest.raises(GraphError):
            HeteroGraph({"n": 2}, [Relation("e", "n", "n", [(0, 1)])], "other")

    def test_endpoint_out_of_range_rejected(self):
        with pytest.raises(GraphError):
            HeteroGraph({"n": 2}, [Relation("e", "n", "n", [(0, 5)])], "e")

    def test_global_edges_offsets(self):
        g = toy_graph()
        ge = g.global_edges("buy")
        assert g.offset("item") == 3
        assert np.array_equal(ge, [[0, 3], [1, 3], [2, 4]])

    def test_label_validation(self):
        with pytest.raises(GraphError):
            LabelSet("user", [0, 1], [0, 5], n_classes=2)
