import numpy as np
import pytest

from hgdiff import hetgraph
from hgdiff.hetgraph import (
    GraphError,
    HeteroGraph,
    LabelSet,
    NoiseSpec,
    Relation,
    bucket_labels,
    generate_synthetic,
    inject_edge_noise,
    load_edge_list,
    load_labels,
    normalize,
    parse_schema,
    sparsity_buckets,
)
from hgdiff.numerics import Rng

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
        assert g.edge_count("purchase") == 1

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


class TestNormalize:
    def test_single_edge_unit_degrees(self):
        g = HeteroGraph({"n": 2}, [Relation("e", "n", "n", [(0, 1)])], "e")
        adj = normalize(g, "e")
        assert np.allclose(adj.normalized.to_dense(), [[0, 1], [1, 0]])

    def test_star_center_degree_two(self):
        g = HeteroGraph({"n": 3}, [Relation("e", "n", "n", [(0, 1), (0, 2)])], "e")
        dense = normalize(g, "e").normalized.to_dense()
        assert abs(dense[0, 1] - 1 / np.sqrt(2)) < 1e-12
        assert abs(dense[1, 0] - 1 / np.sqrt(2)) < 1e-12
        assert dense[1, 2] == 0.0

    def test_isolated_node_zero_row(self):
        g = HeteroGraph({"n": 3}, [Relation("e", "n", "n", [(0, 1)])], "e")
        dense = normalize(g, "e").normalized.to_dense()
        assert np.all(dense[2] == 0) and np.all(dense[:, 2] == 0)

    def test_bipartite_block_structure(self):
        g = toy_graph()
        adj = normalize(g, "buy")
        dense = adj.normalized.to_dense()
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
            assert np.max(np.abs(adj.normalized.to_dense() - expect)) < 1e-12
            # sparsity pattern preserved, entries bounded by 1
            assert np.array_equal(adj.normalized.to_dense() != 0, a != 0)
            assert adj.normalized.values.max(initial=0.0) <= 1.0

    def test_normalized_is_its_own_transpose(self):
        # the encoder's backward multiplies by `normalized` in place of its
        # transpose, so the two must agree bit for bit
        rng = np.random.default_rng(5)
        edges = np.unique(rng.integers(0, 9, size=(40, 2)), axis=0)
        graphs = [
            (HeteroGraph({"n": 9}, [Relation("e", "n", "n", edges)], "e"), "e"),
            (toy_graph(), "buy"),   # user -> item, item offset 3
            (toy_graph(), "view"),  # user 2 and item 0 isolated
        ]
        for g, rel in graphs:
            a = normalize(g, rel).normalized
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
        # generated edge arrays, hence fingerprints, are those of the loop
        def fingerprints():
            return [generate_synthetic(*size, seed=seed)[0].fingerprint()
                    for size in ((40, 30, 2, 0.1, 0.3), (200, 100, 2, 0.05, 0.9))
                    for seed in (1, 2, 3)]

        fast = fingerprints()
        monkeypatch.setattr(hetgraph, "_first_occurrences", first_occurrences_loop)
        assert fingerprints() == fast

    def test_row_blocks_match_dense_draw(self, monkeypatch):
        sizes = [(1, 5, 2, 0.5, 0.9), (37, 23, 2, 0.1, 0.5), (500, 300, 1, 0.02, 0.9)]

        def check(cases):
            for size in cases:
                for seed in (1, 2):
                    g, _ = generate_synthetic(*size, seed=seed)
                    ref = generate_synthetic_dense(*size, seed=seed)
                    assert g.fingerprint() == ref.fingerprint()

        # more items than the block budget: one row per block
        check([(3, hetgraph._SYNTH_BLOCK_ELEMENTS + 5, 1, 2e-5, 0.5)])
        check(sizes)
        # a budget that cuts blocks of one, two and several rows
        for budget in (1, 50, 700):
            monkeypatch.setattr(hetgraph, "_SYNTH_BLOCK_ELEMENTS", budget)
            check(sizes)

    def test_bad_params_rejected(self):
        with pytest.raises(GraphError):
            generate_synthetic(0, 10, 1, 0.1, 0.5, seed=1)
        with pytest.raises(GraphError):
            generate_synthetic(10, 10, 1, 0.0, 0.5, seed=1)
        with pytest.raises(GraphError):
            generate_synthetic(10, 10, 1, 0.1, 1.5, seed=1)


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
        g = self.graph_with_degrees([3, 10])
        ids = sparsity_buckets(g, [0, 1], (8, 65))
        assert list(ids) == [0, 1]

    def test_boundary_goes_to_next_bucket(self):
        g = self.graph_with_degrees([8])
        assert sparsity_buckets(g, [0], (8, 65))[0] == 1

    def test_all_below_first_boundary(self):
        g = self.graph_with_degrees([1, 2, 3])
        assert set(sparsity_buckets(g, [0, 1, 2], (8, 65))) == {0}

    def test_labels(self):
        assert bucket_labels((8, 65)) == ["<8", "<65", ">=65"]

    def test_nonincreasing_boundaries_rejected(self):
        g = self.graph_with_degrees([1])
        with pytest.raises(GraphError):
            sparsity_buckets(g, [0], (8, 8))


class TestGraphValidation:
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
