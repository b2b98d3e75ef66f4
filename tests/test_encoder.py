import numpy as np
import pytest

from hgdiff.encoder import (
    EncoderConfig,
    _pool,
    encode,
    encode_vjp,
    propagate_relation,
    propagate_relation_vjp,
    relation_adjacencies,
)
from hgdiff.diffusion import DiffusionConfig
from hgdiff.harness import RunConfig, Trainer
from hgdiff.hetgraph import GraphError, HeteroGraph, Relation, normalize
from hgdiff.numerics import LEAKY_SLOPE, Rng, ShapeError, grad_check, spmm


def line_graph(n, name="e"):
    return HeteroGraph({"n": n}, [Relation(name, "n", "n", [(i, i + 1) for i in range(n - 1)])], name)


def two_node():
    return normalize(HeteroGraph({"n": 2}, [Relation("e", "n", "n", [(0, 1)])], "e"), "e")


def random_graph(rng, n, n_edges, name="e"):
    edges = set()
    while len(edges) < n_edges:
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        if u != v:
            edges.add((u, v))
    return HeteroGraph({"n": n}, [Relation(name, "n", "n", sorted(edges))], name)


class TestPropagate:
    def test_zero_layers_identity(self):
        adj = two_node()
        e0 = np.array([[1.0, 2.0], [3.0, 4.0]])
        cfg = EncoderConfig(layers=0, dim=2)
        assert np.array_equal(propagate_relation(adj, e0, cfg), e0)

    def test_two_node_hand_computed(self):
        adj = two_node()
        e0 = np.eye(2)
        cfg = EncoderConfig(layers=1, dim=2)
        out = propagate_relation(adj, e0, cfg)
        assert np.allclose(out, np.ones((2, 2)))

    def test_isolated_node_keeps_initial_row(self):
        g = HeteroGraph({"n": 3}, [Relation("e", "n", "n", [(0, 1)])], "e")
        adj = normalize(g, "e")
        e0 = Rng(0).normal(3, 4)
        for L in (1, 2, 5):
            out = propagate_relation(adj, e0, EncoderConfig(layers=L, dim=4))
            assert np.array_equal(out[2], e0[2])

    def test_row_norm_invariant(self):
        rng = Rng(2)
        g = random_graph(rng, 12, 20)
        adj = normalize(g, "e")
        e0 = rng.normal(12, 8)
        _, layers = propagate_relation(adj, e0, EncoderConfig(layers=3, dim=8),
                                       collect_layers=True)
        for table in layers[1:]:
            norms = np.linalg.norm(table, axis=1)
            nz = norms > 0
            assert np.all(np.abs(norms[nz] - 1.0) < 1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            propagate_relation(two_node(), np.ones((3, 2)), EncoderConfig(layers=1, dim=2))


class TestEncode:
    def make_two_relation(self, identical=False):
        e1 = [(0, 1), (1, 2)]
        e2 = e1 if identical else [(0, 3), (2, 3)]
        g = HeteroGraph({"n": 4},
                        [Relation("a", "n", "n", e1), Relation("b", "n", "n", e2)], "a")
        return relation_adjacencies(g)

    def test_single_relation_pooling_identity(self):
        adjs = {"a": two_node()}
        e0 = Rng(1).normal(2, 3)
        cfg = EncoderConfig(layers=2, dim=3)
        out = encode(adjs, e0, cfg)
        assert np.array_equal(out.pooled, out.per_relation["a"])

    def test_identical_relations_mean_equals_branch(self):
        adjs = self.make_two_relation(identical=True)
        e0 = Rng(3).normal(4, 3)
        out = encode(adjs, e0, EncoderConfig(layers=2, dim=3))
        assert np.allclose(out.pooled, out.per_relation["a"])

    def test_mean_of_branches(self):
        adjs = self.make_two_relation()
        e0 = Rng(4).normal(4, 3)
        cfg = EncoderConfig(layers=2, dim=3)
        out = encode(adjs, e0, cfg)
        branch_a = propagate_relation(adjs["a"], e0, cfg)
        branch_b = propagate_relation(adjs["b"], e0, cfg)
        assert np.allclose(out.pooled, (branch_a + branch_b) / 2)

    def test_empty_relation_set_rejected(self):
        with pytest.raises(GraphError):
            encode({}, np.ones((2, 2)), EncoderConfig(layers=1, dim=2))



class TestEncodeViews:
    # the target view is the target relation, the source view every other one
    def test_auxiliary_copy_matches_target(self):
        edges = [(0, 0), (1, 1), (2, 0)]
        g = HeteroGraph({"user": 3, "item": 2},
                        [Relation("buy", "user", "item", edges),
                         Relation("view", "user", "item", edges)], "buy")
        adjs = relation_adjacencies(g)
        e0 = Rng(5).normal(5, 4)
        cfg = EncoderConfig(layers=2, dim=4)
        tgt = encode({"buy": adjs["buy"]}, e0, cfg)
        src = encode({"view": adjs["view"]}, e0, cfg)
        assert np.array_equal(tgt.pooled, src.pooled)

    def test_empty_auxiliary_gives_initial(self):
        g = HeteroGraph({"user": 3, "item": 2},
                        [Relation("buy", "user", "item", [(0, 0), (1, 1)]),
                         Relation("view", "user", "item", np.empty((0, 2)))], "buy")
        e0 = Rng(6).normal(5, 4)
        src = encode({"view": relation_adjacencies(g)["view"]}, e0,
                     EncoderConfig(layers=3, dim=4))
        assert np.array_equal(src.pooled, e0)

    def test_compositional_three_relations(self):
        # a trained model's views are the encodings of those relation subsets
        g = HeteroGraph({"user": 4, "item": 3},
                        [Relation("buy", "user", "item",
                                  [(0, 0), (0, 2), (1, 2), (1, 1), (3, 1), (3, 0)]),
                         Relation("view", "user", "item", [(0, 1), (2, 2)]),
                         Relation("cart", "user", "item", [(1, 0)])], "buy")
        cfg = RunConfig(epochs=0, encoder=EncoderConfig(layers=2, dim=4),
                        diffusion=DiffusionConfig(steps=4, b_max=0.99, b_min=0.9))
        trainer = Trainer(cfg, graph=g)
        tables = trainer.inference_tables()
        adjs = relation_adjacencies(trainer.train_graph)
        e0 = trainer.params.e0
        expect_tgt = encode({"buy": adjs["buy"]}, e0, cfg.encoder)
        expect_src = encode({"view": adjs["view"], "cart": adjs["cart"]}, e0, cfg.encoder)
        assert np.array_equal(tables["target"], expect_tgt.pooled)
        assert np.array_equal(tables["source"], expect_src.pooled)


class TestSharedForward:
    """The forward-only functions and their _vjp twins run one forward pass."""

    def graphs(self):
        rng = Rng(40)
        for trial in range(4):
            g = random_graph(rng.derive(f"g{trial}"), 9, 6 + 3 * trial)
            # node 9 has no edge in either relation
            rels = [Relation("e", "n", "n", g.relations["e"].edges),
                    Relation("f", "n", "n", random_graph(rng.derive(f"f{trial}"), 9, 7)
                             .relations["e"].edges)]
            yield HeteroGraph({"n": 10}, rels, "e"), rng.derive(f"e0{trial}").normal(10, 5)

    def configs(self):
        for layers in (0, 1, 3):
            yield EncoderConfig(layers=layers, dim=5)

    def test_propagate_matches_vjp_forward(self):
        for g, e0 in self.graphs():
            adj = normalize(g, "e")
            for cfg in self.configs():
                out = propagate_relation(adj, e0, cfg)
                assert np.array_equal(out, propagate_relation_vjp(adj, e0, cfg)[0])
                total, layers = propagate_relation(adj, e0, cfg, collect_layers=True)
                assert np.array_equal(total, out) and len(layers) == cfg.layers + 1
                if cfg.layers:
                    assert np.array_equal(layers[-1][9], np.zeros(5))  # isolated

    def test_encode_matches_vjp_forward(self):
        for g, e0 in self.graphs():
            adjs = relation_adjacencies(g)
            for cfg in self.configs():
                out = encode(adjs, e0, cfg)
                twin, _ = encode_vjp(adjs, e0, cfg)
                assert np.array_equal(out.pooled, twin.pooled)
                assert list(out.per_relation) == list(twin.per_relation) == ["e", "f"]
                for name, table in out.per_relation.items():
                    assert np.array_equal(table, twin.per_relation[name])


def reference_relation_vjp(adj, e0, cfg):
    """The relation forward and backward with np.where activations and
    boolean-mask copies of the nonzero-norm rows in the normalization
    gradient."""
    saved = []
    total = e0.copy()
    prev = e0
    for _ in range(cfg.layers):
        x = spmm(adj, prev)
        z = np.where(x >= 0, x, LEAKY_SLOPE * x)
        norms = np.sqrt((z * z).sum(axis=1))
        scale = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
        prev = z * scale[:, None]
        total += prev
        saved.append((x, z, norms))

    def normalize_vjp(z, norms, upstream):
        out = np.zeros_like(z)
        nz = norms > 0
        if np.any(nz):
            y = z[nz] / norms[nz, None]
            u = upstream[nz]
            out[nz] = (u - y * (u * y).sum(axis=1, keepdims=True)) / norms[nz, None]
        return out

    def vjp(upstream):
        g = np.asarray(upstream, dtype=np.float64)
        chain = np.zeros_like(g)
        for x, z, norms in reversed(saved):
            g_z = normalize_vjp(z, norms, g + chain)
            chain = spmm(adj, g_z * np.where(x >= 0, 1.0, LEAKY_SLOPE))
        return g + chain

    return total, vjp


class TestReferenceBackward:
    """The in-place backward equals the mask-copy reference bit for bit."""

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_matches_mask_copy_reference(self):
        rng = Rng(45)
        for trial in range(5):
            r = rng.derive(f"t{trial}")
            edges = random_graph(r.derive("g"), 11, 8 + 4 * trial).relations["e"].edges
            # node 11 has no edge: its rows have norm 0 in every layer. Node 12's
            # only neighbour, 13, starts at zero, so node 12's first layer has
            # norm 0 although it has an edge.
            edges = np.vstack([edges, [[12, 13]]])
            adj = normalize(HeteroGraph({"n": 14}, [Relation("e", "n", "n", edges)], "e"), "e")
            e0 = r.normal(14, 6)
            e0[13] = 0.0
            if trial % 2:
                e0[:, 2] = 0.0  # pre-activations exactly 0 in rows of nonzero norm
            if trial == 4:
                e0[5, 1] = np.nan  # NaN pre-activations from the first layer on
            upstream = r.normal(14, 6)
            upstream[0] = 0.0
            upstream[1, :3] = -0.0  # signed zeros must survive the chain sums
            for layers in (0, 1, 3):
                cfg = EncoderConfig(layers=layers, dim=6)
                total, vjp = propagate_relation_vjp(adj, e0, cfg)
                ref_total, ref_vjp = reference_relation_vjp(adj, e0, cfg)
                assert np.array_equal(total.view(np.int64), ref_total.view(np.int64))
                kept = upstream.copy()
                grad = vjp(upstream)
                assert np.array_equal(grad.view(np.int64), ref_vjp(upstream).view(np.int64))
                assert np.array_equal(upstream.view(np.int64), kept.view(np.int64))
                # the saved forward state is left as it was
                assert np.array_equal(vjp(upstream).view(np.int64), grad.view(np.int64))
                if layers:
                    assert np.array_equal(grad[11], upstream[11])  # isolated


class TestSavedState:
    def test_vjp_keeps_no_float_pre_activation(self, allocations):
        n, d, layers = 400, 16, 3
        rng = Rng(3)
        adj = normalize(random_graph(rng, n, 1600), "e")
        e0 = rng.normal(n, d)
        cfg = EncoderConfig(layers=layers, dim=d)
        propagate_relation_vjp(adj, e0, cfg)  # fills the adjacency's memoized buckets
        _, _, held = allocations(propagate_relation_vjp, adj, e0, cfg)
        # the output, then per layer the activation, its row norms and a
        # one-byte slope mask; a float64 pre-activation per layer would add
        # 7 bytes per entry
        table = n * d * 8
        assert held < table + layers * (table + n * d + n * 8) + 4096, held


class TestPooling:
    @staticmethod
    def assert_stack_mean(out):
        expect = np.stack(list(out.per_relation.values())).mean(axis=0)
        assert np.array_equal(out.pooled.view(np.int64), expect.view(np.int64))

    @pytest.mark.parametrize("relations", [1, 2, 3])
    def test_pooled_is_the_stacked_mean_bit_for_bit(self, relations):
        n, d = 12, 5
        rng = Rng(40 + relations)
        names = "efg"[:relations]
        graphs = [random_graph(rng.derive(name), n, 18, name=name) for name in names]
        adjs = {name: relation_adjacencies(g)[name] for name, g in zip(names, graphs)}
        e0 = rng.normal(n, d)
        e0[0] = -0.0
        e0[1, :2] = -0.0
        for layers in (0, 2):
            cfg = EncoderConfig(layers=layers, dim=d)
            self.assert_stack_mean(encode(adjs, e0, cfg))
            self.assert_stack_mean(encode_vjp(adjs, e0, cfg)[0])

    @pytest.mark.parametrize("relations", [1, 2, 3])
    def test_signed_zeros_pool_like_the_stacked_mean(self, relations):
        # relation tables whose entries mix -0.0 and +0.0; numpy's mean sums
        # from +0.0, so an entry that is -0.0 in every table pools to +0.0,
        # where a sum started from the first table would keep -0.0
        signs = np.array([[-0.0, -0.0, 0.0, 0.0, -0.0, 1.5],
                          [-0.0, 0.0, -0.0, 0.0, -0.0, -2.5],
                          [-0.0, -0.0, -0.0, -0.0, 0.0, 0.25]])
        tables = {f"r{i}": np.tile(signs[i], (3, 1)) for i in range(relations)}
        out = _pool(tables)
        self.assert_stack_mean(out)
        assert not np.signbit(out.pooled[:, 0]).any()


class TestStructuralProperties:
    def test_permutation_equivariance(self):
        rng = Rng(10)
        for trial in range(20):
            g = random_graph(rng.derive(f"g{trial}"), 10, 14)
            e0 = rng.derive(f"e{trial}").normal(10, 4)
            cfg = EncoderConfig(layers=2, dim=4)
            perm = rng.derive(f"p{trial}").permutation(10)
            edges = g.relations["e"].edges
            permuted = HeteroGraph(
                {"n": 10}, [Relation("e", "n", "n", perm[edges])], "e")
            out = encode(relation_adjacencies(g), e0, cfg).pooled
            out_p = encode(relation_adjacencies(permuted), e0[np.argsort(perm)], cfg).pooled
            assert np.max(np.abs(out_p - out[np.argsort(perm)])) < 1e-9

    def test_locality(self):
        # along a 9-node path, a node >L hops away cannot influence node 0
        for L in (1, 2, 3):
            g = line_graph(9)
            adj = normalize(g, "e")
            e0 = Rng(20 + L).normal(9, 4)
            cfg = EncoderConfig(layers=L, dim=4)
            base = propagate_relation(adj, e0, cfg)
            bumped = e0.copy()
            bumped[L + 1] += 10.0  # L+1 hops from node 0
            moved = propagate_relation(adj, bumped, cfg)
            assert np.array_equal(moved[0], base[0])
            assert np.any(moved[L + 1] != base[L + 1])


class TestGradients:
    def scalar_probe(self, adjs, cfg, shape, seed):
        rng = Rng(seed)
        probe = rng.normal(*shape)

        def f(e0):
            return float((encode(adjs, e0.reshape(shape), cfg).pooled * probe).sum())

        def analytic(e0):
            _, vjp = encode_vjp(adjs, e0.reshape(shape), cfg)
            return vjp(probe)

        return f, analytic

    def test_encode_gradient_certified(self):
        rng = Rng(30)
        g = random_graph(rng, 8, 12)
        g2 = random_graph(rng.derive("second"), 8, 10, name="f")
        adjs = {"e": normalize(g, "e"),
                "f": relation_adjacencies(g2)["f"]}
        cfg = EncoderConfig(layers=2, dim=3)
        f, analytic = self.scalar_probe(adjs, cfg, (8, 3), seed=31)
        for point_seed in range(5):
            e0 = Rng(100 + point_seed).normal(8, 3)
            err = grad_check(f, analytic(e0), e0, h=1e-6)
            assert err < 1e-4, f"encoder grad err {err} at point {point_seed}"

    def test_zero_layer_gradient_is_upstream(self):
        adjs = {"a": two_node()}
        cfg = EncoderConfig(layers=0, dim=2)
        _, vjp = encode_vjp(adjs, np.ones((2, 2)), cfg)
        up = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(vjp(up), up)
