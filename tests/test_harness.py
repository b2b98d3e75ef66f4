import json
import os
import subprocess
import sys
import textwrap
import tracemalloc
from dataclasses import is_dataclass
from pathlib import Path

import numpy as np
import pytest

from hgdiff import cli, diffusion, harness, tasks
from hgdiff.diffusion import (
    DiffusionConfig,
    DiffusionLossResult,
    denoise_predict,
    denoise_predict_vjp,
)
from hgdiff.encoder import EncoderConfig, encode_vjp
from hgdiff.harness import (
    ConfigError,
    DivergenceError,
    RunConfig,
    SyntheticSpec,
    TrainedModel,
    Trainer,
    export_embeddings,
    labeled_node_split,
    leave_one_out_split,
    load_dataset,
    resolve_variant,
    run_ablation,
    run_noise_robustness,
    train,
)
from hgdiff.hetgraph import (
    GraphError,
    HeteroGraph,
    LabelSet,
    NoiseSpec,
    Relation,
    generate_synthetic,
    inject_edge_noise,
    write_dataset_files,
)
from hgdiff.numerics import Rng, row_blocks
from hgdiff.tasks import JointLossConfig

from conftest import WORKER_COUNTS
from test_cli import read_embeddings


def small_cfg(**kw):
    defaults = dict(
        synthetic=SyntheticSpec(users=30, items=20, aux_relations=2,
                                density=0.15, fidelity=0.9),
        encoder=EncoderConfig(layers=2, dim=8),
        diffusion=DiffusionConfig(steps=10, b_max=0.99, b_min=0.9),
        loss=JointLossConfig(lam=0.5, l2=1e-3),
        epochs=5, seed=7, k=5, batch_size=64,
    )
    defaults.update(kw)
    return RunConfig(**defaults)


def split_loop(g):
    """Reference leave-one-out split: a dict of each user's last edge index."""
    rel = g.relations[g.target]
    last = {}
    for i, (u, _) in enumerate(rel.edges):
        last[int(u)] = i
    held = np.array(sorted(last.values()), dtype=np.int64)
    keep = np.ones(rel.edges.shape[0], dtype=bool)
    keep[held] = False
    return (rel.edges[keep], rel.edges[held, 0], rel.edges[held, 1],
            g.node_counts[rel.src_type] - len(last))


def node_split_loop(labels, per_class, seed):
    """Reference labeled_node_split: count each class's picks one id at a time."""
    order = Rng(seed).derive("labelsplit").permutation(labels.node_ids.size)
    ids, classes = labels.node_ids[order], labels.class_ids[order]
    taken = np.zeros(labels.n_classes, dtype=np.int64)
    in_train = np.zeros(ids.size, dtype=bool)
    for i, c in enumerate(classes):
        if taken[c] < per_class:
            taken[c] += 1
            in_train[i] = True
    if not in_train.any() or in_train.all():
        raise ConfigError("label split left train or test empty")
    return ids[in_train], classes[in_train], ids[~in_train], classes[~in_train]


class TestNodeSplit:
    def test_matches_loop_reference(self):
        rng = np.random.default_rng(8)
        for trial in range(40):
            n, n_classes = int(rng.integers(1, 60)), int(rng.integers(1, 6))
            # skewed class sizes: some classes smaller than per_class, some empty
            classes = np.minimum(rng.geometric(0.5, n) - 1, n_classes - 1)
            labels = LabelSet("user", rng.permutation(200)[:n], classes, n_classes)
            for per_class in (0, 1, 3, 20, 100):
                try:
                    expect = node_split_loop(labels, per_class, seed=trial)
                except ConfigError as exc:
                    with pytest.raises(ConfigError, match=str(exc)):
                        labeled_node_split(labels, per_class, seed=trial)
                    continue
                split = labeled_node_split(labels, per_class, seed=trial)
                got = (split.train.node_ids, split.train.class_ids,
                       split.test.node_ids, split.test.class_ids)
                assert all(np.array_equal(a, b) for a, b in zip(got, expect))
                assert split.train.n_classes == split.test.n_classes == n_classes


class TestLabelFiles:
    """Label files that do not fit the graph are data errors."""

    def files(self, tmp_path, labels_text):
        g, labels = generate_synthetic(60, 20, 1, 0.2, 0.9, seed=3)
        paths = write_dataset_files(g, labels, tmp_path)
        with open(paths["labels"], "w", encoding="utf-8") as fh:
            fh.write(labels_text)
        return small_cfg(synthetic=None, task="node", edge_file=paths["edges"],
                         schema_file=paths["schema"], label_file=paths["labels"])

    def test_refused(self, tmp_path):
        for text, message in [("0 0\n75 1\n99 0\n", ":2: node id 75 outside 'user' count 60"),
                              ("0 0\n-1 1\n", ":2: negative node id"),
                              ("3 0\n4 1\n3 1\n", ":3: node 3 listed twice")]:
            with pytest.raises(GraphError, match=message):
                load_dataset(self.files(tmp_path, text))

    def test_fitting_labels_load(self, tmp_path):
        _, labels = load_dataset(self.files(tmp_path, "0 0\n59 1\n# 60 1\n"))
        assert labels.node_ids.tolist() == [0, 59]


class TestSplit:
    def graph(self):
        edges = [(0, 0), (0, 1), (1, 2), (1, 0), (2, 1)]
        return HeteroGraph({"user": 4, "item": 3},
                           [Relation("buy", "user", "item", edges),
                            Relation("view", "user", "item", [(3, 2)])], "buy")

    def test_holds_out_last_edge_per_user(self):
        split = leave_one_out_split(self.graph())
        # user 0's last edge is (0,1); user 1's is (1,0); user 2's is (2,1)
        held = dict(zip(split.test_users.tolist(), split.test_items.tolist()))
        assert held == {0: 1, 1: 0, 2: 1}
        assert split.train_graph.edge_count("buy") == 2
        assert split.n_excluded == 1  # user 3 has no target edge

    def test_partition_preserved(self):
        g = self.graph()
        split = leave_one_out_split(g)
        train_edges = {tuple(e) for e in split.train_graph.relations["buy"].edges}
        held = set(zip(split.test_users.tolist(), split.test_items.tolist()))
        assert train_edges | held == {tuple(e) for e in g.relations["buy"].edges}
        assert not train_edges & held

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(5)
        graphs = [self.graph(), load_dataset(small_cfg())[0],
                  HeteroGraph({"user": 3, "item": 2},
                              [Relation("buy", "user", "item", np.zeros((0, 2), int))],
                              "buy")]
        for users, items, m in ((6, 5, 12), (40, 30, 300)):
            pairs = np.stack([rng.integers(0, users, m), rng.integers(0, items, m)], 1)
            _, first = np.unique(pairs, axis=0, return_index=True)
            edges = pairs[np.sort(first)]  # distinct pairs, users repeated in any order
            graphs.append(HeteroGraph({"user": users + 2, "item": items},
                                      [Relation("buy", "user", "item", edges)], "buy"))
        for g in graphs:
            split = leave_one_out_split(g)
            train_edges, users, items, excluded = split_loop(g)
            assert np.array_equal(split.train_graph.relations[g.target].edges, train_edges)
            assert np.array_equal(split.test_users, users)
            assert np.array_equal(split.test_items, items)
            assert split.test_users.dtype == users.dtype
            assert split.n_excluded == excluded


class TestVariants:
    def test_plans(self):
        graph, _ = load_dataset(small_cfg())
        plan = resolve_variant(small_cfg(), graph)
        assert plan.has_source and plan.diffusion_sides == ("user", "item")
        plan = resolve_variant(small_cfg(variant="-D"), graph)
        assert plan.diffusion_sides == () and plan.raw_sides == ("user", "item")
        assert plan.lam == 0.0
        plan = resolve_variant(small_cfg(variant="-U"), graph)
        assert plan.diffusion_sides == ("item",) and plan.raw_sides == ("user",)
        plan = resolve_variant(small_cfg(variant="-I"), graph)
        assert plan.diffusion_sides == ("user",) and plan.raw_sides == ("item",)
        plan = resolve_variant(small_cfg(variant="-H"), graph)
        assert not plan.has_source
        plan = resolve_variant(small_cfg(variant="DAE"), graph)
        assert plan.dae and plan.diffusion_sides == ("user", "item")

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError):
            small_cfg(variant="-X")


class TestViewSplit:
    """The trainer's target view is the target relation; its source view is
    every other relation of the training graph."""

    def graph(self, names=("buy", "view", "cart")):
        edges = {"buy": [(0, 0), (0, 1), (1, 0), (1, 1), (2, 1), (2, 0)],
                 "view": [(0, 1), (1, 1)], "cart": [(2, 0)]}
        return HeteroGraph({"user": 3, "item": 2},
                           [Relation(n, "user", "item", edges[n]) for n in names], "buy")

    def cfg(self, **kw):
        return small_cfg(synthetic=None, epochs=2, batch_size=4,
                         diffusion=DiffusionConfig(steps=4, b_max=0.99, b_min=0.9), **kw)

    def test_partition(self):
        for g in (self.graph(), load_dataset(small_cfg())[0]):
            for variant in harness.VARIANTS:
                trainer = Trainer(self.cfg(variant=variant), graph=g)
                assert list(trainer.target_adj) == [g.target]
                expect_aux = [] if variant == "-H" else g.auxiliary_names()
                assert list(trainer.aux_adj) == expect_aux
                assert not set(trainer.target_adj) & set(trainer.aux_adj)
                if variant != "-H":
                    assert set(trainer.target_adj) | set(trainer.aux_adj) == set(g.relations)
                    # the source view keeps every auxiliary edge
                    for name in expect_aux:
                        assert trainer.aux_adj[name].nnz \
                            == 2 * g.edge_count(name)

    def test_two_relations(self):
        trainer = Trainer(self.cfg(), graph=self.graph(("buy", "view")))
        assert list(trainer.aux_adj) == ["view"]

    def test_single_relation_rejected(self):
        g = self.graph(("buy",))
        for variant in harness.VARIANTS:
            if variant == "-H":
                _, trace = Trainer(self.cfg(variant=variant), graph=g).train()
                assert len(trace.losses) == 2
            else:
                with pytest.raises(ConfigError, match="needs auxiliary relations"):
                    Trainer(self.cfg(variant=variant), graph=g)


class TestTraining:
    def test_zero_epochs_keeps_initialization(self):
        cfg = small_cfg(epochs=0)
        trainer = Trainer(cfg)
        before = trainer.params.e0.copy()
        model, trace = trainer.train()
        assert np.array_equal(model.params.e0, before)
        assert trace.losses == []
        assert len(trace.evals) == 1

    def test_loss_decreases(self):
        _, trace = train(small_cfg(epochs=25))
        assert trace.losses[-1]["total"] < trace.losses[0]["total"]

    def test_loss_parts_logged_separately(self):
        _, trace = train(small_cfg(epochs=1))
        parts = trace.losses[0]
        assert {"main", "deno", "deno_weighted", "l2", "total"} <= set(parts)
        assert abs(parts["main"] + parts["deno_weighted"] + parts["l2"]
                   - parts["total"]) < 1e-12

    def test_determinism_bitwise(self):
        cfg = small_cfg(epochs=6)
        model_a, trace_a = train(cfg)
        model_b, trace_b = train(cfg)
        assert trace_a.losses == trace_b.losses
        assert np.array_equal(model_a.params.e0, model_b.params.e0)
        pa = trace_a.evals[-1].reproducible_payload()
        pb = trace_b.evals[-1].reproducible_payload()
        assert json.dumps(pa, sort_keys=True) == json.dumps(pb, sort_keys=True)

    def test_different_seed_changes_result(self):
        _, trace_a = train(small_cfg(epochs=3))
        _, trace_b = train(small_cfg(epochs=3, seed=8))
        assert trace_a.losses != trace_b.losses

    def test_divergence_aborts_with_context(self):
        # inflate parameters past the overflow point of the squared l2 term
        cfg = small_cfg(epochs=5, lr=1e200)
        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as err:
            train(cfg)
        assert err.value.epoch >= 1
        assert "main" in err.value.parts

    def test_eval_cadence_does_not_change_training(self):
        cfg_a = small_cfg(epochs=6, eval_every=2)
        cfg_b = small_cfg(epochs=6)
        model_a, trace_a = train(cfg_a)
        model_b, trace_b = train(cfg_b)
        assert len(trace_a.evals) == 3  # epochs 2, 4 and the final one
        assert np.array_equal(model_a.params.e0, model_b.params.e0)

    def test_patience_stops_early(self):
        # an lr of zero can never improve, so patience trips immediately
        cfg = small_cfg(epochs=20, eval_every=1, patience=2, lr=1e-12)
        _, trace = train(cfg)
        assert len(trace.losses) < 20
        assert trace.evals[-1].epoch == len(trace.losses)

    def test_node_task(self):
        cfg = small_cfg(task="node", epochs=10,
                        train_labels_per_class=5)
        model, trace = train(cfg)
        report = trace.evals[-1]
        assert set(report.metrics) == {"micro_f1", "macro_f1", "auc"}
        assert 0.0 <= report.metrics["micro_f1"] <= 1.0
        assert trace.losses[-1]["total"] < trace.losses[0]["total"]

    def test_variant_dae_runs(self):
        _, trace = train(small_cfg(variant="DAE", epochs=3))
        assert np.isfinite(trace.losses[-1]["total"])

    @pytest.mark.parametrize("task", ["link", "node"])
    def test_dae_matches_hand_written_reference(self, monkeypatch, task):
        # the DAE variant through the one diffusion path, against its loss,
        # gradient and one-shot inference written out by hand
        cfg = small_cfg(variant="DAE", epochs=2, task=task, train_labels_per_class=5)
        trainer, _ = Trainer(cfg).train()
        draws = trainer.draw_epoch()
        total, parts, grads = trainer.compute_losses(draws)
        tables = trainer.inference_tables()
        monkeypatch.setattr(harness, "diffusion_loss", reference_dae_loss)
        monkeypatch.setattr(harness, "reverse_denoise", reference_dae_inference)
        ref_total, ref_parts, ref_grads = trainer.compute_losses(draws)
        ref_tables = trainer.inference_tables()
        bits = lambda a: np.asarray(a, dtype=np.float64).view(np.int64)
        assert bits(total) == bits(ref_total)
        assert parts.keys() == ref_parts.keys()
        for name, value in parts.items():
            assert bits(value) == bits(ref_parts[name]), name
        assert grads.keys() == ref_grads.keys()
        for name, arr in grads.items():
            assert np.array_equal(bits(arr), bits(ref_grads[name])), name
        assert tables.keys() == ref_tables.keys()
        for name, arr in tables.items():
            assert np.array_equal(bits(arr), bits(ref_tables[name])), name


def _bits(value):
    """`value`'s arrays and numbers as bytes, through dataclasses, dicts,
    tuples and lists, so that equal results mean equal bits."""
    if value is None:
        return None
    if is_dataclass(value):
        return _bits(vars(value))
    if isinstance(value, dict):
        return {key: _bits(item) for key, item in value.items()}
    if isinstance(value, (tuple, list)):
        return [_bits(item) for item in value]
    array = np.asarray(value)
    return array.dtype.str, array.shape, array.tobytes()


class TestTrainingStep:
    @pytest.mark.parametrize("task", ["link", "node"])
    @pytest.mark.parametrize("variant", harness.VARIANTS)
    def test_compute_losses_leaves_its_inputs_and_repeats(self, task, variant):
        # certify.py calls compute_losses many times on the same draws
        cfg = small_cfg(task=task, variant=variant, epochs=2, train_labels_per_class=5,
                        diffusion=DiffusionConfig(steps=10, b_max=0.99, b_min=0.9,
                                                  per_row_t=True))
        trainer, _ = Trainer(cfg).train()
        draws = trainer.draw_epoch()
        inputs = _bits(draws), _bits(trainer.params.arrays())
        first = trainer.compute_losses(draws)
        assert (_bits(draws), _bits(trainer.params.arrays())) == inputs
        assert _bits(trainer.compute_losses(draws)) == _bits(first)

    @pytest.mark.parametrize("task", ["link", "node"])
    def test_step_peak_in_initial_tables(self, allocations, task):
        # about 5 edges per user, as on the benchmark's mid graph
        cfg = RunConfig(synthetic=SyntheticSpec(users=1000, items=500, density=0.01),
                        task=task, epochs=0, encoder=EncoderConfig(layers=3, dim=16),
                        diffusion=DiffusionConfig(steps=10, b_max=0.99, b_min=0.9,
                                                  per_row_t=True))
        trainer = Trainer(cfg)
        draws = trainer.draw_epoch()
        trainer.compute_losses(draws)  # builds the adjacencies' lazy kernel plans once
        _, peak, _ = allocations(trainer.compute_losses, draws)
        # At its peak the step holds each relation's backward state (per
        # layer an activation, its row norms and a packed mask, about 3.2
        # tables a relation over three relations), both sides' diffusion
        # results and the task loss's or one side's denoiser backward: 18.4
        # tables for node, 22.6 for link. Keeping the denoiser's layer
        # input, the predictions, bool masks and whole-table temporaries took
        # 22.0 and 25.8; holding every forward table to the end, 33-35.
        tables = peak / trainer.params.e0.nbytes
        assert tables < {"link": 24, "node": 20}[task], tables


def _dae_input(schedule, rows, noise):
    """The autoencoder variant's input: the rows at full scale plus noise at
    the last step's level."""
    return rows + float(np.sqrt(1.0 - schedule.alpha_bar[-1])) * noise


def reference_dae_loss(denoiser, schedule, source, target, t, noise, autoencoder):
    """Reference for one side of the DAE variant's training: squared error of
    the step-T prediction from its input, unweighted."""
    assert autoencoder and t == schedule.steps
    pred, vjp = denoise_predict_vjp(denoiser, _dae_input(schedule, source, noise),
                                    schedule.steps)
    diff = pred - target
    n = pred.shape[0]
    g_pred = (2.0 / n) * diff
    grads, g_h = vjp(g_pred)
    return DiffusionLossResult(float((diff * diff).sum()) / n, pred, grads, g_h,
                               -g_pred, vjp, 1.0)


def reference_dae_inference(denoiser, schedule, sides, infer_steps, rng, autoencoder):
    """Reference for the DAE variant's inference: for each side, one noise
    draw from the side's own stream and one prediction at step T."""
    assert autoencoder
    out = {}
    for side, rows in sides.items():
        noise = rng.derive(side).standard_normal(rows.shape)
        out[side] = denoise_predict(denoiser, _dae_input(schedule, rows, noise),
                                    schedule.steps)
    return out


def _capture_score_blocks(monkeypatch):
    """Record the score blocks link evaluation hands to rank_metrics, one
    list per call. Each block is copied, as the buffer under it is reused."""
    seen = []
    real = harness.rank_metrics

    def capture(scores, truth, k, groups=None):
        seen.append(scores.map(lambda block, start: block.copy()))
        return real(np.vstack(seen[-1]), truth, k, groups=groups)

    monkeypatch.setattr(harness, "rank_metrics", capture)
    return seen


def _train_positives(model):
    """Each user's training positives, read from the split's training graph."""
    graph = model.split.train_graph
    positives = {}
    for u, v in graph.relations[graph.target].edges:
        positives.setdefault(int(u), set()).add(int(v))
    return positives


class TestEvaluation:
    def test_hand_set_scores_match_brute_force(self):
        # hand-set initial embeddings + zero layers + no auxiliary view make
        # the fused table exactly the feature matrix, so scores are fully
        # hand-set
        edges = [(0, 0), (0, 1), (1, 2), (1, 3)]  # held out: (0,1) and (1,3)
        g = HeteroGraph({"user": 2, "item": 4},
                        [Relation("buy", "user", "item", edges),
                         Relation("view", "user", "item", [(0, 2)])], "buy")
        features = np.zeros((6, 2))
        features[0] = [1.0, 0.0]   # user 0
        features[1] = [0.0, 1.0]   # user 1
        features[2] = [0.3, 9.0]   # item 0: masked for user 0, score 9.0 for user 1
        features[3] = [0.7, 0.0]   # item 1: user 0's held-out truth
        features[4] = [0.5, 0.2]   # item 2: masked for user 1
        features[5] = [0.6, 0.4]   # item 3: user 1's held-out truth
        cfg = RunConfig(synthetic=SyntheticSpec(), epochs=0, k=1, seed=0,
                        variant="-H", encoder=EncoderConfig(layers=0, dim=2),
                        diffusion=DiffusionConfig(steps=4, b_max=0.99, b_min=0.9))
        trainer = Trainer(cfg, graph=g)
        trainer.params.e0 = features
        model, trace = trainer.train()
        report = trace.evals[-1]
        # user 0 candidates {1,2,3}: scores 0.7, 0.5, 0.6 -> truth item 1 first
        # user 1 candidates {0,1,3}: scores 9.0, 0.0, 0.4 -> truth item 3 second
        assert report.metrics["recall@1"] == 0.5
        assert report.metrics["ndcg@1"] == 0.5

    def test_masking_contract(self):
        cfg = small_cfg(epochs=2)
        trainer = Trainer(cfg)
        model, _ = trainer.train()
        split = model.split
        tables = model.inference_tables()
        users = tables["fused"][model.graph.type_slice(trainer.user_type)]
        items = tables["fused"][model.graph.type_slice(trainer.item_type)]
        scores = users[split.test_users] @ items.T
        for row, u in enumerate(split.test_users):
            for pos in _train_positives(model).get(int(u), ()):
                assert pos != split.test_items[row]

    def test_no_test_users_is_a_config_error(self):
        # with no target edge there is no user to rank, and an untrained
        # model would otherwise report NaN metrics
        g = HeteroGraph({"user": 3, "item": 2},
                        [Relation("buy", "user", "item", []),
                         Relation("view", "user", "item", [(0, 1), (1, 0)])], "buy")
        for variant in ("full", "-H"):
            with pytest.raises(ConfigError, match="no test users"):
                Trainer(small_cfg(synthetic=None, epochs=0, variant=variant), graph=g)

    def test_no_training_edges_is_a_config_error(self):
        # each user has one target edge, and the split holds every one out
        g = HeteroGraph({"user": 2, "item": 2},
                        [Relation("buy", "user", "item", [(0, 0), (1, 1)]),
                         Relation("view", "user", "item", [(0, 1)])], "buy")
        with pytest.raises(ConfigError, match="no training edges"):
            Trainer(small_cfg(synthetic=None, epochs=1), graph=g)

    def test_node_task_without_labels_is_a_config_error(self):
        graph, _ = load_dataset(small_cfg())
        with pytest.raises(ConfigError, match="needs labels"):
            Trainer(small_cfg(task="node"), graph=graph)

    def test_masked_scores_match_per_user_loop(self, monkeypatch):
        trainer = Trainer(small_cfg(epochs=2))
        model, _ = trainer.train()
        seen = _capture_score_blocks(monkeypatch)
        model.evaluate()
        fused = model.inference_tables()["fused"]
        split = model.split
        users = fused[model.graph.type_slice(trainer.user_type)]
        items = fused[model.graph.type_slice(trainer.item_type)]
        expect = users[split.test_users] @ items.T
        positives = _train_positives(model)
        for row, u in enumerate(split.test_users):
            pos = positives.get(int(u))
            if pos:
                expect[row, sorted(pos)] = -np.inf
        assert np.isinf(expect).any()
        assert np.array_equal(np.vstack(seen[0]), expect)

    @pytest.mark.parametrize("n_items", [257, 300])
    @pytest.mark.parametrize("n_test", [1, 2, 3, 10])
    def test_blocked_masked_scores_equal_whole_matrix_on_integer_tables(
            self, monkeypatch, n_items, n_test):
        # small integer values make every dot product exact in any summation
        # order, so the scores cannot depend on how BLAS cuts the product
        edges = []
        for u in range(n_test):
            # positives in the first and last column of every row, so of the
            # first and last row of every block; the held-out edge comes last
            edges += [(u, 0), (u, n_items - 1), (u, 1 + u % (n_items - 3)),
                      (u, n_items - 2 - u % 7)]
        g = HeteroGraph({"user": n_test + 1, "item": n_items},  # last user: no edge
                        [Relation("buy", "user", "item", edges)], "buy")
        rng = np.random.default_rng(n_items + n_test)
        features = rng.integers(-3, 4, size=(n_test + 1 + n_items, 8)).astype(float)
        cfg = RunConfig(synthetic=SyntheticSpec(), epochs=0, k=5, seed=0, variant="-H",
                        encoder=EncoderConfig(layers=0, dim=8),
                        diffusion=DiffusionConfig(steps=4, b_max=0.99, b_min=0.9))
        model = Trainer(cfg, graph=g)
        model.params.e0 = features
        if n_test == 10:  # 3 rows per block: blocks of 3, 3, 2 and 2 rows
            monkeypatch.setattr(tasks, "_RANK_BLOCK_ELEMENTS", 3 * n_items)
        seen = _capture_score_blocks(monkeypatch)
        report = model.evaluate()
        assert len(seen[0]) == (4 if n_test == 10 else 1)
        split = model.split
        expect = features[split.test_users] @ features[n_test + 1:].T
        positives = _train_positives(model)
        for row, u in enumerate(split.test_users):
            for item in positives[int(u)]:
                expect[row, item] = -np.inf
        assert np.isinf(expect[:, [0, -1]]).all()
        assert np.array_equal(np.vstack(seen[0]), expect)
        recall, ndcg = tasks.rank_metrics(expect, split.test_items, cfg.k)
        assert report.metrics == {"recall@5": recall, "ndcg@5": ndcg}

    def test_evaluation_memory_stays_below_one_score_matrix(self):
        cfg = RunConfig(synthetic=SyntheticSpec(users=2000, items=1000), epochs=0,
                        encoder=EncoderConfig(layers=1, dim=8))
        model = Trainer(cfg)
        model.evaluate()  # builds the adjacencies' lazy kernel plans once
        tracemalloc.start()
        try:
            model.evaluate()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a dense test users x items score matrix alone would take 16 MB
        assert peak < model.split.test_users.size * 1000 * 8 / 2

    @pytest.mark.parametrize("task", ["link", "node"])
    def test_any_worker_count_gives_the_same_report(self, monkeypatch, cpus, task):
        model, _ = train(small_cfg(task=task, epochs=2, train_labels_per_class=5))
        # walk blocks of 4 rows, score blocks of 3 rows
        monkeypatch.setattr(diffusion, "_WALK_ROWS", 4)
        monkeypatch.setattr(tasks, "_RANK_BLOCK_ELEMENTS", 3 * 20)
        cpus(1)
        expect = model.evaluate().reproducible_payload()
        tables = model.inference_tables()
        for workers in WORKER_COUNTS[1:]:
            cpus(workers)
            assert model.evaluate().reproducible_payload() == expect
            again = model.inference_tables()
            assert all(np.array_equal(again[name], table) for name, table in tables.items())

    @pytest.mark.parametrize("variant", ["full", "-U", "DAE"])
    def test_joint_walk_matches_a_walk_per_side(self, monkeypatch, cpus, variant):
        # the tables of one walk of every diffused side against one
        # reverse_denoise call per side. A side of one row would be the
        # exception: alone it takes the one-row BLAS path
        model, _ = train(small_cfg(variant=variant, epochs=2))
        real = harness.reverse_denoise

        def per_side(params, schedule, sides, infer_steps, rng, autoencoder):
            return {side: real(params, schedule, {side: rows}, infer_steps, rng=rng,
                               autoencoder=autoencoder)[side]
                    for side, rows in sides.items()}

        # walk blocks of 6-7 rows over the 30 user and 20 item rows: one
        # block holds the last users and the first items
        monkeypatch.setattr(diffusion, "_WALK_ROWS", 7)
        ends = np.cumsum([len(b) for b in row_blocks(np.empty((50, 1)), 7)])
        assert 30 not in ends
        for infer_steps in (0, 1, 5, model.cfg.diffusion.steps):
            monkeypatch.setattr(model.cfg.diffusion, "infer_steps", infer_steps)
            for workers in (1, 3):
                cpus(workers)
                joint = model.inference_tables()
                with monkeypatch.context() as m:
                    m.setattr(harness, "reverse_denoise", per_side)
                    alone = model.inference_tables()
                assert joint.keys() == alone.keys()
                for name, table in joint.items():
                    assert np.array_equal(table.view(np.int64), alone[name].view(np.int64)), \
                        (infer_steps, name)

    def test_desk_size_evaluation_starts_no_thread(self):
        # at desk size the generator's draw is one block, both sides one walk
        # block and the test users one score block, so generation and
        # evaluation run inline on any CPU count, with or without the BLAS,
        # without importing concurrent.futures and without copying the
        # generator's stream; a fresh interpreter shows the imports
        script = textwrap.dedent("""
            import sys, threading

            def refuse(thread, *args):
                raise AssertionError(f"{thread} started or copied")

            threading.Thread.start = refuse
            from hgdiff import DiffusionConfig, EncoderConfig, RunConfig, SyntheticSpec
            from hgdiff import harness, numerics
            numerics._cpu_count = lambda blas=True: 16
            numerics.Rng.ahead = refuse
            for task in ("link", "node"):
                cfg = RunConfig(
                    task=task, epochs=1, seed=3, train_labels_per_class=5,
                    synthetic=SyntheticSpec(users=200, items=100, density=0.05),
                    encoder=EncoderConfig(layers=3, dim=32),
                    diffusion=DiffusionConfig.from_noise_scale(1e-4, steps=100))
                model, _ = harness.train(cfg)
                model.evaluate()
            assert "concurrent.futures" not in sys.modules
        """)
        src = str(Path(harness.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr

    def test_inference_tables_match_training_encodings(self):
        # inference encodes forward only; training encodes with encode_vjp
        for variant in ("full", "DAE", "-H"):
            trainer = Trainer(small_cfg(epochs=2, variant=variant))
            model, _ = trainer.train()
            tables = model.inference_tables()
            target, _ = encode_vjp(trainer.target_adj, model.params.e0, trainer.cfg.encoder)
            assert np.array_equal(tables["target"], target.pooled)
            for name, table in target.per_relation.items():
                assert np.array_equal(tables[f"relation:{name}"], table)
            if variant == "-H":
                assert "source" not in tables
                continue
            source, _ = encode_vjp(trainer.aux_adj, model.params.e0, trainer.cfg.encoder)
            assert np.array_equal(tables["source"], source.pooled)
            for name, table in source.per_relation.items():
                assert np.array_equal(tables[f"relation:{name}"], table)

    def test_report_embeds_config(self):
        cfg = small_cfg(epochs=1)
        _, trace = train(cfg)
        report = trace.evals[-1]
        assert report.config == cfg.to_dict()
        assert report.config_fingerprint == cfg.fingerprint()
        rebuilt = RunConfig.from_dict(report.config)
        assert rebuilt == cfg

    def test_bucket_breakdown_covers_test_users(self):
        _, trace = train(small_cfg(epochs=1))
        report = trace.evals[-1]
        assert sum(v["n_users"] for v in report.buckets.values()) == report.n_test

    def test_report_lines_format(self):
        _, trace = train(small_cfg(epochs=1))
        lines = trace.evals[-1].lines()
        assert any(line.startswith("recall@5=") for line in lines)
        assert all("=" in line for line in lines)


class TestDeskCallCounts:
    """Guards of the numpy calls a desk-scale run makes, counted, not timed:
    at desk size fixed per-call costs dominate."""

    @staticmethod
    def desk_cfg(seed):
        # the acceptance suite's desk experiment (tests/test_acceptance.py)
        return RunConfig(
            synthetic=SyntheticSpec(users=200, items=100, aux_relations=2,
                                    density=0.05, fidelity=0.9),
            encoder=EncoderConfig(layers=3, dim=32),
            diffusion=DiffusionConfig.from_noise_scale(1e-4, steps=100, per_row_t=True),
            epochs=0, k=20, seed=seed)

    def test_desk_relations_take_few_spmm_groups(self):
        # one group per nonzero count took 16-19 groups a relation; the
        # acceptance seed's relations take 6 padded groups, seeds 2-5 at most 7
        for seed in (1, 2, 3, 4, 5):
            model = Trainer(self.desk_cfg(seed))
            groups = [len(adj.degree_buckets())
                      for adj in (*model.target_adj.values(), *model.aux_adj.values())]
            assert len(groups) == 3
            assert max(groups) <= (6 if seed == 1 else 7), (seed, groups)

    def test_one_reverse_walk_per_evaluation(self, monkeypatch):
        model = Trainer(self.desk_cfg(1))
        assert model.plan.diffusion_sides == ("user", "item")
        calls = []
        real = harness.reverse_denoise

        def counted(*args, **kwargs):
            calls.append(sorted(args[2]))
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "reverse_denoise", counted)
        model.evaluate()
        assert calls == [["item", "user"]]


class TestAblation:
    def test_reports_share_dataset_fingerprint(self):
        reports = run_ablation(small_cfg(epochs=2))
        assert set(reports) == {"full", "-D", "-U", "-I", "-H", "DAE"}
        prints = {r.dataset_fingerprint for r in reports.values()}
        assert len(prints) == 1

    def test_redundant_auxiliary_matches_full(self):
        # when every auxiliary relation duplicates the target, -H and full see
        # the same structural information
        cfg = small_cfg(synthetic=SyntheticSpec(users=25, items=15,
                                                aux_relations=1, density=0.2,
                                                fidelity=1.0),
                        epochs=4)
        reports = run_ablation(cfg, variants=("full", "-H"))
        full = reports["full"].metrics["recall@5"]
        noaux = reports["-H"].metrics["recall@5"]
        assert abs(full - noaux) < 0.35  # same information, loose envelope


class TestNoiseRobustness:
    def test_ratio_zero_is_exactly_hundred(self):
        res = run_noise_robustness(small_cfg(epochs=2), [0.0, 0.5])
        for rel in res.relations:
            assert all(v == 100.0 for v in res.retention[(rel, 0.0)].values())

    def test_table_layout(self):
        res = run_noise_robustness(small_cfg(epochs=2), [0.0, 0.3])
        lines = res.table_lines()
        assert len(lines) == 1 + len(res.relations)  # header + one row per relation
        header = lines[0].split()
        assert header[0] == "relation"
        # one column pair (recall, ndcg) per ratio
        assert len(header) == 1 + 2 * len(res.ratios)

    def test_retention_values_parse(self):
        res = run_noise_robustness(small_cfg(epochs=2), [0.3])
        for cell in res.retention.values():
            for v in cell.values():
                assert v is None or v > 0

    def test_bad_ratio_rejected(self):
        with pytest.raises(ConfigError):
            run_noise_robustness(small_cfg(epochs=1), [1.5])


def _resave(path, edit):
    """Rewrite a saved model's arrays after `edit(arrays)` changes them."""
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    edit(arrays)
    np.savez(path, **arrays)


def _write_npy(path, array):
    with open(path, "wb") as fh:
        np.save(fh, array)


MALFORMED = {
    "one_row_e0": lambda p: _resave(p, lambda a: a.update(e0=a["e0"][:1])),
    "short_denoiser_b1": lambda p: _resave(
        p, lambda a: a.update({"denoiser.b1": a["denoiser.b1"][:1]})),
    "missing_key": lambda p: _resave(p, lambda a: a.pop("denoiser.w2")),
    "extra_key": lambda p: _resave(p, lambda a: a.update({"denoiser.w3": a["denoiser.w2"]})),
    "text_file": lambda p: p.write_text("0 1 interact\n"),
    "empty_file": lambda p: p.write_bytes(b""),
    "truncated_file": lambda p: p.write_bytes(p.read_bytes()[:200]),
    "npy_file": lambda p: _write_npy(p, np.zeros(3)),
    "no_config_json": lambda p: _resave(p, lambda a: a.pop("config_json")),
    "config_json_not_an_object": lambda p: _resave(
        p, lambda a: a.update(config_json=np.frombuffer(b"[1, 2]", dtype=np.uint8))),
}


class TestPersistenceAndExport:
    def test_save_load_round_trip(self, tmp_path):
        cfg = small_cfg(epochs=3)
        model, trace = train(cfg)
        path = tmp_path / "model.npz"
        model.save(path)
        loaded = TrainedModel.load(path)
        assert np.array_equal(loaded.params.e0, model.params.e0)
        a = loaded.evaluate().reproducible_payload()
        b = model.evaluate().reproducible_payload()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_load_refuses_other_data(self, tmp_path):
        cfg = small_cfg(epochs=1)
        model, _ = train(cfg)
        path = tmp_path / "model.npz"
        model.save(path)
        other = inject_edge_noise(model.graph, NoiseSpec("aux1", 0.5, 3))
        with pytest.raises(GraphError, match="trained on dataset"):
            TrainedModel.load(path, graph=other, labels=model.labels)
        other_seed = load_dataset(small_cfg(seed=8))[0]
        with pytest.raises(GraphError):
            TrainedModel.load(path, graph=other_seed)
        # the full variant cannot be built on a graph with no auxiliary
        # relation, but that graph is refused as other data before it is tried
        bare = model.graph.with_relations([model.graph.target])
        with pytest.raises(GraphError, match="trained on dataset"):
            TrainedModel.load(path, graph=bare, labels=model.labels)
        # the graph it was trained on is accepted
        TrainedModel.load(path, graph=model.graph, labels=model.labels)

    @pytest.mark.parametrize("damage", sorted(MALFORMED))
    def test_load_refuses_a_malformed_file(self, tmp_path, capsys, damage):
        model, _ = train(small_cfg(epochs=1))
        path = tmp_path / "model.npz"
        model.save(path)
        MALFORMED[damage](path)
        with pytest.raises(GraphError, match="model.npz"):
            TrainedModel.load(path)
        assert cli.main(["eval", "--model", str(path)]) == 2
        assert "data error" in capsys.readouterr().err

    def test_load_refuses_model_without_fingerprint(self, tmp_path):
        model, _ = train(small_cfg(epochs=1))
        path = tmp_path / "model.npz"
        model.save(path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files if k != "dataset_fingerprint"}
        np.savez(path, **arrays)
        with pytest.raises(GraphError, match="fingerprint"):
            TrainedModel.load(path)

    def test_export_round_trip_bitwise(self, tmp_path):
        model, _ = train(small_cfg(epochs=2))
        path = tmp_path / "emb.txt"
        export_embeddings(model, path, table="fused")
        back = read_embeddings(path)
        expect = model.inference_tables()["fused"]
        assert np.array_equal(back["table"], expect)
        assert back["dim"] == expect.shape[1]

    def test_every_evaluation_and_the_export_draw_from_one_stream(self, tmp_path):
        # the corruption noise before the reverse walk comes from one stream,
        # so equal parameters give equal tables and metrics wherever they are
        # evaluated: during training, after it, or for export
        cfg = small_cfg(epochs=4, eval_every=2)
        _, trace = train(cfg)
        trainer = Trainer(cfg)
        for epoch in (1, 2):
            trainer.run_epoch(epoch)
        during, after = trace.evals[0], trainer.evaluate()
        assert during.epoch == 2
        assert (during.metrics, during.buckets) == (after.metrics, after.buckets)
        path = tmp_path / "emb.txt"
        export_embeddings(trainer, path)
        assert np.array_equal(read_embeddings(path)["table"],
                              trainer.inference_tables()["fused"])

    def test_export_row_count_and_header(self, tmp_path):
        model, _ = train(small_cfg(epochs=1))
        path = tmp_path / "emb.txt"
        export_embeddings(model, path, table="target")
        back = read_embeddings(path)
        g = model.graph
        assert back["table"].shape[0] == sum(g.node_counts.values())
        assert back["offsets"] == {t: g.offset(t) for t in g.node_counts}
        assert back["tag"] == "target"

    def test_export_unknown_table(self, tmp_path):
        model, _ = train(small_cfg(epochs=1))
        with pytest.raises(ConfigError):
            export_embeddings(model, tmp_path / "x.txt", table="nope")


class TestConfig:
    def test_round_trip(self):
        cfg = small_cfg(variant="-U", epochs=12)
        assert RunConfig.from_dict(cfg.to_dict()) == cfg
        for boundaries in ([], [1], [-1, 0, 5], (3, 7)):
            cfg = small_cfg(bucket_boundaries=boundaries)
            assert cfg.bucket_boundaries == tuple(boundaries)
            assert RunConfig.from_dict(cfg.to_dict()) == cfg

    def test_validation(self):
        with pytest.raises(ConfigError):
            small_cfg(task="other")
        with pytest.raises(ConfigError):
            small_cfg(epochs=-1)
        with pytest.raises(ConfigError):
            RunConfig(synthetic=None)  # no dataset at all
            load_dataset(RunConfig(synthetic=None))

    def test_needs_dataset(self):
        with pytest.raises(ConfigError):
            load_dataset(RunConfig(synthetic=None))
