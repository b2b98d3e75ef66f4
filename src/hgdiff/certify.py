"""Registry of every hand-derived gradient, certified by finite differences.

Each entry builds a tiny fixed instance, evaluates the analytic gradient at a
number of random points, and reports the worst relative disagreement with
central differences. The acceptance suite requires every entry below 1e-4.
"""

from __future__ import annotations

import numpy as np

from .diffusion import DiffusionConfig, build_schedule, diffusion_loss
from .encoder import EncoderConfig, encode, encode_vjp, relation_adjacencies
from .harness import ModelParams, RunConfig, SyntheticSpec, Trainer
from .hetgraph import HeteroGraph, LabelSet, Relation
from .numerics import Rng, grad_check
from .tasks import ClassifierParams, TripletBatch, bpr_loss, ce_loss


def _small_graph(seed):
    rng = Rng(seed)
    edges = set()
    while len(edges) < 14:
        u, v = int(rng.integers(0, 8)), int(rng.integers(0, 8))
        if u != v:
            edges.add((u, v))
    g1 = sorted(edges)
    g2 = sorted((v, u) for u, v in list(edges)[:8])
    return HeteroGraph({"n": 8},
                       [Relation("a", "n", "n", g1), Relation("b", "n", "n", g2)], "a")


def _encoder_check(n_points, h, activation="leaky_relu"):
    adjs = relation_adjacencies(_small_graph(seed=51))
    cfg = EncoderConfig(layers=2, dim=3, activation=activation)
    probe = Rng(52).normal(8, 3)

    def f(e0):
        return float((encode(adjs, e0.reshape(8, 3), cfg).pooled * probe).sum())

    worst = 0.0
    for i in range(n_points):
        e0 = Rng(520 + i).normal(8, 3)
        _, vjp = encode_vjp(adjs, e0, cfg)
        worst = max(worst, grad_check(f, vjp(probe), e0, h=h))
    return worst


def _diffusion_checks(n_points, h):
    schedule = build_schedule(DiffusionConfig(steps=6, b_max=0.95, b_min=0.6))
    rng = Rng(53)
    target = rng.normal(8, 4)
    noise = rng.standard_normal((8, 4))
    t = 4

    def run(params, source):
        return diffusion_loss(params, schedule, source, target, t=t, noise=noise)

    def check_param(name):
        worst = 0.0
        for i in range(n_points):
            params = _denoiser_point(530 + i)
            source = Rng(540 + i).normal(8, 4)
            res = run(params, source)

            def f(flat):
                p = params.copy()
                setattr(p, name, flat.reshape(getattr(params, name).shape))
                return run(p, source).loss

            worst = max(worst, grad_check(f, getattr(res.grads, name),
                                          getattr(params, name), h=h))
        return worst

    for name in ("w1", "b1", "w2", "b2", "time_emb"):
        yield f"denoiser.{name}", (lambda _n=name: check_param(_n))

    def check_source():
        worst = 0.0
        for i in range(n_points):
            params = _denoiser_point(550 + i)
            source = Rng(560 + i).normal(8, 4)
            res = run(params, source)
            err = grad_check(lambda flat: run(params, flat.reshape(8, 4)).loss,
                             res.grad_source, source, h=h)
            worst = max(worst, err)
        return worst

    yield "denoiser.source", check_source


def _denoiser_point(seed):
    from .diffusion import DenoiserParams

    return DenoiserParams.init(4, 6, Rng(seed))


def _bpr_check(n_points, h, batch, rows, chunk=None):
    def f(flat):
        return bpr_loss(flat.reshape(rows, 2), batch, chunk=chunk)[0]

    worst = 0.0
    for i in range(n_points):
        emb = Rng(570 + i).normal(rows, 2)
        _, grad = bpr_loss(emb, batch, chunk=chunk)
        worst = max(worst, grad_check(f, grad, emb, h=h))
    return worst


# chunks of 3, 3 and 1 triplets: user row 0 repeats within the first chunk and
# across all three, and item rows 4-7 recur across chunks as positive and negative
_CHUNKED_BATCH = TripletBatch([0, 1, 0, 2, 0, 1, 0], [4, 5, 6, 4, 7, 5, 6],
                              [5, 4, 7, 6, 4, 6, 5])


def _ce_checks(n_points, h):
    labels = LabelSet("user", np.array([0, 1, 3, 4]), np.array([0, 1, 1, 0]), 2)

    def check_emb():
        worst = 0.0
        for i in range(n_points):
            clf = ClassifierParams.init(3, 2, Rng(580 + i))
            emb = Rng(590 + i).normal(5, 3)
            _, g_emb, _ = ce_loss(emb, clf, labels)
            err = grad_check(lambda flat: ce_loss(flat.reshape(5, 3), clf, labels)[0],
                             g_emb, emb, h=h)
            worst = max(worst, err)
        return worst

    yield "ce.embeddings", check_emb

    def check_param(name):
        worst = 0.0
        for i in range(n_points):
            clf = ClassifierParams.init(3, 2, Rng(600 + i))
            emb = Rng(610 + i).normal(5, 3)
            _, _, grads = ce_loss(emb, clf, labels)

            def f(flat):
                p = clf.copy()
                setattr(p, name, flat.reshape(getattr(clf, name).shape))
                return ce_loss(emb, p, labels)[0]

            worst = max(worst, grad_check(f, getattr(grads, name),
                                          getattr(clf, name), h=h))
        return worst

    for name in ("w1", "b1", "w2", "b2"):
        yield f"ce.{name}", (lambda _n=name: check_param(_n))


def _joint_trainer(task="link", variant="full", per_row_t=False):
    cfg = RunConfig(
        task=task,
        synthetic=SyntheticSpec(users=10, items=8, aux_relations=2,
                                density=0.2, fidelity=0.8),
        encoder=EncoderConfig(layers=2, dim=4),
        diffusion=DiffusionConfig(steps=5, b_max=0.95, b_min=0.6, per_row_t=per_row_t),
        epochs=1, seed=61, batch_size=64, train_labels_per_class=2, variant=variant)
    trainer = Trainer(cfg)
    draws = trainer.draw_epoch()
    return trainer, draws


def _e0_check(trainer, draws, n_points, h, seed):
    """Worst error of the joint loss's e0 gradient at points around the
    trainer's initial e0, with its other parameters held."""
    base = trainer.params
    shape = base.e0.shape

    def total_with(e0):
        params = ModelParams(e0, base.denoiser, base.classifier)
        return trainer.compute_losses(draws, params=params)

    worst = 0.0
    for i in range(n_points):
        e0 = base.e0 + Rng(seed + i).normal(*shape) * 0.1
        _, _, grads = total_with(e0)
        err = grad_check(lambda flat: total_with(flat.reshape(shape))[0],
                         grads["e0"], e0, h=h)
        worst = max(worst, err)
    return worst


def _joint_checks(n_points, h):
    trainer, draws = _joint_trainer()
    base = trainer.params

    def total_with(e0=None, denoiser=None):
        params = ModelParams(
            base.e0 if e0 is None else e0,
            base.denoiser if denoiser is None else denoiser,
            base.classifier)
        return trainer.compute_losses(draws, params=params)

    yield "joint.e0", (lambda: _e0_check(trainer, draws, n_points, h, 620))
    # the steps the benchmark and the acceptance runs train with: one per row
    yield "joint.e0_per_row_t", (lambda: _e0_check(
        *_joint_trainer(per_row_t=True), n_points, h, 650))
    yield "joint.e0_dae", (lambda: _e0_check(
        *_joint_trainer(variant="DAE"), n_points, h, 660))

    def check_denoiser_w1():
        shape = base.denoiser.w1.shape
        worst = 0.0
        for i in range(n_points):
            den = base.denoiser.copy()
            den.w1 = den.w1 + Rng(630 + i).normal(*shape) * 0.1
            _, _, grads = total_with(denoiser=den)

            def f(flat):
                d2 = den.copy()
                d2.w1 = flat.reshape(shape)
                return total_with(denoiser=d2)[0]

            worst = max(worst, grad_check(f, grads["denoiser.w1"], den.w1, h=h))
        return worst

    yield "joint.denoiser_w1", check_denoiser_w1

    yield "joint.node_e0", (lambda: _e0_check(
        *_joint_trainer(task="node"), n_points, h, 640))


def named_gradient_checks(n_points=10, h=1e-6):
    """Yield (name, runner) pairs; each runner returns the worst relative
    error across its random points."""
    yield "encoder.e0", (lambda: _encoder_check(n_points, h))
    yield "encoder.e0_identity", (lambda: _encoder_check(n_points, h, "identity"))
    yield from _diffusion_checks(n_points, h)
    yield "bpr.embeddings", (lambda: _bpr_check(
        n_points, h, TripletBatch([0, 1, 2], [3, 4, 5], [5, 3, 4]), rows=6))
    yield "bpr.chunked", (lambda: _bpr_check(n_points, h, _CHUNKED_BATCH, rows=8, chunk=3))
    yield from _ce_checks(n_points, h)
    yield from _joint_checks(n_points, h)


def run_all(n_points=10, h=1e-6):
    return {name: runner() for name, runner in named_gradient_checks(n_points, h)}
