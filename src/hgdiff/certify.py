"""Registry of every hand-derived gradient, certified by finite differences.

Each entry is a row of one table: an objective that maps named arrays to a
loss and the gradients of those arrays, the name of the array the entry
certifies, and the points at which it is checked. One loop reports the
worst relative disagreement of a row's gradient with central differences,
and the acceptance suite requires every entry below 1e-4.

The joint rows cover (task, each variant the task accepts, per_row_t) x
every key of the gradient dict `Trainer.compute_losses` returns, so a new
parameter group or variant joins the table by itself. A new config lever joins it by adding its value
to the axes in `joint_trainers`; a new loss function by a row family like
`_bpr_rows`. ``python -m hgdiff.certify`` prints one line per entry and
exits 1 if any entry is above 1e-4.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from .diffusion import DenoiserParams, DiffusionConfig, build_schedule, diffusion_loss
from .encoder import EncoderConfig, encode_vjp, relation_adjacencies
from .harness import ModelParams, RunConfig, SyntheticSpec, Trainer, accepted_variants, load_dataset
from .hetgraph import HeteroGraph, LabelSet, Relation
from .numerics import Rng, grad_check
from .tasks import ClassifierParams, TripletBatch, bpr_loss, ce_loss

TOLERANCE = 1e-4


def _worst_error(objective, key, points, h):
    """The one grad-check loop: the worst relative error, over `points`, of
    the gradient of array `key` that `objective` returns. A point maps names
    to arrays, and `objective` maps such a dict to (loss, gradients by name)."""
    worst = 0.0
    for point in points:
        loss = lambda x: objective({**point, key: x})[0]
        worst = max(worst, grad_check(loss, objective(point)[1][key], point[key], h=h))
    return worst


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


# Each row family yields (name, objective, key, points) rows.

def _encoder_rows(n_points):
    adjs = relation_adjacencies(_small_graph(seed=51))
    probe = Rng(52).normal(8, 3)
    cfg = EncoderConfig(layers=2, dim=3)

    def objective(a):
        out, vjp = encode_vjp(adjs, a["e0"], cfg)
        return float((out.pooled * probe).sum()), {"e0": vjp(probe)}

    yield "encoder.e0", objective, "e0", [{"e0": Rng(520 + i).normal(8, 3)}
                                          for i in range(n_points)]


def _denoiser_rows(n_points):
    schedule = build_schedule(DiffusionConfig(steps=6, b_max=0.95, b_min=0.6))
    rng = Rng(53)
    target = rng.normal(8, 4)
    noise = rng.standard_normal((8, 4))

    def objective(a):
        a = dict(a)
        source = a.pop("source")
        params = DenoiserParams(**a)
        loss, _, backward = diffusion_loss(params, schedule, source, target, t=4, noise=noise)
        grads, g_source = params.zeros_like(), np.zeros_like(source)
        backward(1.0, np.zeros_like(source), grads, g_source, np.zeros_like(target))
        return loss, {**grads.arrays(), "source": g_source}

    def points(seed):  # the denoiser from Rng(seed + i), the source from Rng(seed + 10 + i)
        return [{**DenoiserParams.init(4, 6, Rng(seed + i)).arrays(),
                 "source": Rng(seed + 10 + i).normal(8, 4)} for i in range(n_points)]

    for key in ("w1", "b1", "w2", "b2", "time_emb"):
        yield f"denoiser.{key}", objective, key, points(530)
    yield "denoiser.source", objective, "source", points(550)


# chunks of 3, 3 and 1 triplets: user row 0 repeats within the first chunk and
# across all three, and item rows 4-7 recur across chunks as positive and negative
_CHUNKED_BATCH = TripletBatch([0, 1, 0, 2, 0, 1, 0], [4, 5, 6, 4, 7, 5, 6],
                              [5, 4, 7, 6, 4, 6, 5])


def _bpr_rows(n_points):
    for name, batch, rows, chunk in (
            ("bpr.embeddings", TripletBatch([0, 1, 2], [3, 4, 5], [5, 3, 4]), 6, None),
            ("bpr.chunked", _CHUNKED_BATCH, 8, 3)):

        def objective(a, batch=batch, chunk=chunk):
            loss, grad = bpr_loss(a["emb"], batch, chunk=chunk)
            return loss, {"emb": grad}

        yield name, objective, "emb", [{"emb": Rng(570 + i).normal(rows, 2)}
                                       for i in range(n_points)]


def _ce_rows(n_points):
    labels = LabelSet("user", np.array([0, 1, 3, 4]), np.array([0, 1, 1, 0]), 2)

    def objective(a):
        a = dict(a)
        loss, g_emb, grads = ce_loss(a.pop("emb"), ClassifierParams(**a), labels)
        return loss, {**grads.arrays(), "emb": g_emb}

    def points(seed):  # the classifier from Rng(seed + i), the rows from Rng(seed + 10 + i)
        return [{**ClassifierParams.init(3, 2, Rng(seed + i)).arrays(),
                 "emb": Rng(seed + 10 + i).normal(5, 3)} for i in range(n_points)]

    yield "ce.embeddings", objective, "emb", points(580)
    for key in ("w1", "b1", "w2", "b2"):
        yield f"ce.{key}", objective, key, points(600)


# Joint cells with names and point seeds of their own, so that their values
# compare across versions: (task, variant, per_row_t, key) -> (name, seed).
# They take n_points points; every other cell takes one point at _CELL_SEED,
# which keeps the whole table within the acceptance suite's time bound.
_NAMED_CELLS = {
    ("link", "full", False, "e0"): ("joint.e0", 620),
    ("link", "full", False, "denoiser.w1"): ("joint.denoiser_w1", 630),
    ("node", "full", False, "e0"): ("joint.node_e0", 640),
    # the steps the benchmark and the acceptance runs train with: one per row
    ("link", "full", True, "e0"): ("joint.e0_per_row_t", 650),
    ("link", "DAE", False, "e0"): ("joint.e0_dae", 660),
}
_CELL_SEED = 700


def cell_name(task, variant, per_row_t, key):
    """The entry name of one joint cell."""
    named = _NAMED_CELLS.get((task, variant, per_row_t, key))
    return named[0] if named else \
        f"joint.{task}.{variant}{'.per_row_t' if per_row_t else ''}.{key}"


def _joint_config(task, variant="full", per_row_t=False):
    return RunConfig(
        task=task,
        synthetic=SyntheticSpec(users=10, items=8, aux_relations=2,
                                density=0.2, fidelity=0.8),
        encoder=EncoderConfig(layers=2, dim=4),
        diffusion=DiffusionConfig(steps=5, b_max=0.95, b_min=0.6, per_row_t=per_row_t),
        epochs=1, seed=61, batch_size=64, train_labels_per_class=2, variant=variant)


def joint_trainers():
    """Yield ((task, variant, per_row_t), trainer, draws) for every trainer
    of the joint table: each variant the task's data accepts. Per-row steps
    only change a variant that draws steps: one that diffuses and is not
    DAE."""
    for task in ("link", "node"):
        cfg = _joint_config(task)
        for variant in accepted_variants(cfg, load_dataset(cfg)[0]):
            for per_row_t in (False, True):
                trainer = Trainer(_joint_config(task, variant, per_row_t))
                yield (task, variant, per_row_t), trainer, trainer.draw_epoch()
                if not trainer.plan.diffusion_sides or trainer.plan.dae:
                    break


def _joint_rows(n_points):
    """One row per cell: the gradient of the joint loss in one parameter
    group, at points around the trainer's initial parameters that move
    that group only."""
    for (task, variant, per_row_t), trainer, draws in joint_trainers():
        def objective(a, trainer=trainer, draws=draws):
            total, _, grads = trainer.compute_losses(draws, params=ModelParams.from_arrays(a))
            return total, grads

        base = trainer.params.arrays()
        for key in objective(base)[1]:
            cell = (task, variant, per_row_t, key)
            seed, n = ((_NAMED_CELLS[cell][1], n_points) if cell in _NAMED_CELLS
                       else (_CELL_SEED, min(n_points, 1)))
            points = [{**base, key: base[key]
                       + Rng(seed + i).standard_normal(base[key].shape) * 0.1}
                      for i in range(n)]
            yield cell_name(*cell), objective, key, points


def named_gradient_checks(n_points=10, h=1e-6):
    """Yield (name, runner) pairs; each runner returns the worst relative
    error across its points."""
    for rows in (_encoder_rows, _denoiser_rows, _bpr_rows, _ce_rows, _joint_rows):
        for name, objective, key, points in rows(n_points):
            yield name, (lambda o=objective, k=key, p=points: _worst_error(o, k, p, h))


def run_all(n_points=10, h=1e-6):
    return {name: runner() for name, runner in named_gradient_checks(n_points, h)}


def main():
    """Print each entry's name, worst error and seconds; 1 if any entry is
    above TOLERANCE, else 0."""
    failed = []
    for name, runner in named_gradient_checks():
        started = time.perf_counter()
        worst = runner()
        print(f"{name}  {worst:.2e}  {time.perf_counter() - started:.2f}s", flush=True)
        if not worst <= TOLERANCE:
            failed.append(name)
    if failed:
        print(f"{len(failed)} above {TOLERANCE:g}: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
