"""Property test: every gradient `Trainer.compute_losses` returns agrees with
a central difference of its loss, over generated small configs.

certify.py checks every gradient key on one graph and one model size; this
test draws the graph (1-3 auxiliary relations, 2-12 users and items, density
0.05-0.6, so some users are isolated and some items have no edge), the model
(1-3 layers, d in {2, 3, 5}, T in {1, 2, 5}, per-row steps on and off), the
batch size, the task and each variant that task's data accepts. Each key is
checked along one random direction, with the error measure and step of
certify's grad-check loop.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hgdiff.certify import TOLERANCE
from hgdiff.diffusion import DiffusionConfig
from hgdiff.encoder import EncoderConfig
from hgdiff.harness import VARIANTS, ConfigError, ModelParams, RunConfig, SyntheticSpec, Trainer
from hgdiff.numerics import Rng, grad_check

configs = st.fixed_dictionaries({
    "task": st.sampled_from(("link", "node")),
    "variant": st.sampled_from(VARIANTS),
    "aux_relations": st.integers(1, 3),
    "users": st.integers(2, 12),
    "items": st.integers(2, 12),
    "density": st.floats(0.05, 0.6),
    "layers": st.integers(1, 3),
    "dim": st.sampled_from((2, 3, 5)),
    "steps": st.sampled_from((1, 2, 5)),
    "per_row_t": st.booleans(),
    "batch_size": st.integers(1, 7),
    "train_labels_per_class": st.integers(1, 3),
    "seed": st.integers(0, 2**16),
})


def run_config(c):
    return RunConfig(
        task=c["task"], variant=c["variant"], seed=c["seed"], epochs=1,
        batch_size=c["batch_size"], train_labels_per_class=c["train_labels_per_class"],
        synthetic=SyntheticSpec(users=c["users"], items=c["items"],
                                aux_relations=c["aux_relations"], density=c["density"],
                                fidelity=0.8),
        encoder=EncoderConfig(layers=c["layers"], dim=c["dim"]),
        diffusion=DiffusionConfig(steps=c["steps"], b_max=0.95, b_min=0.6,
                                  per_row_t=c["per_row_t"]))


def directional_errors(c, h=1e-6):
    """grad_check's error of each gradient key along one random unit
    direction, at a point that moves that key's group only."""
    try:
        trainer = Trainer(run_config(c))
    except ConfigError:  # a variant the data refuses, or an empty split
        assume(False)
    draws = trainer.draw_epoch()

    def objective(arrays):
        total, _, grads = trainer.compute_losses(draws, params=ModelParams.from_arrays(arrays))
        return total, grads

    base = trainer.params.arrays()
    rng = Rng(c["seed"]).derive("direction")
    errors = {}
    for key in objective(base)[1]:
        point = {**base, key: base[key] + 0.1 * rng.standard_normal(base[key].shape)}
        direction = rng.standard_normal(base[key].shape)
        direction /= np.linalg.norm(direction)
        slope = np.vdot(objective(point)[1][key], direction)
        along = lambda s, key=key, point=point, direction=direction: objective(
            {**point, key: point[key] + s[0] * direction})[0]
        errors[key] = grad_check(along, np.array([slope]), np.zeros(1), h=h)
    return errors


@settings(max_examples=200, derandomize=True, deadline=None)
@given(configs)
def test_every_compute_losses_gradient_matches_a_central_difference(c):
    errors = directional_errors(c)
    assert max(errors.values()) <= TOLERANCE, (c, errors)
