"""Two digests per (size, task, variant, per_row_t) of what training computes.

The results digest covers two training steps (the losses, their parts and
every gradient `Trainer.compute_losses` returns, each followed by its Adam
update) and, at the small sizes, the parameters a saved model holds, every
inference table and the evaluation report's reproducible payload without
the config it echoes. The config digest covers that echo (`config` and
`config_fingerprint`), so a change to the config's fields moves the second
column only. Equal digests mean equal bits, so a change that must not move a
number can be checked against its parent checkout, running this script on
both:

    PYTHONPATH=src python tests/step_digest.py > change.txt
    (cd ../parent && PYTHONPATH=src python "$OLDPWD/tests/step_digest.py") > parent.txt
    diff <(cut -d' ' -f1-5 parent.txt) <(cut -d' ' -f1-5 change.txt)  # results
    diff parent.txt change.txt  # results and config

A cell whose variant the checkout refuses prints ``refused``. Uses numpy
and hgdiff only; ``--sizes desk,small`` skips the mid graph, whose
generator peaks near 0.6 GB.
"""

from __future__ import annotations

import argparse
import hashlib
import json

import numpy as np

from hgdiff.diffusion import DiffusionConfig
from hgdiff.encoder import EncoderConfig
from hgdiff.harness import VARIANTS, ConfigError, RunConfig, SyntheticSpec, Trainer
from hgdiff.hetgraph import generate_synthetic
from hgdiff.numerics import adam_step
from hgdiff.tasks import JointLossConfig

# (users, items, density, whether the digest covers a report)
SIZES = {"desk": (200, 100, 0.05, True), "small": (600, 300, 0.02, True),
         "mid": (8000, 4000, 1.25e-3, False)}


def experiment_config(task, variant, per_row_t, users=200, items=100, density=0.05,
                      seed=7001):
    """The benchmark's model (three layers, d 32, T 100 at noise scale 1e-4,
    lam 1, l2 1e-3, lr 1e-3, batch 1024, k 20) on a synthetic graph."""
    return RunConfig(
        task=task, variant=variant, seed=seed, epochs=2, lr=1e-3, batch_size=1024, k=20,
        synthetic=SyntheticSpec(users=users, items=items, aux_relations=2,
                                density=density, fidelity=0.9),
        encoder=EncoderConfig(layers=3, dim=32),
        diffusion=DiffusionConfig.from_noise_scale(1e-4, steps=100, per_row_t=per_row_t),
        loss=JointLossConfig(lam=1.0, l2=1e-3))


def _feed(h, value):
    """Feed `value`'s bits to hash `h`, through dicts (by sorted key)."""
    if isinstance(value, dict):
        for key in sorted(value):
            h.update(str(key).encode())
            _feed(h, value[key])
    else:
        array = np.asarray(value)
        h.update(f"{array.dtype.str}{array.shape}".encode())
        h.update(array.tobytes())


def step_digest(cfg: RunConfig, graph=None, labels=None, steps=2, report=True):
    """Hex digests (results, config echo) of `steps` training steps of a
    fresh trainer and, with `report`, of the parameters, inference tables
    and report after them; the config echo is the report's, or without
    `report` the config's own."""
    trainer = Trainer(cfg, graph=graph, labels=labels)
    h = hashlib.sha256()
    for _ in range(steps):
        total, parts, grads = trainer.compute_losses(trainer.draw_epoch())
        _feed(h, {"total": total, "parts": parts, "grads": grads})
        for key, arr in trainer.params.arrays().items():
            adam_step(trainer.adam[key], arr, grads[key])
    echo = {"config": cfg.to_dict(), "config_fingerprint": cfg.fingerprint()}
    if report:
        _feed(h, {"params": trainer.params.arrays(), "tables": trainer.inference_tables()})
        payload = trainer.evaluate().reproducible_payload()
        echo = {key: payload.pop(key) for key in echo}
        h.update(json.dumps(payload, sort_keys=True).encode())
    return h.hexdigest(), hashlib.sha256(json.dumps(echo, sort_keys=True).encode()).hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default=",".join(SIZES),
                        help=f"comma-separated subset of {', '.join(SIZES)}")
    args = parser.parse_args(argv)
    for size in args.sizes.split(","):
        users, items, density, report = SIZES[size]
        graph, labels = generate_synthetic(users, items, 2, density, 0.9, seed=7001)
        for task in ("link", "node"):
            for variant in VARIANTS:
                for per_row_t in (False, True):
                    cfg = experiment_config(task, variant, per_row_t, users, items, density)
                    try:
                        digests = step_digest(cfg, graph, labels, report=report)
                    except ConfigError:
                        digests = ("refused",)
                    print(size, task, variant, "per_row_t" if per_row_t else "-", *digests,
                          flush=True)


if __name__ == "__main__":
    main()
