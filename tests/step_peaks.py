"""Peak memory of each phase of one training step, as tracemalloc counts it.

For link and node at each size of `step_digest.py` (the benchmark's model,
variant full, one step per row), one `Trainer.compute_losses` runs on a
fresh epoch draw handed over as `Trainer.run_epoch` hands it, with no
reference kept. Each phase is timed by wrapping the name the step looks up
in `hgdiff.harness` (`encode_vjp` and the closure it returns, `diffusion_loss`
and its backward, `fuse`, `bpr_loss` and `ce_loss`); a line per phase gives
the most MB alive at once during it, counted from before the draw, and
``between`` the most alive outside every phase. Run it on a change and on
its parent checkout to see where the step's plateau moved:

    PYTHONPATH=src python tests/step_peaks.py > change.txt
    (cd ../parent && PYTHONPATH=src python "$OLDPWD/tests/step_peaks.py") > parent.txt
    diff parent.txt change.txt

Uses numpy and hgdiff only; ``--sizes desk,small`` skips the mid graph.
"""

from __future__ import annotations

import argparse
import tracemalloc

from step_digest import SIZES, experiment_config

from hgdiff import harness
from hgdiff.hetgraph import generate_synthetic

MB = 1024.0 * 1024.0


class PhasePeaks:
    """Per phase name, the most bytes alive at once above `base`."""

    def __init__(self):
        self.peaks = {}
        self.base = 0

    def close(self, name):
        # the peak since the last boundary belongs to the span that ends here
        peak = tracemalloc.get_traced_memory()[1] - self.base
        self.peaks[name] = max(self.peaks.get(name, 0), peak)
        tracemalloc.reset_peak()

    def wrap(self, fn, name):
        """`fn` recorded as phase `name`."""
        def phase(*args, **kwargs):
            self.close("between")
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(name)

        return phase


def step_peaks(trainer):
    """{phase: MB} of one `compute_losses` on a fresh draw, in call order."""
    probe = PhasePeaks()
    real = {name: getattr(harness, name)
            for name in ("encode_vjp", "diffusion_loss", "fuse", "bpr_loss", "ce_loss")}
    views = iter(("target", "source"))
    sides = iter(trainer.plan.diffusion_sides)

    def encode_vjp(*args, **kwargs):
        view = next(views)
        out, vjp = probe.wrap(real["encode_vjp"], f"encode {view} view")(*args, **kwargs)
        return out, probe.wrap(vjp, f"backward {view} view")

    def diffusion_loss(*args, **kwargs):
        side = next(sides)
        loss, pred, backward = probe.wrap(real["diffusion_loss"], f"forward {side} side")(
            *args, **kwargs)
        return loss, pred, probe.wrap(backward, f"backward {side} side")

    wrapped = {"encode_vjp": encode_vjp, "diffusion_loss": diffusion_loss,
               "fuse": probe.wrap(real["fuse"], "fuse"),
               "bpr_loss": probe.wrap(real["bpr_loss"], "task loss"),
               "ce_loss": probe.wrap(real["ce_loss"], "task loss")}
    tracemalloc.start()
    try:
        for name, fn in wrapped.items():
            setattr(harness, name, fn)
        probe.base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        trainer.compute_losses(probe.wrap(trainer.draw_epoch, "draw")())
        probe.close("between")
    finally:
        for name, fn in real.items():
            setattr(harness, name, fn)
        tracemalloc.stop()
    probe.peaks["between"] = probe.peaks.pop("between")  # printed last
    return {name: peak / MB for name, peak in probe.peaks.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default=",".join(SIZES),
                        help=f"comma-separated subset of {', '.join(SIZES)}")
    args = parser.parse_args(argv)
    for size in args.sizes.split(","):
        users, items, density, _ = SIZES[size]
        graph, labels = generate_synthetic(users, items, 2, density, 0.9, seed=7001)
        for task in ("link", "node"):
            cfg = experiment_config(task, "full", True, users, items, density)
            trainer = harness.Trainer(cfg, graph=graph, labels=labels)
            trainer.compute_losses(trainer.draw_epoch())  # builds lazy kernel plans once
            peaks = step_peaks(trainer)
            table = trainer.params.e0.nbytes / MB
            for name, peak in peaks.items():
                print(f"{size} {task} {name:<22} {peak:8.2f} MB {peak / table:6.2f} tables",
                      flush=True)
            top = max(peaks, key=peaks.get)
            print(f"{size} {task} {'peak: ' + top:<22} {peaks[top]:8.2f} MB", flush=True)


if __name__ == "__main__":
    main()
