"""The benchmark's tracer replaces functions at the names their callers look
up. Each of those names must exist in the program, and the stages a run goes
through must record calls at them, so a rename or a moved call that would
leave a span unrecorded fails here, not first in a benchmark run."""

import importlib.util
from pathlib import Path

import hgdiff
import hgdiff.cli  # noqa: F401  (a traced module the package does not import)

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    # read only: the module defines the targets and patches nothing on import
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    tracing = load_tracing()
    targets = tracing.stage_targets(hgdiff, True) + tracing.layer_targets(hgdiff)
    assert targets
    missing = [(getattr(owner, "__name__", owner), attr, span)
               for owner, attr, span, _, _ in targets if attr not in vars(owner)]
    assert not missing


def test_traced_run_records_every_stage_and_load_builds_no_trainer(tmp_path):
    tracing = load_tracing()
    tracer = tracing.Tracer("desk")
    cfg = hgdiff.RunConfig(
        synthetic=hgdiff.SyntheticSpec(users=30, items=20, density=0.15),
        encoder=hgdiff.EncoderConfig(layers=2, dim=8),
        diffusion=hgdiff.DiffusionConfig(steps=10, b_max=0.99, b_min=0.9),
        epochs=2, seed=7, k=5)
    path = tmp_path / "model.npz"
    tracer.install(tracing.stage_targets(hgdiff, True))
    try:
        tracer.install(tracing.layer_targets(hgdiff))
        model, _ = hgdiff.train(cfg)
        model.save(path)
        hgdiff.TrainedModel.load(path).evaluate()
    finally:
        tracer.uninstall()
    calls = {name: row["calls"] for name, row in tracer.summary().items()}
    for name in ("tasks.rank_metrics", "harness.evaluate", "harness.load",
                 "diffusion.denoise_predict"):
        assert calls.get(name, 0) > 0, name
    spans = tracer.spans

    def inside_load(i):
        i = spans[i][tracing.PARENT]
        while i >= 0 and spans[i][tracing.NAME] != "harness.load":
            i = spans[i][tracing.PARENT]
        return i >= 0

    inits = [i for i, span in enumerate(spans) if span[tracing.NAME] == "harness.trainer_init"]
    assert len(inits) == 1  # the training's own
    assert not any(inside_load(i) for i in inits)
