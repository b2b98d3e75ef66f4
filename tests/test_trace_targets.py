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


def assert_trace_whole(tracing, tracer):
    """Every span closed, and none with a negative self time, as a span
    entered on a worker thread would leave."""
    assert tracer._stack == []
    spans = tracer.spans
    child_s = [0.0] * len(spans)
    for span in spans:
        if span[tracing.PARENT] >= 0:
            child_s[span[tracing.PARENT]] += span[tracing.END] - span[tracing.START]
    assert all(span[tracing.END] - span[tracing.START] - inner >= 0
               for span, inner in zip(spans, child_s))


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


def test_file_based_run_records_the_loader(tmp_path, capsys):
    # a training and an `hgdiff eval` reload each read the edge file once
    tracing = load_tracing()
    tracer = tracing.Tracer("desk")
    graph, labels = hgdiff.generate_synthetic(30, 20, 2, 0.15, 0.9, seed=7)
    paths = hgdiff.hetgraph.write_dataset_files(graph, labels, tmp_path / "data")
    cfg = hgdiff.RunConfig(
        task="node", edge_file=paths["edges"], schema_file=paths["schema"],
        label_file=paths["labels"], train_labels_per_class=5,
        encoder=hgdiff.EncoderConfig(layers=2, dim=8),
        diffusion=hgdiff.DiffusionConfig(steps=10, b_max=0.99, b_min=0.9),
        epochs=2, seed=7, k=5)
    path = tmp_path / "model.npz"
    tracer.install(tracing.stage_targets(hgdiff, True))
    try:
        tracer.install(tracing.layer_targets(hgdiff))
        model, _ = hgdiff.train(cfg)
        model.save(path)
        assert hgdiff.cli.main(["eval", "--model", str(path)]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    calls = {name: row["calls"] for name, row in tracer.summary().items()}
    assert calls.get("hetgraph.load_edge_list", 0) == 2
    assert tracer.counts["hetgraph.load_edge_list.edges"] == 2 * graph.edge_count()


def test_threaded_evaluation_keeps_the_trace_whole(monkeypatch, cpus):
    # worker threads must call no traced name: the tracer keeps one span
    # stack, so a span entered on a worker would nest under whatever the
    # caller's thread has open and break the self times
    tracing = load_tracing()
    cfg = hgdiff.RunConfig(
        synthetic=hgdiff.SyntheticSpec(users=60, items=40, density=0.15),
        encoder=hgdiff.EncoderConfig(layers=2, dim=8),
        diffusion=hgdiff.DiffusionConfig(steps=10, b_max=0.99, b_min=0.9),
        epochs=2, seed=7, k=5)
    model, _ = hgdiff.train(cfg)
    # walk blocks of 4 rows, score blocks of 3 rows, on three workers
    monkeypatch.setattr(hgdiff.diffusion, "_WALK_ROWS", 4)
    monkeypatch.setattr(hgdiff.tasks, "_RANK_BLOCK_ELEMENTS", 3 * 40)
    cpus(3)
    tracer = tracing.Tracer("threads")
    tracer.install(tracing.stage_targets(hgdiff, True))
    try:
        tracer.install(tracing.layer_targets(hgdiff))
        for _ in range(2):
            model.evaluate()
    finally:
        tracer.uninstall()
    assert_trace_whole(tracing, tracer)
    calls = {name: row["calls"] for name, row in tracer.summary().items()}
    assert calls["harness.evaluate"] == 2
    assert calls["tasks.rank_metrics"] == 2
    assert len(model.plan.diffusion_sides) == 2
    # both sides are walked together: one final prediction per evaluation
    assert calls["diffusion.reverse_denoise"] == 2
    assert calls["diffusion.denoise_predict"] == 2


def test_threaded_generation_keeps_the_trace_whole(monkeypatch, cpus):
    # the generator's row blocks run on workers inside the traced
    # generate_synthetic span and must open no span of their own
    tracing = load_tracing()
    monkeypatch.setattr(hgdiff.hetgraph, "_SYNTH_BLOCK_ELEMENTS", 4 * 40)
    cpus(3)
    tracer = tracing.Tracer("threads")
    tracer.install(tracing.stage_targets(hgdiff, True))
    try:
        tracer.install(tracing.layer_targets(hgdiff))
        hgdiff.harness.generate_synthetic(90, 40, 2, 0.15, 0.9, seed=7)
    finally:
        tracer.uninstall()
    assert_trace_whole(tracing, tracer)
    calls = {name: row["calls"] for name, row in tracer.summary().items()}
    assert calls["hetgraph.generate_synthetic"] == 1
