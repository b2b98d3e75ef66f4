"""One benchmark job, run by run.py in a fresh child process.

    python3 perfbench/job.py --workload NAME --seed N --trace 0|1 \
        --work DIR --out FILE [--data DIR] [--smoke]

Runs the workload once against the hgdiff sources of this checkout, with the
stage spans installed and, with --trace 1, the per-module spans too. It checks
the program's outputs and writes one JSON record to --out: stage samples,
output digest, failed checks, peak RSS and, when traced, per-module totals
and counts. A traced job also writes every span to DIR/spans.json.
"""

import argparse
import contextlib
import ctypes
import gc
import hashlib
import io
import json
import math
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import hgdiff  # noqa: E402
import hgdiff.cli  # noqa: E402
import tracing  # noqa: E402
from tracing import END, NAME, PARENT, RSS_IN, RSS_OUT, START  # noqa: E402
from workloads import MODEL, params  # noqa: E402

harness, cli = hgdiff.harness, hgdiff.cli


class Checks:
    """Failed output checks, and the digest of every training's report."""

    def __init__(self):
        self.failures = []
        self.digests = []

    def expect(self, ok, message):
        if not ok:
            self.failures.append(message)

    def training(self, label, report):
        totals = [part["total"] for part in report.loss_trace]
        self.expect(all(math.isfinite(t) for t in totals), f"{label}: non-finite loss")
        self.expect(len(totals) >= 2 and totals[-1] < totals[0],
                    f"{label}: loss did not decrease ({totals[0]} -> {totals[-1]})")
        self.digests.append(payload_digest(report.reproducible_payload()))


def payload_digest(payload):
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def model_config(seed, epochs, **data):
    return harness.RunConfig(
        encoder=hgdiff.EncoderConfig(layers=MODEL["layers"], dim=MODEL["dim"]),
        diffusion=hgdiff.DiffusionConfig.from_noise_scale(
            MODEL["noise_scale"], steps=MODEL["steps"], per_row_t=MODEL["per_row_t"]),
        loss=hgdiff.JointLossConfig(lam=MODEL["lam"], l2=MODEL["l2"]),
        lr=MODEL["lr"], batch_size=MODEL["batch_size"], k=MODEL["k"],
        epochs=epochs, seed=seed, **data)


def synthetic(graph):
    return harness.SyntheticSpec(users=graph["users"], items=graph["items"],
                                 aux_relations=graph["aux"], density=graph["density"],
                                 fidelity=graph["fidelity"])


def quiet_cli(argv):
    """`hgdiff <argv>` in this process, its printed report discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


# -- workloads

def mid_link(p, seed, tracer, checks, work, data):
    cfg = model_config(seed, p["epochs"], task="link", synthetic=synthetic(p["graph"]))
    trainer = harness.Trainer(cfg)
    model, trace = trainer.train()
    report = trace.evals[-1]
    checks.training("mid-link", report)
    path = work / "model.npz"
    model.save(path)
    graph, labels = trainer.graph, trainer.labels
    del model, trainer, trace
    gc.collect()
    # reload with the graph in hand: `hgdiff eval` would regenerate it
    with tracer.span("job.reload_eval"):
        again = harness.TrainedModel.load(path, graph=graph, labels=labels).evaluate()
    checks.expect((again.metrics, again.buckets) == (report.metrics, report.buckets),
                  "reloaded model did not reproduce the post-training metrics")


def desk_sweep(p, seed, tracer, checks, work, data):
    cfg = model_config(seed, p["epochs"], task="link", synthetic=synthetic(p["graph"]))
    ablation = harness.run_ablation(cfg)
    for variant, report in ablation.items():
        checks.training(variant, report)
    full = payload_digest(ablation["full"].reproducible_payload())
    noise = harness.run_noise_robustness(cfg, p["ratios"])
    checks.training("clean", noise.clean)
    for (rel, ratio), report in noise.noisy_reports.items():
        if ratio:
            checks.training(f"{rel}@{ratio}", report)
        else:
            checks.expect(all(v == 100.0 for v in noise.retention[(rel, ratio)].values()),
                          f"{rel}: ratio-0 retention is not exactly 100%")
    # the same job twice in one sweep must give the same report
    checks.expect(payload_digest(noise.clean.reproducible_payload()) == full,
                  "ablation 'full' and noise-experiment clean runs differ")
    # keep one model the way a CLI user does: train and save, reload, evaluate
    config = work / "desk.json"
    config.write_text(json.dumps(cfg.to_dict()))
    model, trained, evaluated = work / "desk.npz", work / "train.json", work / "eval.json"
    rc = quiet_cli(["train", "--config", str(config), "--save", str(model),
                    "--report", str(trained)])
    checks.expect(rc == 0, f"hgdiff train exited {rc}")
    if rc == 0:
        payload = json.loads(trained.read_text())
        del payload["wall_clock_per_epoch"]
        checks.expect(payload_digest(payload) == full,
                      "hgdiff train and run_ablation reported the same job differently")
    for _ in range(p["reloads"]):  # each is short, so take several samples
        with tracer.span("job.reload_eval"):
            rc = quiet_cli(["eval", "--model", str(model), "--report", str(evaluated)])
        checks.expect(rc == 0, f"hgdiff eval exited {rc}")
        _same_metrics(checks, trained, evaluated)


def mid_node_files(p, seed, tracer, checks, work, data):
    cfg = model_config(seed, p["epochs"], task="node", labeled_type="user",
                       edge_file=str(data / "edges.txt"), schema_file=str(data / "schema.txt"),
                       label_file=str(data / "labels.txt"))
    trainer = harness.Trainer(cfg)
    model, trace = trainer.train()
    report = trace.evals[-1]
    checks.training("mid-node-files", report)
    path, trained, evaluated = work / "model.npz", work / "train.json", work / "eval.json"
    model.save(path)
    trained.write_text(report.to_json())
    del model, trainer, trace
    gc.collect()
    with tracer.span("job.reload_eval"):
        rc = quiet_cli(["eval", "--model", str(path), "--report", str(evaluated)])
    checks.expect(rc == 0, f"hgdiff eval exited {rc}")
    _same_metrics(checks, trained, evaluated)


def _same_metrics(checks, trained, evaluated):
    if not (trained.is_file() and evaluated.is_file()):
        return
    a, b = (json.loads(path.read_text()) for path in (trained, evaluated))
    checks.expect((a["metrics"], a["buckets"]) == (b["metrics"], b["buckets"]),
                  "hgdiff eval did not report exactly the post-training metrics")


JOBS = {"mid-link": mid_link, "desk-sweep": desk_sweep, "mid-node-files": mid_node_files}


# -- what the record holds

def stage_samples(spans):
    """Stage durations for the end-to-end metrics, and peak RSS after each stage."""
    def duration(i):
        return spans[i][END] - spans[i][START]

    def within(i, name):
        i = spans[i][PARENT]
        while i >= 0:
            if spans[i][NAME] == name:
                return True
            i = spans[i][PARENT]
        return False

    named = {}
    for i, span in enumerate(spans):
        named.setdefault(span[NAME], []).append(i)
    setups = [i for i in named.get("harness.trainer_init", ()) if not within(i, "harness.load")]
    trains = named.get("harness.train", [])
    epochs = {t: [] for t in trains}
    for i in named.get("harness.run_epoch", ()):
        epochs[spans[i][PARENT]].append(i)
    # every evaluation of a trained model: after training and after each reload
    evals = named.get("harness.evaluate", [])
    first_eval = [i for i in evals if trains and spans[i][PARENT] == trains[0]]
    first_epochs = epochs[trains[0]] if trains else []
    return {
        "setup": [duration(i) for i in setups],
        "epoch": [duration(i) for t in trains for i in epochs[t]],
        "train": [sum(duration(i) for i in epochs[t]) for t in trains],
        "eval": [duration(i) for i in evals],
        "reload_eval": [duration(i) for i in named.get("job.reload_eval", ())],
        "rss_mb": {
            "setup": spans[setups[0]][RSS_OUT] if setups else None,
            "train": spans[first_epochs[-1]][RSS_OUT] if first_epochs else None,
            "eval": spans[first_eval[0]][RSS_OUT] if first_eval else None,
        },
    }


def layer_metrics(tracer, stages):
    out = {}
    for name, row in tracer.summary().items():
        out[f"{name}.calls"] = row["calls"]
        out[f"{name}.s"] = row["s"]
    out.update(tracer.counts)
    grown = [s[RSS_OUT] - s[RSS_IN] for s in tracer.spans
             if s[NAME] == "hetgraph.generate_synthetic"]
    out["hetgraph.generate_synthetic.rss_mb"] = max(grown, default=0.0)
    calls = out["harness.train.calls"]
    out["harness.train.distinct"] = len(tracer.fingerprints)
    out["harness.train.useful_share"] = len(tracer.fingerprints) / calls if calls else 0.0
    for stage, value in stages["rss_mb"].items():
        out[f"rss.{stage}_mb"] = value
    return out


def environment():
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "blas": blas_threads()}


def blas_threads():
    """Name and thread count of the OpenBLAS numpy loaded, if it is OpenBLAS."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype, fn.argtypes = ctypes.c_int, []
                return {"library": os.path.basename(path), "threads": fn()}
    return {"library": "unknown", "threads": None}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(JOBS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--data")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if not Path(hgdiff.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"hgdiff was imported from {hgdiff.__file__}, not from this checkout")
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    traced = bool(args.trace)
    tracer = tracing.Tracer(f"{args.workload}:seed{args.seed}:{'traced' if traced else 'untraced'}")
    tracer.install(tracing.stage_targets(hgdiff, traced))
    if traced:
        tracer.install(tracing.layer_targets(hgdiff))
    checks = Checks()
    try:
        with tracer.span("job.run"):
            JOBS[args.workload](params(args.workload, args.smoke), args.seed, tracer, checks,
                                work, Path(args.data) if args.data else None)
    finally:
        tracer.uninstall()
    stages = stage_samples(tracer.spans)
    record = {
        "run_id": tracer.run_id,
        "env": environment(),
        "failures": checks.failures,
        "digest": hashlib.sha256("".join(checks.digests).encode()).hexdigest(),
        "stages": stages,
        "peak_rss_mb": tracing.maxrss_mb(),
        "layers": layer_metrics(tracer, stages) if traced else None,
    }
    if traced:
        with open(work / "spans.json", "w", encoding="utf-8") as fh:
            json.dump({"run_id": tracer.run_id, "fields": tracing.FIELDS,
                       "spans": tracer.spans}, fh)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
