"""Command-line surface: train, eval, ablate, noise-exp, synth, export.

Flags mirror RunConfig fields; `--config file.json` loads a config and any
flags given on top override it. Exit codes: 0 ok, 1 config error, 2 data
error, 3 numerical divergence.
"""

from __future__ import annotations

import argparse
import json
import sys

from .diffusion import DiffusionConfig, ScheduleError
from .harness import (
    VARIANTS,
    ConfigError,
    DivergenceError,
    RunConfig,
    SyntheticSpec,
    TrainedModel,
    export_embeddings,
    run_ablation,
    run_noise_robustness,
    train,
)
from .hetgraph import GraphError, generate_synthetic, write_dataset_files
from .numerics import ShapeError


# (flag, config group or None for the top level, field it sets, argparse keywords)
_CONFIG_FLAGS = (
    ("--task", None, "task", {"choices": ("link", "node")}),
    ("--edge-file", None, "edge_file", {}),
    ("--schema-file", None, "schema_file", {}),
    ("--label-file", None, "label_file", {}),
    ("--labeled-type", None, "labeled_type", {}),
    ("--synth-users", "synthetic", "users", {"type": int}),
    ("--synth-items", "synthetic", "items", {"type": int}),
    ("--synth-aux", "synthetic", "aux_relations", {"type": int}),
    ("--synth-density", "synthetic", "density", {"type": float}),
    ("--synth-fidelity", "synthetic", "fidelity", {"type": float}),
    ("--synth-seed", "synthetic", "seed", {"type": int}),
    ("--dim", "encoder", "dim", {"type": int}),
    ("--layers", "encoder", "layers", {"type": int}),
    ("--steps", "diffusion", "steps", {"type": int, "help": "diffusion steps T"}),
    ("--b-max", "diffusion", "b_max", {"type": float}),
    ("--b-min", "diffusion", "b_min", {"type": float}),
    ("--infer-steps", "diffusion", "infer_steps", {"type": int}),
    ("--per-row-t", "diffusion", "per_row_t", {"action": "store_true", "default": None}),
    ("--lam", "loss", "lam", {"type": float, "help": "denoising loss weight"}),
    ("--l2", "loss", "l2", {"type": float}),
    ("--lr", None, "lr", {"type": float}),
    ("--batch-size", None, "batch_size", {"type": int}),
    ("--epochs", None, "epochs", {"type": int}),
    ("--eval-every", None, "eval_every", {"type": int}),
    ("--seed", None, "seed", {"type": int}),
    ("--variant", None, "variant", {"choices": VARIANTS}),
    ("--k", None, "k", {"type": int}),
)


def _add_config_flags(p):
    p.add_argument("--config", help="JSON config file; flags override its values")
    for flag, _, _, keywords in _CONFIG_FLAGS:
        p.add_argument(flag, **keywords)
    p.add_argument("--noise-scale", type=float,
                   help="scalar S mapped to retention endpoints (1-S, 1-10S)")
    p.add_argument("--report", help="write the machine-readable report here")


def _deep_merge(base, extra):
    out = dict(base)
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = value
    return out


def build_config(args) -> RunConfig:
    data = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except ValueError as exc:  # not JSON, or not UTF-8 text
                raise ConfigError(f"{args.config}: not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError(f"{args.config}: not a JSON object")
    over = {}
    if args.noise_scale is not None:  # --b-max and --b-min override the preset
        preset = DiffusionConfig.from_noise_scale(args.noise_scale)
        over["diffusion"] = {"b_max": preset.b_max, "b_min": preset.b_min}
    for flag, group, key, _ in _CONFIG_FLAGS:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None:
            (over.setdefault(group, {}) if group else over)[key] = value
    merged = _deep_merge(data, over)
    if "synthetic" not in merged and not merged.get("edge_file"):
        merged["synthetic"] = {}  # default desk-scale dataset
    return RunConfig.from_dict(merged)


def _emit(report, path):
    for line in report.lines():
        print(line)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())


def cmd_train(args):
    cfg = build_config(args)
    model, trace = train(cfg)
    report = trace.evals[-1]
    _emit(report, args.report)
    if args.save:
        model.save(args.save)
        print(f"model={args.save}")
    if args.export:
        export_embeddings(model, args.export, table=args.table)
        print(f"embeddings={args.export}")
    return 0


def cmd_eval(args):
    model = TrainedModel.load(args.model)
    report = model.evaluate()  # the same tables as the post-training report
    _emit(report, args.report)
    return 0


def cmd_ablate(args):
    cfg = build_config(args)
    variants = tuple(args.variants.split(",")) if args.variants else None
    reports = run_ablation(cfg, variants=variants)
    for variant, report in reports.items():
        metrics = " ".join(f"{k}={v}" for k, v in report.metrics.items())
        print(f"variant={variant} {metrics}")
    if args.report:
        payload = {v: r.reproducible_payload() for v, r in reports.items()}
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
    return 0


def cmd_noise_exp(args):
    cfg = build_config(args)
    try:
        ratios = [float(r) for r in args.ratios.split(",")]
    except ValueError:
        raise ConfigError(f"--ratios must be comma-separated numbers, "
                          f"got {args.ratios!r}") from None
    result = run_noise_robustness(cfg, ratios)
    print("retention (% of clean metric) per auxiliary relation and noise ratio")
    for line in result.table_lines():
        print(line)
    if args.report:
        payload = {
            "clean": result.clean.reproducible_payload(),
            "ratios": list(result.ratios),
            "retention": {f"{rel}@{ratio}": cell
                          for (rel, ratio), cell in result.retention.items()},
        }
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
    return 0


def cmd_synth(args):
    spec = SyntheticSpec(args.users, args.items, args.aux, args.density, args.fidelity,
                         args.seed)
    graph, labels = generate_synthetic(spec.users, spec.items, spec.aux_relations,
                                       spec.density, spec.fidelity, spec.seed)
    paths = write_dataset_files(graph, labels, args.out_dir)
    for kind, path in paths.items():
        print(f"{kind}={path}")
    print(f"fingerprint={graph.fingerprint()}")
    return 0


def cmd_export(args):
    model = TrainedModel.load(args.model)
    export_embeddings(model, args.out, table=args.table)
    print(f"embeddings={args.out}")
    return 0


def make_parser():
    parser = argparse.ArgumentParser(
        prog="hgdiff",
        description="heterogeneous graph learning with latent diffusion denoising")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model and report metrics")
    _add_config_flags(p)
    p.add_argument("--save", help="write trained parameters to this .npz file")
    p.add_argument("--export", help="write embeddings to this text file")
    p.add_argument("--table", default="fused")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--report")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("ablate", help="run the model-variant ablation suite")
    _add_config_flags(p)
    p.add_argument("--variants", help="comma-separated subset of variants")
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("noise-exp", help="noise-robustness retention experiment")
    _add_config_flags(p)
    p.add_argument("--ratios", default="0,0.1,0.3,0.5")
    p.set_defaults(fn=cmd_noise_exp)

    p = sub.add_parser("synth", help="generate a synthetic dataset on disk")
    p.add_argument("--users", type=int, default=200)
    p.add_argument("--items", type=int, default=100)
    p.add_argument("--aux", type=int, default=2)
    p.add_argument("--density", type=float, default=0.05)
    p.add_argument("--fidelity", type=float, default=0.9)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("export", help="export embeddings from a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--table", default="fused")
    p.set_defaults(fn=cmd_export)
    return parser


def _join_variant_values(argv):
    """`--variant -U` as `--variant=-U`, and so for `--variants`, when the
    value is made of variant names only: argparse takes a separate value
    that starts with "-" for an option, and four variant names do."""
    out = []
    for arg in argv:
        if out and out[-1] in ("--variant", "--variants") \
                and set(arg.split(",")) <= set(VARIANTS):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None):
    parser = make_parser()
    args = parser.parse_args(_join_variant_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.fn(args)
    except (ConfigError, ScheduleError, ShapeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (GraphError, FileNotFoundError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
