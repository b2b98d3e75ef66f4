"""Training loop, leave-one-out evaluation, experiment runners, and reports.

One epoch encodes both graph views, runs the side-wise diffusion loss, draws
the task batch, forms the joint objective, and applies one Adam update per
parameter group. Everything downstream of (config, seed, dataset) is
bit-reproducible; wall-clock timings are kept out of the reproducible payload.
"""

from __future__ import annotations

import functools
import hashlib
import json
import time
import typing
import zipfile
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace

import numpy as np

from .diffusion import (
    DenoiserParams,
    DiffusionConfig,
    build_schedule,
    denoise_predict,  # noqa: F401 -- unused, but perfbench/tracing.py wraps it here
    diffusion_loss,
    reverse_denoise,
)
from .encoder import EncoderConfig, encode, encode_vjp, relation_adjacencies
from .hetgraph import (
    SPARSITY_LABELS,
    GraphError,
    HeteroGraph,
    LabelSet,
    NoiseSpec,
    Relation,
    check_synthetic,
    generate_synthetic,
    inject_edge_noise,
    load_edge_list,
    load_labels,
    load_schema,
    sparsity_buckets,
)
from .numerics import AdamState, Rng, adam_step
from .tasks import (
    ClassifierParams,
    JointLossConfig,
    MaskedScores,
    bpr_loss,
    ce_loss,
    class_metrics,
    classifier_logits,
    fuse,
    joint_loss,
    positive_keys,
    rank_metrics,
    sample_triplets,
)


class ConfigError(ValueError):
    """Run configuration that cannot be executed."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss."""

    def __init__(self, epoch, parts):
        self.epoch = epoch
        self.parts = parts
        detail = ", ".join(f"{k}={v}" for k, v in parts.items())
        super().__init__(f"non-finite loss at epoch {epoch}: {detail}")


VARIANTS = ("full", "-D", "-U", "-I", "-H", "DAE")


@dataclass
class SyntheticSpec:
    users: int = 200
    items: int = 100
    aux_relations: int = 2
    density: float = 0.05
    fidelity: float = 0.9
    seed: int | None = None  # falls back to the run seed

    def __post_init__(self):
        try:
            check_synthetic(**asdict(self))
        except GraphError as exc:
            raise ConfigError(f"bad synthetic config: {exc}") from None


@dataclass
class RunConfig:
    task: str = "link"
    synthetic: SyntheticSpec | None = None
    edge_file: str | None = None
    schema_file: str | None = None
    label_file: str | None = None
    labeled_type: str = "user"
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    diffusion: DiffusionConfig = field(default_factory=DiffusionConfig)
    loss: JointLossConfig = field(default_factory=JointLossConfig)
    lr: float = 1e-3
    batch_size: int = 1024
    epochs: int = 30
    eval_every: int = 0  # 0 = final evaluation only
    seed: int = 0
    variant: str = "full"
    k: int = 20
    train_labels_per_class: int = 20

    def __post_init__(self):
        if self.task not in ("link", "node"):
            raise ConfigError(f"unknown task {self.task!r}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.epochs < 0 or self.batch_size < 1 or not 0 < self.lr < np.inf:
            raise ConfigError("epochs >= 0, batch_size >= 1 and a finite lr > 0 required")
        for name, low in (("k", 1), ("eval_every", 0), ("seed", 0),
                          ("train_labels_per_class", 1)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}, got {getattr(self, name)!r}")

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        """Build a config from plain values. A bad value raises ConfigError
        naming its field; an unknown field is named by its key."""
        return _build(cls, d, "run")

    def fingerprint(self):
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


@functools.cache
def _field_types(cls):
    """Each field's annotated types by name, (X, NoneType) for `X | None`,
    resolved once per class: `hgdiff eval` builds a config on every reload."""
    return {name: typing.get_args(hint) or (hint,)
            for name, hint in typing.get_type_hints(cls).items()}


# what an error message calls the values of an annotated type
_WANTED = {int: "an integer", float: "a number", bool: "true or false", str: "a string",
           type(None): "null"}


def _build(cls, values, where):
    """`cls(**values)`, each value held to its field's annotated types: a
    `float` field admits an integer too, stored as a float (1 and 1.0 make
    one fingerprint), and only a `bool` field admits true or false (a config
    file may hold 2.5, "no" or true where an integer belongs, and bool is an
    int subclass). A config group admits an object, built the same way, or
    an instance. A bad value raises ConfigError naming its field."""
    types, built = _field_types(cls), dict(values)
    for name, value in values.items():
        if name not in types:
            continue  # cls(**built) names it
        kinds = types[name]
        group = next((kind for kind in kinds if is_dataclass(kind)), None)
        if group is not None and isinstance(value, dict):
            built[name] = _build(group, value, name)
        elif group is not None and not isinstance(value, kinds):
            raise ConfigError(f"{name} config must be a JSON object, not {value!r}")
        elif not isinstance(value, kinds + (int,) if float in kinds else kinds) \
                or isinstance(value, bool) and bool not in kinds:
            wanted = " or ".join(_WANTED[kind] for kind in kinds)
            raise ConfigError(f"bad {where} config: {name} must be {wanted}, got {value!r}")
        elif float in kinds and isinstance(value, int):
            try:
                built[name] = float(value)
            except OverflowError:
                raise ConfigError(f"bad {where} config: {name} is too large for a float") from None
    try:
        return cls(**built)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {where} config: {exc}") from None


@dataclass(frozen=True)
class VariantPlan:
    has_source: bool
    diffusion_sides: tuple
    dae: bool = False


def _variant_plans(cfg: RunConfig, graph: HeteroGraph):
    """Each variant's plan, and each plan's first variant in VARIANTS. The
    sides that may diffuse are the target relation's endpoint types for
    link, users first, and the labeled type for node: -U diffuses all but
    the first side, -I only the first."""
    target = graph.relations[graph.target]
    sides = ((cfg.labeled_type,) if cfg.task == "node"
             else tuple(dict.fromkeys((target.src_type, target.dst_type))))
    plans = {"full": VariantPlan(True, sides), "-D": VariantPlan(True, ()),
             "-U": VariantPlan(True, sides[1:]), "-I": VariantPlan(True, sides[:1]),
             "-H": VariantPlan(False, ()), "DAE": VariantPlan(True, sides, dae=True)}
    return plans, {plan: v for v, plan in reversed(plans.items())}


def accepted_variants(cfg: RunConfig, graph: HeteroGraph):
    """The first variant of each distinct plan: in a task with one side, -U
    has -D's plan and -I full's, so those two are left out."""
    plans, first = _variant_plans(cfg, graph)
    return tuple(v for v, plan in plans.items() if first[plan] == v)


def resolve_variant(cfg: RunConfig, graph: HeteroGraph) -> VariantPlan:
    """Whether `cfg`'s variant has a source view and which sides diffuse.
    Refuses a variant that :func:`accepted_variants` leaves out."""
    plans, first = _variant_plans(cfg, graph)
    same = first[plans[cfg.variant]]
    if same != cfg.variant:
        raise ConfigError(f"variant {cfg.variant} trains the same model as {same} "
                          f"for this task and data; use {same}")
    return plans[cfg.variant]


# ------------------------------------------------------------------ data


@dataclass
class LinkSplit:
    train_graph: HeteroGraph
    test_users: np.ndarray
    test_items: np.ndarray
    n_excluded: int


def leave_one_out_split(g: HeteroGraph) -> LinkSplit:
    """Hold out each user's last target edge (file order stands in for time).

    Users with no target edge are excluded from the test set and counted.
    """
    rel = g.relations[g.target]
    # last edge index per user; max is order-free, so repeats are safe here
    last = np.full(g.node_counts[rel.src_type], -1, dtype=np.int64)
    np.maximum.at(last, rel.edges[:, 0], np.arange(rel.edges.shape[0]))
    held = np.sort(last[last >= 0])
    keep = np.ones(rel.edges.shape[0], dtype=bool)
    keep[held] = False
    train_graph = g.replace_relation(
        Relation(rel.name, rel.src_type, rel.dst_type, rel.edges[keep]))
    test_users = rel.edges[held, 0]
    test_items = rel.edges[held, 1]
    n_excluded = last.size - held.size
    return LinkSplit(train_graph, test_users, test_items, n_excluded)


@dataclass
class NodeSplit:
    train: LabelSet
    test: LabelSet


def labeled_node_split(labels: LabelSet, per_class, seed) -> NodeSplit:
    """Train on the first `per_class` nodes of each class in a seeded
    permutation; test on the rest."""
    rng = Rng(seed).derive("labelsplit")
    order = rng.permutation(labels.node_ids.size)
    ids, classes = labels.node_ids[order], labels.class_ids[order]
    # a stable sort on class keeps permutation order within each class, so a
    # node's place in its class run is its rank among that class's nodes
    by_class = np.argsort(classes, kind="stable")
    sizes = np.bincount(classes, minlength=labels.n_classes)
    run_start = np.cumsum(sizes) - sizes
    in_train = np.zeros(ids.size, dtype=bool)
    in_train[by_class] = np.arange(ids.size) - run_start[classes[by_class]] < per_class
    if not in_train.any() or in_train.all():
        raise ConfigError("label split left train or test empty")
    mk = lambda m: LabelSet(labels.node_type, ids[m], classes[m], labels.n_classes)
    return NodeSplit(mk(in_train), mk(~in_train))


def load_dataset(cfg: RunConfig):
    """Materialize (graph, labels) from the synthetic spec or dataset files."""
    if cfg.synthetic is not None:
        spec = cfg.synthetic
        seed = cfg.seed if spec.seed is None else spec.seed
        graph, labels = generate_synthetic(spec.users, spec.items, spec.aux_relations,
                                           spec.density, spec.fidelity, seed)
        return graph, labels
    if cfg.edge_file is None or cfg.schema_file is None:
        raise ConfigError("need either a synthetic spec or edge + schema files")
    schema = load_schema(cfg.schema_file)
    graph = load_edge_list(cfg.edge_file, schema)
    labels = None
    if cfg.label_file is not None:
        # the model puts labels on the rows of cfg.labeled_type
        labeled_type = cfg.labeled_type
        if schema.labeled_type not in (None, labeled_type):
            raise ConfigError(f"the schema labels {schema.labeled_type!r} nodes, but "
                              f"labeled_type is {labeled_type!r}")
        if labeled_type not in graph.node_counts:
            raise GraphError(f"labeled node type {labeled_type!r} is not in the schema")
        labels = load_labels(cfg.label_file, labeled_type,
                             node_count=graph.node_counts[labeled_type])
    return graph, labels


# ------------------------------------------------------------------ model


@dataclass
class ModelParams:
    e0: np.ndarray
    denoiser: DenoiserParams | None
    classifier: ClassifierParams | None

    def arrays(self):
        """Every parameter array by name: e0, then denoiser.<name> and
        classifier.<name>. Adam state and saved files use these names in
        this order."""
        out = {"e0": self.e0}
        for group, params in (("denoiser", self.denoiser), ("classifier", self.classifier)):
            if params is not None:
                out.update((f"{group}.{name}", arr) for name, arr in params.arrays().items())
        return out

    @classmethod
    def from_arrays(cls, arrays):
        """The inverse of `arrays()`; a group with no array is None."""
        def group(params_cls, prefix):
            named = {k[len(prefix):]: v for k, v in arrays.items() if k.startswith(prefix)}
            return params_cls(**named) if named else None

        return cls(arrays["e0"], group(DenoiserParams, "denoiser."),
                   group(ClassifierParams, "classifier."))


class TrainedModel:
    """The model on its data: variant plan, split, target and source views,
    schedule, and the parameters, which start as None. :class:`Trainer`
    initializes them; `load` reads them from a saved file."""

    def __init__(self, cfg: RunConfig, graph=None, labels=None):
        self.cfg = cfg
        if graph is None:
            graph, loaded_labels = load_dataset(cfg)
            labels = labels if labels is not None else loaded_labels
        self.graph = graph
        self.labels = labels
        self.plan = resolve_variant(cfg, graph)
        if cfg.task == "link":
            self.split = leave_one_out_split(graph)
            self.train_graph = self.split.train_graph
            if self.split.test_users.size == 0:
                raise ConfigError("the target relation has no edges, so the "
                                  "leave-one-out split left no test users")
        else:
            if labels is None:
                raise ConfigError("node task needs labels")
            if labels.node_type != cfg.labeled_type:
                raise ConfigError(f"the labels are on {labels.node_type!r} nodes, but "
                                  f"labeled_type is {cfg.labeled_type!r}")
            self.split = labeled_node_split(labels, cfg.train_labels_per_class, cfg.seed)
            self.train_graph = graph
        if self.plan.has_source and not graph.auxiliary_names():
            raise ConfigError("variant needs auxiliary relations but none exist")

        view = self.train_graph
        if not self.plan.has_source:
            view = view.with_relations([graph.target])
        adjacencies = relation_adjacencies(view)
        self.target_adj = {graph.target: adjacencies[graph.target]}
        self.aux_adj = {n: adjacencies[n] for n in view.relations if n != graph.target}
        self.schedule = build_schedule(cfg.diffusion)
        self.params = None

    def inference_tables(self):
        """Deterministic embedding tables for evaluation and export.

        The denoised table comes from the full reverse pass (or the one-shot
        reconstruction for the autoencoder variant): one
        :func:`reverse_denoise` call walks every diffused side together, each
        side corrupted from its own stream under the run's one evaluation
        stream, so equal parameters always give equal tables.
        """
        cfg, plan = self.cfg, self.plan
        target_out = encode(self.target_adj, self.params.e0, cfg.encoder)
        tables = {"target": target_out.pooled}
        for name, table in target_out.per_relation.items():
            tables[f"relation:{name}"] = table
        if not plan.has_source:
            tables["fused"] = target_out.pooled
            return tables
        source_out = encode(self.aux_adj, self.params.e0, cfg.encoder)
        tables["source"] = source_out.pooled
        for name, table in source_out.per_relation.items():
            tables[f"relation:{name}"] = table
        denoised = source_out.pooled.copy()
        sides = {side: self.graph.type_slice(side) for side in plan.diffusion_sides}
        if sides:
            # one walk of every diffused side, each corrupted from its own stream
            walked = reverse_denoise(
                self.params.denoiser, self.schedule,
                {side: denoised[sl] for side, sl in sides.items()}, cfg.diffusion.infer_steps,
                rng=Rng(cfg.seed).derive("eval:final"), autoencoder=plan.dae)
            for side, sl in sides.items():
                denoised[sl] = walked[side]
        tables["denoised"] = denoised
        tables["fused"] = fuse(target_out.pooled, denoised)
        return tables

    def evaluate(self, epoch=None, trace=None):
        tables = self.inference_tables()
        if self.cfg.task == "link":
            report = self._evaluate_link(tables["fused"])
        else:
            report = self._evaluate_node(tables["fused"])
        report.epoch = epoch
        if trace is not None:
            report.loss_trace = list(trace.losses)
            if trace.epoch_seconds:
                report.wall_clock_per_epoch = float(np.mean(trace.epoch_seconds))
        return report

    def _evaluate_link(self, fused):
        cfg, graph, split = self.cfg, self.graph, self.split
        target = graph.relations[graph.target]
        users = fused[graph.type_slice(target.src_type)]
        items = fused[graph.type_slice(target.dst_type)]
        # training positives keyed by score row: test users are unique, and a
        # user with a training edge had one held out, so is a test user
        row_of = np.zeros(users.shape[0], dtype=np.int64)
        row_of[split.test_users] = np.arange(split.test_users.size)
        train_edges = split.train_graph.relations[graph.target].edges
        positives = positive_keys(
            np.column_stack((row_of[train_edges[:, 0]], train_edges[:, 1])), items.shape[0])
        ids = sparsity_buckets(split.train_graph, split.test_users)
        recall, ndcg, per_bucket = rank_metrics(
            MaskedScores(users[split.test_users], items, positives), split.test_items,
            cfg.k, groups=ids)
        metrics = {f"recall@{cfg.k}": recall, f"ndcg@{cfg.k}": ndcg}
        buckets = {SPARSITY_LABELS[b]: {f"recall@{cfg.k}": r, f"ndcg@{cfg.k}": g, "n_users": m}
                   for b, (r, g, m) in per_bucket.items()}
        return self._report(metrics, buckets, int(split.test_users.size),
                            split.n_excluded)

    def _evaluate_node(self, fused):
        test = self.split.test
        rows = test.node_ids + self.graph.offset(self.cfg.labeled_type)
        logits, _, _ = classifier_logits(fused[rows], self.params.classifier)
        m = class_metrics(logits, test.class_ids)
        metrics = {"micro_f1": m.micro_f1, "macro_f1": m.macro_f1, "auc": m.auc}
        return self._report(metrics, {}, int(test.node_ids.size), 0)

    def _report(self, metrics, buckets, n_test, n_excluded):
        return EvalReport(
            task=self.cfg.task, metrics=metrics, buckets=buckets, n_test=n_test,
            n_excluded=n_excluded, seed=self.cfg.seed, variant=self.cfg.variant,
            epoch=None, config=self.cfg.to_dict(),
            config_fingerprint=self.cfg.fingerprint(),
            dataset_fingerprint=self.graph.fingerprint())

    # -- persistence

    def save(self, path):
        arrays = self.params.arrays()
        arrays["config_json"] = np.frombuffer(
            json.dumps(self.cfg.to_dict()).encode(), dtype=np.uint8)
        arrays["dataset_fingerprint"] = np.frombuffer(
            self.graph.fingerprint().encode(), dtype=np.uint8)
        np.savez(path, **arrays)

    @classmethod
    def load(cls, path, graph=None, labels=None):
        """Rebuild a saved model on `graph`, or on the data its config names.

        Raises GraphError unless `path` holds what `save` writes, every
        parameter shaped as training makes it, and unless that data has the
        fingerprint of the graph the model was trained on.
        """
        try:
            with np.load(path) as data:
                saved = {key: data[key] for key in data.files}
            config = json.loads(bytes(saved.pop("config_json")).decode())
            trained_on = bytes(saved.pop("dataset_fingerprint")).decode()
            if not isinstance(config, dict):
                raise ValueError("config_json is not a JSON object")
        except KeyError as exc:
            raise GraphError(f"{path}: not a saved model: no {exc.args[0]} array") from None
        except (ValueError, TypeError, EOFError, zipfile.BadZipFile) as exc:
            raise GraphError(f"{path}: not a saved model: {exc}") from None
        cfg = RunConfig.from_dict(config)
        if graph is None:
            graph, loaded_labels = load_dataset(cfg)
            labels = labels if labels is not None else loaded_labels
        found = graph.fingerprint()
        if found != trained_on:
            raise GraphError(f"{path}: model was trained on dataset {trained_on}, "
                             f"not on {found}")
        model = cls(cfg, graph, labels)
        # every parameter array by name, with the shape training gives it
        d = cfg.encoder.dim
        shapes = {"e0": (graph.num_nodes, d)}
        if model.plan.diffusion_sides:
            shapes.update({"denoiser.w1": (2 * d, d), "denoiser.b1": (d,), "denoiser.w2": (d, d),
                           "denoiser.b2": (d,), "denoiser.time_emb": (cfg.diffusion.steps, d)})
        if cfg.task == "node":
            n = model.labels.n_classes
            shapes.update({"classifier.w1": (d, d), "classifier.b1": (d,),
                           "classifier.w2": (d, n), "classifier.b2": (n,)})
        if set(saved) != set(shapes):
            raise GraphError(f"{path}: parameters {sorted(saved)}, expected {sorted(shapes)}")
        for key, shape in shapes.items():
            if saved[key].shape != shape or saved[key].dtype != np.float64:
                raise GraphError(f"{path}: {key} is {saved[key].dtype} {saved[key].shape}, "
                                 f"not float64 {shape}")
        model.params = ModelParams.from_arrays(saved)
        return model


# ------------------------------------------------------------------ reports


@dataclass
class EvalReport:
    task: str
    metrics: dict
    buckets: dict
    n_test: int
    n_excluded: int
    seed: int
    variant: str
    epoch: int | None
    config: dict
    config_fingerprint: str
    dataset_fingerprint: str
    loss_trace: list = field(default_factory=list)
    wall_clock_per_epoch: float | None = None

    def reproducible_payload(self):
        """Everything that must be bit-identical across reruns: every field
        but the timing."""
        payload = asdict(self)
        del payload["wall_clock_per_epoch"]
        return payload

    def to_json(self):
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    def lines(self):
        out = [f"task={self.task}", f"variant={self.variant}", f"seed={self.seed}",
               f"dataset={self.dataset_fingerprint}", f"config={self.config_fingerprint}"]
        for name, value in self.metrics.items():
            out.append(f"{name}={_fmt(value)}")
        for label, vals in self.buckets.items():
            for name, value in vals.items():
                out.append(f"bucket[{label}].{name}={_fmt(value)}")
        out.append(f"n_test={self.n_test}")
        out.append(f"n_excluded={self.n_excluded}")
        if self.wall_clock_per_epoch is not None:
            out.append(f"wall_clock_per_epoch={self.wall_clock_per_epoch:.6f}")
        return out


def _fmt(value):
    if value is None:
        return "undefined"
    if isinstance(value, float):
        return repr(value)
    return str(value)


# ------------------------------------------------------------------ trainer


@dataclass
class EpochDraws:
    side_t: dict
    side_noise: dict
    triplets: object = None


@dataclass
class TrainTrace:
    losses: list = field(default_factory=list)
    evals: list = field(default_factory=list)
    epoch_seconds: list = field(default_factory=list)


class Trainer(TrainedModel):
    """A model in training: adds the rng streams, the initial parameters,
    the optimizer state and the triplet sampler's inputs."""

    INIT_SCALE = 0.1  # standard deviation of the initial embeddings

    def __init__(self, cfg: RunConfig, graph=None, labels=None):
        super().__init__(cfg, graph, labels)
        graph = self.graph
        root = Rng(cfg.seed)
        self.rngs = {name: root.derive(name)
                     for name in ("init", "triplets", "diffusion")}

        init_rng = self.rngs["init"]
        e0 = init_rng.derive("e0").normal(graph.num_nodes, cfg.encoder.dim) * self.INIT_SCALE
        denoiser = None
        if self.plan.diffusion_sides:
            denoiser = DenoiserParams.init(cfg.encoder.dim, cfg.diffusion.steps,
                                           init_rng.derive("denoiser"))
        classifier = None
        if cfg.task == "node":
            classifier = ClassifierParams.init(cfg.encoder.dim, self.labels.n_classes,
                                               init_rng.derive("classifier"))
        self.params = ModelParams(e0, denoiser, classifier)
        self.adam = {key: AdamState.for_param(arr, lr=cfg.lr)
                     for key, arr in self.params.arrays().items()}

        if cfg.task == "link":
            rel = self.train_graph.relations[graph.target]
            self.train_edges = rel.edges
            if cfg.epochs > 0 and self.train_edges.shape[0] == 0:
                raise ConfigError("leave-one-out split left no training edges; "
                                  "the dataset is too sparse to train on")
            self.user_type, self.item_type = rel.src_type, rel.dst_type
            self.positives = positive_keys(rel.edges, graph.node_counts[rel.dst_type])

    # -- helpers

    def draw_epoch(self) -> EpochDraws:
        cfg, plan = self.cfg, self.plan
        side_t, side_noise = {}, {}
        rng = self.rngs["diffusion"]
        for side in plan.diffusion_sides:
            n = self.graph.node_counts[side]
            if plan.dae:
                side_t[side] = self.schedule.steps
            else:  # one step for the side, or one per row
                side_t[side] = rng.integers(1, self.schedule.steps + 1,
                                            size=n if cfg.diffusion.per_row_t else None)
            side_noise[side] = rng.standard_normal((n, cfg.encoder.dim))
        triplets = None
        if cfg.task == "link":
            triplets = sample_triplets(
                self.train_edges, self.graph.node_counts[self.item_type],
                self.graph.offset(self.user_type), self.graph.offset(self.item_type),
                self.rngs["triplets"], positives=self.positives)
        return EpochDraws(side_t, side_noise, triplets)

    def compute_losses(self, draws: EpochDraws, params: ModelParams = None):
        """Pure joint forward/backward for one epoch's draws.

        Returns (total, parts, grads) where grads maps parameter-group names
        to arrays shaped like the parameters.
        """
        cfg, plan = self.cfg, self.plan
        params = params or self.params
        # each array is held only until its last use: an encoder output is
        # rebound to its pooled table, so its per-relation tables go at once,
        # the draws' noise after the forward, the fused table after the task
        # loss, and each side's backward closure once it has run
        e_target, vjp_t = encode_vjp(self.target_adj, params.e0, cfg.encoder)
        e_target = e_target.pooled
        vjp_s = None
        if plan.has_source:
            e_source, vjp_s = encode_vjp(self.aux_adj, params.e0, cfg.encoder)
            e_source = e_source.pooled

        losses, backwards = {}, {}
        for side in plan.diffusion_sides:
            sl = self.graph.type_slice(side)
            # once read, the side's source rows take its prediction, and
            # the fusion then goes over the denoised table
            losses[side], e_source[sl], backwards[side] = diffusion_loss(
                params.denoiser, self.schedule, e_source[sl], e_target[sl],
                t=draws.side_t[side], noise=draws.side_noise[side], autoencoder=plan.dae)
        triplets, draws = draws.triplets, None
        deno = float(np.mean(list(losses.values()))) if losses else 0.0
        fused = fuse(e_target, e_source, out=e_source) if plan.has_source else e_target
        e_target = e_source = None

        clf_grads = None
        if cfg.task == "link":
            main, g_fused = bpr_loss(fused, triplets, chunk=cfg.batch_size)
        else:
            main, g_fused, clf_grads = ce_loss(
                fused, params.classifier, self.split.train,
                row_offset=self.graph.offset(self.cfg.labeled_type))
        del fused

        # with no diffused side deno is 0.0, so lam adds nothing
        total, parts = joint_loss(main, deno, cfg.loss, params.e0)
        parts["total"] = total

        # backward: fusion is an elementwise sum, so g_fused passes through
        # to the target view, and each side's backward adds its rows to it
        # after reading them as its upstream
        if plan.has_source:
            # denoised is the source on every row no side diffuses, so there the
            # source gets g_fused (+ 0.0 maps -0.0 to +0.0, as a sum into zeros)
            g_source = g_fused + 0.0
        acc = params.denoiser.zeros_like() if plan.diffusion_sides else None
        for side in plan.diffusion_sides:
            sl = self.graph.type_slice(side)
            g_source[sl] = 0.0  # the side's backward adds its rows' gradient
            backwards.pop(side)(cfg.loss.lam / len(plan.diffusion_sides), g_fused[sl], acc,
                                g_source[sl], g_fused[sl])
        g_e0 = vjp_t(g_fused)
        del vjp_t, g_fused
        if vjp_s is not None:
            # a += b is a + b bit for bit
            g_e0 += vjp_s(g_source)
        g_e0 += 2.0 * cfg.loss.l2 * params.e0
        # gradients are shaped like the parameters, so they share their names
        return total, parts, ModelParams(g_e0, acc, clf_grads).arrays()

    def run_epoch(self, epoch):
        # handed over with no reference kept, so the step frees the noise
        total, parts, grads = self.compute_losses(self.draw_epoch())
        if not np.isfinite(total):
            raise DivergenceError(epoch, parts)
        self._apply(grads)
        return parts

    def _apply(self, grads):
        for key, arr in self.params.arrays().items():
            adam_step(self.adam[key], arr, grads[key])

    def train(self):
        """Run the epochs; returns (self, TrainTrace), the final report last."""
        cfg = self.cfg
        trace = TrainTrace()
        for epoch in range(1, cfg.epochs + 1):
            started = time.perf_counter()
            parts = self.run_epoch(epoch)
            trace.epoch_seconds.append(time.perf_counter() - started)
            parts["epoch"] = epoch
            trace.losses.append(parts)
            if cfg.eval_every and epoch % cfg.eval_every == 0 and epoch < cfg.epochs:
                trace.evals.append(self.evaluate(epoch=epoch, trace=trace))
        trace.evals.append(self.evaluate(epoch=cfg.epochs, trace=trace))
        return self, trace


def train(cfg: RunConfig, graph=None, labels=None):
    """Run a full training job; returns (TrainedModel, TrainTrace)."""
    return Trainer(cfg, graph=graph, labels=labels).train()


# ------------------------------------------------------------------ runners


def run_ablation(cfg: RunConfig, variants=None, graph=None, labels=None):
    """Train each variant on identical data and seed; one report each. With
    no `variants`, every variant this data accepts (:func:`accepted_variants`)."""
    # names are checked before any data loads, and plans before any training
    configs = None if variants is None else {v: replace(cfg, variant=v) for v in variants}
    if graph is None:
        graph, labels = load_dataset(cfg)
    if configs is None:
        configs = {v: replace(cfg, variant=v) for v in accepted_variants(cfg, graph)}
    for variant_cfg in configs.values():
        resolve_variant(variant_cfg, graph)
    return {variant: train(variant_cfg, graph=graph, labels=labels)[1].evals[-1]
            for variant, variant_cfg in configs.items()}


@dataclass
class NoiseRobustnessResult:
    ratios: tuple
    relations: tuple
    clean: EvalReport
    noisy_reports: dict        # (relation, ratio) -> EvalReport
    retention: dict            # (relation, ratio) -> {metric: percent}

    def table_lines(self, metric_names=None):
        """Per-relation rows with one (Recall, NDCG) column pair per ratio."""
        metric_names = metric_names or list(self.clean.metrics)
        header = ["relation"]
        for ratio in self.ratios:
            for m in metric_names:
                header.append(f"{int(round(ratio * 100))}%:{m}")
        rows = [header]
        for rel in self.relations:
            row = [rel]
            for ratio in self.ratios:
                cell = self.retention[(rel, ratio)]
                for m in metric_names:
                    row.append("n/a" if cell.get(m) is None else f"{cell[m]:.2f}%")
            rows.append(row)
        widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
        return ["  ".join(cell.ljust(w) for cell, w in zip(r, widths)) for r in rows]


def run_noise_robustness(cfg: RunConfig, ratios, graph=None, labels=None):
    """Retrain per (auxiliary relation, ratio) on a noised copy of the data and
    report metric retention as a percentage of the clean run."""
    ratios = tuple(ratios)
    if any(not 0.0 <= r <= 1.0 for r in ratios):
        raise ConfigError("noise ratios must lie in [0,1]")
    if graph is None:
        graph, labels = load_dataset(cfg)
    relations = tuple(graph.auxiliary_names())
    if not relations:
        raise ConfigError("noise robustness needs auxiliary relations")
    _, clean_trace = train(cfg, graph=graph, labels=labels)
    clean = clean_trace.evals[-1]
    noisy_reports, retention = {}, {}
    for rel in relations:
        for ratio in ratios:
            if ratio == 0.0:
                noisy_reports[(rel, ratio)] = clean
                retention[(rel, ratio)] = {m: 100.0 for m in clean.metrics}
                continue
            noise_seed = Rng(cfg.seed).derive(f"noise:{rel}:{ratio}").integers(0, 2 ** 31)
            noised = inject_edge_noise(graph, NoiseSpec(rel, ratio, int(noise_seed)))
            _, trace = train(cfg, graph=noised, labels=labels)
            report = trace.evals[-1]
            noisy_reports[(rel, ratio)] = report
            retention[(rel, ratio)] = {
                m: (100.0 * report.metrics[m] / clean.metrics[m]
                    if clean.metrics.get(m) not in (None, 0.0)
                       and report.metrics.get(m) is not None else None)
                for m in clean.metrics}
    return NoiseRobustnessResult(ratios, relations, clean, noisy_reports, retention)


# ------------------------------------------------------------------ export


def export_embeddings(model: TrainedModel, path, table="fused"):
    """Write one embedding row per node: `node_id node_type tag v1..vd`.

    The header records the dimension and the node-type offsets so files are
    self-describing; floats print via repr and round-trip exactly.
    """
    tables = model.inference_tables()
    if table not in tables:
        raise ConfigError(f"unknown table {table!r}; have {sorted(tables)}")
    data = tables[table]
    graph = model.graph
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"#dim {data.shape[1]}\n")
        offsets = " ".join(f"{t}={graph.offset(t)}" for t in graph.node_counts)
        fh.write(f"#offsets {offsets}\n")
        fh.write(f"#tag {table}\n")
        for node_type, count in graph.node_counts.items():
            base = graph.offset(node_type)
            for i in range(count):
                vec = " ".join(repr(float(v)) for v in data[base + i])
                fh.write(f"{i} {node_type} {table} {vec}\n")
    return path

