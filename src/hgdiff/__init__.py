"""hgdiff: heterogeneous graph learning with latent-space diffusion denoising.

The package splits a typed multi-relation graph into a target view (the
relation the task is defined on) and an auxiliary source view, encodes both
with a relation-wise graph convolution, and trains a small diffusion model
to translate source-view embeddings into the target semantic space. Fused
embeddings drive link prediction (pairwise ranking) or node classification,
with experiment harnesses for ablations, noise robustness, and sparsity
breakdowns.
"""

from .diffusion import DiffusionConfig, DiffusionSchedule, build_schedule
from .encoder import EncoderConfig, encode
from .harness import (
    EvalReport,
    RunConfig,
    SyntheticSpec,
    TrainedModel,
    export_embeddings,
    run_ablation,
    run_noise_robustness,
    train,
)
from .hetgraph import (
    HeteroGraph,
    LabelSet,
    NoiseSpec,
    Relation,
    generate_synthetic,
    inject_edge_noise,
    load_edge_list,
    load_labels,
    load_schema,
    normalize,
)
from .numerics import Rng
from .tasks import JointLossConfig

__version__ = "0.1.0"

__all__ = [
    "DiffusionConfig", "DiffusionSchedule", "build_schedule",
    "EncoderConfig", "encode",
    "EvalReport", "RunConfig", "SyntheticSpec", "TrainedModel",
    "export_embeddings", "run_ablation", "run_noise_robustness", "train",
    "HeteroGraph", "LabelSet", "NoiseSpec", "Relation",
    "generate_synthetic", "inject_edge_noise", "load_edge_list",
    "load_labels", "load_schema", "normalize",
    "Rng", "JointLossConfig",
]
