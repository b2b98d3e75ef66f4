"""Relation-wise graph convolution encoder.

Each relation runs L rounds of (normalized propagation, activation, per-row
l2 normalization); the multi-order sum keeps the layer-0 input alive, and a
pooling step merges the per-relation tables. Gradients with respect to the
initial embeddings are hand-derived and certified by finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hetgraph import GraphError, HeteroGraph, RelationAdjacency, normalize, split_target_auxiliary
from .numerics import ShapeError, spmm


@dataclass
class EncoderConfig:
    layers: int = 3
    dim: int = 32
    activation: str = "leaky_relu"  # or "identity"
    leaky_slope: float = 0.2
    pooling: str = "mean"  # or "sum"
    shared_initial: bool = True

    def __post_init__(self):
        if self.layers < 0 or self.dim < 1:
            raise ShapeError("need layers >= 0 and dim >= 1")
        if self.activation not in ("leaky_relu", "identity"):
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.pooling not in ("mean", "sum"):
            raise ValueError(f"unknown pooling {self.pooling!r}")


@dataclass
class EncoderOutput:
    per_relation: dict
    pooled: np.ndarray


def _activate(x, cfg):
    if cfg.activation == "identity":
        return x
    return np.where(x >= 0, x, cfg.leaky_slope * x)


def _activate_grad(x, cfg):
    if cfg.activation == "identity":
        return np.ones_like(x)
    return np.where(x >= 0, 1.0, cfg.leaky_slope)


def _row_normalize(z):
    norms = np.sqrt((z * z).sum(axis=1))
    scale = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
    return z * scale[:, None], norms


def _row_normalize_vjp(z, norms, upstream):
    # y = z / |z| per row; dL/dz = (u - y (u.y)) / |z|, zero rows pass nothing
    out = np.zeros_like(z)
    nz = norms > 0
    if np.any(nz):
        y = z[nz] / norms[nz, None]
        u = upstream[nz]
        out[nz] = (u - y * (u * y).sum(axis=1, keepdims=True)) / norms[nz, None]
    return out


def propagate_relation(adj: RelationAdjacency, e0, cfg: EncoderConfig,
                       collect_layers=False):
    """Multi-order propagation sum for one relation: e0 plus L refined layers."""
    e0 = np.asarray(e0, dtype=np.float64)
    if e0.shape[0] != adj.normalized.rows:
        raise ShapeError(f"embedding rows {e0.shape[0]} vs adjacency {adj.normalized.rows}")
    total = e0.copy()
    layers = [e0]
    prev = e0
    for _ in range(cfg.layers):
        z = _activate(spmm(adj.normalized, prev), cfg)
        prev, _ = _row_normalize(z)
        total += prev
        if collect_layers:
            layers.append(prev)
    if collect_layers:
        return total, layers
    return total


def propagate_relation_vjp(adj: RelationAdjacency, e0, cfg: EncoderConfig):
    """Forward pass plus a closure mapping upstream gradients to d/d e0."""
    e0 = np.asarray(e0, dtype=np.float64)
    if e0.shape[0] != adj.normalized.rows:
        raise ShapeError(f"embedding rows {e0.shape[0]} vs adjacency {adj.normalized.rows}")
    pre_acts, pre_norms, norms = [], [], []
    total = e0.copy()
    prev = e0
    for _ in range(cfg.layers):
        x = spmm(adj.normalized, prev)
        z = _activate(x, cfg)
        prev, n = _row_normalize(z)
        pre_acts.append(x)
        pre_norms.append(z)
        norms.append(n)
        total += prev

    def vjp(upstream):
        # every layer output feeds the sum directly, deeper layers also chain
        g = np.asarray(upstream, dtype=np.float64)
        chain = np.zeros_like(g)
        for l in range(cfg.layers - 1, -1, -1):
            g_layer = g + chain
            g_z = _row_normalize_vjp(pre_norms[l], norms[l], g_layer)
            g_x = g_z * _activate_grad(pre_acts[l], cfg)
            # the normalized adjacency is its own transpose (see normalize)
            chain = spmm(adj.normalized, g_x)
        return g + chain

    return total, vjp


def encode(adjacencies, e0, cfg: EncoderConfig) -> EncoderOutput:
    """Propagate every relation then pool elementwise across relations.

    `e0` is one shared table, or a mapping relation name -> table when
    per-relation initial embeddings are configured.
    """
    out, _ = encode_vjp(adjacencies, e0, cfg)
    return out


def encode_vjp(adjacencies, e0, cfg: EncoderConfig):
    if not adjacencies:
        raise GraphError("encode needs at least one relation")
    names = list(adjacencies)
    shared = not isinstance(e0, dict)
    tables = {}
    vjps = {}
    for name in names:
        base = e0 if shared else e0[name]
        tables[name], vjps[name] = propagate_relation_vjp(adjacencies[name], base, cfg)
    stack = np.stack([tables[n] for n in names])
    pooled = stack.mean(axis=0) if cfg.pooling == "mean" else stack.sum(axis=0)

    def vjp(upstream):
        branch = upstream / len(names) if cfg.pooling == "mean" else upstream
        if shared:
            total = np.zeros_like(np.asarray(upstream, dtype=np.float64))
            for name in names:
                total += vjps[name](branch)
            return total
        return {name: vjps[name](branch) for name in names}

    return EncoderOutput(tables, pooled), vjp


def relation_adjacencies(g: HeteroGraph, self_loops=False):
    return {name: normalize(g, name, self_loops=self_loops) for name in g.relations}


def encode_views(g: HeteroGraph, e0, cfg: EncoderConfig, adjacencies=None):
    """Target-view and source-view embeddings from one shared initial table.

    Returns ((target EncoderOutput, vjp), (source EncoderOutput, vjp)).
    """
    target_graph, aux_graph = split_target_auxiliary(g)
    if adjacencies is None:
        adjacencies = relation_adjacencies(g)
    target_adj = {g.target: adjacencies[g.target]}
    aux_adj = {n: adjacencies[n] for n in aux_graph.relations}
    return encode_vjp(target_adj, e0, cfg), encode_vjp(aux_adj, e0, cfg)
