"""Relation-wise graph convolution encoder.

Each relation runs L rounds of (normalized propagation, activation, per-row
l2 normalization); the multi-order sum keeps the layer-0 input alive, and a
pooling step merges the per-relation tables. Gradients with respect to the
initial embeddings are hand-derived and certified by finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hetgraph import GraphError, HeteroGraph, RelationAdjacency, normalize
from .numerics import ShapeError, spmm


@dataclass
class EncoderConfig:
    layers: int = 3
    dim: int = 32
    activation: str = "leaky_relu"  # or "identity"
    leaky_slope: float = 0.2  # in [0, 1]: the forward takes max(x, slope * x)
    pooling: str = "mean"  # or "sum"

    def __post_init__(self):
        if self.layers < 0 or self.dim < 1:
            raise ShapeError("need layers >= 0 and dim >= 1")
        if self.activation not in ("leaky_relu", "identity"):
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.pooling not in ("mean", "sum"):
            raise ValueError(f"unknown pooling {self.pooling!r}")
        if not 0.0 <= self.leaky_slope <= 1.0:
            raise ValueError(f"leaky_slope must be in [0, 1], got {self.leaky_slope!r}")


@dataclass
class EncoderOutput:
    per_relation: dict
    pooled: np.ndarray


def _activate(x, cfg):
    if cfg.activation == "identity":
        return x
    # leaky_relu(x) equals max(x, slope*x) bit for bit, signed zeros
    # included, while 0 <= slope <= 1 (EncoderConfig checks it)
    z = np.multiply(x, cfg.leaky_slope)
    return np.maximum(x, z, out=z)


def _row_normalize(z):
    norms = np.sqrt((z * z).sum(axis=1))
    scale = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
    return z * scale[:, None], norms


def _row_normalize_vjp(z, norms, upstream):
    """Gradient through y = z / |z| per row, (u - y (u.y)) / |z|, written
    over `upstream` and returned; rows of norm 0 pass exactly 0."""
    nz = norms > 0
    # rows of norm 0 divide by 1 here and are zeroed at the end
    safe = np.where(nz, norms, 1.0)[:, None]
    y = z / safe
    dot = (upstream * y).sum(axis=1, keepdims=True)
    upstream -= np.multiply(y, dot, out=y)
    upstream /= safe
    if not nz.all():
        upstream[~nz] = 0.0
    return upstream


def _propagate(adj: RelationAdjacency, e0, cfg: EncoderConfig, outputs=None, saved=None):
    """The one forward pass of a relation: e0 plus the sum of L refined layers.

    Appends each layer's output to `outputs` and its (pre-activation,
    activation, row norms) to `saved` when those lists are given; the
    backward needs only `saved`, so a forward-only call keeps nothing.
    """
    e0 = np.asarray(e0, dtype=np.float64)
    if e0.shape[0] != adj.normalized.rows:
        raise ShapeError(f"embedding rows {e0.shape[0]} vs adjacency {adj.normalized.rows}")
    total = e0.copy()
    prev = e0
    for _ in range(cfg.layers):
        x = spmm(adj.normalized, prev)
        z = _activate(x, cfg)
        prev, norms = _row_normalize(z)
        total += prev
        if outputs is not None:
            outputs.append(prev)
        if saved is not None:
            saved.append((x, z, norms))
    return total


def propagate_relation(adj: RelationAdjacency, e0, cfg: EncoderConfig,
                       collect_layers=False):
    """Multi-order propagation sum for one relation: e0 plus L refined layers."""
    if not collect_layers:
        return _propagate(adj, e0, cfg)
    layers = [np.asarray(e0, dtype=np.float64)]
    return _propagate(adj, e0, cfg, outputs=layers), layers


def propagate_relation_vjp(adj: RelationAdjacency, e0, cfg: EncoderConfig):
    """Forward pass plus a closure mapping upstream gradients to d/d e0."""
    saved = []
    total = _propagate(adj, e0, cfg, saved=saved)

    def vjp(upstream):
        # every layer output feeds the sum directly, deeper layers also chain
        g = np.asarray(upstream, dtype=np.float64)
        chain = np.zeros_like(g)
        for x, z, norms in reversed(saved):
            chain += g  # equals g + chain: addition commutes bit for bit
            g_x = _row_normalize_vjp(z, norms, chain)
            if cfg.activation != "identity":
                # the slope where x < 0 or NaN, as np.where(x >= 0, g, slope * g)
                np.multiply(g_x, cfg.leaky_slope, out=g_x, where=~(x >= 0))
            # the normalized adjacency is its own transpose (see normalize)
            chain = spmm(adj.normalized, g_x)
        return g + chain

    return total, vjp


def _pool(tables, cfg: EncoderConfig) -> EncoderOutput:
    if not tables:
        raise GraphError("encode needs at least one relation")
    stack = np.stack(list(tables.values()))
    pooled = stack.mean(axis=0) if cfg.pooling == "mean" else stack.sum(axis=0)
    return EncoderOutput(tables, pooled)


def encode(adjacencies, e0, cfg: EncoderConfig) -> EncoderOutput:
    """Propagate every relation from one shared initial table, then pool
    elementwise across relations."""
    return _pool({name: _propagate(adj, e0, cfg) for name, adj in adjacencies.items()},
                 cfg)


def encode_vjp(adjacencies, e0, cfg: EncoderConfig):
    """:func:`encode` plus a closure mapping upstream gradients of the pooled
    table to d/d e0."""
    packs = {name: propagate_relation_vjp(adj, e0, cfg) for name, adj in adjacencies.items()}
    out = _pool({name: table for name, (table, _) in packs.items()}, cfg)

    def vjp(upstream):
        branch = upstream / len(packs) if cfg.pooling == "mean" else upstream
        total = np.zeros_like(np.asarray(upstream, dtype=np.float64))
        for _, back in packs.values():
            total += back(branch)
        return total

    return out, vjp


def relation_adjacencies(g: HeteroGraph, self_loops=False):
    return {name: normalize(g, name, self_loops=self_loops) for name in g.relations}
