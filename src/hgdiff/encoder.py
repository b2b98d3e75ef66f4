"""Relation-wise graph convolution encoder.

Each relation runs L rounds of (normalized propagation, leaky ReLU, per-row
l2 normalization); the multi-order sum keeps the layer-0 input alive, and the
elementwise mean merges the per-relation tables. Gradients with respect to the
initial embeddings are hand-derived and certified by finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hetgraph import GraphError, HeteroGraph, normalize
from .numerics import LEAKY_SLOPE, CsrMatrix, ShapeError, spmm


@dataclass
class EncoderConfig:
    layers: int = 3
    dim: int = 32

    def __post_init__(self):
        if self.layers < 0 or self.dim < 1:
            raise ShapeError("need layers >= 0 and dim >= 1")


@dataclass
class EncoderOutput:
    per_relation: dict
    pooled: np.ndarray


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


def _propagate(adj: CsrMatrix, e0, cfg: EncoderConfig, outputs=None, saved=None):
    """The one forward pass of a relation: e0 plus the sum of L refined layers.

    Appends each layer's output to `outputs` and its (slope mask,
    activation, row norms) to `saved` when those lists are given; the
    backward needs only `saved`, so a forward-only call keeps nothing. The
    slope mask is ``~(x >= 0)`` of the pre-activation x, True where x < 0 or
    NaN, packed 8 entries a byte by np.packbits.
    """
    e0 = np.asarray(e0, dtype=np.float64)
    if e0.shape[0] != adj.rows:
        raise ShapeError(f"embedding rows {e0.shape[0]} vs adjacency {adj.rows}")
    total = e0.copy()
    prev = e0
    scratch = np.empty_like(e0)
    for _ in range(cfg.layers):
        x = spmm(adj, prev)
        sloped = np.packbits(~(x >= 0)) if saved is not None else None
        # leaky ReLU written over the pre-activation (see LEAKY_SLOPE)
        z = np.maximum(x, np.multiply(x, LEAKY_SLOPE, out=scratch), out=x)
        prev, norms = _row_normalize(z)
        total += prev
        if outputs is not None:
            outputs.append(prev)
        if saved is not None:
            saved.append((sloped, z, norms))
    return total


def propagate_relation(adj: CsrMatrix, e0, cfg: EncoderConfig,
                       collect_layers=False):
    """Multi-order propagation sum for one relation: e0 plus L refined layers."""
    if not collect_layers:
        return _propagate(adj, e0, cfg)
    layers = [np.asarray(e0, dtype=np.float64)]
    return _propagate(adj, e0, cfg, outputs=layers), layers


def propagate_relation_vjp(adj: CsrMatrix, e0, cfg: EncoderConfig):
    """Forward pass plus a closure mapping upstream gradients to d/d e0."""
    saved = []
    total = _propagate(adj, e0, cfg, saved=saved)

    def vjp(upstream):
        # every layer output feeds the sum directly, deeper layers also chain
        g = np.asarray(upstream, dtype=np.float64)
        chain = np.zeros_like(g)
        for sloped, z, norms in reversed(saved):
            chain += g  # equals g + chain: addition commutes bit for bit
            g_x = _row_normalize_vjp(z, norms, chain)
            sloped = np.unpackbits(sloped, count=z.size).view(bool).reshape(z.shape)
            # g * 1.0 is g, so this is np.where(x >= 0, g, slope * g)
            g_x *= np.where(sloped, LEAKY_SLOPE, 1.0)
            # the normalized adjacency is its own transpose (see normalize)
            chain = spmm(adj, g_x)
        return g + chain

    return total, vjp


def _pool(tables) -> EncoderOutput:
    """Mean of the relation tables, bit for bit ``np.stack(...).mean(axis=0)``
    without the (R, N, d) stack: like numpy's reduction, the sum starts from
    +0.0 (so an entry that is -0.0 in every table pools to +0.0) and adds the
    tables in relation order before dividing by R."""
    if not tables:
        raise GraphError("encode needs at least one relation")
    pooled = np.zeros_like(next(iter(tables.values())))
    for table in tables.values():
        pooled += table
    pooled /= len(tables)
    return EncoderOutput(tables, pooled)


def encode(adjacencies, e0, cfg: EncoderConfig) -> EncoderOutput:
    """Propagate every relation from one shared initial table, then pool
    elementwise across relations."""
    return _pool({name: _propagate(adj, e0, cfg) for name, adj in adjacencies.items()})


def encode_vjp(adjacencies, e0, cfg: EncoderConfig):
    """:func:`encode` plus a closure mapping upstream gradients of the pooled
    table to d/d e0."""
    tables, backs = {}, []
    for name, adj in adjacencies.items():
        tables[name], back = propagate_relation_vjp(adj, e0, cfg)
        backs.append(back)
    # the closure keeps only the backward state, so a caller that drops the
    # output frees the relation tables
    out = _pool(tables)

    def vjp(upstream):
        # x / 1 is x, so one relation takes the upstream itself
        branch = upstream if len(backs) == 1 else upstream / len(backs)
        # the sum starts from +0.0 as _pool's does: r + 0.0 is 0.0 + r
        total = backs[0](branch)
        total += 0.0
        for back in backs[1:]:
            total += back(branch)
        return total

    return out, vjp


def relation_adjacencies(g: HeteroGraph):
    return {name: normalize(g, name) for name in g.relations}
