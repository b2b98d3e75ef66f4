"""Latent diffusion: schedule, closed-form corruption, denoiser, losses, reverse.

The forward process corrupts source-view embeddings toward Gaussian noise on
a schedule interpolated between two endpoint retention levels. A two-layer
MLP conditioned on a learnable per-step embedding predicts the clean signal
(x0 parameterization); training weights its squared error by the variational
bound coefficient, and inference runs deterministic posterior-mean iteration
from a corrupted source embedding back to step zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import LEAKY_SLOPE, Rng, ShapeError, map_blocks, row_blocks, scatter_add


class ScheduleError(ValueError):
    """Schedule hyperparameters that cannot yield a valid noise sequence."""


@dataclass
class DiffusionConfig:
    steps: int = 100
    b_max: float = 1.0 - 1e-4
    b_min: float = 1.0 - 1e-3
    infer_steps: int | None = None
    per_row_t: bool = False

    def __post_init__(self):
        if self.steps < 1:
            raise ScheduleError("need at least one diffusion step")
        if not (0.0 < self.b_min <= self.b_max < 1.0):
            raise ScheduleError(
                f"need 0 < b_min <= b_max < 1, got ({self.b_min}, {self.b_max})")
        if self.infer_steps is not None and not (0 <= self.infer_steps <= self.steps):
            raise ScheduleError("inference steps must lie in [0, steps]")

    @classmethod
    def from_noise_scale(cls, scale, steps=100, **kw):
        """Map a scalar noise scale S to endpoints (1-S, 1-10S), clamped."""
        b_max = min(1.0 - 1e-12, max(1e-12, 1.0 - scale))
        b_min = min(b_max, max(1e-12, 1.0 - 10.0 * scale))
        return cls(steps=steps, b_max=b_max, b_min=b_min, **kw)


@dataclass
class DiffusionSchedule:
    """Precomputed per-step noise arrays, 1-indexed semantics in 0-based storage.

    b has length T+1 with b[0] = 1; beta/alpha/alpha_bar have length T where
    index t-1 holds the step-t value. alpha_bar telescopes back to b.
    """

    steps: int
    b: np.ndarray
    beta: np.ndarray
    alpha: np.ndarray
    alpha_bar: np.ndarray

    def alpha_bar_at(self, t):
        self._check_t(t)
        return self.alpha_bar[t - 1]

    def beta_at(self, t):
        self._check_t(t)
        return self.beta[t - 1]

    def alpha_at(self, t):
        self._check_t(t)
        return self.alpha[t - 1]

    def _check_t(self, t):
        if not 1 <= t <= self.steps:
            raise ShapeError(f"step {t} outside 1..{self.steps}")


def build_schedule(cfg: DiffusionConfig) -> DiffusionSchedule:
    """Interpolate retention levels, then derive step noise and its products."""
    if cfg.steps > 1 and cfg.b_min == cfg.b_max:
        raise ScheduleError("b_min must be strictly below b_max for multi-step schedules")
    b = np.empty(cfg.steps + 1)
    b[0] = 1.0
    b[1:] = np.linspace(cfg.b_max, cfg.b_min, cfg.steps)
    beta = 1.0 - b[1:] / b[:-1]
    alpha = 1.0 - beta
    alpha_bar = np.cumprod(alpha)
    if np.any(beta <= 0) or np.any(beta >= 1):
        raise ScheduleError("step noise left (0,1); check endpoint ordering")
    return DiffusionSchedule(cfg.steps, b, beta, alpha, alpha_bar)


def _step_vector(t, n_rows, steps):
    """`t` as an int64 vector of integer steps in 1..steps, of length 1 (one
    step that every row takes by broadcast) or `n_rows` (one step per row)."""
    t_rows = np.asarray(t)
    if t_rows.dtype.kind not in "iu" or t_rows.ndim > 1:
        raise ShapeError(f"steps must be an integer or 1-d integer array, not {t!r}")
    t_rows = t_rows.astype(np.int64, copy=False).reshape(-1)
    if t_rows.size not in (1, n_rows):
        raise ShapeError(f"per-row steps {t_rows.shape} vs {n_rows} rows")
    bad = t_rows[(t_rows < 1) | (t_rows > steps)]
    if bad.size:
        raise ShapeError(f"step {bad[0]} outside 1..{steps}")
    return t_rows


def _corruption(schedule, t, n_rows, keep_signal):
    """Column factors (signal, noise) of corrupting `n_rows` rows at step t."""
    ab = schedule.alpha_bar[_step_vector(t, n_rows, schedule.steps) - 1][:, None]
    return 1.0 if keep_signal else np.sqrt(ab), np.sqrt(1.0 - ab)


def q_sample(h0, t, schedule: DiffusionSchedule, rng: Rng = None, noise=None,
             keep_signal=False):
    """Closed-form corruption to step t: sqrt(a_bar)*h0 + sqrt(1-a_bar)*noise.

    `t` is one step for the whole batch, or an array with one step per row.
    `keep_signal` keeps h0 at full scale: the autoencoder variant's input.
    """
    h0 = np.asarray(h0, dtype=np.float64)
    signal, spread = _corruption(schedule, t, len(h0), keep_signal)
    if noise is None:
        if rng is None:
            raise ValueError("q_sample needs an rng or injected noise")
        noise = rng.standard_normal(h0.shape)
    else:
        noise = np.asarray(noise, dtype=np.float64)
        if noise.shape != h0.shape:
            raise ShapeError(f"noise {noise.shape} vs rows {h0.shape}")
    return signal * h0 + spread * noise


def sinusoidal_table(steps, dim):
    """Transformer-style position encoding used to initialize step embeddings."""
    table = np.zeros((steps, dim))
    pos = np.arange(1, steps + 1)[:, None].astype(np.float64)
    half = (dim + 1) // 2
    freqs = np.exp(-math.log(10000.0) * np.arange(half) / max(1, half))
    args = pos * freqs[None, :]
    table[:, 0::2] = np.sin(args)[:, : (dim + 1) // 2]
    table[:, 1::2] = np.cos(args)[:, : dim // 2]
    return table


_INIT_JITTER = 0.01  # scale of the Gaussian jitter on the initial weights


@dataclass
class DenoiserParams:
    """Two-layer denoiser weights plus the learnable step-embedding table."""

    w1: np.ndarray  # (2d, d)
    b1: np.ndarray  # (d,)
    w2: np.ndarray  # (d, d)
    b2: np.ndarray  # (d,)
    time_emb: np.ndarray  # (T, d)

    @classmethod
    def init(cls, dim, steps, rng: Rng):
        # identity-leaning start: at mild corruption the optimal clean-signal
        # predictor is near the identity on its input, so the input block of
        # the first layer and the output layer begin at I plus a small jitter
        w1 = np.zeros((2 * dim, dim))
        w1[:dim] = np.eye(dim)
        return cls(
            w1=w1 + rng.normal(2 * dim, dim) * _INIT_JITTER,
            b1=np.zeros(dim),
            w2=np.eye(dim) + rng.normal(dim, dim) * _INIT_JITTER,
            b2=np.zeros(dim),
            time_emb=sinusoidal_table(steps, dim),
        )

    @property
    def dim(self):
        return self.b2.size

    def arrays(self):
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2,
                "time_emb": self.time_emb}

    def zeros_like(self):
        return DenoiserParams(**{name: np.zeros_like(arr) for name, arr in self.arrays().items()})


def _layer_input(params: DenoiserParams, h_t, t_rows):
    """The first layer's input x = h_t || s_t. `t_rows` is a checked
    :func:`_step_vector`; one of length 1 writes its single step-embedding
    row into the time half of x by broadcast instead of gathering one row
    per input row."""
    d = params.dim
    x = np.empty((h_t.shape[0], 2 * d))
    x[:, :d] = h_t
    x[:, d:] = params.time_emb[t_rows - 1]
    return x


def _denoise_forward(params: DenoiserParams, h_t, t_rows):
    """The denoiser's one forward pass, shared by inference and training.

    Returns (x, pre, hidden, out) where x = h_t || s_t is the first layer's
    input (see :func:`_layer_input`), pre its pre-activation, hidden =
    leaky_relu(pre) and out the prediction.
    """
    h_t = np.asarray(h_t, dtype=np.float64)
    d = params.dim
    if h_t.ndim != 2 or h_t.shape[1] != d:
        raise ShapeError(f"expected rows of width {d}, got {h_t.shape}")
    x = _layer_input(params, h_t, t_rows)
    pre = x @ params.w1
    pre += params.b1
    # leaky ReLU as max(pre, slope * pre) (see LEAKY_SLOPE)
    hidden = np.multiply(pre, LEAKY_SLOPE)
    np.maximum(pre, hidden, out=hidden)
    out = hidden @ params.w2
    out += params.b2
    return x, pre, hidden, out


def denoise_predict(params: DenoiserParams, h_t, t):
    """Predict clean rows from corrupted rows at step t (scalar or per-row),
    forward only: linear(leaky_relu(linear(h_t || s_t))) per row."""
    t_rows = _step_vector(t, len(h_t), params.time_emb.shape[0])
    return _denoise_forward(params, h_t, t_rows)[3]


def denoise_predict_vjp(params: DenoiserParams, h_t, t):
    """:func:`denoise_predict` plus a closure mapping upstream gradients to
    (gradients as DenoiserParams, d/d h_t)."""
    t_rows = _step_vector(t, len(h_t), params.time_emb.shape[0])
    x, pre, hidden, out = _denoise_forward(params, h_t, t_rows)
    # the backward needs only where the pre-activation is below 0 or NaN,
    # so the closure keeps that bool mask instead of the float rows, and
    # it keeps h_t, not x, rebuilding x when the weight gradient needs it
    sloped = ~(pre >= 0)
    d = params.dim
    h_t = x[:, :d].copy()
    del x, pre
    # the step-embedding gradient accumulates row by row in row order
    t_all = np.broadcast_to(t_rows, h_t.shape[:1])

    def vjp(upstream):
        g = np.asarray(upstream, dtype=np.float64)
        g_b2 = g.sum(axis=0)
        g_w2 = hidden.T @ g
        # the hidden gradient, scaled in place into the pre-activation's
        g_pre = g @ params.w2.T
        g_pre *= np.where(sloped, LEAKY_SLOPE, 1.0)
        g_b1 = g_pre.sum(axis=0)
        g_w1 = _layer_input(params, h_t, t_rows).T @ g_pre
        g_x = g_pre @ params.w1.T
        del g_pre
        g_temb = scatter_add(t_all - 1, g_x[:, d:], params.time_emb.shape[0])
        return DenoiserParams(g_w1, g_b1, g_w2, g_b2, g_temb), g_x[:, :d]

    return out, vjp


def loss_weight(schedule: DiffusionSchedule, t):
    """Variational coefficient of step t, a scalar for one step and an array
    for an array of steps; step 1 is the unweighted reconstruction term."""
    t_rows = _step_vector(t, np.size(t), schedule.steps)
    ab = schedule.alpha_bar[t_rows - 1]
    # dummy finite value for t=1 rows, masked out below
    ab_prev = np.where(t_rows > 1, schedule.alpha_bar[np.maximum(t_rows - 2, 0)], 0.5)
    snr_gap = 0.5 * (ab_prev / (1.0 - ab_prev) - ab / (1.0 - ab))
    return np.where(t_rows == 1, 1.0, snr_gap).reshape(np.shape(t))[()]


def diffusion_loss(params: DenoiserParams, schedule: DiffusionSchedule,
                   source, target, t, noise, autoencoder=False):
    """Step-weighted squared error between the denoiser's clean-signal
    prediction and the target rows; returns (loss, prediction, backward).

    `t` is one step for the batch or one per row, and `noise` the corruption
    noise; the caller draws both. `autoencoder` gives the DAE variant's loss,
    taken at step T: weight 1, with the signal kept at full scale.
    ``backward(weight, upstream, grads, g_source, g_target)`` adds the
    gradients of ``weight * loss + <upstream, prediction>`` in place into
    `grads` (a :class:`DenoiserParams`) and the source and target rows'
    gradients: the loss's VJP runs there, then the upstream's if nonzero.
    It writes `g_target` last, so that may be `upstream` itself."""
    source = np.asarray(source, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if source.shape != target.shape:
        raise ShapeError(f"source {source.shape} vs target {target.shape}")
    n = source.shape[0]
    if n == 0:
        raise ShapeError("empty batch")
    # the closure keeps its own copy of the corrupted rows
    pred, vjp = denoise_predict_vjp(
        params, q_sample(source, t, schedule, noise=noise, keep_signal=autoencoder), t)
    diff = pred - target
    w_rows = 1.0 if autoencoder else np.reshape(loss_weight(schedule, t), (-1, 1))
    scale = _corruption(schedule, t, n, autoencoder)[0]  # d h_t / d source
    loss = float((w_rows * diff * diff).sum()) / n
    g_pred = (2.0 / n) * w_rows * diff
    del diff

    def backward(weight, upstream, grads, g_source, g_target):
        parts = [(weight, g_pred)]
        if np.any(upstream):
            parts.append((1.0, upstream))  # 1.0 * x is x bit for bit
        for w, g in parts:
            step_grads, g_h = vjp(g)
            for name, arr in step_grads.arrays().items():
                grads.arrays()[name] += w * arr
            g_source += w * (scale * g_h)
            # g_h views the VJP's (rows, 2d) output: freed before the next
            del step_grads, g_h
        g_target += weight * -g_pred

    return loss, pred, backward


# rows per block of the reverse walk, ~2 MB of working set at d = 32: two
# workers walked mid-link's sides fastest at 768-2048 rows, one at 512
_WALK_ROWS = 1024


def reverse_denoise(params: DenoiserParams, schedule: DiffusionSchedule,
                    sides, infer_steps, rng: Rng, autoencoder=False):
    """Corrupt each side's rows to step `infer_steps` (None: T), then walk the
    posterior mean back to step zero. No sampling noise is added on the way
    down, so the output is a deterministic function of (params, rows,
    corruption noise).

    `sides` maps each side's name to its rows, and the result maps the same
    names to the walked rows; each side is corrupted from its own stream
    ``rng.derive(name)``. The corrupted rows of all sides are stacked and
    walked together: each of the :func:`numerics.row_blocks` of about
    `_WALK_ROWS` rows takes every step down to step 2 on a
    :func:`numerics.map_blocks` worker, and the final step-1 prediction runs
    over all rows at once. A product's rows round alike in any block of two
    or more rows, so this is bit for bit each side walked alone, except a
    side of one row, which alone takes the one-row BLAS path.

    `autoencoder` gives the DAE variant's one-shot prediction at step T from
    its loss's full-scale corruption instead, and ignores `infer_steps`.
    """
    rows = [np.asarray(part, dtype=np.float64) for part in sides.values()]
    t = schedule.steps if autoencoder or infer_steps is None else infer_steps
    if t == 0:
        return {name: part.copy() for name, part in zip(sides, rows)}
    # any step outside 1..T is refused here, before the walk
    h = np.concatenate([q_sample(part, t, schedule, rng=rng.derive(name),
                                 keep_signal=autoencoder)
                        for name, part in zip(sides, rows)])
    # the walk's steps, checked at once in the calling thread; each step
    # hands the forward its own length-1 slice
    down = np.arange(1 if autoencoder else t, 1, -1)
    t_walk = _step_vector(down, down.size, params.time_emb.shape[0])
    ab, ab_prev = schedule.alpha_bar[t_walk - 1], schedule.alpha_bar[t_walk - 2]
    coef_pred = np.sqrt(ab_prev) * schedule.beta[t_walk - 1] / (1.0 - ab)
    coef_h = np.sqrt(schedule.alpha[t_walk - 1]) * (1.0 - ab_prev) / (1.0 - ab)
    walk = [(t_walk[i:i + 1], coef_h[i], coef_pred[i]) for i in range(t_walk.size)]

    def walk_block(block):
        # a view of the stacked corrupted rows, walked in place
        for t_rows, coef_h, coef_pred in walk:
            pred = _denoise_forward(params, block, t_rows)[3]
            # coef_h*h + coef_pred*pred bit for bit (addition commutes)
            block *= coef_h
            block += coef_pred * pred

    if walk:
        map_blocks(walk_block, row_blocks(h, _WALK_ROWS))
    # looked up as a module global in the caller's thread, so a caller
    # may replace it
    pred = denoise_predict(params, h, t if autoencoder else 1)
    return dict(zip(sides, np.split(pred, np.cumsum([len(part) for part in rows[:-1]]))))
