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

from .numerics import Rng, ShapeError, map_blocks, row_blocks, scatter_add


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

    def effective_infer_steps(self):
        return self.steps if self.infer_steps is None else self.infer_steps


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

    def alpha_bar_before(self, t):
        self._check_t(t)
        return 1.0 if t == 1 else self.alpha_bar[t - 2]

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


def q_sample(h0, t, schedule: DiffusionSchedule, rng: Rng = None, noise=None):
    """Closed-form corruption to step t: sqrt(a_bar)*h0 + sqrt(1-a_bar)*noise.

    `t` is one step for the whole batch, or an array with one step per row.
    """
    h0 = np.asarray(h0, dtype=np.float64)
    if np.ndim(t) == 0:
        ab = schedule.alpha_bar_at(int(t))
    else:
        ab = _alpha_bar_rows(schedule, t, h0.shape[0])[:, None]
    if noise is None:
        if rng is None:
            raise ValueError("q_sample needs an rng or injected noise")
        noise = rng.standard_normal(h0.shape)
    else:
        noise = np.asarray(noise, dtype=np.float64)
        if noise.shape != h0.shape:
            raise ShapeError(f"noise {noise.shape} vs rows {h0.shape}")
    return np.sqrt(ab) * h0 + np.sqrt(1.0 - ab) * noise


def _alpha_bar_rows(schedule, t, n_rows):
    t = np.asarray(t, dtype=np.int64)
    if t.shape != (n_rows,):
        raise ShapeError(f"per-row steps {t.shape} vs {n_rows} rows")
    if t.min() < 1 or t.max() > schedule.steps:
        raise ShapeError(f"steps outside 1..{schedule.steps}")
    return schedule.alpha_bar[t - 1]


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


@dataclass
class DenoiserParams:
    """Two-layer denoiser weights plus the learnable step-embedding table."""

    w1: np.ndarray  # (2d, d)
    b1: np.ndarray  # (d,)
    w2: np.ndarray  # (d, d)
    b2: np.ndarray  # (d,)
    time_emb: np.ndarray  # (T, d)
    slope: float = 0.2  # leaky_relu slope; the forward needs 0 <= slope <= 1

    @classmethod
    def init(cls, dim, steps, rng: Rng, scale=0.01):
        # identity-leaning start: at mild corruption the optimal clean-signal
        # predictor is near the identity on its input, so the input block of
        # the first layer and the output layer begin at I plus a small jitter
        w1 = np.zeros((2 * dim, dim))
        w1[:dim] = np.eye(dim)
        return cls(
            w1=w1 + rng.normal(2 * dim, dim) * scale,
            b1=np.zeros(dim),
            w2=np.eye(dim) + rng.normal(dim, dim) * scale,
            b2=np.zeros(dim),
            time_emb=sinusoidal_table(steps, dim),
        )

    @property
    def dim(self):
        return self.b2.size

    def arrays(self):
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2,
                "time_emb": self.time_emb}

    def copy(self):
        return DenoiserParams(self.w1.copy(), self.b1.copy(), self.w2.copy(),
                              self.b2.copy(), self.time_emb.copy(), self.slope)


def _denoise_forward(params: DenoiserParams, h_t, t):
    """The denoiser's one forward pass, shared by inference and training.

    Returns (x, pre, hidden, out) where x = h_t || s_t is the first layer's
    input, pre its pre-activation, hidden = leaky_relu(pre) and out the
    prediction. A scalar `t` writes its single step-embedding row into the
    time half of x by broadcast instead of gathering one row per input row.
    """
    h_t = np.asarray(h_t, dtype=np.float64)
    d = params.dim
    if h_t.ndim != 2 or h_t.shape[1] != d:
        raise ShapeError(f"expected rows of width {d}, got {h_t.shape}")
    steps = params.time_emb.shape[0]
    x = np.empty((h_t.shape[0], 2 * d))
    x[:, :d] = h_t
    if np.ndim(t) == 0:
        if not 1 <= t <= steps:
            raise ShapeError(f"step {t} outside 1..{steps}")
        x[:, d:] = params.time_emb[int(t) - 1]
    else:
        t_rows = np.asarray(t, dtype=np.int64)
        if t_rows.shape != (h_t.shape[0],):
            raise ShapeError(f"per-row steps {t_rows.shape} vs {h_t.shape[0]} rows")
        if t_rows.size and (t_rows.min() < 1 or t_rows.max() > steps):
            raise ShapeError(f"steps outside 1..{steps}")
        x[:, d:] = params.time_emb[t_rows - 1]
    pre = x @ params.w1
    pre += params.b1
    # leaky_relu(pre) equals max(pre, slope*pre) bit for bit, signed zeros
    # included, only while 0 <= slope <= 1 (DenoiserParams.slope is 0.2)
    hidden = np.multiply(pre, params.slope)
    np.maximum(pre, hidden, out=hidden)
    out = hidden @ params.w2
    out += params.b2
    return x, pre, hidden, out


def denoise_predict(params: DenoiserParams, h_t, t):
    """Predict clean rows from corrupted rows at step t (scalar or per-row),
    forward only: linear(leaky_relu(linear(h_t || s_t))) per row."""
    return _denoise_forward(params, h_t, t)[3]


def denoise_predict_vjp(params: DenoiserParams, h_t, t):
    """:func:`denoise_predict` plus a closure mapping upstream gradients to
    (gradients as DenoiserParams, d/d h_t)."""
    x, pre, hidden, out = _denoise_forward(params, h_t, t)
    # the backward needs only where the pre-activation is below 0 or NaN,
    # so the closure keeps that bool mask instead of the float rows
    sloped = ~(pre >= 0)
    d = params.dim
    # the step-embedding gradient accumulates row by row in row order
    t_rows = np.full(x.shape[0], int(t), dtype=np.int64) if np.ndim(t) == 0 \
        else np.asarray(t, dtype=np.int64)

    def vjp(upstream):
        g = np.asarray(upstream, dtype=np.float64)
        g_b2 = g.sum(axis=0)
        g_w2 = hidden.T @ g
        g_hidden = g @ params.w2.T
        g_pre = g_hidden * np.where(sloped, params.slope, 1.0)
        g_b1 = g_pre.sum(axis=0)
        g_w1 = x.T @ g_pre
        g_x = g_pre @ params.w1.T
        g_temb = scatter_add(t_rows - 1, g_x[:, d:], params.time_emb.shape[0])
        return DenoiserParams(g_w1, g_b1, g_w2, g_b2, g_temb), g_x[:, :d]

    return out, vjp


def loss_weight(schedule: DiffusionSchedule, t):
    """Variational coefficient for step t; step 1 is the unweighted
    reconstruction term."""
    if t == 1:
        return 1.0
    ab_prev = schedule.alpha_bar_before(t)
    ab = schedule.alpha_bar_at(t)
    return 0.5 * (ab_prev / (1.0 - ab_prev) - ab / (1.0 - ab))


def _loss_weight_rows(schedule, t_rows):
    ab = schedule.alpha_bar[t_rows - 1]
    # dummy finite value for t=1 rows, masked out below
    ab_prev = np.where(t_rows > 1, schedule.alpha_bar[np.maximum(t_rows - 2, 0)], 0.5)
    snr_gap = 0.5 * (ab_prev / (1.0 - ab_prev) - ab / (1.0 - ab))
    return np.where(t_rows == 1, 1.0, snr_gap)


@dataclass
class DiffusionLossResult:
    loss: float
    denoised: np.ndarray       # clean-signal prediction for the sampled step
    grads: DenoiserParams      # gradients, shaped like the parameters
    grad_source: np.ndarray
    grad_target: np.ndarray    # label slot is an encoder output, so it gets one
    predict_vjp: object        # reusable closure for extra upstream gradients
    scale: float               # sqrt(alpha_bar_t), chains h_t grads to source


def diffusion_loss(params: DenoiserParams, schedule: DiffusionSchedule,
                   source, target, t, noise):
    """Step-weighted squared error between the denoiser's clean-signal
    prediction and the target rows, with gradients for the denoiser and the
    source embeddings.

    `t` is one step for the batch or one per row, and `noise` the corruption
    noise; the caller draws both.
    """
    source = np.asarray(source, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if source.shape != target.shape:
        raise ShapeError(f"source {source.shape} vs target {target.shape}")
    n = source.shape[0]
    if n == 0:
        raise ShapeError("empty batch")
    h_t = q_sample(source, t, schedule, noise=noise)
    pred, vjp = denoise_predict_vjp(params, h_t, t)
    diff = pred - target
    if np.ndim(t) == 0:
        w_rows = loss_weight(schedule, t)
        scale = math.sqrt(schedule.alpha_bar_at(t))
    else:
        w_rows = _loss_weight_rows(schedule, np.asarray(t, dtype=np.int64))[:, None]
        scale = np.sqrt(_alpha_bar_rows(schedule, t, n))[:, None]
    loss = float((w_rows * diff * diff).sum()) / n
    g_pred = (2.0 / n) * w_rows * diff
    grads, g_ht = vjp(g_pred)
    return DiffusionLossResult(loss, pred, grads, scale * g_ht, -g_pred, vjp, scale)


# rows per block of the reverse walk, ~2 MB of working set at d = 32: two
# workers walked mid-link's sides fastest at 768-2048 rows, one at 512
_WALK_ROWS = 1024


def reverse_denoise(params: DenoiserParams, schedule: DiffusionSchedule,
                    source, infer_steps, rng: Rng = None):
    """Corrupt the source rows to the requested step, then walk the posterior
    mean back to step zero. No sampling noise is added on the way down, so the
    output is a deterministic function of (params, source, corruption noise).

    All rows are corrupted by one draw. Each of the :func:`numerics.row_blocks`
    of about `_WALK_ROWS` rows then takes every step down to step 2 on a
    :func:`numerics.map_blocks` worker, and the final step-1 prediction runs
    over all rows at once, bit for bit as the whole-array walk.
    """
    source = np.asarray(source, dtype=np.float64)
    if not 0 <= infer_steps <= schedule.steps:
        raise ShapeError(f"inference steps {infer_steps} outside 0..{schedule.steps}")
    if infer_steps == 0:
        return source.copy()
    h = q_sample(source, infer_steps, schedule, rng=rng)
    walk = []
    for t in range(infer_steps, 1, -1):
        ab = schedule.alpha_bar_at(t)
        ab_prev = schedule.alpha_bar_before(t)
        coef_pred = math.sqrt(ab_prev) * schedule.beta_at(t) / (1.0 - ab)
        coef_h = math.sqrt(schedule.alpha_at(t)) * (1.0 - ab_prev) / (1.0 - ab)
        walk.append((t, coef_h, coef_pred))

    def walk_block(block):
        # a view of q_sample's fresh array, walked in place
        for t, coef_h, coef_pred in walk:
            pred = _denoise_forward(params, block, t)[3]
            # coef_h*h + coef_pred*pred bit for bit (addition commutes)
            block *= coef_h
            block += coef_pred * pred

    if walk:
        map_blocks(walk_block, row_blocks(h, _WALK_ROWS))
    # looked up as a module global in the caller's thread, so a caller may
    # replace it
    return denoise_predict(params, h, 1)
