import math
import sys
from dataclasses import replace

import numpy as np
import pytest

import hgdiff.diffusion as diffusion
from hgdiff.diffusion import (
    DenoiserParams,
    DiffusionConfig,
    ScheduleError,
    build_schedule,
    denoise_predict,
    diffusion_loss,
    loss_weight,
    q_sample,
    reverse_denoise,
    sinusoidal_table,
)
from hgdiff.numerics import LEAKY_SLOPE, Rng, ShapeError, grad_check

from conftest import WORKER_COUNTS


def small_schedule():
    return build_schedule(DiffusionConfig(steps=2, b_max=0.99, b_min=0.98))


class TestSchedule:
    def test_two_step_values(self):
        s = small_schedule()
        assert abs(s.beta[0] - 0.01) < 1e-12
        assert abs(s.beta[1] - (1 - 0.98 / 0.99)) < 1e-12
        assert abs(s.alpha_bar[0] - 0.99) < 1e-12
        assert abs(s.alpha_bar[1] - 0.98) < 1e-12

    def test_single_step(self):
        s = build_schedule(DiffusionConfig(steps=1, b_max=0.9, b_min=0.9))
        assert abs(s.beta[0] - 0.1) < 1e-12
        assert s.alpha_bar.shape == (1,)

    def test_product_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            steps = int(rng.integers(1, 251))
            b_max = float(rng.uniform(0.5, 0.9999))
            b_min = float(rng.uniform(0.05, b_max)) if steps > 1 else b_max
            if steps > 1 and b_min == b_max:
                b_min = b_max * 0.9
            s = build_schedule(DiffusionConfig(steps=steps, b_max=b_max, b_min=b_min))
            explicit = np.array([np.prod(s.alpha[: t + 1]) for t in range(steps)])
            assert np.max(np.abs(s.alpha_bar - explicit)) < 1e-12
            # telescoping: cumulative retention equals the interpolated level
            assert np.max(np.abs(s.alpha_bar - s.b[1:])) < 1e-12
            assert np.all(s.beta > 0) and np.all(s.beta < 1)
            if steps > 1:
                assert np.all(np.diff(s.alpha_bar) < 0)

    def test_bad_configs_rejected(self):
        with pytest.raises(ScheduleError):
            DiffusionConfig(steps=2, b_max=0.5, b_min=0.9)
        with pytest.raises(ScheduleError):
            DiffusionConfig(steps=2, b_max=1.0, b_min=0.5)
        with pytest.raises(ScheduleError):
            build_schedule(DiffusionConfig(steps=3, b_max=0.7, b_min=0.7))

    def test_noise_scale_preset(self):
        cfg = DiffusionConfig.from_noise_scale(1e-4, steps=10)
        assert abs(cfg.b_max - (1 - 1e-4)) < 1e-15
        assert abs(cfg.b_min - (1 - 1e-3)) < 1e-15
        build_schedule(cfg)


class TestQSample:
    def test_zero_noise_scaling(self):
        s = small_schedule()
        h0 = np.ones((3, 4))
        out = q_sample(h0, 2, s, noise=np.zeros((3, 4)))
        assert np.allclose(out, math.sqrt(0.98))

    def test_heavy_corruption_is_standard_normal(self):
        s = build_schedule(DiffusionConfig(steps=50, b_max=0.9, b_min=1e-4))
        h0 = np.full((100_000, 1), 0.7)
        out = q_sample(h0, 50, s, rng=Rng(17))
        mu = math.sqrt(s.alpha_bar[-1]) * 0.7
        assert abs(out.mean() - mu) < 3 / math.sqrt(100_000)
        assert abs(out.var() - (1 - s.alpha_bar[-1])) < 0.02

    def test_recursive_matches_closed_form_moments(self):
        s = build_schedule(DiffusionConfig(steps=5, b_max=0.9, b_min=0.5))
        n = 10_000
        h0 = np.full((n, 1), 1.3)
        for t in (2, 3, 5):
            rng = Rng(40 + t)
            h = h0.copy()
            for step in range(1, t + 1):
                xi = rng.standard_normal(h.shape)
                h = math.sqrt(s.alpha_at(step)) * h + math.sqrt(s.beta_at(step)) * xi
            direct = q_sample(h0, t, s, rng=Rng(99 + t))
            ab = s.alpha_bar_at(t)
            mu, var = math.sqrt(ab) * 1.3, 1 - ab
            se_mean = 3 * math.sqrt(var / n)
            se_var = 3 * var * math.sqrt(2 / (n - 1))
            for sample in (h, direct):
                assert abs(sample.mean() - mu) < se_mean
                assert abs(sample.var() - var) < se_var

    def test_out_of_range_t(self):
        s = small_schedule()
        with pytest.raises(ShapeError):
            q_sample(np.ones((2, 2)), 3, s, noise=np.zeros((2, 2)))
        with pytest.raises(ShapeError):
            q_sample(np.ones((2, 2)), 0, s, noise=np.zeros((2, 2)))


def reference_predict(params, h_t, t):
    """Reference denoiser: gathered step rows, a concatenated layer input
    and np.where for the activation."""
    t_rows = np.full(h_t.shape[0], t) if np.ndim(t) == 0 else np.asarray(t)
    x = np.concatenate([h_t, params.time_emb[t_rows - 1]], axis=1)
    pre = x @ params.w1 + params.b1
    hidden = np.where(pre >= 0, pre, LEAKY_SLOPE * pre)
    return hidden @ params.w2 + params.b2


def reference_predict_vjp(params, h_t, t, upstream):
    """Reference denoiser backward: the float pre-activation kept and
    np.where for the activation's slope."""
    t_rows = np.full(h_t.shape[0], t) if np.ndim(t) == 0 else np.asarray(t)
    x = np.concatenate([h_t, params.time_emb[t_rows - 1]], axis=1)
    pre = x @ params.w1 + params.b1
    hidden = np.where(pre >= 0, pre, LEAKY_SLOPE * pre)
    g_pre = (upstream @ params.w2.T) * np.where(pre >= 0, 1.0, LEAKY_SLOPE)
    g_x = g_pre @ params.w1.T
    g_temb = np.zeros_like(params.time_emb)
    np.add.at(g_temb, t_rows - 1, g_x[:, h_t.shape[1]:])
    grads = DenoiserParams(x.T @ g_pre, g_pre.sum(axis=0), hidden.T @ upstream,
                           upstream.sum(axis=0), g_temb)
    return grads, g_x[:, :h_t.shape[1]]


def walk(params, schedule, rows, infer_steps, rng, **kw):
    """:func:`reverse_denoise` of one side, "x", corrupted from
    ``rng.derive("x")``."""
    return reverse_denoise(params, schedule, {"x": rows}, infer_steps, rng=rng, **kw)["x"]


def reference_reverse(params, schedule, source, infer_steps, rng):
    """Reverse walk of the side :func:`walk` takes, with a fresh array per
    step."""
    h = q_sample(source, infer_steps, schedule, rng=rng.derive("x"))
    for t in range(infer_steps, 0, -1):
        pred = denoise_predict(params, h, t)
        if t == 1:
            return pred
        ab = schedule.alpha_bar_at(t)
        ab_prev = schedule.alpha_bar[t - 2]  # t > 1 here
        coef_pred = math.sqrt(ab_prev) * schedule.beta_at(t) / (1.0 - ab)
        coef_h = math.sqrt(schedule.alpha_at(t)) * (1.0 - ab_prev) / (1.0 - ab)
        h = coef_pred * pred + coef_h * h


def hook_walk_forward(monkeypatch, predict):
    """Replace the denoiser forward that the reverse walk calls at every step
    with ``predict(first_row, params, h, t_rows)``, where `t_rows` is the
    checked step vector the forward is given: one step for all rows. Each
    step-t > 1 call is recorded as (rows, t) under the first row of its
    block, because calls from worker threads interleave while those of one
    block do not; the final step-1 calls are recorded apart as (first row,
    rows)."""
    calls = {"blocks": {}, "final": []}

    def forward(params, h, t_rows):
        (t,) = t_rows
        base = h if h.base is None else h.base
        first = (h.ctypes.data - base.ctypes.data) // h.strides[0]
        if t == 1:
            calls["final"].append((first, h.shape[0]))
        else:
            calls["blocks"].setdefault(first, []).append((h.shape[0], int(t)))
        return None, None, None, predict(first, params, h, t_rows)

    monkeypatch.setattr(diffusion, "_denoise_forward", forward)
    return calls


def zero_denoiser(dim, steps, constant=0.0):
    return DenoiserParams(
        w1=np.zeros((2 * dim, dim)), b1=np.zeros(dim),
        w2=np.zeros((dim, dim)), b2=np.full(dim, constant),
        time_emb=sinusoidal_table(steps, dim),
    )


class TestDenoiser:
    def test_constant_network(self):
        params = zero_denoiser(3, steps=4, constant=2.5)
        for t in (1, 4):
            out = denoise_predict(params, Rng(t).normal(5, 3), t)
            assert np.allclose(out, 2.5)

    def test_time_conditioning_changes_output(self):
        rng = Rng(8)
        params = DenoiserParams.init(4, steps=6, rng=rng)
        h = rng.normal(3, 4)
        assert np.any(denoise_predict(params, h, 1) != denoise_predict(params, h, 5))

    def test_scalar_hand_case(self):
        params = DenoiserParams(
            w1=np.array([[0.5], [-0.25]]), b1=np.array([0.1]),
            w2=np.array([[2.0]]), b2=np.array([-0.3]),
            time_emb=np.array([[0.4], [0.8]]),
        )
        x, s = 1.5, 0.8  # t=2 row of the table
        pre = 0.5 * x - 0.25 * s + 0.1
        hidden = pre if pre >= 0 else 0.2 * pre
        expect = 2.0 * hidden - 0.3
        out = denoise_predict(params, np.array([[x]]), 2)
        assert abs(out[0, 0] - expect) < 1e-15

    @pytest.mark.parametrize("dim", [3, 32])
    def test_forward_matches_vjp_and_reference(self, dim):
        steps = 10
        rng = Rng(dim)
        random = DenoiserParams.init(dim, steps, rng)
        random.w1 = random.w1 + rng.normal(2 * dim, dim)
        # a zero first layer makes pre equal b1: exact zeros and negatives
        flat = zero_denoiser(dim, steps)
        flat.b1 = np.tile([0.0, -1.5, 2.0], dim)[:dim]
        flat.w2 = rng.normal(dim, dim)
        for params in (random, flat):
            for rows in (1, 9):
                h = rng.normal(rows, dim)
                per_row = np.asarray(rng.integers(1, steps + 1, size=rows))
                for t in (1, steps // 2, steps, per_row):
                    out = denoise_predict(params, h, t)
                    assert np.array_equal(out, diffusion.denoise_predict_vjp(params, h, t)[0])
                    assert np.array_equal(out, reference_predict(params, h, t))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_vjp_matches_reference(self):
        dim, steps, rows = 4, 6, 9
        rng = Rng(71)
        random = DenoiserParams.init(dim, steps, rng)
        random.w1 = random.w1 + rng.normal(2 * dim, dim)
        flat = zero_denoiser(dim, steps)  # pre equals b1: exact zeros and negatives
        flat.b1 = np.array([0.0, -1.5, 2.0, -0.0])
        flat.w2 = rng.normal(dim, dim)
        h = rng.normal(rows, dim)
        h[2, 1] = np.nan  # NaN pre-activations in row 2 of the random network
        upstream = rng.normal(rows, dim)
        for params in (random, flat):
            for t in (3, np.asarray(rng.integers(1, steps + 1, size=rows))):
                _, vjp = diffusion.denoise_predict_vjp(params, h, t)
                grads, g_h = vjp(upstream)
                ref_grads, ref_g_h = reference_predict_vjp(params, h, t, upstream)
                assert np.array_equal(g_h.view(np.int64), ref_g_h.view(np.int64))
                for name, arr in grads.arrays().items():
                    ref = ref_grads.arrays()[name]
                    assert np.array_equal(arr.view(np.int64), ref.view(np.int64)), name

    @pytest.mark.parametrize("per_row", [False, True])
    def test_vjp_keeps_no_float_pre_activation(self, allocations, per_row):
        rows, dim, steps = 300, 16, 10
        rng = Rng(72)
        params = DenoiserParams.init(dim, steps, rng)
        h = rng.normal(rows, dim)
        t = np.asarray(rng.integers(1, steps + 1, size=rows)) if per_row else 4
        (out, vjp), _, held = allocations(diffusion.denoise_predict_vjp, params, h, t)
        # the closure's arrays are a copy of the rows, the hidden activation,
        # a bool slope mask and the integer steps, nothing else
        arrays = [c.cell_contents for c in vjp.__closure__
                  if isinstance(c.cell_contents, np.ndarray)]
        floats = sorted(a.shape for a in arrays if a.dtype == np.float64)
        assert floats == [(rows, dim), (rows, dim)]
        assert not any(np.shares_memory(a, h) for a in arrays)
        assert [a.shape for a in arrays if a.dtype == bool] == [(rows, dim)]
        assert all(a.dtype.kind in "iu" and a.ndim == 1 for a in arrays
                   if a.dtype not in (np.float64, bool))
        # the output, the rows, hidden and the mask; keeping the layer input
        # h_t || s_t would add a table, a float64 pre-activation 8 bytes per
        # hidden entry
        table = rows * dim * 8
        assert held < table + table + table + rows * dim + rows * 8 + 4096, held
        # the backward reads its own copy of the rows, not the caller's
        h[:] = np.nan
        upstream = rng.normal(rows, dim)
        kept = upstream.copy()
        first, peak, _ = allocations(vjp, upstream)
        # the hidden gradient is scaled in place into the pre-activation's,
        # which is freed before the step-embedding scatter: a separate array
        # for each, or one living to the end, would take one more table
        assert peak < 6 * table, peak / table
        second = vjp(upstream)
        assert np.array_equal(upstream.view(np.int64), kept.view(np.int64))
        assert np.array_equal(first[1].view(np.int64), second[1].view(np.int64))
        for name, arr in first[0].arrays().items():
            assert np.array_equal(arr.view(np.int64),
                                  second[0].arrays()[name].view(np.int64)), name

    def test_shape_rejection(self):
        params = zero_denoiser(3, steps=2)
        with pytest.raises(ShapeError):
            denoise_predict(params, np.ones((2, 4)), 1)
        with pytest.raises(ShapeError):
            denoise_predict(params, np.ones((2, 3)), 3)


def backward_into_zeros(params, s, source, target, t, noise, weight=1.0, upstream=None,
                        autoencoder=False):
    """diffusion_loss with its backward run into zero accumulators: (loss,
    prediction, denoiser gradients, source gradient, target gradient)."""
    loss, pred, backward = diffusion_loss(params, s, source, target, t=t, noise=noise,
                                          autoencoder=autoencoder)
    grads, g_source, g_target = params.zeros_like(), np.zeros_like(source), np.zeros_like(target)
    backward(weight, np.zeros_like(pred) if upstream is None else upstream,
             grads, g_source, g_target)
    return loss, pred, grads, g_source, g_target


def reference_backward(params, s, source, target, t, noise, autoencoder,
                       weight, upstream, grads, g_source, g_target):
    """diffusion_loss and its backward written out from denoise_predict_vjp:
    the loss's VJP and the upstream's, each added in that order."""
    pred, vjp = diffusion.denoise_predict_vjp(
        params, q_sample(source, t, s, noise=noise, keep_signal=autoencoder), t)
    n = source.shape[0]
    w_rows = 1.0 if autoencoder else np.reshape(loss_weight(s, t), (-1, 1))
    scale = 1.0 if autoencoder else np.sqrt(s.alpha_bar[np.reshape(t, (-1, 1)) - 1])
    diff = pred - target
    g_pred = (2.0 / n) * w_rows * diff
    loss_grads, g_h = vjp(g_pred)
    for name, arr in loss_grads.arrays().items():
        grads.arrays()[name] += weight * arr
    g_source += weight * (scale * g_h)
    if np.any(upstream):
        extra, g_h = vjp(upstream)
        for name, arr in extra.arrays().items():
            grads.arrays()[name] += arr
        g_source += scale * g_h
    g_target += weight * -g_pred
    return float((w_rows * diff * diff).sum()) / n, pred


class TestDiffusionLoss:
    def test_weight_anchor(self):
        s = small_schedule()
        assert abs(loss_weight(s, 2) - 25.0) < 1e-9
        assert loss_weight(s, 1) == 1.0
        # one formula: an array of steps gets each step's own weight
        steps = np.array([2, 1, 2])
        assert np.array_equal(loss_weight(s, steps), [loss_weight(s, t) for t in steps])

    def test_perfect_reconstruction_zero_loss(self):
        params = zero_denoiser(3, steps=2, constant=0.7)
        target = np.full((6, 3), 0.7)
        source = Rng(1).normal(6, 3)
        s = small_schedule()
        for t in (1, 2):
            loss, _, _ = diffusion_loss(params, s, source, target, t=t,
                                        noise=np.zeros((6, 3)))
            assert loss == 0.0

    def test_loss_positive(self):
        s = small_schedule()
        rng = Rng(2)
        params = DenoiserParams.init(3, 2, rng)
        source, target = rng.normal(5, 3), rng.normal(5, 3)
        t = int(rng.integers(1, s.steps + 1))
        loss, _, _ = diffusion_loss(params, s, source, target, t=t,
                                    noise=rng.standard_normal((5, 3)))
        assert loss > 0

    def test_loss_nonnegative_random_sweep(self):
        s = build_schedule(DiffusionConfig(steps=12, b_max=0.97, b_min=0.4))
        rng = Rng(33)
        for trial in range(30):
            params = DenoiserParams.init(3, 12, rng.derive(f"p{trial}"))
            source, target = rng.normal(4, 3), rng.normal(4, 3)
            t = rng.integers(1, 13, size=4) if trial % 2 else int(rng.integers(1, 13))
            loss, _, _ = diffusion_loss(params, s, source, target, t=t,
                                        noise=rng.standard_normal((4, 3)))
            assert loss >= 0.0

    def test_per_row_t_matches_scalar_when_uniform(self):
        # a single step broadcasts its one step-embedding row, where equal
        # per-row steps gather one row per input row; the bits must agree
        s = build_schedule(DiffusionConfig.from_noise_scale(1e-4, steps=100))
        bits = lambda a: np.asarray(a, dtype=np.float64).view(np.int64)
        for n in (7, 1000, 8000):
            rng = Rng(34 + n)
            params = DenoiserParams.init(4, 100, rng)
            params.w1 = params.w1 + rng.normal(8, 4)
            source, target = rng.normal(n, 4), rng.normal(n, 4)
            noise = rng.standard_normal((n, 4))
            upstream = rng.normal(n, 4)
            for t in (1, 2, 37, 100):
                # the loss's backward alone, then the upstream's alone
                for weight, up in ((1.0, None), (0.0, upstream)):
                    scalar, vector = (
                        backward_into_zeros(params, s, source, target, steps, noise,
                                            weight=weight, upstream=up)
                        for steps in (t, np.full(n, t)))
                    assert bits(scalar[0]) == bits(vector[0]), (n, t)
                    for i in (1, 3, 4):  # prediction, source and target gradients
                        assert np.array_equal(bits(scalar[i]), bits(vector[i])), (n, t, i)
                    for name, arr in scalar[2].arrays().items():
                        assert np.array_equal(bits(arr), bits(vector[2].arrays()[name])), \
                            (n, t, name)

    @pytest.mark.parametrize("case", ["scalar", "per_row", "dae"])
    def test_backward_matches_reference_bit_for_bit(self, monkeypatch, case):
        s = build_schedule(DiffusionConfig(steps=6, b_max=0.95, b_min=0.6))
        rng = Rng(36)
        params = DenoiserParams.init(4, 6, rng)
        params.w1 = params.w1 + rng.normal(8, 4)
        n = 9
        source, target = rng.normal(n, 4), rng.normal(n, 4)
        noise = rng.standard_normal((n, 4))
        t = {"scalar": 3, "per_row": rng.integers(1, 7, size=n), "dae": 6}[case]
        autoencoder = case == "dae"
        calls = []
        real = diffusion.denoise_predict_vjp

        def counted(*args):
            out, vjp = real(*args)
            return out, lambda g: calls.append(1) or vjp(g)

        monkeypatch.setattr(diffusion, "denoise_predict_vjp", counted)
        bits = lambda a: np.asarray(a, dtype=np.float64).view(np.int64)
        for weight in (0.0, 0.7):
            # an all-zero upstream, a nonzero one, and the target rows
            # themselves, as compute_losses passes them
            for upstream in (np.zeros((n, 4)), rng.normal(n, 4), "target"):
                # nonzero accumulators, and the side's rows inside larger tables
                start = {name: rng.normal(arr.size, 1).reshape(arr.shape)
                         for name, arr in params.arrays().items()}
                start["source"], start["target"] = rng.normal(n + 3, 4), rng.normal(n + 3, 4)
                got, want = ({k: v.copy() for k, v in start.items()} for _ in range(2))
                got_grads, want_grads = (
                    DenoiserParams(**{k: a[k] for k in params.arrays()}) for a in (got, want))
                calls.clear()
                loss, pred, backward = diffusion_loss(params, s, source, target, t=t,
                                                      noise=noise, autoencoder=autoencoder)
                assert calls == []  # the forward runs no VJP
                alias = isinstance(upstream, str)
                got_up = got["target"][2:2 + n] if alias else upstream
                want_up = want["target"][2:2 + n] if alias else upstream
                expect_calls = 2 if np.any(got_up) else 1
                backward(weight, got_up, got_grads,
                         got["source"][2:2 + n], got["target"][2:2 + n])
                assert len(calls) == expect_calls
                ref_loss, ref_pred = reference_backward(
                    params, s, source, target, t, noise, autoencoder, weight, want_up,
                    want_grads, want["source"][2:2 + n], want["target"][2:2 + n])
                assert bits(loss) == bits(ref_loss)
                assert np.array_equal(bits(pred), bits(ref_pred))
                for name in start:
                    assert np.array_equal(bits(got[name]), bits(want[name])), (weight, name)

    def test_per_row_t_gradients_certified(self):
        s = build_schedule(DiffusionConfig(steps=6, b_max=0.95, b_min=0.6))
        rng = Rng(35)
        base = DenoiserParams.init(4, 6, rng)
        source, target = rng.normal(8, 4), rng.normal(8, 4)
        noise = rng.standard_normal((8, 4))
        t_rows = np.asarray(rng.integers(1, 7, size=8), dtype=np.int64)

        def run(params, src):
            return backward_into_zeros(params, s, src, target, t_rows, noise)

        _, _, grads, g_source, _ = run(base, source)
        for name in ("w1", "w2", "time_emb"):
            def f(flat, _n=name):
                p = replace(base, **{_n: flat.reshape(getattr(base, _n).shape)})
                return run(p, source)[0]
            err = grad_check(f, getattr(grads, name), getattr(base, name), h=1e-6)
            assert err < 1e-4, f"{name} per-row grad err {err}"
        err = grad_check(lambda f: run(base, f.reshape(8, 4))[0],
                         g_source, source, h=1e-6)
        assert err < 1e-4

    def test_empty_batch_rejected(self):
        s = small_schedule()
        params = zero_denoiser(2, 2)
        with pytest.raises(ShapeError):
            diffusion_loss(params, s, np.empty((0, 2)), np.empty((0, 2)), t=1,
                           noise=np.empty((0, 2)))

    def test_gradients_certified(self):
        s = build_schedule(DiffusionConfig(steps=6, b_max=0.95, b_min=0.6))
        rng = Rng(3)
        base = DenoiserParams.init(4, 6, rng)
        source = rng.normal(8, 4)
        target = rng.normal(8, 4)
        noise = rng.standard_normal((8, 4))
        t = 4

        def loss_with(params, src):
            return backward_into_zeros(params, s, src, target, t, noise)

        _, _, grads, g_source, _ = loss_with(base, source)

        def param_fn(name):
            def f(flat):
                p = replace(base, **{name: flat.reshape(getattr(base, name).shape)})
                return loss_with(p, source)[0]
            return f

        for name in ("w1", "b1", "w2", "b2", "time_emb"):
            err = grad_check(param_fn(name), getattr(grads, name),
                             getattr(base, name), h=1e-6)
            assert err < 1e-4, f"{name} grad err {err}"

        err = grad_check(lambda f: loss_with(base, f.reshape(8, 4))[0],
                         g_source, source, h=1e-6)
        assert err < 1e-4, f"source grad err {err}"


class TestReverse:
    def test_zero_steps_identity(self):
        s = small_schedule()
        params = zero_denoiser(3, 2)
        src = Rng(4).normal(4, 3)
        out = walk(params, s, src, 0, rng=Rng(5))
        assert np.array_equal(out, src)

    def test_constant_network_collapse(self):
        s = small_schedule()
        params = zero_denoiser(3, 2, constant=1.25)
        out = walk(params, s, Rng(5).normal(4, 3), 1, rng=Rng(6))
        assert np.allclose(out, 1.25)

    def test_perfect_denoiser_recovers_exactly(self, monkeypatch, cpus):
        s = build_schedule(DiffusionConfig(steps=8, b_max=0.95, b_min=0.4))
        truth = Rng(7).normal(11, 3)
        # blocks of 3, 3, 3 and 2 rows, each taken through every step down to
        # step 2 on a worker; the fake serves each block its rows of `truth`
        monkeypatch.setattr(diffusion, "_WALK_ROWS", 3)
        calls = hook_walk_forward(
            monkeypatch, lambda first, p, h, t: truth[first:first + h.shape[0]])
        params = zero_denoiser(3, 8)
        before = truth.copy()
        source = Rng(8).normal(11, 3)
        source_before = source.copy()
        for workers in WORKER_COUNTS:
            cpus(workers)
            for steps in (1, 3, 8):
                calls["blocks"].clear()
                calls["final"].clear()
                out = walk(params, s, source, steps, rng=Rng(9))
                walked = list(range(steps, 1, -1))
                expect = {first: [(size, t) for t in walked]
                          for first, size in ((0, 3), (3, 3), (6, 3), (9, 2))}
                assert calls["blocks"] == (expect if walked else {})
                assert calls["final"] == [(0, 11)]
                assert np.array_equal(out, truth)
        assert np.array_equal(truth, before)
        assert np.array_equal(source, source_before)

    def test_matches_reference_walk(self):
        steps = 12
        s = build_schedule(DiffusionConfig(steps=steps, b_max=0.99, b_min=0.5))
        params = DenoiserParams.init(4, steps, Rng(10))
        source = Rng(11).normal(6, 4)
        for infer in (1, 2, steps):
            out = walk(params, s, source, infer, rng=Rng(12))
            expect = reference_reverse(params, s, source, infer, Rng(12))
            assert np.array_equal(out, expect)

    def test_blocked_walk_matches_full_array_walk(self, monkeypatch):
        steps = 6
        s = build_schedule(DiffusionConfig(steps=steps, b_max=0.99, b_min=0.5))
        params = DenoiserParams.init(4, steps, Rng(13))
        for rows in (2, 3, 8):
            monkeypatch.setattr(diffusion, "_WALK_ROWS", rows)
            for n in range(1, 41):
                source = Rng(n).normal(n, 4)
                out = walk(params, s, source, steps, rng=Rng(14))
                expect = reference_reverse(params, s, source, steps, Rng(14))
                assert np.array_equal(out, expect), (rows, n)

    def test_blocked_walk_matches_at_default_block_size(self):
        # 1025 rows at 1024: two blocks of 513 and 512, never 1024 and 1
        steps = 5
        s = build_schedule(DiffusionConfig(steps=steps, b_max=0.99, b_min=0.5))
        params = DenoiserParams.init(32, steps, Rng(15))
        assert diffusion._WALK_ROWS == 1024
        source = Rng(16).normal(1025, 32)
        out = walk(params, s, source, steps, rng=Rng(17))
        assert np.array_equal(out, reference_reverse(params, s, source, steps, Rng(17)))

    def test_blocks_are_near_equal_and_never_one_row(self, monkeypatch, cpus):
        steps = 3
        s = build_schedule(DiffusionConfig(steps=steps, b_max=0.99, b_min=0.5))
        params = DenoiserParams.init(2, steps, Rng(18))
        real = diffusion._denoise_forward
        calls = hook_walk_forward(monkeypatch, lambda first, p, h, t: real(p, h, t)[3])
        cpus(3)
        for rows in (2, 3, 8, 512):
            monkeypatch.setattr(diffusion, "_WALK_ROWS", rows)
            for n in (*range(1, 41), 513):
                calls["blocks"].clear()
                calls["final"].clear()
                walk(params, s, Rng(n).normal(n, 2), steps, rng=Rng(19))
                blocks = sorted(calls["blocks"].items())
                sizes = [block[0][0] for _, block in blocks]
                for _, block in blocks:
                    assert block == [(block[0][0], 3), (block[0][0], 2)]
                assert [first for first, _ in blocks] == np.cumsum([0] + sizes[:-1]).tolist()
                assert calls["final"] == [(0, n)]
                assert sum(sizes) == n
                assert min(sizes) >= 2 or n == 1, (rows, n, sizes)
                assert max(sizes) - min(sizes) <= 1
                assert len(sizes) == max(1, min(-(-n // rows), n // 2))

    @pytest.mark.parametrize("dim", [4, 32])
    def test_any_worker_count_gives_the_same_bits(self, monkeypatch, cpus, dim):
        steps = 4
        s = build_schedule(DiffusionConfig(steps=steps, b_max=0.99, b_min=0.5))
        params = DenoiserParams.init(dim, steps, Rng(20))
        cases = [(3, n) for n in range(1, 41)] + [(256, 513), (diffusion._WALK_ROWS, 4097)]
        for rows, n in cases:
            monkeypatch.setattr(diffusion, "_WALK_ROWS", rows)
            source = Rng(n).normal(n, dim)
            expect = reference_reverse(params, s, source, steps, Rng(21))
            for workers in WORKER_COUNTS:
                cpus(workers)
                out = walk(params, s, source, steps, rng=Rng(21))
                assert np.array_equal(out, expect), (rows, n, workers)

    @pytest.mark.parametrize("dim", [4, 32])
    def test_sides_walked_together_match_each_side_alone(self, monkeypatch, cpus, dim):
        # each side is corrupted from rng.derive(name) and the stacked rows
        # are cut into blocks that span the sides' boundaries; sides of one
        # row are left out, as alone they take the one-row BLAS path
        steps = 5
        s = build_schedule(DiffusionConfig(steps=steps, b_max=0.99, b_min=0.5))
        params = DenoiserParams.init(dim, steps, Rng(30))
        monkeypatch.setattr(diffusion, "_WALK_ROWS", 4)
        for sizes in ((2, 3), (7, 2, 9), (30, 20), (0, 5)):
            sides = {f"s{i}": Rng(31 + i).normal(n, dim) if n else np.empty((0, dim))
                     for i, n in enumerate(sizes)}
            for infer, autoencoder in ((0, False), (1, False), (3, False), (steps, False),
                                       (None, True)):
                alone = {name: reverse_denoise(params, s, {name: rows}, infer, rng=Rng(32),
                                               autoencoder=autoencoder)[name]
                         for name, rows in sides.items()}
                for workers in (1, 3):
                    cpus(workers)
                    out = reverse_denoise(params, s, sides, infer, rng=Rng(32),
                                          autoencoder=autoencoder)
                    assert list(out) == list(sides)
                    for name in sides:
                        assert np.array_equal(out[name], alone[name]), (sizes, infer, name)

    def test_threaded_walk_repeats_bit_for_bit(self, cpus):
        # five blocks on four workers, concurrent BLAS calls at every step,
        # with the interpreter switching threads as often as it can
        steps = 8
        s = build_schedule(DiffusionConfig(steps=steps, b_max=0.99, b_min=0.5))
        params = DenoiserParams.init(32, steps, Rng(22))
        source = Rng(23).normal(4097, 32)
        cpus(1)
        expect = walk(params, s, source, steps, rng=Rng(24))
        cpus(4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(20):
                out = walk(params, s, source, steps, rng=Rng(24))
                assert np.array_equal(out, expect)
        finally:
            sys.setswitchinterval(interval)

    def test_worker_error_reaches_the_caller(self, monkeypatch, cpus):
        # the block of rows 9-11 fails at step 4, on a worker when there are
        # several
        s = build_schedule(DiffusionConfig(steps=6, b_max=0.99, b_min=0.5))
        params = DenoiserParams.init(4, 6, Rng(25))
        real = diffusion._denoise_forward

        class BlockFailed(Exception):
            pass

        def predict(first, p, h, t_rows):
            if first == 9 and t_rows[0] == 4:
                raise BlockFailed(f"block at row {first}")
            return real(p, h, t_rows)[3]

        hook_walk_forward(monkeypatch, predict)
        monkeypatch.setattr(diffusion, "_WALK_ROWS", 3)
        for workers in WORKER_COUNTS:
            cpus(workers)
            with pytest.raises(BlockFailed, match="block at row 9"):
                walk(params, s, Rng(26).normal(40, 4), 6, rng=Rng(27))

    def test_walk_step_outside_the_denoiser_is_refused_before_the_walk(
            self, monkeypatch, cpus):
        # a denoiser with step embeddings for 3 steps, walked from step 6:
        # the steps are checked once, in the calling thread, before any block
        s = build_schedule(DiffusionConfig(steps=6, b_max=0.99, b_min=0.5))
        params = DenoiserParams.init(4, 3, Rng(25))
        real = diffusion._denoise_forward
        calls = hook_walk_forward(monkeypatch, lambda first, p, h, t: real(p, h, t)[3])
        monkeypatch.setattr(diffusion, "_WALK_ROWS", 3)
        for workers in WORKER_COUNTS:
            cpus(workers)
            with pytest.raises(ShapeError, match="step 6 outside 1..3"):
                walk(params, s, Rng(26).normal(40, 4), 6, rng=Rng(27))
            assert calls == {"blocks": {}, "final": []}

    def test_too_many_steps_rejected(self):
        s = small_schedule()
        with pytest.raises(ShapeError):
            walk(zero_denoiser(2, 2), s, np.ones((2, 2)), 3, rng=Rng(1))


# every public entry point that takes steps, called on (params, schedule,
# rows, t) with the two-step schedule and a denoiser of width 3
STEP_ENTRY_POINTS = {
    "q_sample": lambda p, s, rows, t: q_sample(rows, t, s, noise=np.zeros_like(rows)),
    "denoise_predict": lambda p, s, rows, t: denoise_predict(p, rows, t),
    "denoise_predict_vjp": lambda p, s, rows, t: diffusion.denoise_predict_vjp(p, rows, t)[0],
    "diffusion_loss": lambda p, s, rows, t: diffusion_loss(
        p, s, rows, rows + 1.0, t=t, noise=np.zeros_like(rows))[1],
}


@pytest.mark.parametrize("entry", sorted(STEP_ENTRY_POINTS))
def test_every_entry_point_checks_steps_alike(entry):
    call = STEP_ENTRY_POINTS[entry]
    s = small_schedule()
    params = DenoiserParams.init(3, 2, Rng(28))
    rows = Rng(29).normal(4, 3)
    # one step, one step in a vector, and one per row agree
    one = call(params, s, rows, 2)
    for t in (np.array([2]), np.full(4, 2), np.full(4, 2, dtype=np.uint8)):
        assert np.array_equal(call(params, s, rows, t), one)
    # a step that is not an integer is refused, not truncated
    for t in (2.7, 2.0, np.array([1.0, 2.0, 1.0, 2.0]), True, "2"):
        with pytest.raises(ShapeError, match="steps must be"):
            call(params, s, rows, t)
    for t in (0, 3, -1, np.array([1, 2, 3, 1])):
        with pytest.raises(ShapeError, match=r"step (0|3|-1) outside 1..2"):
            call(params, s, rows, t)
    for t in (np.array([1, 2]), np.ones((4, 1), dtype=np.int64)):
        with pytest.raises(ShapeError):
            call(params, s, rows, t)
    # zero rows: a single step and a zero-length step vector are one case
    empty = np.empty((0, 3))
    for t in (1, np.array([1]), np.empty(0, dtype=np.int64)):
        if entry == "diffusion_loss":  # a mean over no rows
            with pytest.raises(ShapeError, match="empty batch"):
                call(params, s, empty, t)
        else:
            assert call(params, s, empty, t).shape == (0, 3)
