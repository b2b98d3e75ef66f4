import math

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
from hgdiff.numerics import Rng, ShapeError, grad_check


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
    hidden = np.where(pre >= 0, pre, params.slope * pre)
    return hidden @ params.w2 + params.b2


def reference_reverse(params, schedule, source, infer_steps, rng):
    """Reverse walk with a fresh array per step."""
    h = q_sample(source, infer_steps, schedule, rng=rng)
    for t in range(infer_steps, 0, -1):
        pred = denoise_predict(params, h, t)
        if t == 1:
            return pred
        ab = schedule.alpha_bar_at(t)
        ab_prev = schedule.alpha_bar_before(t)
        coef_pred = math.sqrt(ab_prev) * schedule.beta_at(t) / (1.0 - ab)
        coef_h = math.sqrt(schedule.alpha_at(t)) * (1.0 - ab_prev) / (1.0 - ab)
        h = coef_pred * pred + coef_h * h


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

    def test_shape_rejection(self):
        params = zero_denoiser(3, steps=2)
        with pytest.raises(ShapeError):
            denoise_predict(params, np.ones((2, 4)), 1)
        with pytest.raises(ShapeError):
            denoise_predict(params, np.ones((2, 3)), 3)


class TestDiffusionLoss:
    def test_weight_anchor(self):
        s = small_schedule()
        assert abs(loss_weight(s, 2) - 25.0) < 1e-9
        assert loss_weight(s, 1) == 1.0

    def test_perfect_reconstruction_zero_loss(self):
        params = zero_denoiser(3, steps=2, constant=0.7)
        target = np.full((6, 3), 0.7)
        source = Rng(1).normal(6, 3)
        s = small_schedule()
        for t in (1, 2):
            res = diffusion_loss(params, s, source, target, t=t,
                                 noise=np.zeros((6, 3)))
            assert res.loss == 0.0

    def test_loss_positive(self):
        s = small_schedule()
        rng = Rng(2)
        params = DenoiserParams.init(3, 2, rng)
        res = diffusion_loss(params, s, rng.normal(5, 3), rng.normal(5, 3), rng=rng)
        assert res.loss > 0

    def test_loss_nonnegative_random_sweep(self):
        s = build_schedule(DiffusionConfig(steps=12, b_max=0.97, b_min=0.4))
        rng = Rng(33)
        for trial in range(30):
            params = DenoiserParams.init(3, 12, rng.derive(f"p{trial}"))
            res = diffusion_loss(params, s, rng.normal(4, 3), rng.normal(4, 3),
                                 rng=rng, per_row_t=bool(trial % 2))
            assert res.loss >= 0.0

    def test_per_row_t_matches_scalar_when_uniform(self):
        s = build_schedule(DiffusionConfig(steps=6, b_max=0.95, b_min=0.6))
        rng = Rng(34)
        params = DenoiserParams.init(3, 6, rng)
        source, target = rng.normal(5, 3), rng.normal(5, 3)
        noise = rng.standard_normal((5, 3))
        scalar = diffusion_loss(params, s, source, target, t=4, noise=noise)
        vector = diffusion_loss(params, s, source, target,
                                t=np.full(5, 4), noise=noise)
        assert abs(scalar.loss - vector.loss) < 1e-12
        for name in ("w1", "b1", "w2", "b2", "time_emb"):
            assert np.allclose(getattr(scalar.grads, name),
                               getattr(vector.grads, name), atol=1e-12)

    def test_per_row_t_gradients_certified(self):
        s = build_schedule(DiffusionConfig(steps=6, b_max=0.95, b_min=0.6))
        rng = Rng(35)
        base = DenoiserParams.init(4, 6, rng)
        source, target = rng.normal(8, 4), rng.normal(8, 4)
        noise = rng.standard_normal((8, 4))
        t_rows = np.asarray(rng.integers(1, 7, size=8), dtype=np.int64)

        def run(params, src):
            return diffusion_loss(params, s, src, target, t=t_rows, noise=noise)

        res = run(base, source)
        for name in ("w1", "w2", "time_emb"):
            def f(flat, _n=name):
                p = base.copy()
                setattr(p, _n, flat.reshape(getattr(base, _n).shape))
                return run(p, source).loss
            err = grad_check(f, getattr(res.grads, name), getattr(base, name), h=1e-6)
            assert err < 1e-4, f"{name} per-row grad err {err}"
        err = grad_check(lambda f: run(base, f.reshape(8, 4)).loss,
                         res.grad_source, source, h=1e-6)
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
            return diffusion_loss(params, s, src, target, t=t, noise=noise)

        res = loss_with(base, source)

        def param_fn(name):
            def f(flat):
                p = base.copy()
                setattr(p, name, flat.reshape(getattr(base, name).shape))
                return loss_with(p, source).loss
            return f

        for name in ("w1", "b1", "w2", "b2", "time_emb"):
            err = grad_check(param_fn(name), getattr(res.grads, name),
                             getattr(base, name), h=1e-6)
            assert err < 1e-4, f"{name} grad err {err}"

        err = grad_check(lambda f: loss_with(base, f.reshape(8, 4)).loss,
                         res.grad_source, source, h=1e-6)
        assert err < 1e-4, f"source grad err {err}"


class TestReverse:
    def test_zero_steps_identity(self):
        s = small_schedule()
        params = zero_denoiser(3, 2)
        src = Rng(4).normal(4, 3)
        out = reverse_denoise(params, s, src, 0)
        assert np.array_equal(out, src)

    def test_constant_network_collapse(self):
        s = small_schedule()
        params = zero_denoiser(3, 2, constant=1.25)
        out = reverse_denoise(params, s, Rng(5).normal(4, 3), 1, rng=Rng(6))
        assert np.allclose(out, 1.25)

    def test_perfect_denoiser_recovers_exactly(self, monkeypatch):
        s = build_schedule(DiffusionConfig(steps=8, b_max=0.95, b_min=0.4))
        truth = Rng(7).normal(5, 3)
        monkeypatch.setattr(diffusion, "denoise_predict", lambda p, h, t: truth)
        params = zero_denoiser(3, 8)
        before = truth.copy()
        for steps in (1, 3, 8):
            out = reverse_denoise(params, s, Rng(8).normal(5, 3), steps, rng=Rng(9))
            assert np.array_equal(out, truth)
        assert np.array_equal(truth, before)

    def test_matches_reference_walk(self):
        steps = 12
        s = build_schedule(DiffusionConfig(steps=steps, b_max=0.99, b_min=0.5))
        params = DenoiserParams.init(4, steps, Rng(10))
        source = Rng(11).normal(6, 4)
        for infer in (1, 2, steps):
            out = reverse_denoise(params, s, source, infer, rng=Rng(12))
            expect = reference_reverse(params, s, source, infer, Rng(12))
            assert np.array_equal(out, expect)

    def test_too_many_steps_rejected(self):
        s = small_schedule()
        with pytest.raises(ShapeError):
            reverse_denoise(zero_denoiser(2, 2), s, np.ones((2, 2)), 3, rng=Rng(1))
