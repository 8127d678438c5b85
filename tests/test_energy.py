import numpy as np
import pytest

import ebsmooth.energy as energy
import ebsmooth.mlp as mlp
from ebsmooth.energy import (
    EnergyNet,
    EnergyTrainConfig,
    denoise_loss_and_grads,
    train_energy,
)
from ebsmooth.densities import IsoMixture, beta_of
from ebsmooth.mlp import TrainingDivergedError
from ebsmooth.stats import rng_stream


def zero_net(dim, hidden=(8,), sigma=1.0, bias=0.0):
    gen = rng_stream(0, 0)
    net = EnergyNet.init(dim, hidden, sigma, gen)
    for w in net.weights:
        w[:] = 0.0
    for b in net.biases:
        b[:] = 0.0
    net.biases[-1][:] = bias
    return net


def phi(net, y):
    """The energy at a batch of points, read through the protocol:
    phi = -log f_Y."""
    return -net.log_density_y(y, net.sigma)


def grad_phi(net, y):
    return -net.smoothed_score(y, net.sigma)


def hess_phi(net, y, v):
    """Hessian of phi applied to v, from linearize's vjp(v) = v - sigma^2 H v."""
    _, vjp = net.linearize(y, net.sigma)
    return (v - vjp(v)) / net.sigma**2


class TestEvaluation:
    def test_zero_weight_net_returns_bias(self):
        net = zero_net(3, bias=0.75)
        assert phi(net, np.array([[1.0, -2.0, 0.5]])) == [0.75]

    def test_zero_weight_net_grad_and_hvp_vanish(self):
        net = zero_net(3)
        y = np.array([[1.0, -2.0, 0.5]])
        np.testing.assert_array_equal(grad_phi(net, y), np.zeros((1, 3)))
        np.testing.assert_array_equal(hess_phi(net, y, y), np.zeros((1, 3)))

    def test_deterministic(self):
        gen = rng_stream(1, 0)
        net = EnergyNet.init(4, (16, 8), 1.0, gen)
        y = gen.standard_normal((1, 4))
        assert phi(net, y) == phi(net, y)

    def test_first_order_taylor(self):
        gen = rng_stream(2, 0)
        net = EnergyNet.init(4, (16,), 1.0, gen)
        y = gen.standard_normal((1, 4))
        e1 = np.zeros(4)
        e1[0] = 1.0
        h = 1e-6
        delta = phi(net, y + h * e1) - phi(net, y)
        assert abs(delta[0] - h * grad_phi(net, y)[0, 0]) <= 1e-9

    def test_linear_readout_net_has_constant_gradient(self):
        # no hidden layers: phi(y) = <a, y> + b, gradient is a everywhere
        gen = rng_stream(3, 0)
        a = gen.standard_normal(5)
        net = EnergyNet([a[:, None]], [np.array([0.3])], 1.0)
        y = gen.standard_normal((1, 5))
        np.testing.assert_array_equal(grad_phi(net, y), a[None])
        np.testing.assert_array_equal(hess_phi(net, y, y), np.zeros((1, 5)))

    def test_dimension_mismatch(self):
        net = zero_net(3)
        with pytest.raises(ValueError):
            phi(net, np.zeros((1, 4)))
        with pytest.raises(ValueError):
            grad_phi(net, np.zeros((2, 4)))

    @pytest.mark.parametrize("offset", [5e-13, -5e-13, np.nan])
    def test_only_the_trained_scale_is_accepted(self, offset):
        # x-hat and its vjp would otherwise be computed at two scales: the
        # trained one inside phi's denoiser, the requested one in the vjp
        net = EnergyNet.init(3, (8,), 0.5, rng_stream(4, 0))
        y = np.zeros((1, 3))
        for method in (net.linearize, net.bayes_estimate, net.smoothed_score,
                       net.log_density_y):
            with pytest.raises(ValueError, match="energy trained for sigma=0.5"):
                method(y, net.sigma + offset)


class TestGradientOracles:
    def test_input_grad_matches_finite_differences(self):
        gen = rng_stream(10, 0)
        fails = 0
        for trial in range(100):
            net = EnergyNet.init(5, (16,), 1.0, rng_stream(10, trial + 1))
            y = gen.standard_normal((1, 5))
            g = grad_phi(net, y)[0]
            h = 1e-4
            fd = np.array([
                (phi(net, y + h * e)[0] - phi(net, y - h * e)[0]) / (2 * h)
                for e in np.eye(5)
            ])
            rel = np.linalg.norm(fd - g) / max(np.linalg.norm(g), 1e-8)
            fails += rel > 1e-5
        assert fails == 0

    def test_input_hvp_matches_finite_differences_of_grad(self):
        gen = rng_stream(11, 0)
        fails = 0
        for trial in range(100):
            net = EnergyNet.init(4, (12, 8), 1.0, rng_stream(11, trial + 1))
            y = gen.standard_normal((1, 4))
            v = gen.standard_normal((1, 4))
            hv = hess_phi(net, y, v)
            h = 1e-4
            fd = (grad_phi(net, y + h * v) - grad_phi(net, y - h * v)) / (2 * h)
            rel = np.linalg.norm(fd - hv) / max(np.linalg.norm(hv), 1e-8)
            fails += rel > 1e-4
        assert fails == 0

    def test_hessian_bilinear_form_symmetric(self):
        gen = rng_stream(12, 0)
        for trial in range(100):
            net = EnergyNet.init(4, (10,), 1.0, rng_stream(12, trial + 1))
            y, u, v = gen.standard_normal((3, 1, 4))
            lhs = np.sum(u * hess_phi(net, y, v))
            rhs = np.sum(v * hess_phi(net, y, u))
            assert abs(lhs - rhs) < 1e-8

    def test_denoise_loss_parameter_gradients(self):
        gen = rng_stream(13, 0)
        net = EnergyNet.init(3, (8, 6), 0.7, gen)
        x = gen.standard_normal((6, 3))
        y = x + 0.7 * gen.standard_normal((6, 3))
        _, grads = denoise_loss_and_grads(net, x, y)
        params = net.parameters()
        rng = np.random.default_rng(0)
        for _ in range(25):
            pi = rng.integers(0, len(params))
            p = params[pi]
            idx = np.unravel_index(rng.integers(0, p.size), p.shape)
            old = p[idx]
            h = 1e-6
            p[idx] = old + h
            lp, _ = denoise_loss_and_grads(net, x, y)
            p[idx] = old - h
            lm, _ = denoise_loss_and_grads(net, x, y)
            p[idx] = old
            fd = (lp - lm) / (2 * h)
            ana = grads[pi][idx]
            assert abs(fd - ana) <= 1e-4 * max(abs(fd), abs(ana), 1e-6)

    def test_batched_hvp_matches_per_row(self):
        gen = rng_stream(14, 0)
        net = EnergyNet.init(3, (8,), 1.0, gen)
        ys = gen.standard_normal((5, 3))
        vs = gen.standard_normal((5, 3))
        batch = hess_phi(net, ys, vs)
        for i in range(5):
            np.testing.assert_allclose(batch[i], hess_phi(net, ys[i:i + 1], vs[i:i + 1])[0])


class TestOnePrimalPass:
    """No derivative reads the last hidden layer's softplus, and a
    linearization and its vjp share one primal pass: L hidden layers cost
    L - 1 softplus calls, however many derivatives are taken."""

    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_softplus_calls(self, monkeypatch, layers):
        net = EnergyNet.init(3, (5,) * layers, 0.4, rng_stream(2, layers))
        y = rng_stream(3, 0).standard_normal((7, 3))
        calls = []
        orig = mlp.softplus
        monkeypatch.setattr(mlp, "softplus", lambda x: calls.append(1) or orig(x))
        _, vjp = net.linearize(y, 0.4)
        vjp(y)
        vjp(2.0 * y)
        assert len(calls) == layers - 1
        calls.clear()
        grad_phi(net, y)
        assert len(calls) == layers - 1
        calls.clear()
        denoise_loss_and_grads(net, y, y + 0.1)
        assert len(calls) == layers - 1


class TestTraining:
    def test_reproducible_parameters(self):
        data = IsoMixture(means=np.zeros((1, 2)), sigma0=1.0).sample(500, rng_stream(20, 0))
        cfg = EnergyTrainConfig(hidden=(16,), steps=150, batch_size=32)
        a = train_energy(data, 1.0, cfg, rng_stream(5, 0))
        b = train_energy(data, 1.0, cfg, rng_stream(5, 0))
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert np.array_equal(pa, pb)

    def test_learns_gaussian_denoiser(self):
        # coarse, fast version of the full fit; the denoiser of a unit
        # Gaussian at sigma = 1 is y/2
        model = IsoMixture(means=np.zeros((1, 2)), sigma0=1.0)
        data = model.sample(8000, rng_stream(21, 0))
        cfg = EnergyTrainConfig(hidden=(64, 64), steps=800, batch_size=128)
        net = train_energy(data, 1.0, cfg, rng_stream(6, 0))
        gen = rng_stream(21, 1)
        ys = gen.standard_normal((400, 2)) * 1.2
        err = np.linalg.norm(net.bayes_estimate(ys, net.sigma) - 0.5 * ys, axis=1)
        scale = 1.0 + np.linalg.norm(ys, axis=1)
        assert np.mean(err / scale) < 0.1

    def test_delta_mass_estimator_returns_its_location(self):
        x0 = np.array([1.0, -0.5])
        data = np.tile(x0, (400, 1))
        cfg = EnergyTrainConfig(hidden=(32,), steps=1200, batch_size=64)
        net = train_energy(data, 0.5, cfg, rng_stream(7, 0))
        assert net.sigma == 0.5
        gen = rng_stream(22, 0)
        ys = x0[None, :] + 0.5 * gen.standard_normal((200, 2))
        err = np.linalg.norm(net.bayes_estimate(ys, net.sigma) - x0[None, :], axis=1)
        assert err.mean() <= 0.1

    def test_divergence_reports_step(self):
        # a learning rate past float range overflows the loss within steps
        data = IsoMixture(means=np.zeros((1, 2)), sigma0=1.0).sample(200, rng_stream(24, 0))
        cfg = EnergyTrainConfig(hidden=(16,), steps=400, batch_size=32, lr=1e200)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDivergedError) as err:
                train_energy(data, 1.0, cfg, rng_stream(9, 0))
        assert err.value.step >= 0

    def test_nan_gradient_on_last_step_raises(self, monkeypatch):
        # a finite loss over a NaN gradient would write NaN parameters with
        # no later loss to notice them
        cfg = EnergyTrainConfig(hidden=(8,), steps=5, batch_size=16)
        calls = []

        def nan_on_last(net, x, y):
            loss, grads = denoise_loss_and_grads(net, x, y)
            calls.append(loss)
            if len(calls) == cfg.steps:
                grads[0] = np.full_like(grads[0], np.nan)
            return loss, grads

        monkeypatch.setattr(energy, "denoise_loss_and_grads", nan_on_last)
        data = IsoMixture(means=np.zeros((1, 2)), sigma0=1.0).sample(100, rng_stream(25, 0))
        with pytest.raises(TrainingDivergedError, match="non-finite gradient") as err:
            train_energy(data, 1.0, cfg, rng_stream(3, 0))
        assert err.value.step == cfg.steps - 1
        assert np.all(np.isfinite(calls))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EnergyTrainConfig(steps=0)
        with pytest.raises(ValueError, match="lr must be positive"):
            EnergyTrainConfig(lr=0.0)

    @pytest.mark.parametrize("sigma", [0.0, -1.0, np.inf, np.nan])
    def test_scale_must_be_positive_and_finite(self, sigma):
        data = IsoMixture(means=np.zeros((1, 2)), sigma0=1.0).sample(20, rng_stream(26, 0))
        with pytest.raises(ValueError, match="sigma must be positive and finite"):
            train_energy(data, sigma, EnergyTrainConfig(hidden=(4,), steps=1), rng_stream(3, 0))

