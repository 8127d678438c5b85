import numpy as np
import pytest

import ebsmooth.mlp as mlp
import oracles
from ebsmooth.classifiers import EbClassifier, LinearClassifier, SoftClassifier
from ebsmooth.densities import Identity, IsoGaussian, IsoMixture
from ebsmooth.energy import EnergyNet
from ebsmooth.stats import rng_stream
from oracles import grad_log_pi, soft_pi, soft_pi_with_noise


def zero_energy(dim, sigma):
    gen = rng_stream(0, 0)
    net = EnergyNet.init(dim, (8,), sigma, gen)
    for w in net.weights:
        w[:] = 0.0
    for b in net.biases:
        b[:] = 0.0
    return net


class _ConstantSoft:
    """Duck-typed soft classifier that always answers the same distribution."""

    def __init__(self, probs):
        self._p = np.asarray(probs, dtype=float)

    @property
    def n_classes(self):
        return self._p.shape[0]

    @property
    def dim(self):
        return 2

    def probs(self, x):
        return np.tile(self._p, (x.shape[0], 1))


def test_a_single_point_is_a_value_error():
    # every classifier takes a batch (n, d) of points and nothing else
    lin = LinearClassifier(np.array([1.0, 0.0]), 0.0)
    soft = SoftClassifier.init(2, (4,), 3, rng_stream(3, 3))
    calls = [lin.predict_class, soft.predict_class, soft.probs,
             EbClassifier(lin, IsoGaussian(sigma0=1.0, dim=2), 0.5).predict_class,
             EbClassifier(soft, Identity(), 0.5).predict_class]
    for call in calls:
        np.testing.assert_array_equal(np.shape(call(np.zeros((1, 2))))[:1], [1])
        with pytest.raises(ValueError, match="shape"):
            call(np.zeros(2))


class TestLinearClassifier:
    def test_sign_of_positive_margin(self):
        h = LinearClassifier(np.array([1.0, 0.0]), 0.0)
        assert h.predict_class(np.array([[2.0, 0.0]])).tolist() == [1]

    def test_negative_side(self):
        h = LinearClassifier(np.array([1.0, 0.0]), 0.0)
        assert h.predict_class(np.array([[-0.5, 3.0]])).tolist() == [0]

    def test_tie_goes_to_lowest_index(self):
        h = LinearClassifier(np.array([1.0, 0.0]), 0.0)
        assert h.predict_class(np.array([[0.0, 1.0]])).tolist() == [0]

    def test_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            LinearClassifier(np.zeros(3), 1.0)


class TestSoftClassifier:
    def test_predict_class_is_argmax_of_probs(self):
        # the class is taken from the logits; the softmax is monotone, so it
        # names the same class
        soft = SoftClassifier.init(4, (16, 8), 5, rng_stream(3, 0))
        xs = 3.0 * rng_stream(3, 1).standard_normal((5000, 4))
        got = soft.predict_class(xs)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, np.argmax(soft.probs(xs), axis=1))
        assert soft.predict_class(xs[7:8]).tolist() == got[7:8].tolist()

    def test_only_a_gradient_pass_computes_sigmoids(self, monkeypatch):
        # predict_class is the certification hot path: the forward pass it
        # shares with training must not compute softplus derivatives for it
        soft = SoftClassifier.init(4, (16, 8), 5, rng_stream(3, 0))
        xs = rng_stream(3, 1).standard_normal((20, 4))
        calls = []
        orig = mlp.sigmoid
        monkeypatch.setattr(mlp, "sigmoid", lambda x: calls.append(1) or orig(x))
        soft.predict_class(xs)
        soft.probs(xs)
        assert not calls
        _, cache = soft._forward(xs, sigmoids=True)
        assert len(calls) == 2 and len(cache[1]) == 2

    def test_one_non_finite_row_raises(self):
        soft = SoftClassifier.init(2, (8,), 3, rng_stream(3, 2))
        xs = np.zeros((6, 2))
        xs[4, 1] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError, match="logits"):
            soft.predict_class(xs)


class TestHardEbClassifier:
    def test_gaussian_closed_form_contracts_before_classifying(self):
        model = IsoGaussian(sigma0=1.0, dim=2)
        h = LinearClassifier(np.array([1.0, 0.0]), 0.0)
        c = EbClassifier(h, model, sigma=1.0)
        # x = (2, 0) is denoised to (1, 0), still class 1
        assert c.predict_class(np.array([[2.0, 0.0]])).tolist() == [1]

    def test_denoising_can_flip_the_base_decision(self):
        # with beta = 1/2, w = (1, 0), b = -0.4: the base says class 1 at
        # x = (0.5, 0) (margin 0.1), but the denoised point (0.25, 0) has
        # margin -0.15, so the composed classifier says class 0
        model = IsoGaussian(sigma0=1.0, dim=2)
        h = LinearClassifier(np.array([1.0, 0.0]), -0.4)
        x = np.array([[0.5, 0.0]])
        assert h.predict_class(x).tolist() == [1]
        c = EbClassifier(h, model, sigma=1.0)
        assert c.predict_class(x).tolist() == [0]

    def test_zero_energy_reduces_to_base(self):
        gen = rng_stream(1, 0)
        soft = SoftClassifier.init(3, (8,), 4, gen)
        c = EbClassifier(soft, zero_energy(3, 0.5), sigma=0.5)
        xs = gen.standard_normal((50, 3))
        np.testing.assert_array_equal(c.predict_class(xs), soft.predict_class(xs))

    def test_sigma_mismatch_rejected(self):
        net = zero_energy(2, 0.5)
        h = LinearClassifier(np.array([1.0, 0.0]), 0.0)
        with pytest.raises(ValueError):
            EbClassifier(h, net, sigma=0.3)


class TestSoftPi:
    def test_no_noise_single_sample_is_plain_evaluation(self):
        gen = rng_stream(2, 0)
        soft = SoftClassifier.init(2, (8,), 3, gen)
        model = IsoGaussian(sigma0=1.0, dim=2)
        c = EbClassifier(soft, model, sigma=0.0)
        x = gen.standard_normal(2)
        np.testing.assert_allclose(
            soft_pi(c, x, 1, rng_stream(2, 1)),
            soft.probs(model.bayes_estimate(x[None], 0.0))[0],
        )

    def test_constant_classifier_passes_through(self):
        const = _ConstantSoft([1.0, 0.0, 0.0])
        model = IsoGaussian(sigma0=1.0, dim=2)
        c = EbClassifier(const, model, sigma=0.7)
        out = soft_pi(c, np.array([0.3, -1.0]), 32, rng_stream(3, 0))
        np.testing.assert_array_equal(out, [1.0, 0.0, 0.0])

    def test_output_is_probability_vector(self):
        gen = rng_stream(4, 0)
        soft = SoftClassifier.init(2, (16,), 5, gen)
        mix = IsoMixture.symmetric(np.array([2.0, 0.0]), 1.0)
        c = EbClassifier(soft, mix, sigma=0.5)
        for _ in range(50):
            p = soft_pi(c, gen.standard_normal(2), 8, gen)
            assert np.all(p > 0.0)
            assert abs(p.sum() - 1.0) < 1e-12

    def test_monte_carlo_agreement_across_seeds(self):
        gen = rng_stream(5, 0)
        soft = SoftClassifier.init(2, (8,), 3, gen)
        model = IsoGaussian(sigma0=1.0, dim=2)
        m = 10_000
        c = EbClassifier(soft, model, sigma=0.5)
        x = np.array([0.4, -0.2])
        a = soft_pi(c, x, m, rng_stream(5, 1))
        b = soft_pi(c, x, m, rng_stream(5, 2))
        assert np.max(np.abs(a - b)) < 5.0 / np.sqrt(m)

    def test_argmax_stable_in_sample_count(self):
        gen = rng_stream(6, 0)
        soft = SoftClassifier.init(2, (8,), 3, gen)
        mix = IsoMixture.symmetric(np.array([1.5, 0.0]), 0.8)
        checked = 0
        for i in range(100):
            x = 2.0 * gen.standard_normal(2)
            c = EbClassifier(soft, mix, sigma=0.4)
            p1 = soft_pi(c, x, 10_000, rng_stream(6, 100 + i))
            p4 = soft_pi(c, x, 40_000, rng_stream(6, 200 + i))
            top = np.sort(p4)[::-1]
            if top[0] - top[1] > 0.1:
                checked += 1
                assert np.argmax(p1) == np.argmax(p4)
        assert checked > 50


class TestGradLogPi:
    def test_no_noise_linear_softmax_is_analytic(self):
        gen = rng_stream(7, 0)
        soft = SoftClassifier.init(3, (), 4, gen)  # bare affine + softmax
        c = EbClassifier(soft, zero_energy(3, 0.0), sigma=0.0)
        x = gen.standard_normal(3)
        noise = np.zeros((2, 3))
        w = soft.weights[0]
        p = soft.probs(x[None])[0]
        for k in range(4):
            want = w[:, k] - w @ p
            np.testing.assert_allclose(grad_log_pi(c, x, k, noise), want, atol=1e-12)

    def test_matches_finite_differences_with_common_noise(self):
        gen = rng_stream(8, 0)
        mix = IsoMixture.symmetric(np.array([1.0, -0.5]), 0.8)
        fails = 0
        for trial in range(50):
            soft = SoftClassifier.init(2, (8,), 3, rng_stream(8, trial + 1))
            estimator = mix if trial % 2 == 0 else Identity()
            c = EbClassifier(soft, estimator, sigma=0.5)
            x = gen.standard_normal(2)
            noise = 0.5 * gen.standard_normal((3, 2))
            k = int(gen.integers(0, 3))
            g = grad_log_pi(c, x, k, noise)

            def log_pi(z):
                return np.log(max(soft_pi_with_noise(c, z, noise)[k], 1e-12))

            h = 1e-5
            fd = np.array([
                (log_pi(x + h * e) - log_pi(x - h * e)) / (2 * h) for e in np.eye(2)
            ])
            rel = np.linalg.norm(fd - g) / max(np.linalg.norm(g), 1e-8)
            fails += rel > 1e-4
        assert fails == 0

    def test_matches_finite_differences_with_energy_estimator(self):
        gen = rng_stream(9, 0)
        fails = 0
        for trial in range(20):
            soft = SoftClassifier.init(2, (6,), 2, rng_stream(9, 2 * trial + 1))
            net = EnergyNet.init(2, (8,), 0.4, rng_stream(9, 2 * trial + 2))
            c = EbClassifier(soft, net, sigma=0.4)
            x = gen.standard_normal(2)
            noise = 0.4 * gen.standard_normal((2, 2))
            g = grad_log_pi(c, x, 1, noise)

            def log_pi(z):
                return np.log(max(soft_pi_with_noise(c, z, noise)[1], 1e-12))

            h = 1e-5
            fd = np.array([
                (log_pi(x + h * e) - log_pi(x - h * e)) / (2 * h) for e in np.eye(2)
            ])
            rel = np.linalg.norm(fd - g) / max(np.linalg.norm(g), 1e-8)
            fails += rel > 1e-4
        assert fails == 0

    def test_identity_jacobian_gives_average_of_base_gradients(self):
        gen = rng_stream(10, 0)
        soft = SoftClassifier.init(2, (8,), 3, gen)
        c = EbClassifier(soft, zero_energy(2, 0.5), sigma=0.5)
        x = gen.standard_normal(2)
        noise = 0.5 * gen.standard_normal((4, 2))
        k = 2
        pi_k = soft_pi_with_noise(c, x, noise)[k]
        g = grad_log_pi(c, x, k, noise)
        base_grads = oracles.class_prob_input_grad(soft, x[None, :] + noise, k)
        np.testing.assert_allclose(g * pi_k, base_grads.mean(axis=0), atol=1e-12)
