import numpy as np
import pytest

import oracles
from ebsmooth.densities import IsoGaussian, IsoMixture, beta_of
from ebsmooth.stats import rng_stream


class TestBeta:
    def test_no_noise_no_shrinkage(self):
        assert beta_of(0.0, 1.0) == 1.0

    def test_equal_scales(self):
        assert beta_of(1.0, 1.0) == 0.5

    def test_huge_noise_collapses_estimator(self):
        beta = beta_of(1e6, 1.0)
        assert beta < 1e-11
        model = IsoGaussian(sigma0=1.0, dim=2)
        out = model.bayes_estimate(np.array([[3.0, -4.0]]), 1e6)
        assert np.linalg.norm(out) < 1e-5  # collapsed toward the origin

    def test_domain_error(self):
        with pytest.raises(ValueError):
            beta_of(1.0, 0.0)


class TestIsoGaussian:
    def test_score_simple(self):
        model = IsoGaussian(sigma0=1.0, dim=2)
        np.testing.assert_allclose(
            model.smoothed_score(np.array([[2.0, 0.0]]), 1.0), [[-1.0, 0.0]]
        )

    def test_bayes_estimate_halves(self):
        model = IsoGaussian(sigma0=1.0, dim=2)
        np.testing.assert_allclose(
            model.bayes_estimate(np.array([[2.0, -2.0]]), 1.0), [[1.0, -1.0]]
        )

    def test_estimate_equals_beta_y(self):
        gen = rng_stream(0, 0)
        model = IsoGaussian(sigma0=0.7, dim=5)
        ys = gen.standard_normal((40, 5)) * 3
        for sigma in [0.0, 0.3, 1.0, 2.5]:
            beta = beta_of(sigma, 0.7)
            np.testing.assert_allclose(
                model.bayes_estimate(ys, sigma), beta * ys, rtol=1e-12, atol=1e-12
            )

    def test_consistency_estimate_is_y_plus_sigma2_score(self):
        gen = rng_stream(1, 0)
        model = IsoGaussian(sigma0=1.3, dim=3, mean=np.array([1.0, 0.0, -2.0]))
        ys = gen.standard_normal((20, 3))
        sigma = 0.8
        np.testing.assert_allclose(
            model.bayes_estimate(ys, sigma),
            ys + sigma**2 * model.smoothed_score(ys, sigma),
            rtol=0, atol=0,
        )

    def test_noise_contraction_is_exactly_beta(self):
        # the denoiser is affine, so the image of any offset shrinks by beta
        gen = rng_stream(2, 0)
        model = IsoGaussian(sigma0=1.0, dim=4)
        sigma = 0.9
        beta = beta_of(sigma, 1.0)
        for _ in range(20):
            x = gen.standard_normal((1, 4))
            eps = gen.standard_normal((1, 4))
            lhs = model.bayes_estimate(x + eps, sigma) - model.bayes_estimate(x, sigma)
            assert abs(np.linalg.norm(lhs) - beta * np.linalg.norm(eps)) < 1e-12

    def test_mean_of_estimates_slides_to_beta_x(self):
        model = IsoGaussian(sigma0=1.0, dim=3)
        sigma = 1.0
        x = np.array([1.5, -0.5, 2.0])
        gen = rng_stream(3, 0)
        eps = sigma * gen.standard_normal((200_000, 3))
        mean_est = model.bayes_estimate(x[None, :] + eps, sigma).mean(axis=0)
        beta = beta_of(sigma, 1.0)
        # CLT: estimator mean is beta*x with per-coordinate std beta*sigma/sqrt(n)
        tol = 5.0 * beta * sigma / np.sqrt(200_000)
        np.testing.assert_allclose(mean_est, beta * x, atol=tol)

    def test_sampling_clt(self):
        model = IsoGaussian(sigma0=1.0, dim=2)
        pts = model.sample(100_000, rng_stream(4, 0))
        assert np.all(np.abs(pts.mean(axis=0)) < 4.0 / np.sqrt(100_000))

    def test_sampling_reproducible(self):
        model = IsoGaussian(sigma0=1.0, dim=2)
        a = model.sample(1, rng_stream(9, 9))
        b = model.sample(1, rng_stream(9, 9))
        assert np.array_equal(a, b)

    def test_log_density_normalization_1d(self):
        # quadrature check that exp(log_density) integrates to one
        model = IsoGaussian(sigma0=0.8, dim=1)
        ys = np.linspace(-12, 12, 4001)[:, None]
        vals = np.exp(model.log_density_y(ys, 0.6))
        assert abs(np.trapezoid(vals, ys[:, 0]) - 1.0) < 1e-8

    def test_validation(self):
        with pytest.raises(ValueError):
            IsoGaussian(sigma0=0.0, dim=2)
        with pytest.raises(ValueError):
            IsoGaussian(sigma0=1.0, dim=2).smoothed_score(np.zeros((1, 3)), 1.0)


class TestIsoMixture:
    def test_score_zero_at_symmetry_point(self):
        mix = IsoMixture.symmetric(np.array([2.0, 1.0]), 0.8)
        np.testing.assert_allclose(mix.smoothed_score(np.zeros((1, 2)), 0.5), 0.0)

    def test_estimate_zero_at_origin(self):
        mix = IsoMixture.symmetric(np.array([3.0, -1.0]), 1.0)
        np.testing.assert_allclose(mix.bayes_estimate(np.zeros((1, 2)), 1.0), 0.0)

    def test_score_matches_finite_difference(self):
        mix = IsoMixture.symmetric(np.array([2.0, 0.0]), 1.0)
        y = np.array([1.0, 1.0])
        got = mix.smoothed_score(y[None], 0.5)[0]
        want = oracles.central_difference(lambda z: mix.log_density_y(z[None], 0.5)[0], y)
        np.testing.assert_allclose(got, want, atol=1e-5)

    def test_general_mixture_score_matches_finite_difference(self):
        gen = rng_stream(5, 0)
        mix = IsoMixture(
            means=np.array([[2.0, 0.0, 1.0], [-1.0, 2.0, 0.0], [0.0, -2.0, 1.5]]),
            sigma0=0.7,
            weights=np.array([0.5, 0.3, 0.2]),
        )
        for _ in range(10):
            y = 2.0 * gen.standard_normal(3)
            got = mix.smoothed_score(y[None], 0.4)[0]
            want = oracles.central_difference(lambda z: mix.log_density_y(z[None], 0.4)[0], y)
            np.testing.assert_allclose(got, want, atol=1e-5)

    def test_symmetric_closed_form(self):
        # beta*y + (1-beta) tanh(<beta y, mu>/sigma0^2) mu at beta = 1/2,
        # y = (4, 0), mu = (2, 0): (2 + tanh(4), 0)
        mu = np.array([2.0, 0.0])
        mix = IsoMixture.symmetric(mu, 1.0)
        got = mix.bayes_estimate(np.array([[4.0, 0.0]]), 1.0)[0]
        np.testing.assert_allclose(got, [2.0 + np.tanh(4.0), 0.0], rtol=1e-12)
        np.testing.assert_allclose(got[0], 2.9993292997390673, rtol=1e-12)

    def test_symmetric_closed_form_path_agrees_everywhere(self):
        gen = rng_stream(6, 0)
        mu = np.array([1.5, -0.5, 0.25])
        mix = IsoMixture.symmetric(mu, 0.9)
        ys = 3.0 * gen.standard_normal((50, 3))
        for sigma in [0.1, 0.7, 2.0]:
            np.testing.assert_allclose(
                mix.bayes_estimate(ys, sigma),
                oracles.symmetric_mixture_estimate(mu, 0.9, ys, sigma),
                rtol=1e-10, atol=1e-12,
            )

    def test_pull_coefficient_strictly_inside_band(self):
        # the mean-directed term has coefficient (1-beta)tanh(.), strictly
        # inside (-(1-beta), (1-beta))
        mu = np.array([2.0, 0.0])
        mix = IsoMixture.symmetric(mu, 1.0)
        sigma = 1.0
        beta = beta_of(sigma, 1.0)
        gen = rng_stream(7, 0)
        ys = 5.0 * gen.standard_normal((200, 2))
        est = mix.bayes_estimate(ys, sigma)
        coeff = (est - beta * ys) @ mu / (mu @ mu)
        assert np.all(np.abs(coeff) < (1.0 - beta))

    def test_score_hvp_matches_finite_difference(self):
        mix = IsoMixture.symmetric(np.array([2.0, 0.0]), 1.0)
        gen = rng_stream(8, 0)
        for _ in range(10):
            y = 2.0 * gen.standard_normal((1, 2))
            v = gen.standard_normal((1, 2))
            got = (mix.linearize(y, 0.5)[1](v) - v) / 0.5**2
            h = 1e-5
            want = (mix.smoothed_score(y + h * v, 0.5)
                    - mix.smoothed_score(y - h * v, 0.5)) / (2 * h)
            np.testing.assert_allclose(got, want, atol=1e-6)

    def test_score_stable_far_from_means(self):
        # log-sum-exp with max subtraction keeps the score finite where the
        # raw component masses underflow
        mix = IsoMixture.symmetric(np.array([2.0, 0.0]), 1.0)
        y = np.array([[60.0, 45.0]])
        s = mix.smoothed_score(y, 0.5)
        assert np.all(np.isfinite(s))
        assert np.linalg.norm(s) > 1.0

    def test_sample_symmetry(self):
        mix = IsoMixture.symmetric(np.array([3.0, 0.0]), 1.0)
        pts = mix.sample(100_000, rng_stream(9, 0))
        frac = np.mean(pts[:, 0] > 0)
        assert abs(frac - 0.5) < 0.01

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            IsoMixture(means=np.eye(2), sigma0=1.0, weights=np.array([0.6, 0.5]))
        with pytest.raises(ValueError):
            IsoMixture(means=np.eye(2), sigma0=1.0, weights=np.array([1.1, -0.1]))
        with pytest.raises(ValueError):
            IsoMixture(means=np.eye(2), sigma0=0.0)


class TestMixtureKernelAgainstReference:
    """The matmul kernel (squared distances expanded as |mu|^2 - 2 y.mu +
    |y|^2) against the direct (n, K, d) differences of oracles.py, near the
    means, midway between two of them and 1e3 smoothed scales away, for
    means of norm 1 and 10."""

    SIGMA0, SIGMA = 0.5, 0.3

    @staticmethod
    def _case(n_components, dim, where, scale):
        gen = rng_stream(n_components * 1000 + dim, int(scale))
        means = gen.standard_normal((n_components, dim))
        means *= scale / np.linalg.norm(means, axis=1, keepdims=True)
        weights = gen.uniform(0.1, 1.0, n_components)
        weights /= weights.sum()
        sd = np.hypot(TestMixtureKernelAgainstReference.SIGMA0,
                      TestMixtureKernelAgainstReference.SIGMA)
        k = gen.integers(0, n_components, 16)
        if where == "near":
            y = means[k] + 0.1 * sd * gen.standard_normal((16, dim))
        elif where == "midway":
            y = 0.5 * (means[k] + means[(k + 1) % n_components])
        else:
            u = gen.standard_normal((16, dim))
            y = means[k] + 1e3 * sd * u / np.linalg.norm(u, axis=1, keepdims=True)
        return means, weights, y, gen.standard_normal((16, dim))

    @pytest.mark.parametrize("where", ["near", "midway", "far"])
    @pytest.mark.parametrize("dim", [2, 64, 784])
    @pytest.mark.parametrize("n_components", [2, 10])
    def test_matches_direct_differences(self, n_components, dim, where):
        sigma = self.SIGMA
        for scale in (1.0, 10.0):
            means, weights, y, v = self._case(n_components, dim, where, scale)
            mix = IsoMixture(means=means, sigma0=self.SIGMA0, weights=weights)
            ref = oracles.mixture_reference(means, weights, self.SIGMA0, y, sigma, v)
            got = (mix.log_density_y(y, sigma), mix.smoothed_score(y, sigma),
                   (mix.linearize(y, sigma)[1](v) - v) / sigma**2,
                   mix.bayes_estimate(y, sigma))
            for name, g, r in zip(("log_density", "score", "hvp", "bayes"), got, ref):
                if name == "hvp" and where == "far" and np.finfo(np.longdouble).eps > 1e-18:
                    continue  # the reference needs an extended long double there
                err = np.max(np.abs(g - r))
                assert err <= 1e-11 * np.max(np.abs(r)), (name, scale, err)
