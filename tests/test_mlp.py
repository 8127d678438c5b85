"""The numpy activations against scipy and numpy references, and the
max-subtracted log-sum-exp of the mixture density against scipy's."""

import warnings

import numpy as np
import pytest
from scipy import special

from ebsmooth.densities import IsoMixture
from ebsmooth.mlp import sigmoid, softplus

# Below the smallest normal double the references are subnormal and carry
# no relative accuracy (expit(-740) is 4.9e-322, where sigmoid gives exactly
# 0), so values that small are compared absolutely.
TINY = np.finfo(float).tiny


def grid():
    wide = np.linspace(-750.0, 750.0, 150_001)
    scales = np.array([1.0, 10.0, 100.0, 300.0]).repeat(5_000)
    rand = np.random.default_rng(0).standard_normal(scales.size) * scales
    return np.concatenate([wide, rand, [0.0, -0.0, 1e-300, -1e-300, 36.0, 37.0, -745.0]])


@pytest.mark.parametrize("fn, reference", [
    (softplus, lambda x: np.logaddexp(0.0, x)),
    (sigmoid, special.expit),
])
class TestActivations:
    def test_matches_reference(self, fn, reference):
        x = grid()
        np.testing.assert_allclose(fn(x), reference(x), rtol=1e-15, atol=TINY)

    def test_no_warning_far_out(self, fn, reference):
        x = np.array([-800.0, -710.0, 710.0, 800.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = fn(x)
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, reference(x), rtol=1e-15, atol=TINY)

    @pytest.mark.parametrize("x", [1.5, -3, np.float64(0.25), np.array(-2.0)])
    def test_scalar_inputs(self, fn, reference, x):
        out = fn(x)
        assert np.shape(out) == ()
        assert float(out) == pytest.approx(float(reference(float(x))), rel=1e-15)

    @pytest.mark.parametrize("shape", [(0,), (3, 4), (5, 9000), (2, 3, 4)])
    def test_array_inputs_unchanged(self, fn, reference, shape):
        # (5, 9000) spans several of softplus's blocks, one of them partial
        x = np.random.default_rng(1).standard_normal(shape) * 20.0
        before = x.copy()
        out = fn(x)
        np.testing.assert_array_equal(x, before)
        assert out.shape == shape and out.dtype == np.float64
        np.testing.assert_allclose(out, reference(x), rtol=1e-15, atol=TINY)

    def test_non_contiguous_and_integer_inputs(self, fn, reference):
        x = np.random.default_rng(2).standard_normal((70, 300)) * 5.0
        np.testing.assert_allclose(fn(x.T), reference(x.T), rtol=1e-15, atol=TINY)
        np.testing.assert_allclose(fn(x[:, ::3]), reference(x[:, ::3]), rtol=1e-15)
        ints = np.arange(-5, 6)
        np.testing.assert_allclose(fn(ints), reference(ints.astype(float)), rtol=1e-15)

    def test_nan_propagates_without_warning(self, fn, reference):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = fn(np.array([np.nan, 1.0]))
        assert np.isnan(out[0]) and np.isfinite(out[1])


def test_softplus_tails_are_exact():
    # softplus(x) = x above 37 and exp(x) below -37 to double precision
    np.testing.assert_array_equal(softplus(np.array([40.0, 800.0])), [40.0, 800.0])
    np.testing.assert_allclose(softplus(np.array([-40.0, -700.0])),
                               np.exp([-40.0, -700.0]), rtol=1e-15)
    assert softplus(-800.0) == 0.0 and sigmoid(-800.0) == 0.0 and sigmoid(800.0) == 1.0


class TestMixtureLogDensity:
    @staticmethod
    def reference(model, y, sigma):
        s2 = sigma * sigma + model.sigma0 * model.sigma0
        sq = np.sum((y[:, None, :] - model.means[None, :, :]) ** 2, axis=2)
        logits = np.log(model.weights) - 0.5 * sq / s2
        return special.logsumexp(logits, axis=1) - 0.5 * model.dim * np.log(2.0 * np.pi * s2)

    @pytest.mark.parametrize("scale", [0.5, 3.0, 200.0])
    def test_matches_scipy_logsumexp(self, scale):
        gen = np.random.default_rng(3)
        means = gen.standard_normal((5, 4)) * 2.0
        weights = gen.uniform(0.5, 1.5, 5)
        model = IsoMixture(means=means, sigma0=0.7, weights=weights / weights.sum())
        # scale 200 puts every point far from every mean, where each
        # component's own density underflows to 0
        y = gen.standard_normal((300, 4)) * scale
        got = model.log_density_y(y, 0.4)
        want = self.reference(model, y, 0.4)
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, want, rtol=1e-14)

    def test_single_point(self):
        # one point is a one-row batch
        model = IsoMixture.symmetric(np.array([1.0, -2.0]), 0.5)
        y = np.array([[0.3, 0.1]])
        assert model.log_density_y(y, 0.2)[0] == pytest.approx(
            float(self.reference(model, y, 0.2)[0]), rel=1e-14)
