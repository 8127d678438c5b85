import numpy as np
import pytest

from ebsmooth.certify import (
    ABSTAIN,
    certify,
    linear_gaussian_oracle,
    linear_margin,
    predict,
    rmax,
)
from ebsmooth.classifiers import EbClassifier, LinearClassifier, SoftClassifier
from ebsmooth.densities import IsoGaussian
from ebsmooth.energy import EnergyNet
from ebsmooth.stats import ConfidenceSpec, binom_lower_bound, rng_stream, std_normal_inv_cdf


class _ConstantHard:
    """Always answers the same class."""

    def __init__(self, label, n_classes=3, dim=2):
        self.label = label
        self.n_classes = n_classes
        self.dim = dim

    def predict_class(self, x):
        x = np.atleast_2d(x)
        return np.full(x.shape[0], self.label, dtype=np.int64)


class TestPredict:
    def test_constant_classifier_never_abstains(self):
        spec = ConfidenceSpec(alpha=0.001, n0=100, nc=1000)
        c = _ConstantHard(2)
        for i in range(20):
            out = predict(c, np.zeros(2), 1.0, spec, rng_stream(0, i))
            assert out == 2

    def test_on_boundary_abstains(self):
        # exactly on the decision boundary each noisy vote is a fair coin,
        # so the test at level alpha = 0.001 abstains almost always
        h = LinearClassifier(np.array([1.0, 0.0]), 0.0)
        spec = ConfidenceSpec(alpha=0.001, n0=100, nc=1000)
        x = np.array([0.0, 1.3])
        abstained = sum(
            predict(h, x, 1.0, spec, rng_stream(1, i)) == ABSTAIN
            for i in range(1000)
        )
        assert abstained >= 990

    def test_wide_margin_recovers_base_label(self):
        # margin of 3 sigma: the noisy majority matches h(x) essentially
        # always (class mass 0.99865)
        h = LinearClassifier(np.array([1.0, 0.0]), 0.0)
        spec = ConfidenceSpec(alpha=0.001, n0=100, nc=1000)
        x = np.array([3.0, 0.0])
        outcomes = [predict(h, x, 1.0, spec, rng_stream(2, i)) for i in range(1000)]
        returned = [o for o in outcomes if o != ABSTAIN]
        assert len(returned) >= 990
        assert all(o == 1 for o in returned)


class TestCertify:
    def test_constant_classifier_reaches_budget_ceiling(self):
        spec = ConfidenceSpec(alpha=0.001, n0=100, nc=100_000)
        c = _ConstantHard(0)
        res = certify(c, np.zeros(2), 1.0, spec, rng_stream(3, 0), rng_stream(3, 1))
        assert res.predicted == 0
        assert abs(res.radius - rmax(spec, 1.0)) < 1e-12
        assert abs(res.radius - 3.81) < 0.01
        assert res.counts[0] == spec.nc

    def test_linear_margin_one_certifies_just_below_margin(self):
        # class mass is Phi(1), so the certified radius approaches 1 from
        # below as the budget grows; at nc = 1e5 it lands in [0.97, 1.0]
        h = LinearClassifier(np.array([1.0, 0.0]), 0.0)
        spec = ConfidenceSpec(alpha=0.001, n0=100, nc=100_000)
        res = certify(h, np.array([1.0, 0.0]), 1.0, spec,
                      rng_stream(4, 0), rng_stream(4, 1))
        assert res.predicted == 1
        assert 0.97 <= res.radius <= 1.0 + 1e-9

    def test_boundary_point_abstains_with_zero_radius(self):
        h = LinearClassifier(np.array([1.0, 0.0]), 0.0)
        spec = ConfidenceSpec(alpha=0.001, n0=100, nc=2000)
        res = certify(h, np.array([0.0, 0.0]), 1.0, spec,
                      rng_stream(5, 0), rng_stream(5, 1))
        assert res.abstained
        assert res.predicted == ABSTAIN
        assert res.radius == 0.0
        assert res.pa_lower <= 0.5

    def test_radius_monotone_in_hits(self):
        spec = ConfidenceSpec(alpha=0.001, n0=10, nc=1000)
        ks = np.arange(0, 1001)
        pas = binom_lower_bound(ks, spec.nc, spec.alpha)
        radii = np.zeros(len(ks))
        certified = pas > 0.5
        radii[certified] = std_normal_inv_cdf(pas[certified])
        assert np.all(np.diff(radii) >= -1e-12)

    def test_radius_never_exceeds_budget_ceiling(self):
        spec = ConfidenceSpec(alpha=0.001, n0=10, nc=500)
        ceiling = rmax(spec, 0.7)
        for k in [251, 300, 400, 499, 500]:
            pa = binom_lower_bound(k, spec.nc, spec.alpha)
            if pa > 0.5:
                assert 0.7 * std_normal_inv_cdf(pa) <= ceiling + 1e-12

    def test_vanilla_prediction_identical_to_base(self):
        # smoothing a linear classifier does not move its decision: whenever
        # certification does not abstain it returns h(x)
        gen = rng_stream(6, 0)
        h = LinearClassifier(np.array([0.8, -0.6]), 0.25)
        spec = ConfidenceSpec(alpha=0.001, n0=50, nc=2000)
        for i in range(50):
            x = 2.0 * gen.standard_normal(2)
            res = certify(h, x, 0.7, spec, rng_stream(6, 2 * i), rng_stream(6, 2 * i + 1))
            if not res.abstained:
                assert res.predicted == h.predict_class(x)


class TestRmax:
    def test_reported_budget_values(self):
        assert abs(rmax(ConfidenceSpec(1e-3, 100, 10**5), 1.0) - 3.81) < 0.01
        assert abs(rmax(ConfidenceSpec(1e-1, 100, 10**10), 1.0) - 6.23) < 0.01

    def test_linear_in_sigma(self):
        spec = ConfidenceSpec(1e-3, 100, 10**5)
        assert abs(rmax(spec, 0.6) - 0.6 * rmax(spec, 1.0)) < 1e-12
        assert abs(rmax(spec, 0.6) - 2.29) < 0.01


class TestLinearMargin:
    def test_axis_aligned(self):
        h = LinearClassifier(np.array([1.0, 0.0]), 0.0)
        assert linear_margin(h, np.array([2.0, 0.0])) == 2.0

    def test_on_boundary(self):
        h = LinearClassifier(np.array([3.0, 4.0]), 0.0)
        assert linear_margin(h, np.zeros(2)) == 0.0

    def test_general_case(self):
        h = LinearClassifier(np.array([1.0, 1.0]), -1.0)
        x = np.array([1.0, 1.0])
        want = abs(2.0 - 1.0) / np.sqrt(2.0)
        assert abs(linear_margin(h, x) - want) < 1e-12
        # cross-check by projecting x onto the hyperplane
        w = h.w / np.linalg.norm(h.w)
        proj = x - linear_margin(h, x) * w
        assert abs(proj @ h.w + h.b) < 1e-12


class TestLinearGaussianOracle:
    def test_no_noise_reduces_to_margin(self):
        h = LinearClassifier(np.array([1.0, 2.0]), 0.5)
        x = np.array([0.7, -0.3])
        res = linear_gaussian_oracle(h, x, sigma=0.0, sigma0=1.0)
        assert res.predicted == h.predict_class(x)
        assert abs(res.radius - linear_margin(h, x)) < 1e-12

    def test_zero_bias_radius_is_contraction_free(self):
        # with b = 0 the contraction cancels: radius = |x_1| for any noise
        h = LinearClassifier(np.array([1.0, 0.0]), 0.0)
        x = np.array([1.7, 0.4])
        for sigma in [0.0, 0.5, 1.0, 3.0]:
            res = linear_gaussian_oracle(h, x, sigma, 1.0)
            assert abs(res.radius - 1.7) < 1e-12

    def test_radius_gain_over_margin(self):
        # w = (1, 0), b = 1, x = (1, 0), beta = 1/2: decision value at the
        # denoised point is 1.5 and the radius is 1.5/0.5 = 3, beating the
        # plain margin of 2
        h = LinearClassifier(np.array([1.0, 0.0]), 1.0)
        x = np.array([1.0, 0.0])
        res = linear_gaussian_oracle(h, x, sigma=1.0, sigma0=1.0)
        assert res.predicted == 1
        assert abs(res.radius - 3.0) < 1e-12
        assert linear_margin(h, x) == 2.0

    def test_boundary_flag(self):
        # beta x sits exactly on the boundary: radius 0, tie class, flagged
        h = LinearClassifier(np.array([1.0, 0.0]), -0.5)
        x = np.array([1.0, 0.0])
        res = linear_gaussian_oracle(h, x, sigma=1.0, sigma0=1.0)
        assert res.on_boundary
        assert res.radius == 0.0
        assert res.predicted == 0


class TestCertResult:
    def test_radius_positive_iff_certified(self):
        spec = ConfidenceSpec(alpha=0.001, n0=20, nc=500)
        h = LinearClassifier(np.array([1.0, 0.0]), 0.0)
        gen_points = rng_stream(7, 0)
        for i in range(30):
            x = 2.0 * gen_points.standard_normal(2)
            res = certify(h, x, 1.0, spec, rng_stream(7, 2 * i + 1), rng_stream(7, 2 * i + 2))
            if res.abstained:
                assert res.radius == 0.0 and res.pa_lower <= 0.5
            else:
                assert res.radius > 0.0 and res.pa_lower > 0.5
                want = 1.0 * std_normal_inv_cdf(res.pa_lower)
                assert abs(res.radius - want) < 1e-12


class TestNonFiniteModels:
    def test_nan_energy_never_certifies(self):
        # NaN > 0 is False, so unguarded NaN denoised points would all vote
        # class 0 and certify it with radius ~1.6
        net = EnergyNet.init(2, (8,), 1.0, rng_stream(0, 1))
        net.weights[0][:] = np.nan
        c = EbClassifier(LinearClassifier(np.array([1.0, 0.0]), 0.0), net, sigma=1.0)
        spec = ConfidenceSpec(alpha=0.001, n0=100, nc=10_000)
        with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError):
            certify(c, np.array([2.0, 0.0]), 1.0, spec, rng_stream(3, 0))

    def test_nan_classifier_never_votes(self):
        # argmax of NaN probabilities is class 0
        soft = SoftClassifier.init(2, (8,), 3, rng_stream(0, 2))
        soft.weights[-1][:] = np.nan
        spec = ConfidenceSpec(alpha=0.001, n0=100, nc=1_000)
        with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError):
            predict(soft, np.zeros(2), 1.0, spec, rng_stream(4, 0))
