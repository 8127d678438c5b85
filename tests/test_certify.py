import importlib

import numpy as np
import pytest
from scipy.stats import binom

import oracles
from ebsmooth.certify import (
    ABSTAIN,
    _tally,
    certified_radius,
    certify,
    linear_gaussian_oracle,
    linear_margin,
    rmax,
)
from ebsmooth.classifiers import EbClassifier, LinearClassifier, SoftClassifier
from ebsmooth.densities import IsoGaussian, IsoMixture, beta_of
from ebsmooth.energy import EnergyNet
from ebsmooth.harness import STREAM_CERT_BASE, certify_points
from ebsmooth.stats import (
    ConfidenceSpec,
    binom_lower_bound,
    rng_stream,
    std_normal_cdf,
    std_normal_inv_cdf,
)


class _ConstantHard:
    """Always answers the same class."""

    def __init__(self, label, n_classes=3, dim=2):
        self.label = label
        self.n_classes = n_classes
        self.dim = dim

    def predict_class(self, x):
        return np.full(x.shape[0], self.label, dtype=np.int64)


class _Buckets:
    """Votes floor(3 * sum of coordinates) mod n_classes, so every noise
    value can move a count, and records the batch sizes it is given."""

    n_classes = 4

    def __init__(self):
        self.batches = []

    def predict_class(self, x):
        self.batches.append(x.shape[0])
        return np.floor(3.0 * x.sum(axis=1)).astype(np.int64) % self.n_classes


class TestTallyBlocks:
    """_tally draws in blocks of max(1, min(n, _BLOCK_ELEMS // d)) rows, and
    its counts equal those of one (n, d) draw for any block size."""

    @staticmethod
    def _one_shot(x, sigma, n, gen):
        noisy = x + sigma * gen.standard_normal((n, x.shape[0]))
        return np.bincount(_Buckets().predict_class(noisy), minlength=_Buckets.n_classes)

    @pytest.mark.parametrize("dim, n, blocks", [
        (64, 100, [100]),                 # n below the block row count
        (64, 1024, [1024]),               # n equal to it
        (64, 2500, [1024, 1024, 452]),    # n not a multiple of it
        (1, 70_000, [65_536, 4_464]),     # d = 1
        (2**16 + 3, 3, [1, 1, 1]),        # d so large a block is one row
    ])
    def test_counts_equal_one_shot_draw(self, dim, n, blocks):
        x = rng_stream(8, 0).uniform(-1.0, 1.0, dim)
        clf = _Buckets()
        counts = _tally(clf, x, 0.7, n, rng_stream(8, 1))
        assert clf.batches == blocks
        np.testing.assert_array_equal(counts, self._one_shot(x, 0.7, n, rng_stream(8, 1)))
        assert counts.sum() == n

    @pytest.mark.parametrize("block_elems", [1, 7, 64, 2**20])
    def test_counts_do_not_depend_on_block_size(self, monkeypatch, block_elems):
        # the package exports certify(), which hides the module attribute
        monkeypatch.setattr(importlib.import_module("ebsmooth.certify"), "_BLOCK_ELEMS",
                            block_elems)
        x = rng_stream(9, 0).uniform(-1.0, 1.0, 5)
        counts = _tally(_Buckets(), x, 0.4, 333, rng_stream(9, 1))
        np.testing.assert_array_equal(counts, self._one_shot(x, 0.4, 333, rng_stream(9, 1)))


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
                assert res.predicted == h.predict_class(x[None])[0]


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
        assert res.predicted == h.predict_class(x[None])[0]
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


class TestOracleProperty:
    def test_certificates_never_beat_the_exact_oracle(self):
        # 30 random 10-d linear classifiers over the closed-form Gaussian
        # denoiser: each certificate is sound with probability >= 1 - alpha,
        # so over 30 of them at alpha = 1e-3 two failures have probability
        # below C(30, 2) * 1e-6 = 4.4e-4; at most one is allowed
        spec = ConfidenceSpec(alpha=1e-3, n0=100, nc=1_000)
        sigma0, dim = 1.0, 10
        model = IsoGaussian(sigma0=sigma0, dim=dim)
        gen = rng_stream(41, 0)
        failures, certified = 0, 0
        for i in range(30):
            h = LinearClassifier(gen.standard_normal(dim), float(gen.standard_normal()))
            sigma = float(gen.uniform(0.25, 1.0))
            x = model.sample(1, gen)[0]
            res = certify(EbClassifier(h, model, sigma), x, sigma, spec,
                          rng_stream(41, 2 * i + 1), rng_stream(41, 2 * i + 2))
            oracle = linear_gaussian_oracle(h, x, sigma, sigma0)
            if not res.abstained:
                certified += 1
                failures += res.predicted != oracle.predicted
            failures += res.radius > oracle.radius + 1e-9
        assert failures <= 1
        assert certified >= 20  # the property is exercised, not vacuous


class TestCoverage:
    ALPHA = 0.05
    SPEC = ConfidenceSpec(alpha=ALPHA, n0=10, nc=100)

    def _check_coverage(self, clf, points, mass1, sigma):
        """Certify the 200 points under 10 seeds at alpha = 0.05, nc = 100.
        pa_lower may exceed the exact mass of the selected class with
        probability at most alpha, so the count of such cases stays below
        the Binomial(N, alpha) upper 1e-6 quantile.  Abstentions count too:
        their candidate is rebuilt from the same keyed selection stream."""
        spec = self.SPEC
        violations = certified = total = 0
        for seed in range(10):
            for i, res in enumerate(certify_points(clf, points, sigma, spec, seed)):
                candidate = res.predicted
                if res.abstained:
                    sel = rng_stream(seed, STREAM_CERT_BASE + 2 * i)
                    candidate = int(np.argmax(_tally(clf, points[i], sigma, spec.n0, sel)))
                else:
                    certified += 1
                mass = mass1[i] if candidate == 1 else 1.0 - mass1[i]
                violations += res.pa_lower > mass
                total += 1
        assert total == 2000
        assert 0 < violations <= binom.ppf(1.0 - 1e-6, total, self.ALPHA)
        assert certified >= total // 4  # the bound is exercised, not vacuous

    def test_bound_rarely_exceeds_exact_class_mass(self):
        # linear-over-Gaussian: the exact class-1 mass at x is
        # Phi((beta w.x + b) / (beta sigma |w|))
        sigma, sigma0, dim = 0.5, 1.0, 3
        model = IsoGaussian(sigma0=sigma0, dim=dim)
        gen = rng_stream(51, 0)
        h = LinearClassifier(gen.standard_normal(dim), 0.3)
        clf = EbClassifier(h, model, sigma)
        beta = beta_of(sigma, sigma0)
        wnorm = float(np.linalg.norm(h.w))
        # class-1 masses spread over [0.05, 0.95], where the bound is tight
        t = std_normal_inv_cdf(gen.uniform(0.05, 0.95, 200))
        side = gen.standard_normal((200, dim))
        side -= np.outer(side @ h.w, h.w) / wnorm**2
        points = np.outer(t * sigma - h.b / (beta * wnorm), h.w / wnorm) + side
        mass1 = std_normal_cdf((beta * (points @ h.w) + h.b) / (beta * sigma * wnorm))
        np.testing.assert_allclose(mass1, std_normal_cdf(t), rtol=0, atol=1e-12)
        self._check_coverage(clf, points, mass1, sigma)

    def test_bound_rarely_exceeds_exact_class_mass_through_a_mixture(self):
        # the symmetric mixture +-m u (|u| = 1) under the base c u.x + b, a
        # nonlinear denoiser: u.xhat(y) = g(u.y) with g strictly increasing,
        # and the rest of xhat is orthogonal to the base, so the composed
        # classifier says class 1 iff u.y > t*, where g(t*) = -b/c, and the
        # exact class-1 mass at x is Phi((u.x - t*) / sigma).  t* is found by
        # bisection on the closed form of oracles.py, which shares no code
        # with IsoMixture.
        sigma, sigma0, dim, m, c, b = 0.6, 0.5, 8, 1.5, 1.3, 0.4
        gen = rng_stream(52, 0)
        u = gen.standard_normal(dim)
        u /= np.linalg.norm(u)
        clf = EbClassifier(LinearClassifier(c * u, b), IsoMixture.symmetric(m * u, sigma0),
                           sigma)

        def g(t):
            return u @ oracles.symmetric_mixture_estimate(m * u, sigma0, t * u, sigma)

        lo, hi = -10.0, 10.0
        assert g(lo) < -b / c < g(hi)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if g(mid) < -b / c else (lo, mid)
        t_star = 0.5 * (lo + hi)
        # class-1 masses spread over [0.05, 0.95], where the bound is tight
        t = std_normal_inv_cdf(gen.uniform(0.05, 0.95, 200))
        side = gen.standard_normal((200, dim))
        side -= np.outer(side @ u, u)
        points = np.outer(t_star + sigma * t, u) + side
        mass1 = std_normal_cdf((points @ u - t_star) / sigma)
        np.testing.assert_allclose(mass1, std_normal_cdf(t), rtol=0, atol=1e-12)
        self._check_coverage(clf, points, mass1, sigma)


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
        # argmax of NaN logits is the NaN's index, which would vote
        soft = SoftClassifier.init(2, (8,), 3, rng_stream(0, 2))
        soft.weights[-1][:] = np.nan
        spec = ConfidenceSpec(alpha=0.001, n0=100, nc=1_000)
        with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError):
            certify(soft, np.zeros(2), 1.0, spec, rng_stream(4, 0))


class TestCertifiedRadius:
    def test_never_above_exact_radius(self):
        # exact Phi(radius / sigma) <= pa_lower, and the rounding costs at
        # most 5e-15 of the radius
        mpmath = pytest.importorskip("mpmath")
        budgets = [alpha ** (1.0 / nc) for alpha in (1e-3, 1e-2, 0.05)
                   for nc in (100, 1_000, 10_000, 100_000, 1_000_000)]
        bounds = binom_lower_bound(np.arange(510, 1001, 5), 1_000, 1e-3)
        spread = rng_stream(11, 0).uniform(0.5, 1.0, 300)
        dyadic = np.concatenate([0.5 + 2.0 ** -np.arange(2, 53),
                                 1.0 - 2.0 ** -np.arange(2, 53)])
        pas = np.concatenate([budgets, bounds, spread, dyadic])
        with mpmath.workdps(40):
            for sigma in (0.12, 0.5, 1.0, 3.7):
                for pa in pas[pas > 0.5]:
                    r = certified_radius(pa, sigma)
                    z = mpmath.mpf(r) / mpmath.mpf(sigma)
                    assert mpmath.ncdf(z) <= mpmath.mpf(pa), (pa, sigma)
                    above = z * (1 + mpmath.mpf(5e-15))
                    assert mpmath.ncdf(above) > mpmath.mpf(pa), (pa, sigma)
