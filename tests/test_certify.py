import importlib
import itertools
import math
import sys
import threading

import numpy as np
import pytest
from scipy.special import ndtr
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
from ebsmooth.densities import Identity, IsoMixture, beta_of
from ebsmooth.energy import EnergyNet
from ebsmooth.harness import STREAM_CERT_BASE, certify_points
from ebsmooth.stats import (
    ConfidenceSpec,
    binom_lower_bound,
    rng_stream,
    std_normal_inv_cdf,
)


class _ConstantHard:
    """Always answers the same class."""

    def __init__(self, label, n_classes=3, dim=2, sigma=1.0):
        self.label = label
        self.n_classes = n_classes
        self.dim = dim
        self.sigma = sigma

    def predict_class(self, x):
        return np.full(x.shape[0], self.label, dtype=np.int64)


class _Buckets:
    """Votes floor(3 * sum of coordinates) mod n_classes, so every noise
    value can move a count, and records the batch sizes it is given."""

    n_classes = 4

    def __init__(self, sigma=1.0):
        self.sigma = sigma
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
        clf = _Buckets(0.7)
        counts = _tally(clf, x, n, rng_stream(8, 1))
        assert clf.batches == blocks
        np.testing.assert_array_equal(counts, self._one_shot(x, 0.7, n, rng_stream(8, 1)))
        assert counts.sum() == n

    @pytest.mark.parametrize("block_elems", [1, 7, 64, 2**20])
    def test_counts_do_not_depend_on_block_size(self, monkeypatch, block_elems):
        # the package exports certify(), which hides the module attribute
        monkeypatch.setattr(importlib.import_module("ebsmooth.certify"), "_BLOCK_ELEMS",
                            block_elems)
        x = rng_stream(9, 0).uniform(-1.0, 1.0, 5)
        counts = _tally(_Buckets(0.4), x, 333, rng_stream(9, 1))
        np.testing.assert_array_equal(counts, self._one_shot(x, 0.4, 333, rng_stream(9, 1)))

    def test_blas_backed_counts_equal_a_serial_tally(self):
        # the mixture denoiser and the MLP both multiply matrices, so the
        # counts are bitwise those of a serial loop only if every block keeps
        # its rows and its operations: 2500 rows at d = 64 are blocks of
        # 1024, 1024 and 452.  The base votes for the nearest mean, so at
        # the centroid all three classes draw votes
        means = rng_stream(36, 0).standard_normal((3, 64))
        base = SoftClassifier([means.T, np.eye(3)], [-0.5 * (means**2).sum(axis=1), np.zeros(3)])
        clf = EbClassifier(base, IsoMixture(means=means, sigma0=0.5), 1.0)
        x = means.mean(axis=0)
        counts = _tally(clf, x, 2500, rng_stream(36, 1))
        assert np.array_equal(counts, oracles.serial_tally(clf, x, 2500, rng_stream(36, 1), 1024))
        assert counts.sum() == 2500 and counts.min() > 500

    @pytest.mark.parametrize("n, threads", [(1024, 0), (3072, 1), (4096, 1)])
    def test_only_a_multi_block_tally_starts_a_thread(self, n, threads):
        # at d = 64 one block is 1024 rows; from three blocks on, the helper
        # that draws ahead is alive while the caller classifies the first
        before = threading.active_count()
        seen = []

        class Counting(_Buckets):
            def predict_class(self, x):
                seen.append(threading.active_count() - before)
                return super().predict_class(x)

        _tally(Counting(), np.zeros(64), n, rng_stream(10, 1))
        assert seen[0] == threads
        assert threading.active_count() == before

    def test_concurrent_tallies_under_fast_switching_keep_their_counts(self, monkeypatch):
        # 8-row blocks, so each tally hands 250 blocks between its two
        # threads; six tallies at once, with the interpreter switching threads
        # every microsecond: a block drawn over before it is classified, or
        # classified before it is drawn, changes the counts
        monkeypatch.setattr(importlib.import_module("ebsmooth.certify"), "_BLOCK_ELEMS", 64)
        x = rng_stream(13, 0).uniform(-1.0, 1.0, 8)
        want = [self._one_shot(x, 0.6, 2000, rng_stream(13, i)) for i in range(6)]
        got = [None] * 6

        def run(i):
            got[i] = _tally(_Buckets(0.6), x, 2000, rng_stream(13, i))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for counts, expected in zip(got, want):
            np.testing.assert_array_equal(counts, expected)

    def test_a_classifier_error_stops_and_joins_the_helper(self):
        class FailsOnBlock2(_Buckets):
            def predict_class(self, x):
                if len(self.batches) == 1:
                    raise FloatingPointError("block 2")
                return super().predict_class(x)

        before = threading.active_count()
        clf = FailsOnBlock2()
        with pytest.raises(FloatingPointError, match="block 2"):
            _tally(clf, np.zeros(64), 4096, rng_stream(11, 1))
        assert clf.batches == [1024]
        assert threading.active_count() == before

    def test_a_draw_error_reaches_the_caller(self):
        class FailsOnDraw3:
            def __init__(self):
                self.gen = rng_stream(12, 1)
                self.draws = 0

            def standard_normal(self, out):
                self.draws += 1
                if self.draws == 3:
                    raise MemoryError("draw 3")
                return self.gen.standard_normal(out=out)

        before = threading.active_count()
        clf, gen = _Buckets(), FailsOnDraw3()
        with pytest.raises(MemoryError, match="draw 3"):
            _tally(clf, np.zeros(64), 4096, gen)
        assert clf.batches == [1024, 1024] and gen.draws == 3
        assert threading.active_count() == before


class TestCertify:
    def test_constant_classifier_reaches_budget_ceiling(self):
        spec = ConfidenceSpec(alpha=0.001, n0=100, nc=100_000)
        c = _ConstantHard(0)
        res = certify(c, np.zeros(2), spec, rng_stream(3, 0), rng_stream(3, 1))
        assert res.predicted == 0
        assert abs(res.radius - rmax(spec, 1.0)) < 1e-12
        assert abs(res.radius - 3.81) < 0.01
        assert res.counts[0] == spec.nc

    def test_linear_margin_one_certifies_just_below_margin(self):
        # class mass is Phi(1), so the certified radius approaches 1 from
        # below as the budget grows; at nc = 1e5 it lands in [0.97, 1.0]
        h = EbClassifier(LinearClassifier(np.array([1.0, 0.0]), 0.0), Identity(), 1.0)
        spec = ConfidenceSpec(alpha=0.001, n0=100, nc=100_000)
        res = certify(h, np.array([1.0, 0.0]), spec, rng_stream(4, 0), rng_stream(4, 1))
        assert res.predicted == 1
        assert 0.97 <= res.radius <= 1.0 + 1e-9

    def test_boundary_point_abstains_with_zero_radius(self):
        h = EbClassifier(LinearClassifier(np.array([1.0, 0.0]), 0.0), Identity(), 1.0)
        spec = ConfidenceSpec(alpha=0.001, n0=100, nc=2000)
        res = certify(h, np.array([0.0, 0.0]), spec, rng_stream(5, 0), rng_stream(5, 1))
        assert res.abstained
        assert res.predicted == ABSTAIN
        assert res.radius == 0.0
        assert res.pa_lower <= 0.5

    def test_radius_monotone_in_hits(self):
        spec = ConfidenceSpec(alpha=0.001, n0=10, nc=1000)
        ks = np.arange(0, 1001)
        pas = np.array([binom_lower_bound(k, spec.nc, spec.alpha) for k in ks])
        radii = np.zeros(len(ks))
        certified = pas > 0.5
        radii[certified] = [std_normal_inv_cdf(pa) for pa in pas[certified]]
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
        smoothed = EbClassifier(h, Identity(), 0.7)
        spec = ConfidenceSpec(alpha=0.001, n0=50, nc=2000)
        for i in range(50):
            x = 2.0 * gen.standard_normal(2)
            res = certify(smoothed, x, spec, rng_stream(6, 2 * i), rng_stream(6, 2 * i + 1))
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

    @pytest.mark.parametrize("alpha, nc", [(1e-3, 5), (1e-3, 9), (0.25, 2), (0.5, 1)])
    def test_no_budget_at_which_every_point_abstains(self, alpha, nc):
        # alpha^(1/nc) <= 1/2: even nc hits of nc would bound the class mass
        # at or below 1/2, so certify would abstain at every point.  At
        # (1e-3, 5) the bound is 0.251, whose normal quantile is -0.671
        with pytest.raises(ValueError, match=f"^nc={nc} certifies no point at "
                                             f"alpha={alpha}: nc must be at least ") as info:
            ConfidenceSpec(alpha=alpha, n0=1, nc=nc)
        least = int(str(info.value).rsplit(" ", 1)[1])
        assert rmax(ConfidenceSpec(alpha=alpha, n0=1, nc=least), 1.0) > 0.0
        with pytest.raises(ValueError, match="certifies no point"):
            ConfidenceSpec(alpha=alpha, n0=1, nc=least - 1)

    def test_positive_once_all_hits_clear_one_half(self):
        # 1e-3^(1/10) = 0.501
        assert rmax(ConfidenceSpec(alpha=1e-3, n0=1, nc=10), 1.0) > 0.0

    @pytest.mark.parametrize("alpha", [5e-324, 1e-300, 1e-9, 1e-3, 0.1, 0.5, 0.99])
    def test_positive_and_finite_at_every_valid_budget(self, alpha):
        # the valid nc run from the least whose bound alpha^(1/nc) clears
        # 1/2 to the last whose bound is below 1; the bound rises with nc
        least = next(n for n in itertools.count(1) if alpha ** (1 / n) > 0.5)
        last, over = least, 10**20
        while over - last > 1:
            mid = (last + over) // 2
            last, over = (mid, over) if alpha ** (1 / mid) < 1.0 else (last, mid)
        grid = {least, least + 1, 2 * least, last - 1, last,
                *(10**e for e in range(20) if least <= 10**e <= last)}
        for nc in sorted(grid):
            for sigma in (1e-3, 0.5, 1.0, 1e3):
                r = rmax(ConfidenceSpec(alpha=alpha, n0=1, nc=nc), sigma)
                assert 0.0 < r < math.inf, (nc, sigma, r)
        with pytest.raises(ValueError, match="rounds to 1"):
            ConfidenceSpec(alpha=alpha, n0=1, nc=last + 1)


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
        # beta x sits exactly on the boundary: radius 0, tie class
        h = LinearClassifier(np.array([1.0, 0.0]), -0.5)
        x = np.array([1.0, 0.0])
        res = linear_gaussian_oracle(h, x, sigma=1.0, sigma0=1.0)
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
        model = IsoMixture(means=np.zeros((1, dim)), sigma0=sigma0)
        gen = rng_stream(41, 0)
        failures, certified = 0, 0
        for i in range(30):
            h = LinearClassifier(gen.standard_normal(dim), float(gen.standard_normal()))
            sigma = float(gen.uniform(0.25, 1.0))
            x = model.sample(1, gen)[0]
            res = certify(EbClassifier(h, model, sigma), x, spec,
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

    def _check_coverage(self, clf, points, mass1):
        """Certify the 200 points under 10 seeds at alpha = 0.05, nc = 100.
        pa_lower may exceed the exact mass of the selected class with
        probability at most alpha, so the count of such cases stays below
        the Binomial(N, alpha) upper 1e-6 quantile.  Abstentions count too:
        their candidate is rebuilt from the same keyed selection stream."""
        spec = self.SPEC
        violations = certified = total = 0
        for seed in range(10):
            for i, res in enumerate(certify_points(clf, points, spec, seed)):
                candidate = res.predicted
                if res.abstained:
                    sel = rng_stream(seed, STREAM_CERT_BASE + 2 * i)
                    candidate = int(np.argmax(_tally(clf, points[i], spec.n0, sel)))
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
        model = IsoMixture(means=np.zeros((1, dim)), sigma0=sigma0)
        gen = rng_stream(51, 0)
        h = LinearClassifier(gen.standard_normal(dim), 0.3)
        clf = EbClassifier(h, model, sigma)
        beta = beta_of(sigma, sigma0)
        wnorm = float(np.linalg.norm(h.w))
        # class-1 masses spread over [0.05, 0.95], where the bound is tight
        t = np.array([std_normal_inv_cdf(p) for p in gen.uniform(0.05, 0.95, 200)])
        side = gen.standard_normal((200, dim))
        side -= np.outer(side @ h.w, h.w) / wnorm**2
        points = np.outer(t * sigma - h.b / (beta * wnorm), h.w / wnorm) + side
        mass1 = ndtr((beta * (points @ h.w) + h.b) / (beta * sigma * wnorm))
        np.testing.assert_allclose(mass1, ndtr(t), rtol=0, atol=1e-12)
        self._check_coverage(clf, points, mass1)

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
        t = np.array([std_normal_inv_cdf(p) for p in gen.uniform(0.05, 0.95, 200)])
        side = gen.standard_normal((200, dim))
        side -= np.outer(side @ u, u)
        points = np.outer(t_star + sigma * t, u) + side
        mass1 = ndtr((points @ u - t_star) / sigma)
        np.testing.assert_allclose(mass1, ndtr(t), rtol=0, atol=1e-12)
        self._check_coverage(clf, points, mass1)


class TestCertResult:
    def test_radius_positive_iff_certified(self):
        spec = ConfidenceSpec(alpha=0.001, n0=20, nc=500)
        h = EbClassifier(LinearClassifier(np.array([1.0, 0.0]), 0.0), Identity(), 1.0)
        gen_points = rng_stream(7, 0)
        for i in range(30):
            x = 2.0 * gen_points.standard_normal(2)
            res = certify(h, x, spec, rng_stream(7, 2 * i + 1), rng_stream(7, 2 * i + 2))
            if res.abstained:
                assert res.radius == 0.0 and res.pa_lower <= 0.5
            else:
                assert res.radius > 0.0 and res.pa_lower > 0.5
                want = 1.0 * std_normal_inv_cdf(res.pa_lower)
                assert abs(res.radius - want) < 1e-12


class TestNoiseScale:
    """certify smooths at classifier.sigma and refuses, before any draw, a
    scale at which it would certify nonsense: at sigma = 0 every vote is the
    base's at x, and a radius of 0 would be returned as a certificate."""

    @pytest.mark.parametrize("sigma", [0.0, float("nan"), float("inf")])
    def test_a_scale_that_cannot_certify_is_a_value_error(self, sigma):
        # EbClassifier itself refuses a NaN or infinite scale, so a duck-typed
        # classifier carries it here
        h = _ConstantHard(1, sigma=sigma)
        gen, est_gen = rng_stream(3, 0), rng_stream(3, 1)
        with pytest.raises(ValueError, match="sigma must be positive and finite"):
            certify(h, np.array([2.0, 0.0]), ConfidenceSpec(), gen, est_gen)
        # neither stream has drawn
        assert gen.random() == rng_stream(3, 0).random()
        assert est_gen.random() == rng_stream(3, 1).random()

    def test_the_radius_is_at_the_classifiers_scale(self):
        spec = ConfidenceSpec(alpha=0.001, n0=20, nc=500)
        res = certify(_ConstantHard(1, sigma=0.7), np.zeros(2), spec,
                      rng_stream(3, 0), rng_stream(3, 1))
        assert res.counts[1] == spec.nc
        assert res.radius == certified_radius(res.pa_lower, 0.7)
        assert abs(res.radius - rmax(spec, 0.7)) < 1e-12

    def test_a_nan_point_never_votes(self):
        # NaN > 0 is False, so a bare linear base would count every NaN copy
        # as a class-0 vote and certify it
        h = EbClassifier(LinearClassifier(np.array([1.0, 0.0]), 0.0), Identity(), 1.0)
        spec = ConfidenceSpec(alpha=0.001, n0=100, nc=1_000)
        with pytest.raises(FloatingPointError, match="denoised points are not finite"):
            certify(h, np.array([np.nan, 0.0]), spec, rng_stream(3, 0), rng_stream(3, 1))


class TestNonFiniteModels:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("make", [
        lambda v: beta_of(v, 1.0),
        lambda v: beta_of(1.0, v),
        lambda v: IsoMixture(means=np.zeros((1, 2)), sigma0=v),
        lambda v: IsoMixture(means=np.eye(2), sigma0=v),
        lambda v: IsoMixture(means=np.eye(2), sigma0=1.0, weights=np.array([v, 0.5])),
        lambda v: EbClassifier(LinearClassifier(np.array([1.0, 0.0]), 0.0), Identity(), v),
        lambda v: linear_gaussian_oracle(LinearClassifier(np.array([1.0, 0.0]), 0.0),
                                         np.ones(2), 1.0, v),
    ], ids=["beta-sigma", "beta-sigma0", "gaussian-sigma0", "mixture-sigma0",
            "mixture-weights", "eb-sigma", "oracle-sigma0"])
    def test_a_non_finite_scale_or_weight_is_out_of_range(self, make, bad):
        # each check used to be one comparison, which NaN fails and so
        # passes: the oracle then gave radius NaN, which no violation check
        # can flag
        with pytest.raises(ValueError, match="must be (positive|nonnegative) and finite"):
            make(bad)

    def test_nan_energy_never_certifies(self):
        # NaN > 0 is False, so unguarded NaN denoised points would all vote
        # class 0 and certify it with radius ~1.6
        net = EnergyNet.init(2, (8,), 1.0, rng_stream(0, 1))
        net.weights[0][:] = np.nan
        c = EbClassifier(LinearClassifier(np.array([1.0, 0.0]), 0.0), net, sigma=1.0)
        spec = ConfidenceSpec(alpha=0.001, n0=100, nc=10_000)
        with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError):
            certify(c, np.array([2.0, 0.0]), spec, rng_stream(3, 0), rng_stream(3, 1))

    def test_nan_classifier_never_votes(self):
        # argmax of NaN logits is the NaN's index, which would vote
        soft = SoftClassifier.init(2, (8,), 3, rng_stream(0, 2))
        soft.weights[-1][:] = np.nan
        spec = ConfidenceSpec(alpha=0.001, n0=100, nc=1_000)
        with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError):
            certify(EbClassifier(soft, Identity(), 1.0), np.zeros(2), spec,
                    rng_stream(4, 0), rng_stream(4, 1))


class TestCertifiedRadius:
    def test_never_above_exact_radius(self):
        # exact Phi(radius / sigma) <= pa_lower, and the rounding costs at
        # most 5e-15 of the radius
        mpmath = pytest.importorskip("mpmath")
        budgets = [alpha ** (1.0 / nc) for alpha in (1e-3, 1e-2, 0.05)
                   for nc in (100, 1_000, 10_000, 100_000, 1_000_000)]
        bounds = [binom_lower_bound(k, 1_000, 1e-3) for k in range(510, 1001, 5)]
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
