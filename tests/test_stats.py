import math

import numpy as np
import pytest

import oracles
from ebsmooth.stats import (
    ConfidenceSpec,
    binom_lower_bound,
    rng_stream,
    std_normal_inv_cdf,
)


class TestStdNormalInvCdf:
    def test_median_is_zero(self):
        assert std_normal_inv_cdf(0.5) == 0.0

    def test_known_quantile(self):
        # frozen from oracles.normal_quantile(0.975) (bisection on the
        # series/continued-fraction CDF): 1.9599639845400532
        assert abs(std_normal_inv_cdf(0.975) - 1.959963984540054) < 1e-9

    def test_budget_quantile_matches_reported_value(self):
        # quantile at 0.001^(1/1e5); the certified-radius ceiling at that
        # budget is quoted as approximately 3.81 sigma
        z = std_normal_inv_cdf(0.001 ** (1.0 / 1e5))
        assert abs(z - 3.81) < 0.01

    def test_cdf_inverse_roundtrip_against_oracle(self):
        ps = np.concatenate([
            np.array([1e-15, 1e-12, 1e-9, 1e-6, 1e-3]),
            np.linspace(0.01, 0.99, 197),
            1.0 - np.array([1e-15, 1e-12, 1e-9, 1e-6, 1e-3]),
        ])
        for p in ps:
            z = std_normal_inv_cdf(p)
            if p <= 0.5:
                assert abs(oracles.normal_cdf(z) - p) < 1e-9 * max(p, 1e-2) + 1e-15
            else:
                assert abs(oracles.normal_upper_tail(z) - (1.0 - p)) \
                    < 1e-9 * max(1.0 - p, 1e-2) + 1e-15

    def test_quantile_error_below_1e9_in_z(self):
        # invert the oracle by bisection in tail space and compare z directly
        for p in [1e-15, 1e-8, 1e-3, 0.2, 0.5, 0.8, 0.999, 1 - 1e-8]:
            z = std_normal_inv_cdf(p)
            tail = p if p <= 0.5 else 1.0 - p
            lo, hi = 0.0, 40.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if oracles.normal_upper_tail(mid) > tail:
                    lo = mid
                else:
                    hi = mid
            z_oracle = 0.5 * (lo + hi)
            if p < 0.5:
                z_oracle = -z_oracle
            assert abs(z - z_oracle) < 1e-9

    def test_antisymmetry(self):
        # 1-p is only exact in floating point for p >= 0.25, so the 1e-12
        # contract is checked on a central range; dyadic pairs are exact.
        ps = np.linspace(1e-4, 0.5, 300)
        zs = np.array([std_normal_inv_cdf(p) + std_normal_inv_cdf(q)
                       for p, q in zip(ps, 1.0 - ps)])
        assert np.max(np.abs(zs)) < 1e-12

    def test_antisymmetry_exact_for_representable_pairs(self):
        # 1 - 2**-k is exact for every k <= 52.  The last p is exp(-2), where
        # scipy's ndtri switches between its tail and central formulas and
        # bare ndtri(1 - p) lies one ulp above -ndtri(p): the tail reduction
        # keeps any such switch from breaking the symmetry
        ps = [0.375, 0.5, *(2.0 ** -k for k in range(2, 53)), math.exp(-2)]
        for p in ps:
            assert std_normal_inv_cdf(p) + std_normal_inv_cdf(1.0 - p) == 0.0, p

    @pytest.mark.parametrize("p", [0.3, 0.5, 0.7, np.float64(0.3), np.float64(0.7)])
    def test_one_number_gives_a_float(self, p):
        assert type(std_normal_inv_cdf(p)) is float

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5, np.nan])
    def test_domain_errors(self, p):
        with pytest.raises(ValueError):
            std_normal_inv_cdf(p)


class TestBinomLowerBound:
    def test_zero_successes(self):
        assert binom_lower_bound(0, 100, 0.001) == 0.0

    def test_all_successes_closed_form(self):
        # for k = n the bound solves p^n = alpha
        for n, alpha in [(100, 0.001), (10, 0.05), (1, 0.5), (1000, 0.01)]:
            assert abs(binom_lower_bound(n, n, alpha) - alpha ** (1.0 / n)) < 1e-9

    def test_against_bruteforce_oracle(self):
        # frozen from oracles.binom_lower_confidence(90, 100, 0.05)
        assert abs(binom_lower_bound(90, 100, 0.05) - 0.8362823767241852) < 1e-9
        # the last two have binomial coefficients past the float range
        for k, n, alpha in [(3, 10, 0.2), (55, 80, 0.001), (1, 7, 0.05),
                            (600, 1100, 0.001), (9000, 10000, 0.001)]:
            want = oracles.binom_lower_confidence(k, n, alpha)
            assert abs(binom_lower_bound(k, n, alpha) - want) < 1e-9

    def test_tail_probability_at_bound(self):
        p = binom_lower_bound(90, 100, 0.05)
        assert abs(oracles.binom_upper_tail(90, 100, p) - 0.05) < 1e-8

    def test_monotone_in_k(self):
        ks = np.arange(0, 101)
        bounds = [binom_lower_bound(k, 100, 0.01) for k in ks]
        assert np.all(np.diff(bounds) >= -1e-15)

    def test_monotone_in_alpha(self):
        # a larger failure probability is less conservative, so the lower
        # bound grows with alpha (visible from the k = n form alpha^(1/n))
        alphas = [1e-4, 1e-3, 1e-2, 0.1, 0.5]
        vals = [binom_lower_bound(70, 100, a) for a in alphas]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("k, n", [(17, 100), (np.int64(17), 100), (17, np.int64(100)),
                                      (np.int32(17), np.uint16(100)), (17.0, 100.0),
                                      (0, 100), (np.int64(0), 100)])
    def test_every_integer_type_gives_the_same_float(self, k, n):
        # certify passes the hit count as an np.int64 from its tally
        bound = binom_lower_bound(k, n, 0.01)
        assert type(bound) is float
        assert bound == binom_lower_bound(int(k), int(n), 0.01)

    @pytest.mark.parametrize("n", [10.7, 10.5, 1.5, math.nan, math.inf])
    def test_non_whole_n_is_an_error(self, n):
        # n = 10.7 used to give the n = 10 bound without a word
        with pytest.raises(ValueError, match="n must be a whole number"):
            binom_lower_bound(5, n, 0.05)

    @pytest.mark.parametrize("k", [np.array(5), np.array([3, 4]), [3, 4], "5"])
    def test_k_that_is_not_one_number_is_a_type_error(self, k):
        with pytest.raises(TypeError, match="one number"):
            binom_lower_bound(k, 10, 0.05)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            binom_lower_bound(5, 0, 0.05)
        with pytest.raises(ValueError):
            binom_lower_bound(11, 10, 0.05)
        with pytest.raises(ValueError):
            binom_lower_bound(-1, 10, 0.05)
        with pytest.raises(ValueError):
            binom_lower_bound(4.5, 10, 0.05)
        with pytest.raises(ValueError):
            binom_lower_bound(5, 10, 0.0)


class TestRngStream:
    def test_same_key_same_sequence(self):
        a = rng_stream(123, 45).standard_normal(1000)
        b = rng_stream(123, 45).standard_normal(1000)
        assert np.array_equal(a, b)

    def test_mean_of_many_draws(self):
        draws = rng_stream(7, 0).standard_normal(1_000_000)
        assert abs(draws.mean()) < 4.0 / np.sqrt(1_000_000)

    def test_uniform_range(self):
        u = rng_stream(7, 3).random(10_000)
        assert u.min() >= 0.0 and u.max() < 1.0
        assert abs(u.mean() - 0.5) < 0.02

    def test_streams_uncorrelated(self):
        a = rng_stream(5, 0).standard_normal(100_000)
        b = rng_stream(5, 1).standard_normal(100_000)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.01

    def test_negative_and_huge_ids_accepted(self):
        # each id is taken mod 2^64
        assert np.array_equal(rng_stream(-1, 2**70).standard_normal(4),
                              rng_stream(2**64 - 1, 0).standard_normal(4))

    def test_key_is_injective_across_word_boundaries(self):
        # a SeedSequence([seed, stream_id]) key splits each int into as many
        # 32-bit words as it needs, so both pairs would become [5, 3, 9]
        a = rng_stream(5, 3 + 9 * 2**32).standard_normal()
        b = rng_stream(5 + 3 * 2**32, 9).standard_normal()
        assert a != b

    @pytest.mark.parametrize("key, first", [
        ((0, 0), ["-0x1.15b0e52ea3027p-1", "-0x1.77700488aacbbp-1",
                  "-0x1.327dee94824fdp-2", "0x1.5f8bc808e946cp-1"]),
        ((3, 1_000_001), ["0x1.a8af3d6fade75p-1", "0x1.3be864bce13f5p-1",
                          "0x1.169c9bebfc9a1p+0", "0x1.d04878c12747cp-2"]),
    ])
    def test_first_draws_are_pinned(self, key, first):
        # every result CSV, checkpoint and log follows from these streams:
        # a change here moves them all, so it must be a deliberate re-baseline
        draws = rng_stream(*key).standard_normal(4)
        assert [float(v).hex() for v in draws] == first


class TestConfidenceSpec:
    def test_defaults_valid(self):
        spec = ConfidenceSpec()
        assert spec.alpha == 0.001 and spec.n0 == 100 and spec.nc == 100_000

    @pytest.mark.parametrize("kwargs", [
        {"alpha": 0.0}, {"alpha": 1.0}, {"n0": 0}, {"nc": 0},
        # alpha^(1/nc), the bound at nc hits of nc, at or below 1/2 (every
        # point would abstain) or rounded to 1 (an infinite ceiling; 1.0 /
        # 10**400 would overflow)
        {"nc": 5}, {"nc": 10**18}, {"nc": 10**400},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ConfidenceSpec(**kwargs)

    @pytest.mark.parametrize("name", ["n0", "nc"])
    @pytest.mark.parametrize("value", [100.5, 100.0, True, "100"])
    def test_a_count_that_is_no_integer_is_named(self, name, value):
        # a float budget would fail later, inside the tally, after the
        # selection pass had run
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            ConfidenceSpec(alpha=0.01, **{name: value})

    @pytest.mark.parametrize("kind", [int, np.int64, np.int32, np.uint16])
    def test_every_integral_count_is_valid(self, kind):
        spec = ConfidenceSpec(alpha=0.01, n0=kind(10), nc=kind(100))
        assert spec.n0 == 10 and spec.nc == 100
