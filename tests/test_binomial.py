"""Closed-form binomial pieces of certification and their referees.

scipy.stats stays out of the library's import path, but it is the reference
for the two-sided test here.  The bound is checked with scipy.special.betainc
on a grid, and, where mpmath is installed, against a 40-digit sum of the
binomial tail.
"""

import numpy as np
import pytest
from scipy import special
from scipy.stats import binomtest

from ebsmooth.stats import binom_lower_bound, binom_test_half

TINY = np.finfo(float).tiny  # below it the p-values are subnormal noise


def _pvalue_grid(every_n):
    """Every k at each n in every_n, and a grid over k at n = 1e3 and 1e4."""
    cases = [(k, n) for n in every_n for k in range(n + 1)]
    for n in (1_000, 10_000):
        ks = np.unique(np.concatenate([
            np.linspace(0, n, 201).astype(int),
            np.arange(n // 2 - 60, n // 2 + 61),
        ]))
        cases += [(int(k), n) for k in ks]
    return cases


def _check_against_binomtest(cases):
    worst = 0.0
    for k, n in cases:
        got = binom_test_half(k, n)
        want = binomtest(k, n, 0.5).pvalue
        assert abs(got - want) <= 1e-9 * want + TINY, (k, n, got, want)
        if want >= TINY:
            worst = max(worst, abs(got - want) / want)
        for alpha in (1e-3, 0.05):
            assert (got <= alpha) == (want <= alpha), (k, n, alpha)
    assert worst < 1e-9


class TestBinomTestHalf:
    def test_matches_scipy_binomtest(self):
        _check_against_binomtest(_pvalue_grid([*range(1, 61), 97, 150, 199, 256, 300]))

    @pytest.mark.slow
    def test_matches_scipy_binomtest_every_k_to_300(self):
        # ~45k binomtest calls, about a millisecond each
        _check_against_binomtest(_pvalue_grid(range(1, 301)))

    @pytest.mark.parametrize("k, n", [(0, 0), (-1, 5), (6, 5)])
    def test_domain_errors(self, k, n):
        with pytest.raises(ValueError):
            binom_test_half(k, n)


def _bound_grid():
    for n in (1, 2, 7, 100, 300, 1_000, 3_000, 10_000, 100_000):
        # betaincinv is least accurate near k = n/2
        ks = np.unique(np.concatenate([np.linspace(1, n, min(n, 401)).astype(int),
                                       np.arange(n // 2 - 20, n // 2 + 21)]))
        yield ks[(ks >= 1) & (ks <= n)], n


class TestBinomLowerBoundRounding:
    @pytest.mark.parametrize("alpha", [1e-3, 0.05, 0.3])
    def test_tail_at_bound_at_most_alpha(self, alpha):
        for ks, n in _bound_grid():
            p = binom_lower_bound(ks, n, alpha)
            tail = special.betainc(ks, n - ks + 1, p)
            assert np.all(tail <= alpha), (n, ks[tail > alpha])

    def test_all_successes_at_large_n(self):
        # the tail p^n is steepest here: one ulp of p moves it by ~1e-11
        n = 100_000
        p = binom_lower_bound(n, n, 1e-3)
        assert special.betainc(n, 1, p) <= 1e-3
        assert p <= 1e-3 ** (1.0 / n)

    @pytest.mark.parametrize("alpha", [1e-3, 0.05, 0.3])
    def test_close_to_exact_bound(self, alpha):
        # one ulp above the bound, the tail is within 1e-11 of alpha, and the
        # slack costs p at most ~4e-12 of its value (betaincinv is good to
        # ~1e-13 in p)
        for ks, n in _bound_grid():
            p = binom_lower_bound(ks, n, alpha)
            up = special.betainc(ks, n - ks + 1, np.nextafter(p, 1.0))
            assert np.all(up >= alpha * (1.0 - 1e-11)), (n, ks[up < alpha * (1.0 - 1e-11)])
            exact = special.betaincinv(ks, n - ks + 1, alpha)
            assert np.all(exact - p <= 5e-12 * exact + 1e-13)

    @pytest.mark.parametrize("k, n, alpha", [
        # betainc's own error put the bound up to an ulp above the exact one
        # at these points, when its tail was compared with alpha itself
        (525, 1000, 1e-3), (545, 1000, 1e-3), (600, 1000, 1e-3), (800, 1000, 1e-3),
        (7, 10, 0.05), (5000, 10_000, 1e-3), (100_000, 100_000, 1e-3),
    ])
    def test_exact_tail_at_bound_at_most_alpha(self, k, n, alpha):
        mpmath = pytest.importorskip("mpmath")
        p = binom_lower_bound(k, n, alpha)
        with mpmath.workdps(40):
            pm = mpmath.mpf(p)
            # P[Bin(n, p) >= k], summed from the k-th term up
            term = mpmath.binomial(n, k) * pm ** k * (1 - pm) ** (n - k)
            tail = mpmath.mpf(0)
            for j in range(k, n + 1):
                tail += term
                if term < tail * mpmath.mpf(10) ** -30:
                    break
                term = term * (n - j) / (j + 1) * pm / (1 - pm)
            assert tail <= mpmath.mpf(alpha)
