"""The Clopper-Pearson bound of certification and its referees.

The bound is checked with scipy.special.betainc on a grid, against the
50-digit decimal tail of tests/oracles.py (which needs neither scipy nor
mpmath), and, where mpmath is installed, against a 40-digit sum of the
binomial tail.
"""

import math

import numpy as np
import pytest
from scipy import special

import oracles
from ebsmooth.stats import binom_lower_bound


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
            p = np.array([binom_lower_bound(k, n, alpha) for k in ks])
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
            p = np.array([binom_lower_bound(k, n, alpha) for k in ks])
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


class TestBinomLowerBoundExactTail:
    """At the bound the exact tail is at most alpha, and one ulp above it the
    tail is within 1e-11 of alpha, by the decimal oracle."""

    @pytest.mark.parametrize("alpha", [1e-9, 1e-3, 0.05, 0.3, 0.7])
    @pytest.mark.parametrize("n", [1, 2, 7, 100, 1_000, 10_000, 100_000])
    def test_tail_at_and_above_bound(self, n, alpha):
        ks = np.unique(np.concatenate([np.linspace(1, n, 9).astype(int),
                                       [n // 2, n // 2 + 1, n - 1]]))
        ks = ks[ks >= 1]
        for k in ks.tolist():
            p = binom_lower_bound(k, n, alpha)
            assert oracles.binom_upper_tail(k, n, p) <= alpha, (k, n, p)
            up = oracles.binom_upper_tail(k, n, math.nextafter(p, 1.0))
            assert up >= alpha * (1.0 - 1e-11), (k, n, p, up)
