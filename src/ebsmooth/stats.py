"""Statistical primitives used by certification.

Three things live here: the standard-normal quantile function (the certified
radius is linear in it, so it carries the whole error budget), the
one-sided Clopper-Pearson lower confidence bound for binomial proportions,
and keyed deterministic random streams (SFC64, seeded through SeedSequence)
so that per-point noise is reproducible however work is scheduled across
processes or batched into one array.  Certification takes one bound and one
quantile per point, so each takes one number and returns one float.

Every CLI command is a fresh process, so the import cost counts, and nothing
here needs scipy: importing scipy.special costs a certifying command about
0.23 s.  The quantile is the standard library's NormalDist.inv_cdf
(Wichura's AS241, in C), and statistics (which loads decimal and fractions,
a few ms) is imported only when a quantile or a bound is asked for.  The
bound sums the binomial tail itself: Loader's saddle-point binomial
probability ("Fast and accurate computation of binomial probabilities",
2000) times a ratio series.
"""

from __future__ import annotations

import dataclasses
import math
import numbers

import numpy as np

_MASK64 = (1 << 64) - 1
# Relative slack the Clopper-Pearson bound keeps below alpha in its tail.
# The computed tail's relative error, measured against 40-digit sums of the
# binomial terms at 5,726 points at and one ulp above the bound (n <= 1e5,
# alpha from 1e-9 to 0.99), stays below 2e-13.  It grows with |k - n p|, as
# n p is rounded, so it is largest at the smallest alpha.  So a computed
# tail of at most alpha * (1 - _TAIL_SLACK) is an exact tail of at most
# alpha.
_TAIL_SLACK = 4e-12
_LOG_2PI = math.log(2.0 * math.pi)
# Loader's stirlerr(n) = log(n!) - log(sqrt(2 pi n) (n / e)^n) for n < 16,
# where five terms of the Stirling series are too few; from 40-digit values.
_STIRLERR = (
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
)
# The ratio series is built this many terms at a time, and cut after its
# first coefficient below _SERIES_FLOOR: the coefficients fall faster than
# geometrically, so the terms left out add less than 1e-16 of the sum.
_SERIES_CHUNK = 256
_SERIES_FLOOR = 1e-18
_BELOW_ONE = math.nextafter(1.0, 0.0)


@dataclasses.dataclass(frozen=True)
class ConfidenceSpec:
    """Sampling budget for certification.

    alpha is the failure probability of the whole procedure, n0 the number of
    noisy samples spent selecting the candidate class, nc the number of fresh
    samples spent bounding its probability mass.
    """

    alpha: float = 0.001
    n0: int = 100
    nc: int = 100_000

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        for name in ("n0", "nc"):  # counts of samples: a float would fail deep in a tally
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")


def std_normal_inv_cdf(p):
    """Inverse standard normal CDF of one number p in (0, 1), as a float.

    Exact sign symmetry: the implementation reduces p and 1-p to the same tail
    problem, so quantiles of exactly-representable complementary pairs negate
    exactly.
    """
    from statistics import NormalDist
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly inside (0, 1)")
    # 1 - p is exact in floating point for p >= 0.5, so both halves see the
    # same tail mass and the result is antisymmetric by construction.  z >= 0
    # has upper-tail mass min(p, 1 - p); 0.0 - x rather than -x keeps
    # z(0.5) = +0.0
    z = 0.0 - NormalDist().inv_cdf(p if p <= 0.5 else 1.0 - p)
    return -z if p < 0.5 else z


def binom_lower_bound(k, n, alpha):
    """One-sided Clopper-Pearson lower confidence bound on a binomial proportion.

    The exact bound is the p at which observing >= k successes in n trials
    has probability exactly alpha under Binomial(n, p), i.e. the alpha
    quantile of Beta(k, n - k + 1).  k = 0 gives 0.  The result is rounded
    down, never above the exact bound: its computed tail is at most
    alpha * (1 - 4e-12), which covers the tail's own error, and it is within
    about 5e-12 of the exact bound, relative to it.  It need not be the
    largest such double; one up to 30 ulps higher may pass.  Newton's method
    on the log tail, kept inside a bracket, finds the bound from the Wilson
    score interval, then it steps down one ulp at a time while the tail is
    still too large.

    k and n are one whole number each, of any integer type or a whole
    float, and the bound is one float.
    """
    if not (isinstance(k, numbers.Real) and isinstance(n, numbers.Real)):
        raise TypeError(f"k and n must be one number each, got {type(k).__name__} "
                        f"and {type(n).__name__}")
    if not (1 <= n < math.inf and n == int(n)):
        raise ValueError(f"n must be a whole number >= 1, got {n}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if not (0 <= k <= n and k == int(k)):
        raise ValueError(f"k must be a whole number with 0 <= k <= n, got {k}")
    return _lower_bound(int(k), int(n), alpha * (1.0 - _TAIL_SLACK)) if k else 0.0


def _lower_bound(k, n, target):
    """The largest p, up to a few ulps, whose computed tail
    P[Bin(n, p) >= k] is at most target, for 1 <= k <= n."""
    from statistics import NormalDist
    tail = _BinomialTail(k, n)
    log_target = math.log(target)
    # Newton's method on log tail(p) in log p, from the Wilson score bound
    # and inside a bracket lo < p < hi around the root.  The log tail is
    # concave (the Beta density is log-concave), so below the root the
    # iterates rise to it; a step from above can overshoot far, and one
    # that leaves the bracket is replaced by bisection.
    z = -NormalDist().inv_cdf(target)
    c = k / n
    half = z * math.sqrt(c * (1.0 - c) / n + z * z / (4.0 * n * n))
    p = (c + z * z / (2.0 * n) - half) / (1.0 + z * z / n)
    p = min(max(p, math.ulp(0.0)), _BELOW_ONE)
    lo, hi = 0.0, 1.0
    for _ in range(100):
        log_tail, slope = tail(p)
        if log_tail > log_target:
            hi = p
        else:
            lo = p
        step = (log_target - log_tail) / slope if slope else -math.inf
        if abs(step) < 1e-9:
            p = min(p * math.exp(step), _BELOW_ONE)
            break
        guess = p * math.exp(step) if step < math.log(hi / p) else hi
        p = guess if lo < guess < hi else 0.5 * (lo + hi)
        if p == 0.0:  # hi is the smallest double, and its tail is too large
            break
    else:
        p = lo
    while tail(p)[0] > log_target:
        p = math.nextafter(p, 0.0)
    return p


class _BinomialTail:
    """log P[Bin(n, p) >= k] and its derivative in log p, for one 1 <= k <= n.

    For p <= k/n the tail is pmf(k) S(t), where S is the ratio series
    sum_m c_m t^m in t = p/(1 - p), c_m = prod_{i<m} (n-k-i)/(k+1+i).  Above
    k/n it is 1 - P[Bin(n, 1 - p) >= n - k + 1], whose series converges
    there.  Each series' coefficients are scaled by t_max = k/(n - k) so
    that they lie in (0, 1] and the scaled t in (0, 1]; they are computed
    once, on first use.
    """

    def __init__(self, k, n):
        self.k, self.n = k, n
        self._series = {}

    def __call__(self, p):
        k, n = self.k, self.n
        if p <= 0.0:
            return -math.inf, float(k)
        q = 1.0 - p
        if p <= k / n:
            log_pmf, s = self._upper(k, p, q)
            return log_pmf + math.log(s), k / s
        log_pmf, s = self._upper(n - k + 1, q, p)
        lower = math.exp(log_pmf) * s
        # pmf(k) = pmf(k - 1) (n - k + 1)/k p/q, and d tail/d log p = k pmf(k)
        return math.log1p(-lower), (n - k + 1) * p / q * math.exp(log_pmf) / (1.0 - lower)

    def _upper(self, j, p, q):
        """log P[Bin(n, p) = j] and the ratio series S, for p <= j/n.  One of
        p and q was passed in, and the other is 1 minus it."""
        n = self.n
        if j == n:  # p^n, from whichever of p and q is exact
            return n * (math.log1p(-q) if q < 0.5 else math.log(p)), 1.0
        if j not in self._series:
            self._series[j] = _ratio_series(j, n)
        log_const, coef, powers = self._series[j]
        x = p / q * ((n - j) / j)
        s = float(np.add.reduce(coef * x ** powers))
        return log_const - _bd0(j, n * p) - _bd0(n - j, n * q), s


def _ratio_series(k, n):
    """For 1 <= k < n: the p-free part of Loader's log pmf(k; n, p), the
    scaled coefficients c_m t_max^m of the ratio series, and their powers m."""
    log_const = (_stirlerr(n) - _stirlerr(k) - _stirlerr(n - k)
                 - 0.5 * (_LOG_2PI + math.log(k * (n - k) / n)))
    t_max = k / (n - k)
    parts = [np.ones(1)]
    for start in range(0, n - k, _SERIES_CHUNK):
        i = np.arange(start, min(start + _SERIES_CHUNK, n - k), dtype=float)
        parts.append(parts[-1][-1] * np.cumprod((n - k - i) / (k + 1 + i) * t_max))
        if parts[-1][-1] < _SERIES_FLOOR:
            break
    coef = np.concatenate(parts)
    coef = coef[:np.count_nonzero(coef >= _SERIES_FLOOR) + 1]  # decreasing
    return log_const, coef, np.arange(len(coef), dtype=float)


def _stirlerr(n):
    """log(n!) - log(sqrt(2 pi n) (n / e)^n), Loader's Stirling-series error."""
    if n < len(_STIRLERR):
        return _STIRLERR[n]
    nn = float(n) * n
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn) / nn) / nn) / nn) / n


def _bd0(x, m):
    """x log(x/m) + m - x, the deviance term of Loader's pmf, without its
    cancellation when x is near m."""
    d = x - m
    if abs(d) >= 0.1 * (x + m):
        ratio = x / m  # overflows only for a subnormal m, where log(m) is exact enough
        return x * (math.log(ratio) if ratio < math.inf else math.log(x) - math.log(m)) + m - x
    v = d / (x + m)
    s, ej, v2 = d * v, 2.0 * x * v, v * v
    j = 1
    while True:
        ej *= v2
        s_next = s + ej / (2 * j + 1)
        if s_next == s:
            return s
        s, j = s_next, j + 1


def rng_stream(seed, stream_id):
    """Deterministic generator keyed by (seed, stream_id), each mod 2^64.

    The key is exactly four 32-bit words, so it is injective: a list of the
    two ints would split each into as many words as it needs, so that the
    keys (5, 3 + 9 * 2^32) and (5 + 3 * 2^32, 9) would collide.  numpy's
    SeedSequence hashes the words into an SFC64 state, as the numpy.random
    docs advise for independent streams (NEP 19), and the same key gives the
    same variates on any machine and under any work scheduling.
    """
    s, t = int(seed) & _MASK64, int(stream_id) & _MASK64
    words = [s & 0xFFFFFFFF, s >> 32, t & 0xFFFFFFFF, t >> 32]
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(words)))


# A RowStreams block holds at most this many variates (2 MB), whatever the
# batch, so its buffer stays small while each row's draws come in calls of
# many steps each.
_ROW_BLOCK = 1 << 18


class RowStreams:
    """One keyed generator per row of a batch, for `steps` draws of one shape.

    standard_normal((n, *shape)) stacks gens[i].standard_normal(shape) for
    i < n, so a batch of n rows draws exactly the variates each row would
    draw from its own stream when run alone, in the same order.  Each row
    draws its next block of calls in one call of its own generator (one
    (b, *shape) draw is b successive shape draws), never past `steps` calls
    in all, so after `steps` calls every generator is where per-call draws
    leave it.  A call past `steps`, or of another shape, raises ValueError.
    """

    def __init__(self, gens, steps):
        self.gens = list(gens)
        self._steps_left = steps
        self._block = np.empty((len(self.gens), 0))  # (n, b, *shape), b calls
        self._next = 0

    def standard_normal(self, shape):
        n, *rest = shape
        if n != len(self.gens):
            raise ValueError(f"{len(self.gens)} row streams cannot draw {n} rows")
        if self._next == self._block.shape[1]:
            if self._steps_left < 1:
                raise ValueError("row streams have drawn all their steps")
            b = min(self._steps_left, max(1, _ROW_BLOCK // max(1, int(np.prod(shape)))))
            # drop the spent block first, so a refill never holds two; a new
            # block, not an in-place refill, keeps rows handed out unchanged
            self._block = None
            self._block = np.empty((n, b, *rest))
            for g, row in zip(self.gens, self._block):
                g.standard_normal(out=row)
            self._steps_left -= b
            self._next = 0
        elif self._block.shape[2:] != tuple(rest):
            raise ValueError(f"row streams drawing shape {self._block.shape[2:]} "
                             f"cannot draw {tuple(rest)}")
        self._next += 1
        return self._block[:, self._next - 1]
