"""Statistical primitives used by certification.

Three things live here: the standard-normal quantile function (the certified
radius is linear in it, so it carries the whole error budget), the
one-sided Clopper-Pearson lower confidence bound for binomial proportions,
and keyed deterministic random streams so that per-point noise is
reproducible regardless of how work is scheduled across processes or
batched into one array.

Every CLI command is a fresh process, so the import cost counts.  Only
scipy.special is used, never scipy.stats, and it is imported inside the two
functions that need it (the normal quantile and the bound): only the
certifying commands pay for it.  The keyed streams are plain numpy.
"""

from __future__ import annotations

import dataclasses

import numpy as np

_MASK64 = (1 << 64) - 1
# Relative slack the Clopper-Pearson bound keeps below alpha in its tail.
# scipy.special.betainc's relative error, measured against 40-digit direct
# summation of the binomial tail at n <= 1e6 and alpha in [1e-9, 0.3], stays
# below 6.3e-13 (it grows slowly with n), so a computed tail of at most
# alpha * (1 - _TAIL_SLACK) is an exact tail of at most alpha.
_TAIL_SLACK = 4e-12


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
        if self.n0 < 1:
            raise ValueError(f"n0 must be >= 1, got {self.n0}")
        if self.nc < 1:
            raise ValueError(f"nc must be >= 1, got {self.nc}")


def std_normal_inv_cdf(p):
    """Inverse standard normal CDF.

    Accepts a float or array with entries strictly inside (0, 1).  Exact sign
    symmetry: the implementation reduces p and 1-p to the same tail problem,
    so quantiles of exactly-representable complementary pairs negate exactly.
    """
    from scipy import special
    arr = np.asarray(p, dtype=float)
    if not np.all((arr > 0.0) & (arr < 1.0)):
        raise ValueError("p must lie strictly inside (0, 1)")
    # 1 - p is exact in floating point for p >= 0.5, so both halves see the
    # same tail mass and the result is antisymmetric by construction.  Bare
    # ndtri is not: one ulp off at p = 1 - exp(-2), where it switches formulas.
    q = np.where(arr <= 0.5, arr, 1.0 - arr)
    # z >= 0 with upper-tail mass q; 0.0 - x rather than -x keeps z(0.5) = +0.0
    z = 0.0 - special.ndtri(q)
    out = np.where(arr < 0.5, -z, z)
    return float(out) if out.ndim == 0 else out


def binom_lower_bound(k, n, alpha):
    """One-sided Clopper-Pearson lower confidence bound on a binomial proportion.

    The exact bound is the p at which observing >= k successes in n trials
    has probability exactly alpha under Binomial(n, p), i.e. the alpha
    quantile of Beta(k, n - k + 1).  k = 0 gives 0.  The result is rounded
    down, never above the exact bound: its tail, as scipy.special.betainc
    computes it, is at most alpha * (1 - 4e-12), which covers betainc's own
    error, and it is within about 5e-12 of the exact bound, relative to it.
    It need not be the largest such double; one up to 30 ulps higher may pass.
    The quantile comes from scipy.special.betaincinv, polished with one
    Newton step on the tail, then stepped down one ulp at a time while the
    tail is still too large.

    k may be an int or an integer array (vectorized over k).
    """
    from scipy import special
    n = int(n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    karr = np.asarray(k)
    if np.any(karr < 0) or np.any(karr > n):
        raise ValueError("k must satisfy 0 <= k <= n")

    a = np.where(karr == 0, 1, karr).astype(float)  # placeholder, masked below
    b = n - a + 1.0
    target = alpha * (1.0 - _TAIL_SLACK)
    p = special.betaincinv(a, b, target)
    # betaincinv can miss by hundreds of ulp near k = n/2, so take one Newton
    # step on the tail P[Bin(n, p) >= k] = I_p(k, n - k + 1), whose
    # derivative in p is the Beta(a, b) density.
    pdf = np.exp(special.xlogy(a - 1.0, p) + special.xlog1py(b - 1.0, -p)
                 - special.betaln(a, b))
    step = (special.betainc(a, b, p) - target) / np.where(pdf > 0.0, pdf, np.inf)
    p = np.clip(p - step, 0.0, 1.0)
    above = special.betainc(a, b, p) > target
    while np.any(above):
        p = np.where(above, np.nextafter(p, 0.0), p)
        above = special.betainc(a, b, p) > target
    out = np.where(karr == 0, 0.0, p)
    return float(out) if out.ndim == 0 else out


def rng_stream(seed, stream_id):
    """Deterministic generator keyed by (seed, stream_id).

    Built on the counter-based Philox bit generator with the 128-bit key set
    to the pair, so identical keys reproduce identical variate sequences on
    any machine and under any work scheduling, and distinct stream ids give
    statistically independent streams.  Normal variates come from the
    generator's ziggurat rejection transform of its uniform output.
    """
    key = np.array([int(seed) & _MASK64, int(stream_id) & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


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
