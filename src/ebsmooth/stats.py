"""Statistical primitives used by certification.

Four things live here: a high-accuracy standard-normal quantile function (the
certified radius is linear in it, so it carries the whole error budget), the
one-sided Clopper-Pearson lower confidence bound for binomial proportions, the
closed-form two-sided binomial test at p = 1/2 behind prediction's abstain
rule, and keyed deterministic random streams so that per-point noise is
reproducible regardless of how work is scheduled across processes.

Only scipy.special is used: scipy.stats costs most of a second to import, and
every CLI command is a fresh process.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from scipy import special

_SQRT2 = float(np.sqrt(2.0))
_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))
_MASK64 = (1 << 64) - 1
# Relative slack the Clopper-Pearson bound keeps below alpha in its tail.
# scipy.special.betainc's relative error, measured against 40-digit direct
# summation of the binomial tail at n <= 1e6 and alpha in [1e-9, 0.3], stays
# below 6.3e-13 (it grows slowly with n), so a computed tail of at most
# alpha * (1 - _TAIL_SLACK) is an exact tail of at most alpha.
_TAIL_SLACK = 4e-12

# Rational minimax coefficients for the initial normal-quantile guess
# (AS 241 / PPND16 style, central and two tail branches, highest degree first).
# The guess is then polished with Newton steps against the erfc-based CDF, so
# final accuracy does not rest on these constants alone.
_CENTRAL_NUM = (
    2.5090809287301226727e3,
    3.3430575583588128105e4,
    6.7265770927008700853e4,
    4.5921953931549871457e4,
    1.3731693765509461125e4,
    1.9715909503065514427e3,
    1.3314166789178437745e2,
    3.3871328727963666080e0,
)
_CENTRAL_DEN = (
    5.2264952788528545610e3,
    2.8729085735721942674e4,
    3.9307895800092710610e4,
    2.1213794301586595867e4,
    5.3941960214247511077e3,
    6.8718700749205790830e2,
    4.2313330701600911252e1,
    1.0,
)
_TAIL_NUM = (
    7.74545014278341407640e-4,
    2.27238449892691845833e-2,
    2.41780725177450611770e-1,
    1.27045825245236838258e0,
    3.64784832476320460504e0,
    5.76949722146069140550e0,
    4.63033784615654529590e0,
    1.42343711074968357734e0,
)
_TAIL_DEN = (
    1.05075007164441684324e-9,
    5.47593808499534494600e-4,
    1.51986665636164571966e-2,
    1.48103976427480074590e-1,
    6.89767334985100004550e-1,
    1.67638483018380384940e0,
    2.05319162663775882187e0,
    1.0,
)
_FAR_NUM = (
    2.01033439929228813265e-7,
    2.71155556874348757815e-5,
    1.24266094738807843860e-3,
    2.65321895265761230930e-2,
    2.96560571828504891230e-1,
    1.78482653991729133580e0,
    5.46378491116411436990e0,
    6.65790464350110377720e0,
)
_FAR_DEN = (
    1.42151175831644588870e-7,
    1.84631831751005468180e-5,
    7.86869131145613259100e-4,
    1.48753612908506148525e-2,
    1.36929880922735805310e-1,
    5.99832206555887937690e-1,
    1.0,
)


@dataclasses.dataclass(frozen=True)
class ConfidenceSpec:
    """Sampling budget for smoothed prediction and certification.

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


def std_normal_pdf(z):
    z = np.asarray(z, dtype=float)
    out = np.exp(-0.5 * z * z) * _INV_SQRT_2PI
    return float(out) if out.ndim == 0 else out


def std_normal_cdf(z):
    """Standard normal CDF, computed through erfc for accuracy in both tails."""
    z = np.asarray(z, dtype=float)
    out = 0.5 * special.erfc(-z / _SQRT2)
    return float(out) if out.ndim == 0 else out


def _upper_tail_quantile(q):
    """z >= 0 with upper-tail mass q, for q in (0, 0.5]. Vectorized."""
    q = np.asarray(q, dtype=float)
    central = q >= 0.075

    # Central branch works on the offset from 1/2.
    qc = q - 0.5
    r_c = 0.180625 - qc * qc
    z_central = -qc * np.polyval(_CENTRAL_NUM, r_c) / np.polyval(_CENTRAL_DEN, r_c)

    # Tail branches work on sqrt(-log q).
    q_safe = np.where(central, 0.25, q)
    r_t = np.sqrt(-np.log(q_safe))
    near = r_t <= 5.0
    z_near = np.polyval(_TAIL_NUM, r_t - 1.6) / np.polyval(_TAIL_DEN, r_t - 1.6)
    z_far = np.polyval(_FAR_NUM, r_t - 5.0) / np.polyval(_FAR_DEN, r_t - 5.0)
    z = np.where(central, z_central, np.where(near, z_near, z_far))

    # Newton polish on Q(z) = q with Q(z) = erfc(z/sqrt(2))/2.  Q' = -pdf, so
    # z <- z + (Q(z) - q)/pdf(z).  Skipped where the pdf underflows (q below
    # ~1e-300); there the rational guess already carries full double accuracy.
    for _ in range(3):
        tail = 0.5 * special.erfc(z / _SQRT2)
        pdf = np.exp(-0.5 * z * z) * _INV_SQRT_2PI
        step = np.where(pdf > 0.0, (tail - q) / np.where(pdf > 0.0, pdf, 1.0), 0.0)
        z = z + step
    return z


def std_normal_inv_cdf(p):
    """Inverse standard normal CDF.

    Accepts a float or array with entries strictly inside (0, 1).  Exact sign
    symmetry: the implementation reduces p and 1-p to the same tail problem,
    so quantiles of exactly-representable complementary pairs negate exactly.
    """
    arr = np.asarray(p, dtype=float)
    if arr.size == 0:
        return arr.copy()
    if not np.all((arr > 0.0) & (arr < 1.0)):
        raise ValueError("p must lie strictly inside (0, 1)")
    # 1 - p is exact in floating point for p >= 0.5, so both halves see the
    # same tail mass and the result is antisymmetric by construction.
    q = np.where(arr <= 0.5, arr, 1.0 - arr)
    z = _upper_tail_quantile(q)
    out = np.where(arr < 0.5, -z, z)
    return float(out) if out.ndim == 0 else out


def binom_lower_bound(k, n, alpha):
    """One-sided Clopper-Pearson lower confidence bound on a binomial proportion.

    The exact bound is the p at which observing >= k successes in n trials
    has probability exactly alpha under Binomial(n, p), i.e. the alpha
    quantile of Beta(k, n - k + 1).  k = 0 gives 0.  The result is rounded
    down, never above the exact bound: it is the largest double whose tail,
    as scipy.special.betainc computes it, is at most alpha * (1 - 4e-12),
    which covers betainc's own error.  Below the Beta mode that lowers p by
    at most 4e-12 of its value.
    The quantile comes from scipy.special.betaincinv, polished with one
    Newton step on the tail, then stepped down one ulp at a time while the
    tail is still too large.

    k may be an int or an integer array (vectorized over k).
    """
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


def binom_test_half(k, n):
    """Two-sided binomial test p-value of k successes in n trials at p = 1/2.

    The null is symmetric, so the p-value is twice the upper tail at the
    larger of k and n - k, capped at 1, and exactly 1 when 2k = n.  It is
    the same test as scipy.stats.binomtest(k, n, 0.5).
    """
    k, n = int(k), int(n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0 <= k <= n:
        raise ValueError("k must satisfy 0 <= k <= n")
    if 2 * k == n:
        return 1.0
    # bdtrc(m - 1, n, p) = P[Bin(n, p) >= m]
    return min(1.0, 2.0 * float(special.bdtrc(max(k, n - k) - 1, n, 0.5)))


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
