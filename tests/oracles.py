"""Independent numerical oracles used only by the tests.

Nothing here shares code with the library: the normal CDF is built from a
power-series erf and a continued-fraction erfc, quantiles come from bisection
on that CDF, and binomial tails are exact big-integer summations.  Agreement
between these and the library is therefore evidence, not tautology.  The
single-point views of the attack at the end are the exception: they wrap the
library's batch routines so that tests can address one point at a time.
"""

import dataclasses
import math

import numpy as np

from ebsmooth.adversarial import _pgd_batch
from ebsmooth.classifiers import _neg_log_pi

_SQRT_PI = math.sqrt(math.pi)


def erf_series(x):
    """erf via the alternating Maclaurin series; accurate for |x| <= 3."""
    total = 0.0
    coeff = 1.0  # (-1)^n x^(2n) / n!
    for n in range(0, 200):
        term = coeff * x / (2 * n + 1)
        total += term
        if abs(term) < 1e-18 * max(abs(total), 1e-300):
            break
        coeff *= -x * x / (n + 1)
    return 2.0 * total / _SQRT_PI


def erfc_continued_fraction(x, depth=80):
    """erfc for x > 0 via the Laplace continued fraction, evaluated bottom-up.

    sqrt(pi) e^{x^2} erfc(x) = 1 / (x + (1/2)/(x + 1/(x + (3/2)/(x + ...))))
    Converges quickly for x >= 2.
    """
    f = 0.0
    for n in range(depth, 0, -1):
        f = (n / 2.0) / (x + f)
    return math.exp(-x * x) / (_SQRT_PI * (x + f))


def normal_cdf(z):
    """Standard normal CDF from the erf pieces above."""
    x = z / math.sqrt(2.0)
    if x < -3.0:
        return 0.5 * erfc_continued_fraction(-x)
    if x > 3.0:
        return 1.0 - 0.5 * erfc_continued_fraction(x)
    return 0.5 * (1.0 + erf_series(x))


def normal_upper_tail(z):
    """P(Z > z), accurate in the far right tail."""
    x = z / math.sqrt(2.0)
    if x > 3.0:
        return 0.5 * erfc_continued_fraction(x)
    return 1.0 - normal_cdf(z)


def normal_quantile(p, lo=-40.0, hi=40.0, iters=200):
    """Quantile by bisection on the oracle CDF."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if normal_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def binom_upper_tail(k, n, p):
    """P(Bin(n, p) >= k).  Each term is exp of the log of the exact integer
    binomial coefficient plus the log powers, so no term overflows however
    large the coefficient."""
    if k <= 0 or p >= 1.0:
        return 1.0
    if p <= 0.0:
        return 0.0
    log_p, log_q = math.log(p), math.log1p(-p)
    comb = math.comb(n, k)
    total = 0.0
    for j in range(k, n + 1):
        total += math.exp(math.log(comb) + j * log_p + (n - j) * log_q)
        comb = comb * (n - j) // (j + 1)
    return min(total, 1.0)


def binom_lower_confidence(k, n, alpha, iters=80):
    """Bisection solve of P(Bin(n, p) >= k) = alpha for p."""
    if k == 0:
        return 0.0
    lo, hi = 0.0, 1.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if binom_upper_tail(k, n, mid) < alpha:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def central_difference(f, x, h=1e-5):
    """Componentwise central-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        grad[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return grad


def mixture_reference(means, weights, sigma0, y, sigma, v=None):
    """Gaussian-mixture smoothed density by the direct (n, K, d) differences.

    Returns (log_density (n,), score (n, d), hvp (n, d) or None, bayes (n, d))
    for a batch y (n, d): the component pulls mu_k - y are formed explicitly,
    squared and summed, with no expansion of the squared distance.  The hvp
    is sum_k r_k (c_k - cbar) (mu_k - y) / s2 - v / s2 with c_k the pull of
    component k projected on v.  Far from every mean c_k - cbar cancels
    (|c_k| ~ |y| |v|), so the arithmetic is done in long double (64-bit
    mantissa on x86) and rounded to float at the end.
    """
    ld = np.longdouble
    means = np.asarray(means, dtype=ld)
    y = np.asarray(y, dtype=ld)
    s2 = ld(sigma) * ld(sigma) + ld(sigma0) * ld(sigma0)
    diffs = means[None, :, :] - y[:, None, :]
    logmass = np.log(np.asarray(weights, dtype=ld))[None, :] \
        - np.sum(diffs * diffs, axis=2) / (2 * s2)
    top = logmass.max(axis=1, keepdims=True)
    mass = np.exp(logmass - top)
    total = mass.sum(axis=1, keepdims=True)
    resp = mass / total
    log_density = (top + np.log(total))[:, 0] \
        - means.shape[1] * np.log(2 * ld(np.pi) * s2) / 2
    score = np.einsum("nk,nkd->nd", resp, diffs) / s2
    hvp = None
    if v is not None:
        v = np.asarray(v, dtype=ld)
        c = np.einsum("nkd,nd->nk", diffs, v) / s2
        cbar = np.sum(resp * c, axis=1, keepdims=True)
        hvp = ((np.einsum("nk,nkd->nd", resp * (c - cbar), diffs) - v) / s2).astype(float)
    bayes = y + ld(sigma) * ld(sigma) * score
    return (log_density.astype(float), score.astype(float), hvp, bayes.astype(float))


def symmetric_mixture_estimate(mu, sigma0, y, sigma):
    """Closed form of the symmetric two-component (+-mu) mixture denoiser.

    beta*y + (1-beta) * tanh(<beta*y, mu>/sigma0^2) * mu with
    beta = sigma0^2 / (sigma0^2 + sigma^2), for a point y (d,) or a batch
    (n, d); a separate code path from IsoMixture.bayes_estimate.
    """
    mu = np.asarray(mu, dtype=float)
    y = np.asarray(y, dtype=float)
    beta = sigma0**2 / (sigma0**2 + sigma**2)
    inner = (beta / sigma0**2) * (y @ mu)
    return beta * y + (1.0 - beta) * np.multiply.outer(np.tanh(inner), mu)


def class_prob_input_grad(soft, x, k):
    """Input gradient of a SoftClassifier's k-th class probability at each row
    of x (n, d), by a reverse pass written out from its weights: softplus
    hidden layers, then a softmax over the last affine layer."""
    h = np.asarray(x, dtype=float)
    pre = []
    for w, b in zip(soft.weights[:-1], soft.biases[:-1]):
        pre.append(h @ w + b)
        h = np.logaddexp(0.0, pre[-1])
    logits = h @ soft.weights[-1] + soft.biases[-1]
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)
    d = -p[:, [k]] * p  # d p_k / d logits = p_k (onehot_k - p)
    d[:, k] += p[:, k]
    d = d @ soft.weights[-1].T
    for w, a in zip(reversed(soft.weights[:-1]), reversed(pre)):
        d = (d / (1.0 + np.exp(-a))) @ w.T
    return d


# -- single-point views of the library's batch attack routines ---------------


def soft_pi_with_noise(c, x, noise):
    """Monte-Carlo soft probabilities of EbClassifier c at x with a fixed
    (m, d) noise list: the base's probabilities averaged over the denoised
    noisy copies, denoised through bayes_estimate (not linearize)."""
    y = np.asarray(x, dtype=float)[None, :] + np.asarray(noise, dtype=float)
    return c.base.probs(c.estimator.bayes_estimate(y, c.sigma)).mean(axis=0)


def soft_pi(c, x, m, gen):
    """soft_pi_with_noise with m fresh noise draws at scale c.sigma."""
    x = np.asarray(x, dtype=float)
    return soft_pi_with_noise(c, x, c.sigma * gen.standard_normal((m, x.shape[0])))


def grad_log_pi(c, x, k, noise):
    """Input gradient of log of the fixed-noise soft probability of class k
    (floored at PROB_FLOOR before the log), from the library's batch pass."""
    _, _, grads = _neg_log_pi(c, np.asarray(x, float)[None, :], np.array([k]),
                              np.asarray(noise, float)[None, :, :], wrt="input")
    return -grads[0]


@dataclasses.dataclass(frozen=True)
class PgdResult:
    """One point's attack outcome: the best iterate, its objective value, the
    clean objective value, and whether the search hit a non-finite gradient."""

    x_adv: np.ndarray
    adv_neg_log: float
    clean_neg_log: float
    aborted: bool


def pgd_attack(c, x, k, spec, noise):
    """The library's batch attack on the single point x of class k, with the
    fixed (m, d) noise list reused across every step."""
    best_z, best_f, f0, aborted = _pgd_batch(
        c, np.asarray(x, dtype=float)[None, :], np.array([int(k)]), spec,
        np.asarray(noise, dtype=float)[None, :, :])
    return PgdResult(best_z[0], float(best_f[0]), float(f0[0]), bool(aborted[0]))
