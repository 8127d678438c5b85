"""Randomized-smoothing certification.

Certification follows the standard two-pass recipe: a selection pass guesses
the majority class under noise, an estimation pass with fresh noise lower
bounds its probability mass, and the certified L2 radius is sigma times the
normal quantile of that bound.  The bound is one-sided against all other
classes combined, which is tight for two classes.  certify runs all three
steps for one point and is the only code that certifies one: the harness
calls it per point, in its own process or in a pool's workers.  Analytic
results for the linear-over-Gaussian pipeline are provided as oracles for
validation.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .densities import beta_of
from .stats import binom_lower_bound, std_normal_inv_cdf

ABSTAIN = -1

# A tally draws its noise in blocks of about this many float64 values
# (2**16, 512 KB), so that a block's noise and the denoiser and classifier
# temporaries made from it stay in cache.  Each block continues the same
# stream, so the noise does not depend on it; a BLAS-backed denoiser or
# classifier can round differently at another block row count (a 512-row
# split of the energy's input-gradient product changed bits), so changing it
# can change the counts of a learned pipeline.
_BLOCK_ELEMS = 2**16
# Relative amount the certified radius is rounded toward zero.
# std_normal_inv_cdf is within 3.7 ulp (3.7 * 2**-52 = 8.2e-16 relative) of
# the exact normal quantile, measured against 40-digit roots at 1e5 tail
# masses in [2**-53, 0.5], the range a radius reads (3.8 ulp below 1e-170;
# scipy.special.ndtri measured 3.5 ulp on the same masses); sigma * z and
# the product with 1 - slack add one rounding (2**-53) each.  3e-15 covers
# that 1.04e-15 twice over.
_RADIUS_SLACK = 3e-15


@dataclasses.dataclass(frozen=True)
class CertResult:
    """Outcome of certifying one point.

    predicted is ABSTAIN when the lower confidence bound on the top-class
    mass does not clear 1/2; then the radius is 0.  Otherwise the radius is
    certified_radius(pa_lower, sigma) > 0.  counts are the per-class tallies
    from the estimation pass.
    """

    predicted: int
    pa_lower: float
    radius: float
    counts: np.ndarray

    @property
    def abstained(self):
        return self.predicted == ABSTAIN


def _tally(classifier, x, n, gen):
    """Per-class counts of the classifier at n noisy copies of x, at its noise scale."""
    x = np.asarray(x, dtype=float)
    k = classifier.n_classes
    counts = np.zeros(k, dtype=np.int64)
    rows = max(1, min(n, _BLOCK_ELEMS // x.shape[0]))
    block = np.empty((rows, x.shape[0]))
    # overflowing or NaN arithmetic need not warn: predict_class raises
    # FloatingPointError on a non-finite score or denoised point
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n, rows):
            noisy = gen.standard_normal(out=block[:min(rows, n - start)])
            noisy *= classifier.sigma
            noisy += x
            counts += np.bincount(classifier.predict_class(noisy), minlength=k)
    return counts


def certify(classifier, x, spec, gen, est_gen):
    """Certified prediction and L2 radius at x, smoothed at classifier.sigma > 0.

    The selection pass (spec.n0 samples from `gen`) picks the candidate
    class; the estimation pass (spec.nc samples from `est_gen`, a stream
    independent of `gen`) counts its hits, one number that becomes a
    one-sided Clopper-Pearson lower bound on the class mass.  Selection and
    estimation never share noise, which is what makes the bound valid.
    """
    if not 0.0 < classifier.sigma < np.inf:
        raise ValueError(f"sigma must be positive and finite, got {classifier.sigma}")
    candidate = int(np.argmax(_tally(classifier, x, spec.n0, gen)))
    counts = _tally(classifier, x, spec.nc, est_gen)
    pa_lower = binom_lower_bound(counts[candidate], spec.nc, spec.alpha)
    if pa_lower <= 0.5:
        return CertResult(ABSTAIN, pa_lower, 0.0, counts)
    return CertResult(candidate, pa_lower, certified_radius(pa_lower, classifier.sigma), counts)


def certified_radius(pa_lower, sigma):
    """sigma * Phi^{-1}(pa_lower) for one number pa_lower, rounded down:
    never above the exact value and within 4e-15 of it."""
    return sigma * std_normal_inv_cdf(pa_lower) * (1.0 - _RADIUS_SLACK)


def rmax(spec, sigma):
    """Largest radius the budget can certify: every sample agrees, so the
    class-mass bound is the Clopper-Pearson bound at nc hits out of nc, whose
    closed form is alpha^(1/nc)."""
    return sigma * std_normal_inv_cdf(spec.alpha ** (1 / spec.nc))


def linear_margin(classifier, x):
    """Distance from the point x to the linear decision boundary."""
    x = np.asarray(x, dtype=float)
    wnorm = float(np.linalg.norm(classifier.w))
    return float(np.abs(x @ classifier.w + classifier.b) / wnorm)


@dataclasses.dataclass(frozen=True)
class OracleResult:
    """Analytic certification outcome for the linear-over-Gaussian pipeline."""

    predicted: int
    radius: float


def linear_gaussian_oracle(classifier, x, sigma, sigma0):
    """Exact smoothed prediction and radius for a linear base classifier over
    centered isotropic Gaussian data with a closed-form denoiser.

    The denoiser contracts by beta, so the smoothed class is the base
    decision at beta*x and the certified radius is the margin evaluated at
    beta*x divided by beta.  With the contraction disabled (sigma = 0, beta
    = 1) this reduces to the plain margin at x.  A point whose beta*x is on
    the boundary gets the tie class 0 and radius 0.
    """
    x = np.asarray(x, dtype=float)
    beta = beta_of(sigma, sigma0)
    score = float(beta * (x @ classifier.w) + classifier.b)
    wnorm = float(np.linalg.norm(classifier.w))
    predicted = 1 if score > 0.0 else 0
    return OracleResult(predicted=predicted, radius=abs(score) / (beta * wnorm))
