"""Randomized-smoothing certification.

Certification follows the standard two-pass recipe: a selection pass guesses
the majority class under noise, an estimation pass with fresh noise lower
bounds its probability mass, and the certified L2 radius is sigma times the
normal quantile of that bound.  The bound is one-sided against all other
classes combined, which is tight for two classes.  Analytic results for the
linear-over-Gaussian pipeline are provided as oracles for validation.
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
# stream, so the counts do not depend on it.
_BLOCK_ELEMS = 2**16
# Relative amount the certified radius is rounded toward zero.
# scipy.special.ndtri is within 3 ulp (3 * 2**-52 = 6.7e-16 relative) of the
# exact normal quantile, measured against a 60-digit root over p in
# [1e-300, 1 - 1e-15]; sigma * z and the product with 1 - slack add one
# rounding (2**-53) each.  2e-15 covers that 8.9e-16 twice over.
_RADIUS_SLACK = 2e-15


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


def _tally(classifier, x, sigma, n, gen):
    """Per-class counts of the classifier at n noisy copies of x."""
    x = np.asarray(x, dtype=float)
    k = classifier.n_classes
    counts = np.zeros(k, dtype=np.int64)
    rows = max(1, min(n, _BLOCK_ELEMS // x.shape[0]))
    block = np.empty((rows, x.shape[0]))
    for start in range(0, n, rows):
        noisy = gen.standard_normal(out=block[:min(rows, n - start)])
        noisy *= sigma
        noisy += x
        counts += np.bincount(classifier.predict_class(noisy), minlength=k)
    return counts


def certify(classifier, x, sigma, spec, gen, est_gen=None):
    """Certified prediction and L2 radius at x.

    The selection pass (spec.n0 samples from `gen`) picks the candidate
    class; the estimation pass (spec.nc samples from `est_gen`, or the same
    generator continued) counts its hits and converts them into a one-sided
    Clopper-Pearson lower bound on the class mass.  Selection and estimation
    never share noise, which is what makes the bound valid.
    """
    candidate, est_counts = count_votes(classifier, x, sigma, spec, gen, est_gen)
    return bound_counts([candidate], [est_counts], sigma, spec)[0]


def count_votes(classifier, x, sigma, spec, gen, est_gen=None):
    """certify's two tallies: the selection pass's candidate class and the
    estimation pass's per-class counts.  Needs no scipy."""
    sel_counts = _tally(classifier, x, sigma, spec.n0, gen)
    candidate = int(np.argmax(sel_counts))
    return candidate, _tally(classifier, x, sigma, spec.nc, est_gen or gen)


def bound_counts(candidates, counts, sigma, spec):
    """One CertResult per point from count_votes' tallies, with one bound
    call and at most one quantile call for all of them.  Both are
    elementwise, so each result is bitwise what the point gets alone."""
    hits = np.array([c[k] for k, c in zip(candidates, counts)], dtype=np.int64)
    pa_lower = binom_lower_bound(hits, spec.nc, spec.alpha)
    certified = pa_lower > 0.5
    radius = np.zeros(len(hits))
    if certified.any():
        radius[certified] = certified_radius(pa_lower[certified], sigma)
    return [CertResult(int(k) if ok else ABSTAIN, float(p), float(r), c)
            for k, c, p, r, ok in zip(candidates, counts, pa_lower, radius, certified)]


def certified_radius(pa_lower, sigma):
    """sigma * Phi^{-1}(pa_lower), rounded down: never above the exact value
    and within 3e-15 of it."""
    return sigma * std_normal_inv_cdf(pa_lower) * (1.0 - _RADIUS_SLACK)


def rmax(spec, sigma):
    """Largest radius the budget can certify: every sample agrees, so the
    class-mass bound is the Clopper-Pearson bound at nc hits out of nc, whose
    closed form is alpha^(1/nc)."""
    return sigma * std_normal_inv_cdf(spec.alpha ** (1.0 / spec.nc))


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
    on_boundary: bool = False


def linear_gaussian_oracle(classifier, x, sigma, sigma0):
    """Exact smoothed prediction and radius for a linear base classifier over
    centered isotropic Gaussian data with a closed-form denoiser.

    The denoiser contracts by beta, so the smoothed class is the base
    decision at beta*x and the certified radius is the margin evaluated at
    beta*x divided by beta.  With the contraction disabled (sigma = 0, beta
    = 1) this reduces to the plain margin at x.
    """
    x = np.asarray(x, dtype=float)
    beta = beta_of(sigma, sigma0)
    score = float(beta * (x @ classifier.w) + classifier.b)
    wnorm = float(np.linalg.norm(classifier.w))
    if score == 0.0:
        return OracleResult(predicted=0, radius=0.0, on_boundary=True)
    predicted = 1 if score > 0.0 else 0
    return OracleResult(predicted=predicted, radius=abs(score) / (beta * wnorm))
