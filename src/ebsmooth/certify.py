"""Randomized-smoothing prediction and certification.

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
from .stats import ConfidenceSpec, binom_lower_bound, binom_test_half, std_normal_inv_cdf

ABSTAIN = -1

_DEFAULT_CHUNK = 10_000


@dataclasses.dataclass(frozen=True)
class CertResult:
    """Outcome of certifying one point.

    predicted is ABSTAIN when the lower confidence bound on the top-class
    mass does not clear 1/2; then the radius is 0.  Otherwise the radius is
    sigma * Phi^{-1}(pa_lower) > 0.  counts are the per-class tallies from
    the estimation pass.
    """

    predicted: int
    pa_lower: float
    radius: float
    counts: np.ndarray
    spec: ConfidenceSpec

    @property
    def abstained(self):
        return self.predicted == ABSTAIN


def _tally(classifier, x, sigma, n, gen, chunk):
    """Per-class counts of the classifier at n noisy copies of x."""
    x = np.asarray(x, dtype=float)
    k = classifier.n_classes
    counts = np.zeros(k, dtype=np.int64)
    remaining = int(n)
    while remaining > 0:
        take = min(chunk, remaining)
        remaining -= take
        noisy = x[None, :] + sigma * gen.standard_normal((take, x.shape[0]))
        preds = classifier.predict_class(noisy)
        counts += np.bincount(preds, minlength=k)
    return counts


def predict(classifier, x, sigma, spec, gen, chunk=_DEFAULT_CHUNK):
    """Smoothed prediction with an abstention guard.

    Draws spec.n0 noisy samples and returns the top class if the two-sided
    binomial test at p = 1/2 (stats.binom_test_half, top count against all
    the rest) rejects at level spec.alpha; otherwise ABSTAIN.
    """
    counts = _tally(classifier, x, sigma, spec.n0, gen, chunk)
    top = int(np.argmax(counts))
    pvalue = binom_test_half(counts[top], spec.n0)
    return top if pvalue <= spec.alpha else ABSTAIN


def certify(classifier, x, sigma, spec, gen, est_gen=None, chunk=_DEFAULT_CHUNK):
    """Certified prediction and L2 radius at x.

    The selection pass (spec.n0 samples from `gen`) picks the candidate
    class; the estimation pass (spec.nc samples from `est_gen`, or the same
    generator continued) counts its hits and converts them into a one-sided
    Clopper-Pearson lower bound on the class mass.  Selection and estimation
    never share noise, which is what makes the bound valid.
    """
    sel_counts = _tally(classifier, x, sigma, spec.n0, gen, chunk)
    candidate = int(np.argmax(sel_counts))
    est_counts = _tally(classifier, x, sigma, spec.nc, est_gen or gen, chunk)
    hits = int(est_counts[candidate])
    pa_lower = binom_lower_bound(hits, spec.nc, spec.alpha)
    if pa_lower <= 0.5:
        return CertResult(ABSTAIN, pa_lower, 0.0, est_counts, spec)
    radius = sigma * std_normal_inv_cdf(pa_lower)
    return CertResult(candidate, pa_lower, radius, est_counts, spec)


def rmax(spec, sigma):
    """Largest radius the budget can certify: every sample agrees, so the
    class-mass bound is the Clopper-Pearson bound at nc hits out of nc, whose
    closed form is alpha^(1/nc)."""
    return sigma * std_normal_inv_cdf(spec.alpha ** (1.0 / spec.nc))


def linear_margin(classifier, x):
    """Distance from x to the linear decision boundary."""
    x = np.asarray(x, dtype=float)
    wnorm = float(np.linalg.norm(classifier.w))
    raw = np.abs(x @ classifier.w + classifier.b) / wnorm
    return float(raw) if x.ndim == 1 else raw


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
