"""Langevin walk, denoiser jump, and the walk-jump pipeline that composes them.

The walk runs unadjusted Langevin dynamics on an energy at a fine noise scale,
using the drift/diffusion pairing delta^2 and sqrt(2)*delta (note: this is a
reparameterization of the textbook pairing delta and sqrt(2*delta) with
delta_textbook = delta^2).  No Metropolis correction is applied, so the chain
carries an O(delta^2) discretization bias that tests measure rather than
remove.  The jump is one application of the denoiser at the fine scale.  The
composed pipeline denoises a coarse-noise observation, walks at the fine
scale, and jumps.

An energy source is any smoothed density (see densities and
classifiers.EbClassifier): its energy at scale sigma is the negative log
density of its noisy version.  An exact data model accepts every scale; an
EnergyNet only its trained one.  Every function here takes a batch (n, d) of
independent chains.
"""

from __future__ import annotations

import dataclasses

import numpy as np


@dataclasses.dataclass(frozen=True)
class WalkJumpConfig:
    """Fine scale, step size, and step count for the Langevin walk."""

    sigma_prime: float = 0.05
    delta: float = 0.001
    tau: int = 100

    def __post_init__(self):
        if not self.sigma_prime > 0.0:
            raise ValueError(f"sigma_prime must be positive, got {self.sigma_prime}")
        if not self.delta > 0.0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        if self.tau < 1:
            raise ValueError(f"tau must be >= 1, got {self.tau}")


def _require_finite(a, what):
    """Raise FloatingPointError if the batch a (n, d) of chains has a
    non-finite entry, naming the first bad chain."""
    finite = np.isfinite(a)
    if not np.all(finite):
        raise FloatingPointError(
            f"non-finite {what} in chain {int(np.argmin(finite.all(axis=1)))}")


def langevin_walk(source, y0, cfg, gen, callback=None):
    """Unadjusted Langevin chain at the fine scale.

    Iterates y <- y + delta^2 * score(y) + sqrt(2) * delta * eps' for cfg.tau
    steps, with score the smoothed score at the fine scale (minus the
    energy's gradient) and standard normal eps' = gen.standard_normal(y.shape).
    y0 is a batch of independent chains (n, d); chains never interact, so
    batching is exact, and with gen a stats.RowStreams of cfg.tau steps each
    chain draws from its own stream.  Returns the final iterates.  callback,
    when given, receives (t, y) with the t-th iterate batch: t = 0 for y0,
    then t = 1..tau after each step's finite check.
    """
    y = np.asarray(y0, dtype=float).copy()
    drift = cfg.delta**2
    diffusion = np.sqrt(2.0) * cfg.delta
    if callback is not None:
        callback(0, y)
    for step in range(cfg.tau):
        y = y + drift * source.smoothed_score(y, cfg.sigma_prime) \
            + diffusion * gen.standard_normal(y.shape)
        _require_finite(y, f"iterate at walk step {step}")
        if callback is not None:
            callback(step + 1, y)
    return y


def jump(source, y, sigma_prime):
    """One denoiser application at the fine scale: the Bayes estimate
    y + sigma'^2 * score(y) = y - sigma'^2 * grad_energy(y)."""
    return source.bayes_estimate(y, sigma_prime)


def walk_jump(coarse_source, fine_source, y, sigma, cfg, gen, callback=None):
    """Denoise a coarse-noise observation, walk at the fine scale, jump.

    y is a batch (n, d) of points corrupted at scale sigma.  The coarse
    denoiser output seeds the Langevin walk on the fine-scale energy; one
    final jump removes the fine noise.  The run-to-run spread of the output
    is therefore set by the fine scale and the walk diffusion, not by sigma.
    callback, when given, sees each walk iterate (see langevin_walk).  A
    non-finite coarse estimate, walk iterate or jump raises
    FloatingPointError naming the first bad chain, so numpy's invalid-value
    warnings are not printed.
    """
    with np.errstate(invalid="ignore"):
        y0 = coarse_source.bayes_estimate(y, sigma)
        _require_finite(y0, "coarse estimate")
        out = jump(fine_source, langevin_walk(fine_source, y0, cfg, gen, callback),
                   cfg.sigma_prime)
        _require_finite(out, "jump")
    return out
