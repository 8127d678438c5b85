"""The analytic data model, with its exact score and Bayes estimator, and the
identity denoiser.

The data model, IsoMixture, is the ground truth the learned pieces are
judged against: a mixture of isotropic Gaussians, of which a one-mean
dataset is the one-component case, K = 1.  It knows the density of its Gaussian-corrupted
version Y = X + N(0, sigma^2 I), the score of that density, the exact
posterior-mean denoiser xhat(y) = y + sigma^2 * score(y), and, through
linearize's vjp, that denoiser's Jacobian.  At K = 1 every responsibility is
exactly 1, so the score, the denoiser and the vjp pull toward the one mean
without forming them, and sample draws no component index: its stream is
the plain Gaussian's, mean + sigma0 * gen.standard_normal((n, d)).  Identity
is the denoiser of plain randomized smoothing: xhat(y) = y, with the identity
as its Jacobian.

Every model method takes a batch y of shape (n, d) and returns one value or
row per point; a single point (d,) is a ValueError.  Its checks, as_batch
and vjp_input, serve the classifiers and the learned energy too.
"""

from __future__ import annotations

import dataclasses

import numpy as np


def beta_of(sigma, sigma0):
    """Shrinkage factor 1 / (1 + (sigma/sigma0)^2) of the Gaussian denoiser."""
    if not 0.0 < sigma0 < np.inf:
        raise ValueError(f"sigma0 must be positive and finite, got {sigma0}")
    if not 0.0 <= sigma < np.inf:
        raise ValueError(f"sigma must be nonnegative and finite, got {sigma}")
    return 1.0 / (1.0 + (sigma / sigma0) ** 2)


def as_batch(y, dim=None):
    """y as a float (n, dim) batch of points (any width when dim is None)."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 2:
        raise ValueError(f"expected a batch of points (n, d), got shape {y.shape}")
    if dim is not None and y.shape[1] != dim:
        raise ValueError(f"points have dimension {y.shape[1]}, expected {dim}")
    return y


def vjp_input(u, yb):
    """The cotangent batch u of a vjp linearized at the batch yb."""
    u = np.asarray(u, dtype=float)
    if u.shape != yb.shape:
        raise ValueError("y and u must have matching shapes")
    return u


@dataclasses.dataclass(frozen=True)
class Identity:
    """The identity denoiser xhat(y) = y, at every scale: composed with it, a
    classifier is plainly smoothed."""

    def bayes_estimate(self, y, sigma):
        return as_batch(y)

    def linearize(self, y, sigma):
        """(y, vjp) with vjp the identity."""
        yb = as_batch(y)
        return yb, lambda u: vjp_input(u, yb)


@dataclasses.dataclass(frozen=True)
class IsoMixture:
    """Mixture of isotropic Gaussians sharing one scale sigma0.

    means has shape (K, d); weights are positive and sum to one (uniform when
    omitted).  With s2 = sigma^2 + sigma0^2, component k has log mass
    log w_k - |y - mu_k|^2 / (2 s2) at y.  The squared distances are
    expanded as |mu_k|^2 - 2 y.mu_k + |y|^2 and computed with one (n, d) @
    (d, K) matmul, so no (n, K, d) array is formed; the |y|^2 term is the same
    for every component and only log_density_y adds it back.  The expansion
    cancels where y is close to a mean: each log mass carries an absolute
    error of about d * eps * (|mu_k|^2 + |y| |mu_k|) / s2 (eps = 2.2e-16),
    which the responsibilities inherit as a relative error, against
    d * eps * |y - mu_k|^2 / s2 for the direct differences.  The log masses
    are combined with the max-subtracted log-sum-exp, so scores stay finite
    far from all components where the raw component masses underflow.
    """

    means: np.ndarray
    sigma0: float
    weights: np.ndarray | None = None

    def __post_init__(self):
        means = np.atleast_2d(np.asarray(self.means, dtype=float))
        object.__setattr__(self, "means", means)
        if means.ndim != 2 or means.size == 0:
            raise ValueError(f"means must be a nonempty (K, d) array, got shape {means.shape}")
        if not np.all(np.isfinite(means)):
            raise ValueError("means must be finite")
        if not 0.0 < self.sigma0 < np.inf:
            raise ValueError(f"sigma0 must be positive and finite, got {self.sigma0}")
        k = means.shape[0]
        w = np.full(k, 1.0 / k) if self.weights is None else np.asarray(self.weights, float)
        if w.shape != (k,):
            raise ValueError(f"weights have shape {w.shape}, expected ({k},)")
        if not np.all((w > 0.0) & (w < np.inf)):
            raise ValueError("weights must be positive and finite")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {w.sum()!r}")
        object.__setattr__(self, "weights", w)

    @classmethod
    def symmetric(cls, mu, sigma0):
        """Two equal-weight components at +mu and -mu."""
        mu = np.asarray(mu, dtype=float)
        return cls(means=np.stack([mu, -mu]), sigma0=sigma0)

    @property
    def dim(self):
        return self.means.shape[1]

    @property
    def n_components(self):
        return self.means.shape[0]

    def sample(self, n, gen):
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        comp = (0 if self.n_components == 1  # one component: no index is drawn
                else gen.choice(self.n_components, size=n, p=self.weights))
        return self.means[comp] + self.sigma0 * gen.standard_normal((n, self.dim))

    def _logits(self, yb, s2):
        """(n, K) component log masses less the shared -|y|^2 / (2 s2)."""
        sq_means = np.sum(self.means * self.means, axis=1)
        return np.log(self.weights) - 0.5 * (sq_means - 2.0 * (yb @ self.means.T)) / s2

    def _pull(self, yb, s2):
        """(r, r @ means): the (n, K) responsibilities at yb and the mean they
        pull each point toward.  At K = 1 every r is exactly 1, so r is None
        and the pull is the one mean, (d,)."""
        if self.n_components == 1:
            return None, self.means[0]
        logits = self._logits(yb, s2)
        w = np.exp(logits - logits.max(axis=1, keepdims=True))
        resp = w / w.sum(axis=1, keepdims=True)
        return resp, resp @ self.means

    def log_density_y(self, y, sigma):
        yb = as_batch(y, self.dim)
        s2 = sigma * sigma + self.sigma0 * self.sigma0
        sq_y = np.sum(yb * yb, axis=1)
        logits = self._logits(yb, s2)
        top = logits.max(axis=1)
        lse = top + np.log(np.sum(np.exp(logits - top[:, None]), axis=1))
        return lse - 0.5 * sq_y / s2 - 0.5 * self.dim * np.log(2.0 * np.pi * s2)

    def smoothed_score(self, y, sigma):
        """Gradient of log f_Y: responsibility-weighted pull toward the means,
        sum_k r_k (mu_k - y) / s2 = (r @ means - y) / s2."""
        yb = as_batch(y, self.dim)
        s2 = sigma * sigma + self.sigma0 * self.sigma0
        return (self._pull(yb, s2)[1] - yb) / s2

    def _hvp(self, resp, v, s2):
        """Hessian of log f_Y applied to the batch v, at the points with
        responsibilities resp.

        With r the responsibilities and g_k = (mu_k - y)/s2 the per-component
        pulls, the Hessian action is (sum_k r_k (c_k - cbar) (mu_k - y) - v)/s2
        where c_k = <g_k, v> and cbar is their responsibility average.  Since
        the r_k sum to one, the -<y, v> part of c_k cancels in c_k - cbar, and
        the weights w_k = r_k (c_k - cbar) sum to zero, which cancels the -y
        part of the pull: the action is (w @ means - v) / s2 with
        c = v @ means.T / s2.  At K = 1 (resp None) every w_k is 0 and the
        action is the Gaussian's -v / s2.
        """
        if resp is None:
            return -v / s2
        c = (v @ self.means.T) / s2
        w = resp * (c - np.sum(resp * c, axis=1, keepdims=True))
        return (w @ self.means - v) / s2

    def bayes_estimate(self, y, sigma):
        """Posterior mean of X given Y = y: y + sigma^2 * score(y)."""
        return self.linearize(y, sigma)[0]

    def linearize(self, y, sigma):
        """(bayes_estimate(y, sigma), vjp) with vjp(u) = u + sigma^2 * H u, H
        the Hessian of log f_Y at y, both from one set of responsibilities."""
        yb = as_batch(y, self.dim)
        s2 = sigma * sigma + self.sigma0 * self.sigma0
        resp, pull = self._pull(yb, s2)
        xhat = yb + sigma * sigma * ((pull - yb) / s2)

        def vjp(u):
            u = vjp_input(u, yb)
            return u + sigma**2 * self._hvp(resp, u, s2)

        return xhat, vjp
