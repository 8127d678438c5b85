"""Analytic data models with exact scores and Bayes estimators, and the
identity denoiser.

These are the ground truth the learned pieces are judged against.  Every model
knows the density of its Gaussian-corrupted version Y = X + N(0, sigma^2 I),
the score of that density, the exact posterior-mean denoiser
xhat(y) = y + sigma^2 * score(y), and, through linearize's vjp, that
denoiser's Jacobian.  Identity is the denoiser of plain randomized
smoothing: xhat(y) = y, with the identity as its Jacobian.

Every model method takes a batch y of shape (n, d) and returns one value or
row per point; a single point (d,) is a ValueError.
"""

from __future__ import annotations

import dataclasses

import numpy as np


def beta_of(sigma, sigma0):
    """Shrinkage factor 1 / (1 + (sigma/sigma0)^2) of the Gaussian denoiser."""
    if sigma0 <= 0.0:
        raise ValueError(f"sigma0 must be positive, got {sigma0}")
    if sigma < 0.0:
        raise ValueError(f"sigma must be nonnegative, got {sigma}")
    return 1.0 / (1.0 + (sigma / sigma0) ** 2)


def _as_batch(y, dim=None):
    """y as a float (n, dim) batch of points (any width when dim is None)."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 2:
        raise ValueError(f"expected a batch of points (n, d), got shape {y.shape}")
    if dim is not None and y.shape[1] != dim:
        raise ValueError(f"points have dimension {y.shape[1]}, expected {dim}")
    return y


def _vjp_input(u, yb):
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
        return _as_batch(y)

    def linearize(self, y, sigma):
        """(y, vjp) with vjp the identity."""
        yb = _as_batch(y)
        return yb, lambda u: _vjp_input(u, yb)


@dataclasses.dataclass(frozen=True)
class IsoGaussian:
    """Isotropic Gaussian data model N(mean, sigma0^2 I)."""

    sigma0: float
    dim: int
    mean: np.ndarray | None = None

    def __post_init__(self):
        if self.sigma0 <= 0.0:
            raise ValueError(f"sigma0 must be positive, got {self.sigma0}")
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        mean = np.zeros(self.dim) if self.mean is None else np.asarray(self.mean, float)
        if mean.shape != (self.dim,):
            raise ValueError(f"mean has shape {mean.shape}, expected ({self.dim},)")
        object.__setattr__(self, "mean", mean)

    def sample(self, n, gen):
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        return self.mean[None, :] + self.sigma0 * gen.standard_normal((n, self.dim))

    def log_density_y(self, y, sigma):
        """Log density of Y = X + N(0, sigma^2 I) at y."""
        yb = _as_batch(y, self.dim)
        s2 = sigma * sigma + self.sigma0 * self.sigma0
        sq = np.sum((yb - self.mean) ** 2, axis=1)
        return -0.5 * sq / s2 - 0.5 * self.dim * np.log(2.0 * np.pi * s2)

    def smoothed_score(self, y, sigma):
        """Gradient of log f_Y at y: -(y - mean) / (sigma^2 + sigma0^2)."""
        yb = _as_batch(y, self.dim)
        s2 = sigma * sigma + self.sigma0 * self.sigma0
        return (self.mean - yb) / s2

    def bayes_estimate(self, y, sigma):
        """Posterior mean of X given Y = y: y + sigma^2 * score(y)."""
        yb = _as_batch(y, self.dim)
        return yb + sigma * sigma * self.smoothed_score(yb, sigma)

    def linearize(self, y, sigma):
        """(bayes_estimate(y, sigma), vjp) with vjp(u) = u + sigma^2 * H u, where
        H = -I / (sigma^2 + sigma0^2) is the constant Hessian of log f_Y, so
        vjp reads only y's shape."""
        s2 = sigma * sigma + self.sigma0 * self.sigma0
        xhat = self.bayes_estimate(y, sigma)

        def vjp(u):
            u = _vjp_input(u, xhat)
            return u + sigma**2 * (-u / s2)

        return xhat, vjp


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
        if self.sigma0 <= 0.0:
            raise ValueError(f"sigma0 must be positive, got {self.sigma0}")
        k = means.shape[0]
        w = np.full(k, 1.0 / k) if self.weights is None else np.asarray(self.weights, float)
        if w.shape != (k,):
            raise ValueError(f"weights have shape {w.shape}, expected ({k},)")
        if np.any(w <= 0.0):
            raise ValueError("weights must be positive")
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
        comp = gen.choice(self.n_components, size=n, p=self.weights)
        return self.means[comp] + self.sigma0 * gen.standard_normal((n, self.dim))

    def _logits(self, yb, s2):
        """(n, K) component log masses less the shared -|y|^2 / (2 s2)."""
        sq_means = np.sum(self.means * self.means, axis=1)
        return np.log(self.weights) - 0.5 * (sq_means - 2.0 * (yb @ self.means.T)) / s2

    def _responsibilities(self, yb, s2):
        logits = self._logits(yb, s2)
        w = np.exp(logits - logits.max(axis=1, keepdims=True))
        return w / w.sum(axis=1, keepdims=True)

    def log_density_y(self, y, sigma):
        yb = _as_batch(y, self.dim)
        s2 = sigma * sigma + self.sigma0 * self.sigma0
        sq_y = np.sum(yb * yb, axis=1)
        logits = self._logits(yb, s2)
        top = logits.max(axis=1)
        lse = top + np.log(np.sum(np.exp(logits - top[:, None]), axis=1))
        return lse - 0.5 * sq_y / s2 - 0.5 * self.dim * np.log(2.0 * np.pi * s2)

    def smoothed_score(self, y, sigma):
        """Gradient of log f_Y: responsibility-weighted pull toward the means,
        sum_k r_k (mu_k - y) / s2 = (r @ means - y) / s2."""
        yb = _as_batch(y, self.dim)
        s2 = sigma * sigma + self.sigma0 * self.sigma0
        resp = self._responsibilities(yb, s2)
        return (resp @ self.means - yb) / s2

    def _hvp(self, resp, v, s2):
        """Hessian of log f_Y applied to the batch v, at the points with
        responsibilities resp.

        With r the responsibilities and g_k = (mu_k - y)/s2 the per-component
        pulls, the Hessian action is (sum_k r_k (c_k - cbar) (mu_k - y) - v)/s2
        where c_k = <g_k, v> and cbar is their responsibility average.  Since
        the r_k sum to one, the -<y, v> part of c_k cancels in c_k - cbar, and
        the weights w_k = r_k (c_k - cbar) sum to zero, which cancels the -y
        part of the pull: the action is (w @ means - v) / s2 with
        c = v @ means.T / s2.
        """
        c = (v @ self.means.T) / s2
        w = resp * (c - np.sum(resp * c, axis=1, keepdims=True))
        return (w @ self.means - v) / s2

    def bayes_estimate(self, y, sigma):
        """Posterior mean of X given Y = y: y + sigma^2 * score(y)."""
        return self.linearize(y, sigma)[0]

    def linearize(self, y, sigma):
        """(bayes_estimate(y, sigma), vjp) with vjp(u) = u + sigma^2 * H u, H
        the Hessian of log f_Y at y, both from one set of responsibilities."""
        yb = _as_batch(y, self.dim)
        s2 = sigma * sigma + self.sigma0 * self.sigma0
        resp = self._responsibilities(yb, s2)
        xhat = yb + sigma * sigma * ((resp @ self.means - yb) / s2)

        def vjp(u):
            u = _vjp_input(u, yb)
            return u + sigma**2 * self._hvp(resp, u, s2)

        return xhat, vjp
