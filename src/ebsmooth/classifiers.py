"""Base classifiers and their denoiser-composed counterparts.

A hard classifier maps points to class indices.  The denoiser-composed
classifier evaluates its base at the Bayes estimate of the input instead of
at the input itself; its soft counterpart averages the base soft classifier
over denoised noisy copies and exposes the exact input gradient of its
log-probabilities, which is what the projected-gradient attack consumes.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .energy import EnergyNet
from .mlp import init_affine_stack, sigmoid, softplus

PROB_FLOOR = 1e-12  # probabilities are floored here before any log


def _as_batch(x, dim):
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        if x.shape[0] != dim:
            raise ValueError(f"point has dimension {x.shape[0]}, expected {dim}")
        return x[None, :], True
    if x.ndim == 2 and x.shape[1] == dim:
        return x, False
    raise ValueError(f"expected points of dimension {dim}, got shape {x.shape}")


@dataclasses.dataclass(frozen=True)
class LinearClassifier:
    """Two-class linear rule: class 1 where <w, x> + b > 0, class 0 otherwise.

    Exactly on the boundary the tie goes to the lowest class index.
    """

    w: np.ndarray
    b: float

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        if w.ndim != 1 or not np.any(w != 0.0):
            raise ValueError("w must be a nonzero vector")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "b", float(self.b))

    @property
    def dim(self):
        return self.w.shape[0]

    @property
    def n_classes(self):
        return 2

    def decision(self, x):
        xb, single = _as_batch(x, self.dim)
        out = xb @ self.w + self.b
        return float(out[0]) if single else out

    def predict_class(self, x):
        xb, single = _as_batch(x, self.dim)
        out = (xb @ self.w + self.b > 0.0).astype(np.int64)
        return int(out[0]) if single else out


class SoftClassifier:
    """Softplus MLP with a normalized-exponential output over K classes."""

    def __init__(self, weights, biases):
        self.weights = [np.asarray(w, dtype=float) for w in weights]
        self.biases = [np.asarray(b, dtype=float) for b in biases]
        widths = [self.weights[0].shape[0]]
        for w in self.weights:
            widths.append(w.shape[1])
        self.widths = tuple(widths)

    @classmethod
    def init(cls, dim, hidden, n_classes, gen):
        ws, bs = init_affine_stack((dim, *hidden, n_classes), gen)
        return cls(ws, bs)

    @property
    def dim(self):
        return self.widths[0]

    @property
    def n_classes(self):
        return self.widths[-1]

    def parameters(self):
        params = []
        for w, b in zip(self.weights, self.biases):
            params.extend((w, b))
        return params

    def _forward(self, xb):
        h = xb
        pre = []      # hidden pre-activations
        hs = [xb]     # layer inputs
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            a = h @ w + b
            pre.append(a)
            h = softplus(a)
            hs.append(h)
        logits = h @ self.weights[-1] + self.biases[-1]
        shifted = logits - logits.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        probs = e / e.sum(axis=1, keepdims=True)
        return probs, (hs, pre)

    def _backward(self, cache, dlogits, want_params=True, want_input=True):
        """Pull a cotangent on the logits back to parameters and inputs."""
        hs, pre = cache
        w_grads = [None] * len(self.weights)
        b_grads = [None] * len(self.weights)
        if want_params:
            w_grads[-1] = hs[-1].T @ dlogits
            b_grads[-1] = dlogits.sum(axis=0)
        dh = dlogits @ self.weights[-1].T
        for i in range(len(self.weights) - 2, -1, -1):
            da = dh * sigmoid(pre[i])
            if want_params:
                w_grads[i] = hs[i].T @ da
                b_grads[i] = da.sum(axis=0)
            dh = da @ self.weights[i].T
        grads = None
        if want_params:
            grads = []
            for wg, bg in zip(w_grads, b_grads):
                grads.extend((wg, bg))
        return dh if want_input else None, grads

    def probs(self, x):
        xb, single = _as_batch(x, self.dim)
        p, _ = self._forward(xb)
        return p[0] if single else p

    def predict_class(self, x):
        xb, single = _as_batch(x, self.dim)
        p, _ = self._forward(xb)
        # argmax of NaN probabilities is 0, which would count as a vote
        if not np.all(np.isfinite(p)):
            raise FloatingPointError("classifier probabilities are not finite")
        out = np.argmax(p, axis=1).astype(np.int64)
        return int(out[0]) if single else out

    def class_prob_input_grad(self, x, k):
        """Gradient of the k-th output probability with respect to the input."""
        xb, single = _as_batch(x, self.dim)
        p, cache = self._forward(xb)
        dlogits = p[:, k][:, None] * (np.eye(self.n_classes)[k][None, :] - p)
        dx, _ = self._backward(cache, dlogits, want_params=False)
        return dx[0] if single else dx

    def copy(self):
        return SoftClassifier([w.copy() for w in self.weights],
                              [b.copy() for b in self.biases])


def apply_estimator(estimator, y, sigma):
    """Denoise y with whichever estimator is configured.

    None means the identity (plain smoothing with no denoiser); an EnergyNet
    uses its learned field; anything exposing bayes_estimate is treated as an
    exact data model.
    """
    if estimator is None:
        return np.asarray(y, dtype=float)
    if isinstance(estimator, EnergyNet):
        return estimator.estimate(y)
    return estimator.bayes_estimate(y, sigma)


def apply_estimator_vjp(estimator, y, u, sigma):
    """Transpose-Jacobian of the denoiser at y applied to u.

    The Jacobian is I - sigma^2 * hessian(phi) for a learned energy and
    I + sigma^2 * hessian(log f_Y) for an exact model; both are symmetric.
    """
    if estimator is None:
        return np.asarray(u, dtype=float)
    if isinstance(estimator, EnergyNet):
        return estimator.estimate_vjp(y, u)
    return np.asarray(u, dtype=float) + sigma**2 * estimator.score_hvp(y, u, sigma)


@dataclasses.dataclass(frozen=True)
class EbClassifier:
    """Base classifier composed with a denoiser, plus its smoothed soft view.

    `estimator` is an EnergyNet, an exact data model, or None for the
    identity.  `sigma` is the smoothing noise scale, which must equal the
    scale the denoiser was built for.  `m` is the Monte-Carlo sample count
    used by the soft probabilities.
    """

    base: object
    estimator: object
    sigma: float
    m: int = 1

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if self.sigma < 0.0:
            raise ValueError(f"sigma must be nonnegative, got {self.sigma}")
        if isinstance(self.estimator, EnergyNet):
            if not np.isclose(self.estimator.sigma, self.sigma, rtol=0.0, atol=1e-12):
                raise ValueError(
                    f"energy trained for sigma={self.estimator.sigma} but the "
                    f"classifier smooths at sigma={self.sigma}"
                )

    @property
    def dim(self):
        return self.base.dim

    @property
    def n_classes(self):
        return self.base.n_classes

    def estimate(self, y):
        return apply_estimator(self.estimator, y, self.sigma)

    def predict_class(self, x):
        xb, single = _as_batch(x, self.dim)
        xhat = self.estimate(xb)
        # a NaN point falls on one side of every comparison, so it would vote
        if not np.all(np.isfinite(xhat)):
            raise FloatingPointError("denoised points are not finite")
        out = self.base.predict_class(xhat)
        return int(out[0]) if single else out


def classify_hard(classifier, x):
    """Hard label(s) at x.  For a denoiser-composed classifier this is the
    base decision at the denoised point; ties go to the lowest class index."""
    return classifier.predict_class(x)


def _require_soft_base(c):
    if not hasattr(c.base, "probs"):
        raise TypeError(
            "soft-classifier operations need a base with probabilities; "
            "represent two-class problems as K=2 soft classifiers"
        )


def soft_pi_with_noise(c, x, noise):
    """Monte-Carlo soft probabilities with a caller-supplied noise list.

    noise has shape (m, d); the result is the average of the base soft
    classifier at the denoised noisy copies.  Reusing one noise list across
    calls makes the value a deterministic function of x (common random
    numbers), which the attack relies on.
    """
    _require_soft_base(c)
    x = np.asarray(x, dtype=float)
    noise = np.asarray(noise, dtype=float)
    y = x[None, :] + noise
    xhat = apply_estimator(c.estimator, y, c.sigma)
    return c.base.probs(xhat).mean(axis=0)


def soft_pi(c, x, gen):
    """Monte-Carlo soft probabilities with m fresh noise draws at scale sigma."""
    x = np.asarray(x, dtype=float)
    noise = c.sigma * gen.standard_normal((c.m, x.shape[0]))
    return soft_pi_with_noise(c, x, noise)


def grad_log_pi(c, x, k, noise):
    """Exact input gradient of log of the fixed-noise soft probability.

    Chain rule per noise sample: the base classifier's probability gradient
    at the denoised point, pulled back through the denoiser Jacobian.  The
    probability is floored at PROB_FLOOR before the log so the gradient stays
    finite when the class mass is numerically zero.
    """
    grad, _, _ = _grad_log_pi_batch(
        c, np.asarray(x, float)[None, :], np.array([k]), np.asarray(noise, float)[None, :, :]
    )
    return grad[0]


def _pi_batch(c, xs, noise):
    """Fixed-noise soft probabilities for a batch: xs (B, d), noise (B, m, d)."""
    _require_soft_base(c)
    bsz, m, dim = noise.shape
    y = (xs[:, None, :] + noise).reshape(bsz * m, dim)
    xhat = apply_estimator(c.estimator, y, c.sigma)
    probs, cache = c.base._forward(xhat)
    pis = probs.reshape(bsz, m, -1).mean(axis=1)
    return pis, probs, cache, y


def _grad_log_pi_batch(c, xs, ks, noise):
    """Input gradients of log Pi_k for a batch, reusing the given noise.

    Returns (grads (B, d), pis (B, K), neg_log (B,)).
    """
    bsz, m, dim = noise.shape
    pis, probs, cache, y = _pi_batch(c, xs, noise)
    pik = np.maximum(pis[np.arange(bsz), ks], PROB_FLOOR)
    onehot = np.eye(c.base.n_classes)[np.repeat(ks, m)]
    pk = probs[np.arange(bsz * m), np.repeat(ks, m)]
    dlogits = pk[:, None] * (onehot - probs)
    dxhat, _ = c.base._backward(cache, dlogits, want_params=False)
    pulled = apply_estimator_vjp(c.estimator, y, dxhat, c.sigma)
    grads = pulled.reshape(bsz, m, dim).sum(axis=1) / (m * pik[:, None])
    neg_log = -np.log(pik)
    return grads, pis, neg_log
