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

from .densities import _as_batch, _unbatch
from .mlp import affine_softplus, init_affine_stack

PROB_FLOOR = 1e-12  # probabilities are floored here before any log


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

    def _forward(self, xb, sigmoids=False):
        """Probabilities and the cache _backward reads: the layer inputs and,
        when sigmoids is set (a gradient will be asked for), the hidden
        layers' softplus derivatives."""
        logits, inputs, sigs = affine_softplus(xb, self.weights, self.biases, sigmoids)
        shifted = logits - logits.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        probs = e / e.sum(axis=1, keepdims=True)
        return probs, (inputs, sigs)

    def _backward(self, cache, dlogits, want_params=True, want_input=True):
        """Pull a cotangent on the logits back to parameters and inputs; the
        cache must come from a forward pass with sigmoids set."""
        hs, sigs = cache
        w_grads = [None] * len(self.weights)
        b_grads = [None] * len(self.weights)
        if want_params:
            w_grads[-1] = hs[-1].T @ dlogits
            b_grads[-1] = dlogits.sum(axis=0)
        dh = dlogits @ self.weights[-1].T
        for i in range(len(self.weights) - 2, -1, -1):
            da = dh * sigs[i]
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
        return _unbatch(p, single)

    def predict_class(self, x):
        """Index of the largest logit: the softmax is monotone, so it is
        never formed."""
        xb, single = _as_batch(x, self.dim)
        logits, _, _ = affine_softplus(xb, self.weights, self.biases)
        # argmax of NaN logits is the NaN's index, which would count as a vote
        if not np.all(np.isfinite(logits)):
            raise FloatingPointError("classifier logits are not finite")
        out = np.argmax(logits, axis=1).astype(np.int64)
        return int(out[0]) if single else out


def _identity(u):
    return np.asarray(u, dtype=float)


def linearize_estimator(estimator, y, sigma):
    """Denoise y with whichever estimator is configured, and linearize the
    denoiser there.

    None means the identity (plain smoothing with no denoiser).  Anything else
    is a smoothed density of Y = X + N(0, sigma^2 I), exact (IsoGaussian,
    IsoMixture) or learned (EnergyNet), with the methods log_density_y,
    smoothed_score, score_hvp, bayes_estimate and linearize.  Returns
    (xhat, vjp): the Bayes estimate y + sigma^2 * grad log f_Y(y), and the map
    u -> u + sigma^2 * hessian(log f_Y)(y) u.  That is the denoiser's
    Jacobian, which is symmetric, so vjp is also its forward action.  vjp
    does no work until it is called.
    """
    if estimator is None:
        return np.asarray(y, dtype=float), _identity
    return estimator.linearize(y, sigma)


@dataclasses.dataclass(frozen=True)
class EbClassifier:
    """Base classifier composed with a denoiser, plus its smoothed soft view.

    `estimator` is a smoothed density (an exact data model or an EnergyNet;
    see linearize_estimator) or None for the identity.  `sigma` is the smoothing
    noise scale; a learned energy accepts only the scale it was trained at.
    `m` is the Monte-Carlo sample count used by the soft probabilities.
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
        # denoising no points still runs the estimator's scale check
        linearize_estimator(self.estimator, np.zeros((0, self.dim)), self.sigma)

    @property
    def dim(self):
        return self.base.dim

    @property
    def n_classes(self):
        return self.base.n_classes

    def predict_class(self, x):
        xb, single = _as_batch(x, self.dim)
        xhat = xb
        if self.estimator is not None:
            # NaN arithmetic need not warn: the result is checked right below
            with np.errstate(invalid="ignore"):
                xhat = self.estimator.bayes_estimate(xb, self.sigma)
        # a NaN point falls on one side of every comparison, so it would vote
        if not np.all(np.isfinite(xhat)):
            raise FloatingPointError("denoised points are not finite")
        out = self.base.predict_class(xhat)
        return int(out[0]) if single else out


def _require_soft_base(c):
    if not hasattr(c.base, "probs"):
        raise TypeError(
            "soft-classifier operations need a base with probabilities; "
            "represent two-class problems as K=2 soft classifiers"
        )


def _pi_batch(c, xs, noise, grad=False):
    """Fixed-noise soft probabilities for a batch: xs (B, d), noise (B, m, d).

    Returns (pis, probs, cache, vjp): the (B, K) averages, the per-sample
    probabilities, the base classifier's forward cache (ready for _backward
    when grad is set) and the denoiser's lazy vjp at the noisy points.
    """
    _require_soft_base(c)
    bsz, m, dim = noise.shape
    y = (xs[:, None, :] + noise).reshape(bsz * m, dim)
    xhat, vjp = linearize_estimator(c.estimator, y, c.sigma)
    probs, cache = c.base._forward(xhat, sigmoids=grad)
    pis = probs.reshape(bsz, m, -1).mean(axis=1)
    return pis, probs, cache, vjp


def _neg_log_pi(c, xs, ks, noise, grad=False):
    """The fixed-noise objective -log Pi_k for a batch, from one forward pass.

    Pi_k is floored at PROB_FLOOR before the log.  Returns (neg_log (B,),
    grads), where grads (B, d) is the input gradient of neg_log when asked
    for and None otherwise.
    """
    bsz, m, dim = noise.shape
    pis, probs, cache, vjp = _pi_batch(c, xs, noise, grad)
    pik = np.maximum(pis[np.arange(bsz), ks], PROB_FLOOR)
    neg_log = -np.log(pik)
    if not grad:
        return neg_log, None
    onehot = np.eye(c.base.n_classes)[np.repeat(ks, m)]
    pk = probs[np.arange(bsz * m), np.repeat(ks, m)]
    dlogits = pk[:, None] * (onehot - probs)
    dxhat, _ = c.base._backward(cache, dlogits, want_params=False)
    pulled = vjp(dxhat)
    grads = pulled.reshape(bsz, m, dim).sum(axis=1) / (m * pik[:, None])
    return neg_log, -grads
