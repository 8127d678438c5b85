"""Base classifiers and their denoiser-composed counterparts.

A hard classifier maps a batch of points (n, d) to their class indices (n,).
The denoiser-composed classifier evaluates its base at the Bayes estimate of
the input instead of at the input itself; with densities.Identity as its
denoiser it is the plainly smoothed base.  Its soft counterpart averages the
base soft classifier over denoised noisy copies and exposes the exact input
gradient of its log-probabilities, which is what the projected-gradient
attack consumes.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .densities import _as_batch
from .mlp import LayerStack, affine_softplus, affine_softplus_backward, init_affine_stack

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
        return (_as_batch(x, self.dim) @ self.w + self.b > 0.0).astype(np.int64)


class SoftClassifier(LayerStack):
    """Softplus MLP with a normalized-exponential output over K classes."""

    @classmethod
    def init(cls, dim, hidden, n_classes, gen):
        return cls(*init_affine_stack((dim, *hidden, n_classes), gen))

    @property
    def n_classes(self):
        return self.widths[-1]

    def _forward(self, xb, sigmoids=False):
        """Probabilities and the cache _backward reads: the layer inputs and,
        when sigmoids is set (a gradient will be asked for), the hidden
        layers' softplus derivatives."""
        logits, inputs, sigs = affine_softplus(xb, self.weights, self.biases, sigmoids)
        shifted = logits - logits.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        probs = e / e.sum(axis=1, keepdims=True)
        return probs, (inputs, sigs)

    def _backward(self, cache, dlogits, want_params=True):
        """Pull a cotangent on the logits back to the inputs and, when
        want_params, to the parameters, in parameters() order (else None);
        the cache must come from a forward pass with sigmoids set."""
        hs, sigs = cache
        ds, gs = affine_softplus_backward(dlogits, self.weights, sigs)
        grads = None
        if want_params:
            grads = [g for h, d in zip(hs, ds) for g in (h.T @ d, d.sum(axis=0))]
        return gs[0], grads

    def probs(self, x):
        return self._forward(_as_batch(x, self.dim))[0]

    def predict_class(self, x):
        """Index of the largest logit: the softmax is monotone, so it is
        never formed."""
        logits, _, _ = affine_softplus(_as_batch(x, self.dim), self.weights, self.biases)
        # argmax of NaN logits is the NaN's index, which would count as a vote
        if not np.all(np.isfinite(logits)):
            raise FloatingPointError("classifier logits are not finite")
        return np.argmax(logits, axis=1).astype(np.int64)


@dataclasses.dataclass(frozen=True)
class EbClassifier:
    """Base classifier composed with a denoiser, plus its smoothed soft view.

    `estimator` is the denoiser: densities.Identity, or a smoothed density
    of Y = X + N(0, sigma^2 I), exact (IsoGaussian, IsoMixture) or learned
    (EnergyNet).  The composition reads only its bayes_estimate(y, sigma)
    and its linearize(y, sigma) -> (xhat, vjp): the Bayes estimate
    y + sigma^2 * grad log f_Y(y), and the map
    u -> u + sigma^2 * hessian(log f_Y)(y) u, the denoiser's symmetric
    Jacobian, which vjp alone reaches and computes only when called.
    `sigma` is the smoothing noise scale; a learned energy accepts only the
    scale it was trained at.
    """

    base: object
    estimator: object
    sigma: float

    def __post_init__(self):
        if self.sigma < 0.0:
            raise ValueError(f"sigma must be nonnegative, got {self.sigma}")
        # denoising no points still runs the estimator's scale check
        self.estimator.linearize(np.zeros((0, self.dim)), self.sigma)

    @property
    def dim(self):
        return self.base.dim

    @property
    def n_classes(self):
        return self.base.n_classes

    def predict_class(self, x):
        xb = _as_batch(x, self.dim)
        # NaN arithmetic need not warn: the result is checked right below
        with np.errstate(invalid="ignore"):
            xhat = self.estimator.bayes_estimate(xb, self.sigma)
        # a NaN point falls on one side of every comparison, so it would vote
        if not np.all(np.isfinite(xhat)):
            raise FloatingPointError("denoised points are not finite")
        return self.base.predict_class(xhat)


def _require_soft_base(c):
    if not hasattr(c.base, "probs"):
        raise TypeError(
            "soft-classifier operations need a base with probabilities; "
            "represent two-class problems as K=2 soft classifiers"
        )


def _neg_log_pi(c, xs, ks, noise, wrt=None):
    """The fixed-noise objective -log Pi_k for a batch, from one forward pass.

    xs (B, d) are the points, ks (B,) their classes and noise (B, m, d) the
    noise added to each; Pi (B, K) averages the base's probabilities over the
    m denoised noisy copies, and Pi_k is floored at PROB_FLOOR before the
    log.  Returns (neg_log (B,), pis, grads), where grads is None when wrt is
    None, the input gradient (B, d) of neg_log when wrt is "input", and the
    base's parameter gradients of neg_log's mean, in parameters() order, when
    wrt is "params".
    """
    _require_soft_base(c)
    bsz, m, dim = noise.shape
    y = (xs[:, None, :] + noise).reshape(bsz * m, dim)
    xhat, vjp = c.estimator.linearize(y, c.sigma)
    probs, cache = c.base._forward(xhat, sigmoids=wrt is not None)
    pis = probs.reshape(bsz, m, -1).mean(axis=1)
    pik = np.maximum(pis[np.arange(bsz), ks], PROB_FLOOR)
    neg_log = -np.log(pik)
    if wrt is None:
        return neg_log, pis, None
    rep_k = np.repeat(ks, m)
    pk = probs[np.arange(bsz * m), rep_k]
    onehot = np.eye(c.base.n_classes)[rep_k]
    if wrt == "params":
        coef = np.repeat(-1.0 / (bsz * m * pik), m)
        _, grads = c.base._backward(cache, (coef * pk)[:, None] * (onehot - probs))
        return neg_log, pis, grads
    dxhat, _ = c.base._backward(cache, pk[:, None] * (onehot - probs), want_params=False)
    pulled = vjp(dxhat)
    grads = pulled.reshape(bsz, m, dim).sum(axis=1) / (m * pik[:, None])
    return neg_log, pis, -grads
