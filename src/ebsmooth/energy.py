"""Learnable scalar energy field over noisy inputs.

A small softplus MLP phi(y) is trained so that y - sigma^2 * grad phi(y)
matches the posterior-mean denoiser of the data at noise scale sigma.  It is
an mlp.LayerStack whose last, width-1 layer is the scalar readout, so it
shares its storage, forward pass and reverse pass with the soft classifier.
Read as phi = -log f_Y, the net implements the smoothed-density protocol of
the exact models in densities.py, so every consumer treats the two alike.
The attack and training loops downstream need more than plain evaluation, so
this module carries, all in closed form:

  * the input gradient of phi, by one reverse pass,
  * Hessian-vector products of phi, exact (forward-over-reverse, no finite
    differences), which linearize's vjp applies,
  * parameter gradients of losses that contain grad phi inside them
    (the denoising loss differentiates through the gradient, i.e. double
    backpropagation).

Batches are checked by densities.as_batch and vjp_input, as in the exact
models.  train_energy owns only its batch step; the loop is mlp.descend.

Softplus is used throughout because the chain rule through the denoiser needs
a continuous second derivative; piecewise-linear activations would make the
Hessian-vector products above undefined.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .densities import as_batch, vjp_input
from .mlp import (LayerStack, affine_softplus, affine_softplus_backward, check_hidden,
                  check_schedule, descend, init_affine_stack, sigmoid)


class EnergyNet(LayerStack):
    """Fully-connected scalar field: softplus hidden layers, then a linear
    readout that is the stack's last layer, of width 1.  `sigma` records the
    noise scale this energy was fit for; the smoothed-density methods
    (log_density_y, smoothed_score, bayes_estimate, linearize) raise
    ValueError at any other scale.
    """

    def __init__(self, weights, biases, sigma):
        super().__init__(weights, biases)
        self.sigma = float(sigma)
        if self.widths[-1] != 1:
            raise ValueError(f"energy readout must have width 1, got {self.widths[-1]}")

    @classmethod
    def init(cls, dim, hidden, sigma, gen):
        """Fresh network: Glorot-normal hidden weights, a readout drawn at
        scale sqrt(1 / width) after them, and zero biases."""
        widths = (dim, *hidden)
        ws, bs = init_affine_stack(widths, gen)
        ws.append(np.sqrt(1.0 / widths[-1]) * gen.standard_normal(widths[-1])[:, None])
        bs.append(np.zeros(1))
        return cls(ws, bs, sigma)

    # -- evaluation ---------------------------------------------------------

    def _grad(self, yb):
        """One primal pass and the reverse pass of the energy to its input.

        Returns (grad phi, cache).  The cache holds what every further
        derivative reads: each hidden layer's input h_i, the sigmoid s_i of
        its pre-activation, the cotangent D_i on that pre-activation and
        G_i = D_i W_i^T on its input (G_0 is the gradient).  No derivative
        reads the last hidden layer's softplus, so only log_density_y computes it.
        """
        hidden = self.weights[:-1]
        a, inputs, sigs = affine_softplus(yb, hidden, self.biases[:-1], sigmoids=True)
        readout = self.weights[-1].T
        if not hidden:
            return np.broadcast_to(readout, yb.shape).copy(), ([], [], [], [])
        sigs.append(sigmoid(a))
        ds, gs = affine_softplus_backward(readout * sigs[-1], hidden, sigs)
        return gs[0], (inputs, sigs, ds, gs)

    # -- gradient-dot machinery --------------------------------------------
    #
    # The scalar T(Y, U) = sum_i <u_i, grad phi(y_i)> is computed by pushing
    # the tangents U through a forward-mode pass on the cached primal one.
    # Reverse-differentiating T then yields, exactly:
    #   * dT/dY  = Hessian-vector products  (u_i held constant), and
    #   * dT/dtheta = parameter gradients of any loss whose upstream
    #     derivative with respect to grad phi is U.
    # The cotangents of T on the tangents are the gradient pass's own D_i
    # and G_i, so only the cotangents on the primal values are computed here.

    def _gdot(self, cache, ub, want_params):
        """Tangent pass of U, then its reverse, on _grad's cache: (w_grads,
        b_grads, readout_grad, y_grad), the hidden layers' and the readout's
        parameter gradients None unless want_params."""
        inputs, sigs, ds, gs = cache
        hidden = self.weights[:-1]
        hh = [ub]
        ah = []
        for w, s in zip(hidden, sigs):
            ah.append(hh[-1] @ w)
            hh.append(s * ah[-1])
        w_grads = [None] * len(hidden)
        b_grads = [None] * len(hidden)
        hb = np.zeros((ub.shape[0], self.widths[-2]))
        for i in range(len(hidden) - 1, -1, -1):
            s = sigs[i]
            hhb = gs[i + 1] if i < len(hidden) - 1 else self.weights[-1].T
            ab = (hhb * ah[i]) * s * (1.0 - s) + hb * s
            if want_params:
                w_grads[i] = inputs[i].T @ ab + hh[i].T @ ds[i]
                b_grads[i] = ab.sum(axis=0)
            hb = ab @ hidden[i].T
        readout_grad = hh[-1].sum(axis=0)[:, None] if want_params else None
        return w_grads, b_grads, readout_grad, hb

    # -- smoothed-density protocol -----------------------------------------
    #
    # The energy is phi = -log f_Y at the trained scale, so each method of the
    # exact data models in densities.py is a sign flip of phi or of its
    # derivatives above.  Only the trained scale is accepted.

    def _check_scale(self, sigma):
        if sigma != self.sigma:  # a NaN scale fails too
            raise ValueError(
                f"energy trained for sigma={self.sigma}, requested sigma={sigma}"
            )

    def log_density_y(self, y, sigma):
        """-phi(y): the log density of Y up to an unknown constant."""
        self._check_scale(sigma)
        return -affine_softplus(as_batch(y, self.dim), self.weights, self.biases)[0][:, 0]

    def smoothed_score(self, y, sigma):
        """-grad phi(y): the learned score of Y."""
        self._check_scale(sigma)
        return -self._grad(as_batch(y, self.dim))[0]

    def bayes_estimate(self, y, sigma):
        """Denoised point y - sigma^2 * grad phi(y) at the trained scale."""
        return self.linearize(y, sigma)[0]

    def linearize(self, y, sigma):
        """(bayes_estimate(y, sigma), vjp) from one primal pass, where
        vjp(u) = u - sigma^2 * hessian(phi)(y) u runs only the tangent and
        reverse passes on the primal pass's cache, and only when called."""
        self._check_scale(sigma)
        yb = as_batch(y, self.dim)
        grad, cache = self._grad(yb)
        xhat = yb - self.sigma**2 * grad

        def vjp(u):
            ub = vjp_input(u, yb)
            hvp = self._gdot(cache, ub, want_params=False)[3]
            return ub + sigma**2 * -hvp

        return xhat, vjp


def denoise_loss_and_grads(net, x_clean, y_noisy):
    """Denoising least squares || x - (y - sigma^2 grad phi(y)) ||^2 and its
    parameter gradients.

    The loss contains the input gradient of the energy, so its parameter
    derivative needs second-order information; it is obtained by reverse
    differentiation of the gradient-dot pass with upstream vector
    (2/B)(xhat - x), on the primal pass that gave xhat.  The readout bias
    never appears (only grad phi enters), so its gradient is identically
    zero.
    """
    sigma2 = net.sigma**2
    grad, cache = net._grad(y_noisy)
    xhat = y_noisy - sigma2 * grad
    err = xhat - x_clean
    loss = float(np.mean(np.sum(err * err, axis=1)))
    upstream = (2.0 / x_clean.shape[0]) * err
    w_grads, b_grads, readout_grad, _ = net._gdot(cache, upstream, want_params=True)
    grads = [-sigma2 * g for wg, bg in zip(w_grads, b_grads) for g in (wg, bg)]
    return loss, grads + [-sigma2 * readout_grad, np.zeros(1)]


@dataclasses.dataclass(frozen=True)
class EnergyTrainConfig:
    """Hyperparameters for fitting the energy by denoising least squares."""

    hidden: list[int] = dataclasses.field(default_factory=lambda: [128, 128])
    steps: int = 4000
    batch_size: int = 128
    lr: float = 1e-3

    def __post_init__(self):
        if not self.hidden:
            raise ValueError("hidden must name at least one layer for training")
        check_hidden(self.hidden)
        check_schedule(self)


def train_energy(data, sigma, cfg, gen, callback=None):
    """Fit an EnergyNet at noise scale sigma by denoising least squares.

    One fresh noise draw per data point per step keeps the stochastic loss
    unbiased.  All randomness flows through `gen`, so a fixed stream
    reproduces the final parameters bit for bit.  The loop is mlp.descend:
    a non-finite loss or gradient raises mlp.TrainingDivergedError before
    the step.  callback, when given, receives (step, {"loss": loss}).
    """
    if not 0.0 < sigma < np.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[0] == 0:
        raise ValueError("data must be a nonempty (n, d) array")
    n, dim = data.shape
    net = EnergyNet.init(dim, tuple(cfg.hidden), sigma, gen)

    def batch_step(idx):
        x = data[idx]
        loss, grads = denoise_loss_and_grads(net, x, x + sigma * gen.standard_normal(x.shape))
        return loss, grads, {"loss": loss}

    descend(net.parameters(), cfg, n, gen, batch_step, callback)
    return net
