"""Shared pieces for the small fully-connected networks: smooth activations,
the layer stack both networks are, its affine-softplus forward pass and the
one reverse pass of it, weight initialization, an Adam optimizer with bias
correction, the one minibatch descent loop both trainers run on it, and the
checks both trainers' configs run on hidden widths and learning schedules.

The activations are plain numpy, so the training commands never import
scipy.  Each writes into one output buffer and, for a contiguous input,
holds no full-size temporary.  Both take a float or an array of any shape,
never modify their input, and return a float64 scalar or an array of the
input's shape.
"""

from __future__ import annotations

import numpy as np

# Softplus works through its input in blocks of this many elements (64 KB),
# so its temporaries are a constant size and stay in cache.  Adding max(x, 0)
# in place over the whole array instead needs a masked add (where=x > 0),
# which alone costs more than the blocked kernel.
_BLOCK = 1 << 13


def softplus(x):
    """log(1 + exp(x)) as max(x, 0) + log1p(exp(-|x|)), which does not
    overflow for large |x|."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape)
    flat_x, flat_out = x.reshape(-1), out.reshape(-1)
    for start in range(0, flat_x.size, _BLOCK):
        xb = flat_x[start:start + _BLOCK]
        t = np.abs(xb)
        np.negative(t, out=t)
        np.exp(t, out=t)
        np.log1p(t, out=t)
        np.add(t, np.maximum(xb, 0.0), out=flat_out[start:start + _BLOCK])
    return out[()]


def sigmoid(x):
    """1 / (1 + exp(-x)), in place in a copy of x.  Below x = -709, exp(-x)
    overflows to inf and the result is exactly 0, without a warning."""
    out = np.array(x, dtype=float)
    np.negative(out, out=out)
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    np.reciprocal(out, out=out)
    return out[()]


def affine_softplus(x, weights, biases, sigmoids=False):
    """Forward pass through affine layers a_i = h_i @ W_i + b_i with softplus
    between them: h_0 = x and h_{i+1} = softplus(a_i).

    Returns (a, inputs, sigs): the last pre-activation a, left as it is for
    the caller to read out (logits, an energy's value) or differentiate (an
    energy's last hidden layer); the layer inputs h_i; and, when sigmoids is
    set, the softplus derivatives sigmoid(a_i) of every layer but the last,
    which affine_softplus_backward reads.  With no layers, a is x.
    """
    a, inputs, sigs = x, [], []
    for w, b in zip(weights, biases):
        if inputs:
            if sigmoids:
                sigs.append(sigmoid(a))
            a = softplus(a)
        inputs.append(a)
        a = a @ w + b
    return a, inputs, sigs


def affine_softplus_backward(dout, weights, sigs):
    """Reverse pass of affine_softplus: pull the cotangent dout on the last
    layer's pre-activation (the stack's output) back through every layer.
    sigs are the softplus derivatives of every layer but the last, as
    affine_softplus(sigmoids=True) returns them.

    Returns (ds, gs): ds[i] is the cotangent on layer i's pre-activation a_i
    and gs[i] = ds[i] @ W_i^T the cotangent on its input h_i, so gs[0] is the
    input gradient.
    """
    ds, gs = [None] * len(weights), [None] * len(weights)
    d = dout
    for i in range(len(weights) - 1, -1, -1):
        ds[i] = d
        gs[i] = d @ weights[i].T
        if i:
            d = gs[i] * sigs[i - 1]
    return ds, gs


class LayerStack:
    """Affine layers a_i = h_i @ W_i + b_i, with softplus between them, held
    as float64 arrays.  widths are the input dimension, then each layer's
    output width."""

    def __init__(self, weights, biases):
        self.weights = [np.asarray(w, dtype=float) for w in weights]
        self.biases = [np.asarray(b, dtype=float) for b in biases]
        self.widths = (self.weights[0].shape[0], *(w.shape[1] for w in self.weights))

    @property
    def dim(self):
        return self.widths[0]

    def parameters(self):
        """The weight and bias arrays themselves, layer by layer, so an
        optimizer that updates them in place updates the network."""
        return [p for w, b in zip(self.weights, self.biases) for p in (w, b)]


def init_affine_stack(widths, gen):
    """Glorot-normal weights and zero biases for consecutive width pairs."""
    weights, biases = [], []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        scale = np.sqrt(2.0 / (fan_in + fan_out))
        weights.append(scale * gen.standard_normal((fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return weights, biases


# Adam's moment decay rates and denominator offset.
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    """Adaptive-moment gradient descent with bias correction."""

    def __init__(self, params):
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, params, grads, lr):
        """Update params in place from grads at learning rate lr."""
        self.t += 1
        b1t = 1.0 - BETA1**self.t
        b2t = 1.0 - BETA2**self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            p -= lr * (m / b1t) / (np.sqrt(v / b2t) + EPS)


class TrainingDivergedError(FloatingPointError):
    """A training loss or gradient stopped being finite at step `step`: a
    numerical failure like any other non-finite value."""

    def __init__(self, step, what="loss"):
        super().__init__(f"non-finite {what} at training step {step}")
        self.step = step


def descend(params, cfg, n, gen, batch_step, callback=None):
    """Minibatch Adam descent on params, in place, under cfg's steps,
    batch_size and lr.  Each step draws cfg.batch_size indices below n from
    gen; batch_step(idx) returns (loss, grads, record), a non-finite loss or
    gradient raises TrainingDivergedError before the update, and callback,
    when given, then receives (step, record)."""
    opt = Adam(params)
    # the step that first goes non-finite runs its backward pass before the
    # check below sees its loss, so numpy is not to warn about it first
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(cfg.steps):
            loss, grads, record = batch_step(gen.integers(0, n, size=cfg.batch_size))
            if not np.isfinite(loss):
                raise TrainingDivergedError(step)
            if not all(np.all(np.isfinite(g)) for g in grads):
                raise TrainingDivergedError(step, "gradient")
            opt.step(params, grads, cfg.lr)
            if callback is not None:
                callback(step, record)


def check_hidden(hidden):
    """Raise ValueError unless every hidden width is at least 1."""
    if any(w < 1 for w in hidden):
        raise ValueError(f"hidden widths must be >= 1, got {list(hidden)}")


def check_schedule(cfg):
    """Raise ValueError unless cfg's steps, batch_size and lr make a descent
    schedule: at least one step of at least one example at a positive rate."""
    for name in ("steps", "batch_size"):
        if getattr(cfg, name) < 1:
            raise ValueError(f"{name} must be >= 1, got {getattr(cfg, name)}")
    if not cfg.lr > 0.0:
        raise ValueError(f"lr must be positive, got {cfg.lr}")
