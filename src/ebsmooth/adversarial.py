"""Adversarial training of the smoothed soft classifier.

The trainer minimizes the worst-case cross-entropy of the noise-averaged,
denoiser-composed soft classifier over an L2 ball around each example.  The
inner maximization is projected gradient ascent on the negative
log-probability of the true class.  Noise is drawn once per example per step
and reused across all attack iterations and the final parameter-gradient
evaluation (common random numbers), which makes the inner problem a
deterministic optimization and the whole step reproducible.  Each iterate's
loss comes from the same forward pass as its gradient; only the last iterate,
which takes no further step, is evaluated on its own.

Modes: "adversarial" runs the full loop; "no_attack" trains on clean points
(attack budget treated as zero); "no_estimator" keeps the attack but replaces
the denoiser with the identity, giving the plain smoothed-adversarial
baseline.  The energy parameters never receive gradients: the backward pass
only ever produces classifier parameter gradients, and the denoiser enters
parameter gradients as a fixed input transform.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .classifiers import EbClassifier, SoftClassifier, _neg_log_pi
from .densities import Identity
from .energy import _check_finite_step
from .mlp import Adam, check_hidden, check_schedule

MODE_ADVERSARIAL = "adversarial"
MODE_NO_ATTACK = "no_attack"
MODE_NO_ESTIMATOR = "no_estimator"
TRAIN_MODES = (MODE_ADVERSARIAL, MODE_NO_ATTACK, MODE_NO_ESTIMATOR)


@dataclasses.dataclass(frozen=True)
class AttackSpec:
    """L2 projected-gradient attack budget.

    Each step has length 2 * epsilon / steps: the first steps can reach the
    sphere, the rest refine along it.
    """

    epsilon: float = 1.0
    steps: int = 16
    m: int = 1

    def __post_init__(self):
        if not self.epsilon >= 0.0:
            raise ValueError(f"epsilon must be nonnegative, got {self.epsilon}")
        if self.epsilon > 0.0 and self.steps < 1:
            raise ValueError("steps must be >= 1 for a positive attack budget")
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")

    def resolved_step_size(self):
        return 2.0 * self.epsilon / max(self.steps, 1)


def _pgd_batch(c, xs, ks, spec, noise):
    """Projected gradient ascent on -log Pi_k for a whole batch at once.

    Each step moves along the normalized gradient by the step size and
    projects back onto the epsilon ball; the reported point is the best
    iterate including the start, so the adversarial objective never falls
    below the clean one.  Examples whose gradient goes non-finite are frozen
    at their best iterate and flagged.
    """
    xs = np.asarray(xs, dtype=float)
    if spec.epsilon == 0.0:
        f0, _, _ = _neg_log_pi(c, xs, ks, noise)
        return xs.copy(), f0.copy(), f0, np.zeros(len(xs), dtype=bool)

    eta = spec.resolved_step_size()
    f0, _, ascent = _neg_log_pi(c, xs, ks, noise, wrt="input")
    best_f = f0.copy()
    best_z = xs.copy()
    aborted = np.zeros(len(xs), dtype=bool)
    z = xs.copy()
    for step in range(spec.steps):
        norms = np.linalg.norm(ascent, axis=1)
        bad = ~np.isfinite(norms)
        aborted |= bad
        movable = ~aborted & (norms > 0.0)
        move = np.zeros_like(ascent)
        move[movable] = eta * ascent[movable] / norms[movable, None]
        z = z + move
        delta = z - xs
        dnorm = np.linalg.norm(delta, axis=1)
        over = dnorm > spec.epsilon
        if np.any(over):
            delta[over] *= (spec.epsilon / dnorm[over])[:, None]
            z = xs + delta
        # the last iterate takes no step, so it needs no gradient
        f, _, ascent = _neg_log_pi(c, z, ks, noise,
                                   wrt="input" if step < spec.steps - 1 else None)
        improved = ~aborted & np.isfinite(f) & (f > best_f)
        best_f = np.where(improved, f, best_f)
        best_z[improved] = z[improved]
    return best_z, best_f, f0, aborted


def xhat_objective_theta_grads(c, xs, ks, noise):
    """Mean -log Pi_k over the batch and its classifier parameter gradients.

    The attack points and the noise are held fixed; only the soft
    classifier's parameters receive gradients.  Returns (loss, grads, pis).
    """
    neg_log, pis, grads = _neg_log_pi(c, np.asarray(xs, dtype=float), ks, noise, wrt="params")
    return float(np.mean(neg_log)), grads, pis


@dataclasses.dataclass(frozen=True)
class ClassifierTrainConfig:
    """Hyperparameters for the smoothed-classifier training loop."""

    mode: str = MODE_ADVERSARIAL
    steps: int = 1500
    batch_size: int = 64
    lr: float = 1e-3
    m: int = 1

    def __post_init__(self):
        if self.mode not in TRAIN_MODES:
            raise ValueError(f"mode must be one of {TRAIN_MODES}, got {self.mode!r}")
        check_schedule(self)
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")


def runs_attack(cfg, attack):
    """Whether training under cfg attacks each batch.  When it does, the
    attack and the loss share one noise list per example, so attack.m must
    equal cfg.m; a mismatch raises ValueError."""
    runs = cfg.mode != MODE_NO_ATTACK and attack.epsilon > 0.0
    if runs and attack.m != cfg.m:
        raise ValueError(
            f"attack.m ({attack.m}) must equal train.m ({cfg.m}): "
            "the attack and the loss share one noise list per example"
        )
    return runs


def train_xhat(data, estimator, sigma, hidden, cfg, attack, gen, callback=None):
    """Train the smoothed soft classifier by minibatch adversarial risk.

    data is the training LabeledDataset, whose n_classes (at least two) sizes
    the classifier; `estimator` is the frozen denoiser (EnergyNet, exact
    model or Identity) the classifier is composed with, replaced by Identity
    in "no_estimator" mode;
    sigma is the smoothing scale and hidden the classifier's hidden widths.
    Every mode draws the same batches and the same noise from `gen`, so runs
    differing only in mode consume identical randomness.

    Returns the trained SoftClassifier.  callback, when given, receives
    (step, record) with the clean loss, adversarial loss, attack success
    rate, and abort count for that step.
    """
    if len(data) == 0:
        raise ValueError("data must hold at least one point")
    check_hidden(hidden)
    run_attack = runs_attack(cfg, attack)
    n, dim = data.points.shape

    clf = SoftClassifier.init(dim, tuple(hidden), max(data.n_classes, 2), gen)
    params = clf.parameters()
    opt = Adam(params)
    # Adam updates clf's arrays in place, so one composed classifier serves
    # every step
    c = EbClassifier(clf, Identity() if cfg.mode == MODE_NO_ESTIMATOR else estimator, sigma)

    for step in range(cfg.steps):
        idx = gen.integers(0, n, size=cfg.batch_size)
        xb = data.points[idx]
        kb = data.labels[idx]
        noise = sigma * gen.standard_normal((cfg.batch_size, cfg.m, dim))
        zb, n_aborted = xb, 0
        if run_attack:
            zb, adv_nll, clean_nll, aborted = _pgd_batch(c, xb, kb, attack, noise)
            n_aborted = int(aborted.sum())
        loss, grads, pis = xhat_objective_theta_grads(c, zb, kb, noise)
        _check_finite_step(step, loss, grads)
        opt.step(params, grads, cfg.lr)
        if callback is not None:
            # without an attack zb is xb: the training loss is the clean and
            # the adversarial loss
            callback(step, {
                "clean_loss": float(np.mean(clean_nll)) if run_attack else loss,
                "adv_loss": float(np.mean(adv_nll)) if run_attack else loss,
                "attack_success": float(np.mean(np.argmax(pis, axis=1) != kb)),
                "aborted": n_aborted,
            })
    return clf
