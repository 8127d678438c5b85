import numpy as np
import pytest

import ebsmooth.adversarial as adversarial
from ebsmooth.adversarial import (
    AttackSpec,
    ClassifierTrainConfig,
    train_xhat,
    xhat_objective_theta_grads,
)
from ebsmooth.classifiers import PROB_FLOOR, EbClassifier, SoftClassifier
from ebsmooth.datasets import GaussianClassSpec, gen_dataset
from ebsmooth.densities import IsoMixture
from ebsmooth.energy import EnergyNet, TrainingDivergedError
from ebsmooth.stats import rng_stream
from oracles import pgd_attack, soft_pi_with_noise


def zero_energy(dim, sigma):
    gen = rng_stream(0, 0)
    net = EnergyNet.init(dim, (8,), sigma, gen)
    for w in net.weights:
        w[:] = 0.0
    for b in net.biases:
        b[:] = 0.0
    return net


def small_problem(seed=1):
    gen = rng_stream(seed, 0)
    soft = SoftClassifier.init(2, (8,), 2, gen)
    mix = IsoMixture.symmetric(np.array([1.5, 0.0]), 0.6)
    c = EbClassifier(soft, mix, sigma=0.4)
    x = gen.standard_normal(2)
    noise = 0.4 * gen.standard_normal((2, 2))
    return c, x, noise, gen


class TestAttackSpec:
    def test_default_step_size(self):
        spec = AttackSpec(epsilon=1.0, steps=16)
        assert abs(spec.resolved_step_size() - 0.125) < 1e-15

    def test_validation(self):
        with pytest.raises(ValueError):
            AttackSpec(epsilon=-0.1)
        with pytest.raises(ValueError):
            AttackSpec(epsilon=1.0, steps=0)
        with pytest.raises(ValueError):
            AttackSpec(epsilon=1.0, m=0)
        with pytest.raises(ValueError, match="epsilon"):
            AttackSpec(epsilon=float("nan"))


class TestPgdAttack:
    def test_zero_budget_returns_input(self):
        c, x, noise, _ = small_problem()
        res = pgd_attack(c, x, 0, AttackSpec(epsilon=0.0, steps=1), noise)
        np.testing.assert_array_equal(res.x_adv, x)
        assert not res.aborted

    def test_single_huge_step_lands_on_sphere(self):
        c, x, noise, _ = small_problem()
        # one step of 2 * epsilon overshoots the ball and is projected back
        spec = AttackSpec(epsilon=0.5, steps=1)
        res = pgd_attack(c, x, 0, spec, noise)
        assert abs(np.linalg.norm(res.x_adv - x) - 0.5) < 1e-9

    def test_feasibility_over_random_instances(self):
        gen = rng_stream(2, 0)
        for trial in range(30):
            c, x, noise, _ = small_problem(seed=trial + 3)
            eps = float(gen.uniform(0.1, 2.0))
            steps = int(gen.integers(1, 8))
            res = pgd_attack(c, x, int(gen.integers(0, 2)),
                             AttackSpec(epsilon=eps, steps=steps), noise)
            assert np.linalg.norm(res.x_adv - x) <= eps + 1e-9

    def test_never_worse_than_clean_point(self):
        for trial in range(20):
            c, x, noise, _ = small_problem(seed=trial + 40)
            res = pgd_attack(c, x, 1, AttackSpec(epsilon=0.8, steps=8), noise)
            assert res.adv_neg_log >= res.clean_neg_log - 1e-9
            # re-evaluate with the same noise: the reported objective is real
            pik = soft_pi_with_noise(c, res.x_adv, noise)[1]
            assert abs(-np.log(max(pik, 1e-12)) - res.adv_neg_log) < 1e-9

    def test_one_step_direction_matches_softmax_gradient(self):
        # sigma = 0 and an identity denoiser collapse the chain rule: the
        # attack moves along the normalized gradient of -log softmax_k
        gen = rng_stream(3, 0)
        soft = SoftClassifier.init(3, (), 4, gen)
        c = EbClassifier(soft, zero_energy(3, 0.0), sigma=0.0)
        x = gen.standard_normal(3)
        noise = np.zeros((1, 3))
        # the one step, of length 2 * epsilon, is projected back to epsilon
        spec = AttackSpec(epsilon=0.3, steps=1)
        res = pgd_attack(c, x, 2, spec, noise)
        w = soft.weights[0]
        p = soft.probs(x[None])[0]
        grad_neg_log = -(w[:, 2] - w @ p)
        want = x + 0.3 * grad_neg_log / np.linalg.norm(grad_neg_log)
        np.testing.assert_allclose(res.x_adv, want, atol=1e-10)


    @pytest.mark.parametrize("m", [1, 4])
    def test_reported_values_are_the_objective_at_the_points(self, m):
        # the attack reads every iterate's value off its gradient pass; the
        # values it reports must still be -log Pi_k evaluated afresh
        gen = rng_stream(5, m)
        soft = SoftClassifier.init(2, (8,), 3, gen)
        c = EbClassifier(soft, IsoMixture.symmetric(np.array([1.5, 0.0]), 0.6), sigma=0.4)
        moved = 0
        for trial in range(10):
            x = gen.standard_normal(2)
            k = int(gen.integers(0, 3))
            noise = 0.4 * gen.standard_normal((m, 2))
            res = pgd_attack(c, x, k, AttackSpec(epsilon=0.7, steps=int(3 + trial % 4), m=m),
                             noise)
            for point, value in ((x, res.clean_neg_log), (res.x_adv, res.adv_neg_log)):
                pik = soft_pi_with_noise(c, point, noise)[k]
                np.testing.assert_allclose(value, -np.log(max(pik, PROB_FLOOR)), rtol=1e-14)
            moved += not np.array_equal(res.x_adv, x)
        assert moved >= 5


class _CountingDensity:
    """A smoothed density that counts its denoiser passes (linearize calls)
    and score Jacobian actions (calls of the vjp a pass returns).  Empty
    batches are not counted: EbClassifier runs one at construction only to
    check the scale."""

    def __init__(self, model):
        self.model = model
        self.passes = 0
        self.hvps = 0

    def __getattr__(self, name):
        return getattr(self.model, name)

    def linearize(self, y, sigma):
        xhat, vjp = self.model.linearize(y, sigma)
        self.passes += len(y) > 0

        def counted(u):
            self.hvps += len(y) > 0
            return vjp(u)
        return xhat, counted


class TestPassCount:
    STEPS = 3

    def _count(self, mode, attack_steps):
        data, mix = _toy_training_setup(20, n=100)
        density = _CountingDensity(mix)
        cfg = ClassifierTrainConfig(mode=mode, steps=self.STEPS, batch_size=8, m=2)
        train_xhat(data, density, 0.3, (8,), cfg,
                   AttackSpec(epsilon=0.5, steps=attack_steps, m=2), rng_stream(21, 1))
        return density.passes / self.STEPS, density.hvps / self.STEPS

    @pytest.mark.parametrize("attack_steps", [1, 4])
    def test_adversarial_step_denoises_steps_plus_two_times(self, attack_steps):
        # S gradient passes (the first also gives the clean loss), one value
        # pass at the last iterate, one parameter-gradient pass
        passes, hvps = self._count("adversarial", attack_steps)
        assert passes == attack_steps + 2
        assert hvps == attack_steps

    def test_no_attack_step_denoises_once(self):
        # the parameter-gradient pass is at the clean points and gives the
        # clean loss too
        assert self._count("no_attack", 4) == (1, 0)


class TestThetaGradients:
    def test_matches_finite_differences(self):
        gen = rng_stream(4, 0)
        mix = IsoMixture.symmetric(np.array([1.0, 0.0]), 0.7)
        soft = SoftClassifier.init(2, (6,), 3, gen)
        c = EbClassifier(soft, mix, sigma=0.5)
        xs = gen.standard_normal((4, 2))
        ks = np.array([0, 1, 2, 1])
        noise = 0.5 * gen.standard_normal((4, 2, 2))
        loss, grads, _ = xhat_objective_theta_grads(c, xs, ks, noise)
        params = soft.parameters()
        rng = np.random.default_rng(0)
        for _ in range(20):
            pi = rng.integers(0, len(params))
            p = params[pi]
            idx = np.unravel_index(rng.integers(0, p.size), p.shape)
            old = p[idx]
            h = 1e-6
            p[idx] = old + h
            lp, _, _ = xhat_objective_theta_grads(c, xs, ks, noise)
            p[idx] = old - h
            lm, _, _ = xhat_objective_theta_grads(c, xs, ks, noise)
            p[idx] = old
            fd = (lp - lm) / (2 * h)
            assert abs(fd - grads[pi][idx]) <= 1e-4 * max(abs(fd), abs(grads[pi][idx]), 1e-6)


def _toy_training_setup(seed, n=600):
    means = np.array([[2.0, 0.0], [-2.0, 0.0]])
    data = gen_dataset(GaussianClassSpec(means, 0.5, n), rng_stream(seed, 100))
    mix = IsoMixture(means=means, sigma0=0.5)
    return data, mix


class TestTrainXhat:
    def test_nan_gradient_on_last_step_raises(self, monkeypatch):
        data, mix = _toy_training_setup(16)
        cfg = ClassifierTrainConfig(mode="adversarial", steps=5, batch_size=16)
        calls = []

        def nan_on_last(c, xs, ks, noise):
            loss, grads, pis = xhat_objective_theta_grads(c, xs, ks, noise)
            calls.append(loss)
            if len(calls) == cfg.steps:
                grads[-1] = np.full_like(grads[-1], np.nan)
            return loss, grads, pis

        monkeypatch.setattr(adversarial, "xhat_objective_theta_grads", nan_on_last)
        with pytest.raises(TrainingDivergedError, match="non-finite gradient") as err:
            train_xhat(data, mix, 0.3, (8,), cfg,
                       AttackSpec(epsilon=0.5, steps=2), rng_stream(17, 1))
        assert err.value.step == cfg.steps - 1
        assert np.all(np.isfinite(calls))

    def test_bitwise_reproducible(self):
        data, mix = _toy_training_setup(10)
        cfg = ClassifierTrainConfig(mode="adversarial", steps=30, batch_size=16)
        attack = AttackSpec(epsilon=0.5, steps=4)
        a = train_xhat(data, mix, 0.3, (8,), cfg, attack, rng_stream(11, 1))
        b = train_xhat(data, mix, 0.3, (8,), cfg, attack, rng_stream(11, 1))
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert np.array_equal(pa, pb)

    def test_identity_denoiser_modes_agree_bitwise(self):
        # "no_estimator" hard-wires the identity; "adversarial" with a zero
        # energy net computes the identity through the full chain rule; the
        # two parameter trajectories must coincide exactly
        data, _ = _toy_training_setup(12)
        attack = AttackSpec(epsilon=0.5, steps=3)
        kwargs = dict(steps=25, batch_size=16)
        vanilla = train_xhat(
            data, None, 0.3, (8,),
            ClassifierTrainConfig(mode="no_estimator", **kwargs), attack, rng_stream(13, 1))
        zeroed = train_xhat(
            data, zero_energy(2, 0.3), 0.3, (8,),
            ClassifierTrainConfig(mode="adversarial", **kwargs), attack, rng_stream(13, 1))
        for pa, pb in zip(vanilla.parameters(), zeroed.parameters()):
            assert np.array_equal(pa, pb)

    def test_clean_training_reaches_high_accuracy(self):
        data, mix = _toy_training_setup(14, n=1500)
        cfg = ClassifierTrainConfig(mode="no_attack", steps=500, batch_size=64)
        clf = train_xhat(data, mix, 0.3, (16,), cfg,
                         AttackSpec(epsilon=0.0, steps=1), rng_stream(15, 1))
        heldout = gen_dataset(GaussianClassSpec(mix.means, 0.5, 2000),
                              rng_stream(14, 200))
        hard = EbClassifier(clf, mix, sigma=0.3)
        acc = np.mean(hard.predict_class(heldout.points) == heldout.labels)
        assert acc >= 0.97

    def test_loss_trend_decreases(self):
        data, mix = _toy_training_setup(16, n=1000)
        records = []
        cfg = ClassifierTrainConfig(mode="adversarial", steps=400, batch_size=32)
        train_xhat(data, mix, 0.3, (16,), cfg,
                   AttackSpec(epsilon=0.5, steps=4), rng_stream(17, 1),
                   callback=lambda s, rec: records.append(rec["adv_loss"]))
        losses = np.array(records)
        windows = losses.reshape(-1, 100).mean(axis=1)
        assert np.all(windows <= windows[0] + 1e-9)
        assert windows[-1] < windows[0]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ClassifierTrainConfig(mode="bogus")
        with pytest.raises(ValueError):
            ClassifierTrainConfig(steps=0)
        with pytest.raises(ValueError, match="lr must be positive"):
            ClassifierTrainConfig(lr=-1e-3)

    def test_mismatched_noise_counts_rejected(self):
        # one noise list per example feeds both the attack and the loss, so
        # the attack's m must equal the training m
        data, mix = _toy_training_setup(18)
        cfg = ClassifierTrainConfig(mode="adversarial", steps=5, batch_size=8, m=1)
        with pytest.raises(ValueError, match="attack.m"):
            train_xhat(data, mix, 0.3, (8,), cfg,
                       AttackSpec(epsilon=0.5, steps=2, m=4), rng_stream(19, 1))
