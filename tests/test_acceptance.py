"""Acceptance suite.

Each test prints one PASS/FAIL line (run pytest with -s or check the captured
output).  Budgets, tolerances, and allowed statistical violation counts are
pinned here; nothing is left to later calibration.  The two training-based
checks note the pilot measurements their thresholds were frozen from.
"""

import json

import numpy as np
import pytest
from scipy.special import ndtr

import oracles
from ebsmooth.adversarial import AttackSpec, ClassifierTrainConfig, train_xhat
from ebsmooth.certify import certify, linear_gaussian_oracle, linear_margin, rmax
from ebsmooth.classifiers import EbClassifier, LinearClassifier, SoftClassifier
from ebsmooth.cli import main as cli_main
from ebsmooth.datasets import gen_dataset
from ebsmooth.densities import Identity, IsoGaussian, IsoMixture, beta_of
from ebsmooth.energy import EnergyNet, EnergyTrainConfig, train_energy
from ebsmooth.harness import certify_points, write_curve_csv
from ebsmooth.sampler import WalkJumpConfig, walk_jump
from ebsmooth.stats import (
    ConfidenceSpec,
    binom_lower_bound,
    rng_stream,
    std_normal_inv_cdf,
)
from oracles import grad_log_pi, soft_pi_with_noise


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:2d}] {status}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def _linear_gaussian_setup():
    """Shared fixture for criteria 1 and 2: random unit-norm w, b != 0,
    unit-variance data in d = 10, smoothing scale 1."""
    gen = rng_stream(101, 0)
    w = gen.standard_normal(10)
    w /= np.linalg.norm(w)
    h = LinearClassifier(w, 0.5)
    model = IsoGaussian(sigma0=1.0, dim=10)
    points = model.sample(200, rng_stream(101, 1))
    spec = ConfidenceSpec(alpha=0.001, n0=100, nc=100_000)
    return h, model, points, spec


def test_criterion_01_analytic_pipeline_end_to_end():
    sigma = 1.0
    h, model, points, spec = _linear_gaussian_setup()
    pipeline = EbClassifier(h, model, sigma)
    results = certify_points(pipeline, points, spec, seed=201, workers=2)

    class_violations = 0
    radius_violations = 0
    abstain_violations = 0
    ratios = []
    for x, res in zip(points, results):
        oracle = linear_gaussian_oracle(h, x, sigma, model.sigma0)
        if not res.abstained and res.predicted != oracle.predicted:
            class_violations += 1
        if res.radius > oracle.radius + 1e-9:
            radius_violations += 1
        if res.abstained and oracle.radius > sigma:
            abstain_violations += 1
        if not res.abstained and 0.3 * sigma <= oracle.radius <= 2.0 * sigma:
            ratios.append(res.radius / oracle.radius)

    mean_ratio = float(np.mean(ratios))
    ok = (class_violations <= 3 and radius_violations <= 3
          and abstain_violations <= 3 and len(ratios) >= 20 and mean_ratio >= 0.9)
    report(1, ok,
           f"class viol {class_violations}, radius viol {radius_violations}, "
           f"abstain viol {abstain_violations}, mean certified/oracle ratio "
           f"{mean_ratio:.4f} over {len(ratios)} mid-range points")


def test_criterion_02_vanilla_smoothing_matches_margin():
    sigma = 1.0
    h, model, points, spec = _linear_gaussian_setup()
    results = certify_points(EbClassifier(h, Identity(), sigma), points, spec, seed=202,
                             workers=2)

    violations = 0
    identity_violations = 0
    checked = 0
    for x, res in zip(points, results):
        if res.abstained:
            continue
        checked += 1
        if res.predicted != h.predict_class(x[None])[0]:
            identity_violations += 1
        margin = linear_margin(h, x)
        p_a = min(ndtr(margin / sigma), 1.0 - 1e-16)
        slack = sigma * (std_normal_inv_cdf(p_a) - std_normal_inv_cdf(res.pa_lower))
        if not (margin - slack - 1e-9 <= res.radius <= margin + 1e-9):
            violations += 1
    ok = violations <= 3 and identity_violations <= 3 and checked >= 150
    report(2, ok,
           f"radius-window violations {violations}, prediction/base mismatches "
           f"{identity_violations}, {checked} certified points")


def test_criterion_03_budget_formula():
    r1 = rmax(ConfidenceSpec(1e-3, 100, 10**5), 1.0)
    r2 = rmax(ConfidenceSpec(1e-1, 100, 10**10), 1.0)
    ok = abs(r1 - 3.81) <= 0.01 and abs(r2 - 6.23) <= 0.01
    report(3, ok, f"rmax(1e5, 1e-3) = {r1:.4f} (want 3.81 +/- 0.01), "
                  f"rmax(1e10, 1e-1) = {r2:.4f} (want 6.23 +/- 0.01)")


def test_criterion_04_mixture_estimator_closed_form():
    mix = IsoMixture.symmetric(np.array([2.0, 0.0]), 1.0)
    sigma = 1.0
    grid = np.stack(np.meshgrid(np.linspace(-3, 3, 10), np.linspace(-3, 3, 10)),
                    axis=-1).reshape(-1, 2)
    worst = 0.0
    for y in grid:
        got = mix.bayes_estimate(y[None], sigma)[0]
        fd_score = oracles.central_difference(
            lambda z: mix.log_density_y(z[None], sigma)[0], y, h=1e-5)
        want = y + sigma**2 * fd_score
        worst = max(worst, float(np.max(np.abs(got - want))))
    ok = worst <= 1e-5
    report(4, ok, f"max |closed form - (y + sigma^2 FD score)| = {worst:.2e} "
                  f"over {len(grid)} grid points (tol 1e-5)")


def test_criterion_05_learned_estimator_matches_closed_form():
    # pilot (steps=3000, batch=128, hidden 128x128, lr 1e-3, seed 11/100/200):
    # mean normalized error 0.0197, max 0.0502; threshold pinned at 0.05
    model = IsoGaussian(sigma0=1.0, dim=2)
    data = model.sample(50_000, rng_stream(11, 100))
    cfg = EnergyTrainConfig(hidden=(128, 128), steps=3000, batch_size=128, lr=1e-3)
    net = train_energy(data, 1.0, cfg, rng_stream(11, 200))

    gen = rng_stream(11, 300)
    pts = gen.uniform(-3, 3, size=(4000, 2))
    pts = pts[np.linalg.norm(pts, axis=1) <= 3.0][:1000]
    beta = beta_of(1.0, 1.0)
    err = np.linalg.norm(net.bayes_estimate(pts, net.sigma) - beta * pts, axis=1)
    normalized = err / (1.0 + np.linalg.norm(pts, axis=1))
    ok = float(normalized.mean()) <= 0.05
    report(5, ok, f"mean |learned - closed form| / (1 + |y|) = "
                  f"{normalized.mean():.4f} over {len(pts)} grid points (tol 0.05)")


def test_criterion_06_gradient_suite():
    gen = rng_stream(106, 0)
    grad_fail = hvp_fail = logpi_fail = theta_fail = 0

    for trial in range(50):
        net = EnergyNet.init(4, (12,), 1.0, rng_stream(106, trial + 1))
        y = gen.standard_normal((1, 4))
        v = gen.standard_normal((1, 4))
        # the score and log density at the net's scale are -grad phi and -phi;
        # (vjp(v) - v) / sigma^2 is the score's Jacobian applied to v
        g = net.smoothed_score(y, 1.0)
        h = 1e-4
        fd = np.stack([(net.log_density_y(y + h * e, 1.0)
                        - net.log_density_y(y - h * e, 1.0)) / (2 * h) for e in np.eye(4)],
                      axis=1)
        grad_fail += np.linalg.norm(fd - g) / max(np.linalg.norm(g), 1e-8) > 1e-5
        hv = net.linearize(y, 1.0)[1](v) - v
        fd_hv = (net.smoothed_score(y + h * v, 1.0) - net.smoothed_score(y - h * v, 1.0)) / (2 * h)
        hvp_fail += np.linalg.norm(fd_hv - hv) / max(np.linalg.norm(hv), 1e-8) > 1e-4

    mix = IsoMixture.symmetric(np.array([1.5, 0.0]), 0.8)
    for trial in range(50):
        soft = SoftClassifier.init(2, (8,), 3, rng_stream(106, 100 + trial))
        c = EbClassifier(soft, mix, sigma=0.5)
        x = gen.standard_normal(2)
        noise = 0.5 * gen.standard_normal((3, 2))
        k = int(gen.integers(0, 3))
        g = grad_log_pi(c, x, k, noise)

        def log_pi(z):
            return np.log(max(soft_pi_with_noise(c, z, noise)[k], 1e-12))

        fd = oracles.central_difference(log_pi, x, h=1e-5)
        logpi_fail += np.linalg.norm(fd - g) / max(np.linalg.norm(g), 1e-8) > 1e-4

    from ebsmooth.adversarial import xhat_objective_theta_grads
    rng = np.random.default_rng(42)
    soft = SoftClassifier.init(2, (6,), 3, rng_stream(106, 999))
    c = EbClassifier(soft, mix, sigma=0.5)
    xs = gen.standard_normal((5, 2))
    ks = np.array([0, 1, 2, 1, 0])
    noise = 0.5 * gen.standard_normal((5, 2, 2))
    _, grads, _ = xhat_objective_theta_grads(c, xs, ks, noise)
    params = soft.parameters()
    for _ in range(50):
        pi = rng.integers(0, len(params))
        p = params[pi]
        idx = np.unravel_index(rng.integers(0, p.size), p.shape)
        old = p[idx]
        hh = 1e-6
        p[idx] = old + hh
        lp, _, _ = xhat_objective_theta_grads(c, xs, ks, noise)
        p[idx] = old - hh
        lm, _, _ = xhat_objective_theta_grads(c, xs, ks, noise)
        p[idx] = old
        fd = (lp - lm) / (2 * hh)
        theta_fail += abs(fd - grads[pi][idx]) > 1e-4 * max(abs(fd), abs(grads[pi][idx]), 1e-6)

    ok = grad_fail == hvp_fail == logpi_fail == theta_fail == 0
    report(6, ok, f"failures out of 50 each: score {grad_fail}, "
                  f"score Jacobian {hvp_fail}, grad_log_pi {logpi_fail}, "
                  f"theta-grad {theta_fail}")


def test_criterion_07_binomial_bound():
    gen = rng_stream(107, 0)
    worst = 0.0
    for _ in range(50):
        n = int(gen.integers(1, 5000))
        alpha = float(gen.uniform(1e-4, 0.5))
        worst = max(worst, abs(binom_lower_bound(n, n, alpha) - alpha ** (1.0 / n)))
    monotone = True
    for n in range(1, 201):
        ks = np.arange(0, n + 1)
        bounds = [binom_lower_bound(k, n, 0.01) for k in ks]
        if not np.all(np.diff(bounds) >= -1e-15):
            monotone = False
            break
    ok = worst <= 1e-9 and monotone
    report(7, ok, f"max |bound(n,n,alpha) - alpha^(1/n)| = {worst:.2e} over 50 "
                  f"pairs (tol 1e-9); k-monotonicity exhaustive for n <= 200: "
                  f"{monotone}")


@pytest.mark.slow
def test_criterion_08_adversarial_training_ordering(tmp_path):
    # pilot (seed 21, steps 1200, batch 64, hidden (64,)): both modes reach
    # clean certified accuracy 1.00 and accuracy 0.98 at radius 0.9
    means = np.array([[2.0, 0.0], [-2.0, 0.0]])
    mix = IsoMixture(means=means, sigma0=0.5)
    sigma = 0.3
    attack = AttackSpec(epsilon=1.0, steps=16, m=1)
    spec = ConfidenceSpec(alpha=0.001, n0=100, nc=100_000)

    acc_clean_at0, acc_adv_at09, acc_clean_at09 = [], [], []
    acc_adv_at0 = []
    for seed in (31, 32, 33):
        train = gen_dataset(means, 0.5, 4000, rng_stream(seed, 100))
        test = gen_dataset(means, 0.5, 100, rng_stream(seed, 101))
        per_mode = {}
        for mode in ("adversarial", "no_attack"):
            cfg = ClassifierTrainConfig(mode=mode, steps=1200, batch_size=64,
                                        lr=1e-3, m=1)
            clf = train_xhat(train, mix, sigma, (64,), cfg, attack,
                             rng_stream(seed, 300))
            hard = EbClassifier(clf, mix, sigma)
            results = certify_points(hard, test.points, spec, seed=seed, workers=2)
            # certified accuracy at radius 0 and 0.9, read from curve.csv
            write_curve_csv(tmp_path / "curve.csv", results, test.labels, [0.0, 0.9])
            per_mode[mode] = tuple(np.loadtxt(tmp_path / "curve.csv", delimiter=",",
                                              skiprows=1, usecols=1))
        acc_adv_at0.append(per_mode["adversarial"][0])
        acc_adv_at09.append(per_mode["adversarial"][1])
        acc_clean_at0.append(per_mode["no_attack"][0])
        acc_clean_at09.append(per_mode["no_attack"][1])

    adv0 = float(np.mean(acc_adv_at0))
    adv09 = float(np.mean(acc_adv_at09))
    cln0 = float(np.mean(acc_clean_at0))
    cln09 = float(np.mean(acc_clean_at09))
    ok = adv09 >= cln09 - 0.02 and adv0 >= 0.9 and cln0 >= 0.9
    report(8, ok,
           f"mean over 3 seeds: adversarial acc@0.9 {adv09:.3f} vs clean-trained "
           f"{cln09:.3f} (need >= clean - 0.02); clean-radius accuracies "
           f"{adv0:.3f} / {cln0:.3f} (need >= 0.9)")


def test_criterion_09_walk_jump_variance_reduction():
    model = IsoGaussian(sigma0=1.0, dim=2)
    sigma = 1.0
    gen = rng_stream(109, 0)
    x = model.sample(1, gen)[0]
    y_fixed = x + sigma * gen.standard_normal(2)

    eps = gen.standard_normal((10_000, 2))
    single = model.bayes_estimate(x[None, :] + sigma * eps, sigma)
    v_single = single.var(axis=0, ddof=1)

    cfg = WalkJumpConfig(sigma_prime=0.05, delta=0.001, tau=100)
    outs = walk_jump(model, model, np.tile(y_fixed, (10_000, 1)), sigma, cfg,
                     rng_stream(109, 1))
    v_wj = outs.var(axis=0, ddof=1)
    ok = bool(np.all(v_wj <= 0.5 * v_single))
    report(9, ok, f"per-coordinate variance {v_wj.round(6).tolist()} vs "
                  f"0.5 x single-step {(0.5 * v_single).round(6).tolist()} "
                  f"over 10000 runs")


@pytest.mark.slow
def test_criterion_10_cli_determinism(tmp_path):
    base = {
        "seed": 9,
        "sigma": 1.0,
        "output_dir": str(tmp_path / "a"),
        "dataset": {"kind": "gaussian_classes", "means": [[2.0, 0.0], [-2.0, 0.0]],
                    "sigma0": 1.0, "n_train": 400, "n_test": 40},
        "confidence": {"alpha": 0.001, "n0": 50, "nc": 3000},
        "classifier": {"kind": "linear", "weights": [1.0, 0.0], "bias": 0.2},
        "certify": {"max_points": 20, "workers": 1, "radius_grid": [0.0, 0.5, 1.0]},
        "train": {"steps": 40, "batch_size": 16, "mode": "adversarial"},
        "attack": {"epsilon": 0.5, "steps": 4},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base))

    assert cli_main(["curve", "-c", str(cfg_path)]) == 0
    points1 = (tmp_path / "a" / "points.csv").read_bytes()
    curve1 = (tmp_path / "a" / "curve.csv").read_bytes()
    assert cli_main(["curve", "-c", str(cfg_path)]) == 0
    rerun_same = ((tmp_path / "a" / "points.csv").read_bytes() == points1
                  and (tmp_path / "a" / "curve.csv").read_bytes() == curve1)

    assert cli_main(["curve", "-c", str(cfg_path), "--workers", "2",
                     "--output-dir", str(tmp_path / "b")]) == 0
    across_workers = ((tmp_path / "b" / "points.csv").read_bytes() == points1
                      and (tmp_path / "b" / "curve.csv").read_bytes() == curve1)

    mlp_cfg = dict(base)
    mlp_cfg["classifier"] = {"kind": "mlp", "hidden": [8]}
    mlp_cfg["output_dir"] = str(tmp_path / "c")
    cfg_path.write_text(json.dumps(mlp_cfg))
    assert cli_main(["train-xhat", "-c", str(cfg_path)]) == 0
    ckpt1 = (tmp_path / "c" / "classifier.ckpt").read_bytes()
    log1 = (tmp_path / "c" / "training_log.csv").read_bytes()
    assert cli_main(["train-xhat", "-c", str(cfg_path)]) == 0
    train_rerun = ((tmp_path / "c" / "classifier.ckpt").read_bytes() == ckpt1
                   and (tmp_path / "c" / "training_log.csv").read_bytes() == log1)

    ok = rerun_same and across_workers and train_rerun
    report(10, ok, f"curve rerun identical: {rerun_same}; workers 1 vs 2 "
                   f"identical: {across_workers}; training rerun identical: "
                   f"{train_rerun}")
