"""Train the smoothed classifier with and without the inner attack.

The trainer minimizes the noise-averaged cross-entropy of the soft classifier
evaluated at denoised noisy points; in "adversarial" mode each example is
first pushed to the worst point in an L2 ball by projected gradient ascent
with noise held fixed across the attack steps.

Two experiments below.  On a well-separated mixture all three training modes
certify essentially identical curves: each one trains a near-optimal boundary
for its own pipeline, and for a symmetric problem the denoiser's mode snap
preserves exactly the sign that decides each noisy vote.  (The denoiser's
certified gain needs an asymmetric geometry; demo 01 shows it analytically.)
The attack's bite shows up instead in the worst-case loss it reports, and,
drastically, when the attack budget exceeds the class separation: adversarial
training then has no robust boundary to find and collapses to the constant
classifier, while clean training still separates the data.
"""

import numpy as np

from ebsmooth import (
    AttackSpec,
    ClassifierTrainConfig,
    ConfidenceSpec,
    EbClassifier,
    GaussianClassSpec,
    Identity,
    IsoMixture,
    gen_dataset,
    rng_stream,
    train_xhat,
)
from ebsmooth.harness import certified_accuracy_at, certify_points


def run(means, sigma0, sigma, epsilon, label, grid):
    mix = IsoMixture(means=means, sigma0=sigma0)
    train = gen_dataset(GaussianClassSpec(means, sigma0, 3000), rng_stream(8, 100))
    test = gen_dataset(GaussianClassSpec(means, sigma0, 60), rng_stream(8, 101))
    attack = AttackSpec(epsilon=epsilon, steps=16, m=1)
    spec = ConfidenceSpec(alpha=0.001, n0=100, nc=20_000)
    print(f"\n{label}: radius grid {grid}")
    for mode in ("adversarial", "no_attack", "no_estimator"):
        history = []
        cfg = ClassifierTrainConfig(mode=mode, steps=800, batch_size=64)
        clf = train_xhat(train, mix, sigma, [64], cfg, attack,
                         rng_stream(8, 300),
                         callback=lambda s, rec: history.append(rec))
        estimator = Identity() if mode == "no_estimator" else mix
        hard = EbClassifier(clf, estimator, sigma)
        results = certify_points(hard, test.points, sigma, spec, seed=8)
        accs = "  ".join(f"{certified_accuracy_at(results, test.labels, r):.2f}"
                         for r in grid)
        tail = history[-100:]
        clean = np.mean([rec["clean_loss"] for rec in tail])
        adv = np.mean([rec["adv_loss"] for rec in tail])
        print(f"{mode:>13}: certified {accs}   final loss clean {clean:.3f} "
              f"/ worst-case {adv:.3f}")


run(np.array([[2.0, 0.0], [-2.0, 0.0]]), sigma0=0.5, sigma=0.3, epsilon=1.0,
    label="separated mixture, attack within the margin", grid=[0.0, 0.3, 0.6, 0.9])

run(np.array([[0.8, 0.0], [-0.8, 0.0]]), sigma0=0.5, sigma=0.3, epsilon=1.0,
    label="close mixture, attack larger than the separation", grid=[0.0, 0.3])
