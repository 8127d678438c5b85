"""Fit the energy model by denoising least squares and inspect the denoiser.

For a unit Gaussian at noise scale 1 the exact posterior-mean denoiser is
y/2.  The script trains the energy network on clean samples only (each step
corrupts its minibatch with fresh noise), then compares the learned denoiser
against the closed form on rings of test points.

Two things to watch in the output: the training loss flattens at about 1.0,
which is not a failure to converge but the irreducible posterior variance
d * beta * sigma^2 = 2 * 0.5 * 1 of this problem; and the denoiser error sits
around 0.1 at this small demo budget (20k samples, 2500 steps).  The
acceptance-scale budget (50k samples, 3000 steps) drives it to about 0.02.
"""

import numpy as np

from ebsmooth import EnergyTrainConfig, IsoGaussian, rng_stream, train_energy
from ebsmooth.densities import beta_of

model = IsoGaussian(sigma0=1.0, dim=2)
data = model.sample(20_000, rng_stream(4, 0))

losses = []
cfg = EnergyTrainConfig(hidden=[128, 128], steps=2500, batch_size=128)
net = train_energy(data, 1.0, cfg, rng_stream(4, 1),
                   callback=lambda step, rec: losses.append(rec["loss"]))

print("training loss (averaged over 250-step windows):")
windows = np.array(losses).reshape(-1, 250).mean(axis=1)
print("  " + " ".join(f"{v:.3f}" for v in windows))
print("  (the floor near 1.0 is the posterior variance, not a plateau bug)")

beta = beta_of(1.0, model.sigma0)
print(f"\nclosed-form denoiser is beta*y with beta = {beta}")
print(f"{'|y|':>6} {'mean |learned - beta*y|':>24}")
for radius in [0.5, 1.0, 2.0, 3.0]:
    angles = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    ring = radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    err = np.linalg.norm(net.bayes_estimate(ring, net.sigma) - beta * ring, axis=1)
    print(f"{radius:6.1f} {err.mean():24.4f}")
