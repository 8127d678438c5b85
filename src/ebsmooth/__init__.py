"""Certified L2-robust classification with empirical-Bayes denoising.

The library smooths a base classifier with Gaussian noise, but evaluates it at
the Bayes estimate of the clean input rather than at the raw noisy point.  It
ships exact Gaussian and Gaussian-mixture reference models, a small learnable
energy network with the second-order machinery the training loop and attacks
need, a randomized-smoothing certifier, projected-gradient adversarial
training of the smoothed classifier, and a walk-jump sampler.
"""

import numpy as _np

from .stats import (
    ConfidenceSpec,
    binom_lower_bound,
    rng_stream,
    std_normal_cdf,
    std_normal_inv_cdf,
)
from .densities import Identity, IsoGaussian, IsoMixture, beta_of
from .energy import EnergyNet, EnergyTrainConfig, TrainingDivergedError, train_energy
from .classifiers import EbClassifier, LinearClassifier, SoftClassifier
from .certify import (
    ABSTAIN,
    CertResult,
    OracleResult,
    certify,
    linear_gaussian_oracle,
    linear_margin,
    rmax,
)
from .adversarial import (
    AttackSpec,
    ClassifierTrainConfig,
    train_xhat,
)
from .sampler import (
    WalkJumpConfig,
    jump,
    langevin_walk,
    walk_jump,
)
from .datasets import LabeledDataset, GaussianClassSpec, gen_dataset, load_idx
from .checkpoint import load_checkpoint, save_checkpoint

__version__ = "0.1.0"

# glibc's malloc serves each request above its mmap threshold from freshly
# mapped pages and returns free heap above its trim threshold to the system;
# both start at 128 KB and rise to the size (and twice the size) of a mapped
# chunk when it is freed.  Freeing one 2 MB buffer at import keeps every
# caller's temporaries (tally blocks, training batches) in heap pages already
# faulted in: a 200-step train_energy at hidden [128, 128] and batch 128
# takes under 1k minor page faults instead of about 83k.
_np.empty(1 << 18)

__all__ = [
    "ABSTAIN",
    "AttackSpec",
    "CertResult",
    "ClassifierTrainConfig",
    "ConfidenceSpec",
    "EbClassifier",
    "EnergyNet",
    "EnergyTrainConfig",
    "GaussianClassSpec",
    "Identity",
    "IsoGaussian",
    "IsoMixture",
    "LabeledDataset",
    "LinearClassifier",
    "OracleResult",
    "SoftClassifier",
    "TrainingDivergedError",
    "WalkJumpConfig",
    "beta_of",
    "binom_lower_bound",
    "certify",
    "gen_dataset",
    "jump",
    "langevin_walk",
    "linear_gaussian_oracle",
    "linear_margin",
    "load_checkpoint",
    "load_idx",
    "rmax",
    "rng_stream",
    "save_checkpoint",
    "std_normal_cdf",
    "std_normal_inv_cdf",
    "train_energy",
    "train_xhat",
    "walk_jump",
]
