"""Experiment runners: datasets in, checkpoints and CSVs out.

Everything here is deterministic given the config seed.  Randomness is drawn
from streams keyed by (seed, purpose): dataset splits, training, and each
certification point own disjoint stream ids.  A point is certified whole, by
one certify.certify call in this process or in a pool worker, so its result is
byte-identical for any worker count and any scheduling.  Floats in CSVs are
printed with 17 significant digits so files round-trip losslessly; wall times
are recorded in the run manifest, never inside result CSVs, to keep reruns
byte-identical.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from itertools import repeat

import numpy as np

from . import __version__
from .adversarial import train_xhat
from .certify import certify, linear_gaussian_oracle
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .classifiers import EbClassifier, LinearClassifier, SoftClassifier
from .config import ConfigError, config_digest
from .datasets import IDX_LABELS_MAGIC, gen_dataset, load_idx, read_idx
from .densities import Identity, IsoGaussian, IsoMixture
from .energy import EnergyNet, train_energy
from .sampler import walk_jump
from .stats import RowStreams, rng_stream

# Stream-id map.  Certification point i draws selection noise from
# CERT_BASE + 2i and estimation noise from CERT_BASE + 2i + 1.
STREAM_TRAIN_DATA = 100
STREAM_TEST_DATA = 101
STREAM_ENERGY_TRAIN = 200
STREAM_CLASSIFIER_TRAIN = 300
STREAM_WALK_DATA = 1_999_999
STREAM_WALK_BASE = 2_000_000
STREAM_CERT_BASE = 1_000_000


def write_csv(path, header, rows):
    """A header line, then one line per row, formatted by one % string:
    floats at 17 significant digits (a lossless round-trip), anything else
    through str."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            row = tuple(row)
            fh.write(",".join(["%.17g" if isinstance(v, float) else "%s" for v in row]) % row
                     + "\n")


def write_manifest(path, cfg, command, wall_time_s, outputs):
    """Write the run manifest, listing the names in outputs, at path."""
    payload = {
        "config_sha256": config_digest(cfg),
        "seed": cfg.seed,
        "version": f"ebsmooth-v{__version__}",
        "command": command,
        "wall_time_s": wall_time_s,
        "outputs": outputs,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- resolution helpers -------------------------------------------------------


def resolve_split(cfg, split):
    """The "train" or "test" LabeledDataset of the dataset section, or None
    for an idx dataset without test files.  Each generated split draws from
    its own stream, so it is the same whether or not the other is made.  An
    idx split counts the classes of every label file the section names, so
    neither dataset.limit nor the split changes its n_classes, and reads each file once."""
    ds = cfg.dataset
    if ds.kind == "gaussian_classes":
        n, stream = ((ds.n_train, STREAM_TRAIN_DATA) if split == "train"
                     else (ds.n_test, STREAM_TEST_DATA))
        return gen_dataset(ds.means, ds.sigma0, n, rng_stream(cfg.seed, stream))
    images, labels = getattr(ds, f"{split}_images"), getattr(ds, f"{split}_labels")
    if images is None:  # the section gives a split's two files together
        return None
    data = load_idx(images, labels, ds.limit)  # its n_classes reads the whole label file
    other = ds.test_labels if split == "train" else ds.train_labels
    top = -1 if other is None else int(read_idx(other, IDX_LABELS_MAGIC).max())
    return dataclasses.replace(data, n_classes=max(data.n_classes, top + 1))


def resolve_data_model(cfg, need):
    """Exact generative model implied by a gaussian_classes dataset.  Any
    other dataset raises ConfigError(need): the caller says why it needs the
    model."""
    ds = cfg.dataset
    if ds.kind != "gaussian_classes":
        raise ConfigError(need)
    means = np.asarray(ds.means, dtype=float)
    if means.shape[0] == 1:
        return IsoGaussian(sigma0=ds.sigma0, dim=means.shape[1], mean=means[0])
    return IsoMixture(means=means, sigma0=ds.sigma0)


def load_model(path, key, kind, dim):
    """The checkpoint config key `key` names at `path`, checked to hold a `kind`
    (EnergyNet or SoftClassifier) of data dimension `dim`: every checkpoint a
    command loads passes here, and an unreadable one (any OSError, a
    CheckpointError included) is a CheckpointError naming key and path."""
    try:
        model = load_checkpoint(path)
    except OSError as exc:
        raise CheckpointError(f"{key} {path}: {getattr(exc, 'strerror', None) or exc}") from None
    if not isinstance(model, kind):
        noun = "an energy" if kind is EnergyNet else "a classifier"
        raise ConfigError(f"{key} {path} is not {noun} checkpoint")
    if model.dim != dim:
        raise ConfigError(f"{key} {path} has dimension {model.dim}, but the data have "
                          f"dimension {dim}")
    return model


def load_energy(path, sigma, key, dim):
    """load_model's EnergyNet, also checked to have been trained at the noise
    scale `sigma` it is about to be used at."""
    net = load_model(path, key, EnergyNet, dim)
    try:
        # denoising no points runs only the energy's scale check
        net.bayes_estimate(np.zeros((0, net.dim)), sigma)
    except ValueError as exc:
        raise ConfigError(f"{key} {path}: {exc}") from None
    return net


def resolve_estimator(cfg, dim):
    """The Identity, an EnergyNet checkpoint for dim-dimensional data, or the
    closed-form model."""
    est = cfg.estimator
    if est.kind == "identity":
        return Identity()
    if est.kind == "energy":
        return load_energy(est.path, cfg.sigma, "estimator.path", dim)
    return resolve_data_model(cfg, "closed-form estimators need a gaussian_classes dataset; "
                                   "train an energy model for file-based data")


def resolve_hard_classifier(cfg, dim):
    """The hard classifier certification runs on dim-dimensional points: the
    configured base composed with the configured estimator."""
    cl = cfg.classifier
    if cl.kind == "mlp":
        raise ConfigError("classifier.kind=mlp has no parameters yet; train one with "
                          "train-xhat and point classifier.path at the checkpoint")
    if cl.kind == "checkpoint":
        base = load_model(cl.path, "classifier.path", SoftClassifier, dim)
    else:
        base = LinearClassifier(np.asarray(cl.weights, dtype=float), float(cl.bias))
        if base.dim != dim:
            raise ConfigError(f"classifier.weights has dimension {base.dim}, but the data "
                              f"have dimension {dim}")
    return EbClassifier(base, resolve_estimator(cfg, dim), cfg.sigma)


# -- certification ------------------------------------------------------------


def _certify_point(classifier, x, spec, seed, i):
    """certify.certify on point i's keyed streams, which are made where the
    point is certified, so a pool task carries only its index."""
    return certify(classifier, x, spec, rng_stream(seed, STREAM_CERT_BASE + 2 * i),
                   rng_stream(seed, STREAM_CERT_BASE + 2 * i + 1))


def certify_points(classifier, points, spec, seed, workers=1):
    """Certify each point with its own keyed noise streams.

    Every point is one _certify_point call, from tally to radius: in this
    process at workers <= 1, and in a process pool of at most one process
    per point otherwise.  The streams depend only on (seed, point index), so
    the results are identical for any worker count.
    """
    n = len(points)
    args = (repeat(classifier), points, repeat(spec), repeat(seed), range(n))
    workers = min(workers, n)
    if workers <= 1:
        return list(map(_certify_point, *args))
    # imported here, so the commands that make no pool never load it
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        # map submits every point and keeps their order
        return list(pool.map(_certify_point, *args))


def write_points_csv(path, results, labels):
    write_csv(path, ["index", "true_label", "predicted", "pa_lower", "radius", "abstain"],
              ((i, int(label), res.predicted, res.pa_lower, res.radius, int(res.abstained))
               for i, (res, label) in enumerate(zip(results, labels))))


def write_curve_csv(path, results, labels, radius_grid):
    """One row per grid radius: the share and the count of points certified
    correct at that radius or beyond.  Abstentions count as errors."""
    total = len(results)
    correct = [sum(not res.abstained and res.predicted == int(label) and res.radius >= r
                   for res, label in zip(results, labels))
               for r in radius_grid]
    write_csv(path, ["radius", "certified_accuracy", "certified_correct", "total"],
              ((float(r), ok / total, ok, total) for r, ok in zip(radius_grid, correct)))


def write_training_log(path, rows):
    """One line per step; the columns are the first record's keys, in order."""
    write_csv(path, ["step", *rows[0]],
              ([step, *record.values()] for step, record in enumerate(rows)))


# -- runners ------------------------------------------------------------------
# Each runner takes the config and run()'s path function, and opens every
# file it writes at path(name): that makes cfg.output_dir on first use and
# records the name for the manifest, which run() also opens through path.  So
# a config error before any write leaves no directory, and a numerical failure
# (an ArithmeticError) leaves the manifest of what the runner wrote.


def write_dataset_csv(path, dataset):
    write_csv(path, ["label", *(f"x{i}" for i in range(dataset.dim))],
              ([int(label), *row] for label, row in zip(dataset.labels, dataset.points)))


def run_gen_data(cfg, path):
    train, test = resolve_split(cfg, "train"), resolve_split(cfg, "test")
    write_dataset_csv(path("train.csv"), train)
    if test is not None:
        write_dataset_csv(path("test.csv"), test)


def run_train_energy(cfg, path):
    train = resolve_split(cfg, "train")
    history = []
    net = train_energy(
        train.points, cfg.sigma, cfg.energy_train, rng_stream(cfg.seed, STREAM_ENERGY_TRAIN),
        callback=lambda step, rec: history.append(rec),
    )
    save_checkpoint(path("energy.ckpt"), net)
    write_training_log(path("energy_train_log.csv"), history)


def run_train_xhat(cfg, path):
    train = resolve_split(cfg, "train")
    estimator = resolve_estimator(cfg, train.dim)
    history = []
    clf = train_xhat(
        train, estimator, cfg.sigma, cfg.classifier.hidden,
        cfg.train, cfg.attack, rng_stream(cfg.seed, STREAM_CLASSIFIER_TRAIN),
        callback=lambda step, rec: history.append(rec),
    )
    save_checkpoint(path("classifier.ckpt"), clf)
    write_training_log(path("training_log.csv"), history)


def run_certify(cfg, path):
    """Certify the first certify.max_points test points and write one row
    each; returns the results and their labels."""
    test = resolve_split(cfg, "test")
    if test is None:
        raise ConfigError("certification needs a test split (dataset.test_* for idx)")
    n = min(cfg.certify.max_points, len(test))
    classifier = resolve_hard_classifier(cfg, test.points.shape[1])
    results = certify_points(classifier, test.points[:n], cfg.confidence, cfg.seed,
                             workers=cfg.certify.workers)
    write_points_csv(path("points.csv"), results, test.labels[:n])
    return results, test.labels[:n]


def run_curve(cfg, path):
    results, labels = run_certify(cfg, path)
    write_curve_csv(path("curve.csv"), results, labels, cfg.certify.radius_grid)


def run_oracle_check(cfg, path):
    """Certify the closed-form Gaussian pipeline and compare with the exact
    linear oracle, point by point.  The oracle is exact only for a linear
    classifier denoised by the closed-form model of one centred Gaussian, so
    any other classifier, estimator or dataset is a ConfigError, and so is a
    classifier of another dimension (resolve_hard_classifier).  When more points
    than certify.max_violations carry a violation (a point with both flags
    counts once), it raises FloatingPointError, after the per-point CSV is written."""
    if (cfg.classifier.kind, cfg.estimator.kind) != ("linear", "closed_form"):
        raise ConfigError("oracle-check needs classifier.kind=linear and "
                          "estimator.kind=closed_form")
    model = resolve_data_model(cfg, "oracle-check needs a gaussian_classes dataset")
    if not isinstance(model, IsoGaussian):
        raise ConfigError(f"oracle-check needs one dataset mean, got {len(model.means)}")
    if np.any(model.mean):
        raise ConfigError("oracle-check needs an all-zero dataset mean")
    classifier = resolve_hard_classifier(cfg, model.dim)
    points = model.sample(cfg.certify.max_points, rng_stream(cfg.seed, STREAM_TEST_DATA))
    results = certify_points(classifier, points, cfg.confidence, cfg.seed,
                             workers=cfg.certify.workers)
    rows = []
    for i, (x, res) in enumerate(zip(points, results)):
        oracle = linear_gaussian_oracle(classifier.base, x, cfg.sigma, model.sigma0)
        cv = int(not res.abstained and res.predicted != oracle.predicted)
        rv = int(res.radius > oracle.radius + 1e-9)
        rows.append((i, oracle.predicted, oracle.radius, res.predicted, res.pa_lower,
                     res.radius, int(res.abstained), cv, rv))
    write_csv(path("oracle.csv"),
              ["index", "oracle_class", "oracle_radius", "predicted", "pa_lower", "radius",
               "abstain", "class_violation", "radius_violation"], rows)
    class_violations = sum(row[-2] for row in rows)
    radius_violations = sum(row[-1] for row in rows)
    violating = sum(row[-2] or row[-1] for row in rows)  # a point with both counts once
    allowed = cfg.certify.max_violations
    print(f"oracle-check: {len(results)} points, {class_violations} class and "
          f"{radius_violations} radius violations on {violating} points (allowed {allowed})")
    if violating > allowed:
        raise FloatingPointError(f"{violating} points with oracle violations exceed the "
                                 f"allowed {allowed}")


def run_walk_jump(cfg, path):
    """Draw coarse-noise observations and push them through denoise, walk,
    jump; one CSV row per sample, optional trajectory dump for the first.

    All chains run as one batch, chain i drawing its walk noise from its own
    keyed stream STREAM_WALK_BASE + i (stats.RowStreams), so each row is what
    that chain gives when walked alone.  The dumped trajectory is chain 0's
    path in that same batched walk, so it ends where the first sample row
    came from.  Nothing is written when a chain goes non-finite.  The coarse source
    is resolve_estimator's; walk_jump.fine_energy_path, when set, is the fine
    one, which is otherwise the coarse source itself."""
    wj = cfg.walk_jump
    if cfg.estimator.kind == "identity":
        raise ConfigError("walk-jump needs estimator.kind closed_form or energy: the walk "
                          "follows a score, and the identity has none")
    model = resolve_data_model(cfg, "walk-jump needs a gaussian_classes dataset")
    coarse = fine = resolve_estimator(cfg, model.dim)
    if wj.fine_energy_path is not None:
        fine = load_energy(wj.fine_energy_path, wj.sigma_prime,
                           "walk_jump.fine_energy_path", model.dim)
    elif cfg.estimator.kind == "energy":
        raise ConfigError("walk_jump.fine_energy_path is required with energy sources")
    data_gen = rng_stream(cfg.seed, STREAM_WALK_DATA)
    clean = model.sample(wj.n_samples, data_gen)
    noisy = clean + cfg.sigma * data_gen.standard_normal(clean.shape)
    chains = RowStreams((rng_stream(cfg.seed, STREAM_WALK_BASE + i)
                         for i in range(wj.n_samples)), wj.tau)
    traj = []  # row copies: a view of y[0] would keep each step's whole batch alive
    outs = walk_jump(coarse, fine, noisy, cfg.sigma, wj, chains,
                     (lambda t, y: traj.append(y[0].copy())) if wj.dump_trajectory else None)
    dim = model.dim
    write_csv(path("samples.csv"),
              ["index", *(f"y{i}" for i in range(dim)), *(f"out{i}" for i in range(dim))],
              ([i, *y, *out] for i, (y, out) in enumerate(zip(noisy, outs))))
    if wj.dump_trajectory:
        write_csv(path("trajectory.csv"), ["step", *(f"x{i}" for i in range(dim)), "energy"],
                  ([step, *y, float(-fine.log_density_y(y[None], wj.sigma_prime)[0])]
                   for step, y in enumerate(traj)))


# The CLI's commands: name -> (help text, runner).
COMMANDS = {
    "gen-data": ("generate or ingest a dataset and write it as CSV", run_gen_data),
    "train-energy": ("fit the denoising energy model", run_train_energy),
    "train-xhat": ("train the smoothed classifier (adversarial or ablations)",
                   run_train_xhat),
    "certify": ("certify test points, one CSV row each", run_certify),
    "curve": ("certify and aggregate accuracy over a radius grid", run_curve),
    "walk-jump": ("run the walk-jump sampler", run_walk_jump),
    "oracle-check": ("certify the analytic pipeline and compare to the exact oracle",
                     run_oracle_check),
}


def run(command, cfg, command_line):
    """Run one of COMMANDS, then write its manifest (the command's name, dashes
    as underscores) through the same path function as the runner's files, so
    its outputs are the names the runner opened.  It is written when the runner
    returns and when it raises any ArithmeticError (a numerical failure), which
    then propagates: a failure before any write leaves a manifest with empty
    outputs.  Any other exception propagates with no manifest."""
    opened = set()

    def path(name):
        os.makedirs(cfg.output_dir, exist_ok=True)
        opened.add(name)
        return os.path.join(cfg.output_dir, name)

    t0 = time.perf_counter()
    failure = None
    try:
        COMMANDS[command][1](cfg, path)
    except ArithmeticError as exc:
        failure = exc
    outputs = sorted(opened)
    write_manifest(path(command.replace("-", "_") + "_manifest.json"), cfg, command_line,
                   time.perf_counter() - t0, outputs)
    if failure is not None:
        raise failure
