"""Experiment runners: datasets in, checkpoints and CSVs out.

Everything here is deterministic given the config seed.  Randomness is drawn
from streams keyed by (seed, purpose): dataset splits, training, and each
certification point own disjoint stream ids, so per-point certification is
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

import numpy as np

from . import __version__
from .adversarial import train_xhat
from .certify import bound_counts, certify, count_votes, linear_gaussian_oracle
from .checkpoint import load_checkpoint, save_checkpoint
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


class NumericalCheckError(RuntimeError):
    """Raised when a run-level numerical check fails (exit code 2).  outputs
    names the files the run wrote before the check failed."""

    def __init__(self, message, outputs):
        super().__init__(message)
        self.outputs = list(outputs)


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


def write_manifest(outdir, name, cfg, command, wall_time_s, outputs):
    payload = {
        "config_sha256": config_digest(cfg),
        "seed": cfg.seed,
        "version": f"ebsmooth-v{__version__}",
        "command": command,
        "wall_time_s": wall_time_s,
        "outputs": sorted(outputs),
    }
    with open(os.path.join(outdir, f"{name}_manifest.json"), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- resolution helpers -------------------------------------------------------


def resolve_split(cfg, split):
    """The "train" or "test" LabeledDataset of the dataset section, or None
    for an idx dataset without test files.  Each generated split draws from
    its own stream, so it is the same whether or not the other is made.  An
    idx split counts the classes of every label file the section names, so
    neither dataset.limit nor the split changes its n_classes."""
    ds = cfg.dataset
    if ds.kind == "gaussian_classes":
        n, stream = ((ds.n_train, STREAM_TRAIN_DATA) if split == "train"
                     else (ds.n_test, STREAM_TEST_DATA))
        return gen_dataset(ds.means, ds.sigma0, n, rng_stream(cfg.seed, stream))
    images, labels = getattr(ds, f"{split}_images"), getattr(ds, f"{split}_labels")
    if images is None or labels is None:
        return None
    n_classes = max(int(read_idx(p, IDX_LABELS_MAGIC).max()) + 1
                    for p in (ds.train_labels, ds.test_labels) if p is not None)
    return dataclasses.replace(load_idx(images, labels, ds.limit), n_classes=n_classes)


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
    """The checkpoint at `path`, named by config key `key`, checked to hold a
    `kind` (EnergyNet or SoftClassifier) of the data dimension `dim`: the one
    check every checkpoint a command loads passes."""
    model = load_checkpoint(path)
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


def _streams(seed, index):
    return (rng_stream(seed, STREAM_CERT_BASE + 2 * index),
            rng_stream(seed, STREAM_CERT_BASE + 2 * index + 1))


def _count_task(task):
    index, classifier, point, sigma, spec, seed = task
    return count_votes(classifier, point, sigma, spec, *_streams(seed, index))


def certify_points(classifier, points, sigma, spec, seed, workers=1):
    """Certify each point with its own keyed noise streams.

    The streams depend only on (seed, point index), so the results are
    identical for any worker count.  workers <= 1 certifies point by point;
    workers > 1 sends only the tallies to a process pool of at most one
    process per point and bounds every point in the parent in one call.
    """
    points = [np.asarray(p, dtype=float) for p in points]
    workers = min(workers, len(points))
    if workers <= 1:
        return [certify(classifier, p, sigma, spec, *_streams(seed, i))
                for i, p in enumerate(points)]
    # imported here, so the commands that make no pool never load it
    from concurrent.futures import ProcessPoolExecutor

    tasks = [(i, classifier, p, sigma, spec, seed) for i, p in enumerate(points)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        tallies = pool.map(_count_task, tasks)  # submits every task, keeps their order
        # the workers need no scipy; the parent's bound does, so it imports
        # scipy.special while they count
        import scipy.special  # noqa: F401
        candidates, counts = zip(*tallies)
    return bound_counts(candidates, counts, sigma, spec)


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
               for r in radius_grid] if total else []
    write_csv(path, ["radius", "certified_accuracy", "certified_correct", "total"],
              ((float(r), ok / total, ok, total) for r, ok in zip(radius_grid, correct)))


def write_training_log(path, rows, columns):
    write_csv(path, ["step", *columns],
              ([step, *(record[c] for c in columns)] for step, record in enumerate(rows)))


# -- runners ------------------------------------------------------------------
# Each runner takes the config, writes into cfg.output_dir and returns the
# names of the files it wrote; run() times the runner and writes the
# manifest.  The directory is made at the first write, so a runner that
# fails on its config first leaves none behind.


def _out(cfg, name):
    os.makedirs(cfg.output_dir, exist_ok=True)
    return os.path.join(cfg.output_dir, name)


def write_dataset_csv(path, dataset):
    write_csv(path, ["label", *(f"x{i}" for i in range(dataset.dim))],
              ([int(label), *row] for label, row in zip(dataset.labels, dataset.points)))


def run_gen_data(cfg):
    train, test = resolve_split(cfg, "train"), resolve_split(cfg, "test")
    write_dataset_csv(_out(cfg, "train.csv"), train)
    if test is None:
        return ["train.csv"]
    write_dataset_csv(_out(cfg, "test.csv"), test)
    return ["train.csv", "test.csv"]


def run_train_energy(cfg):
    train = resolve_split(cfg, "train")
    history = []
    net = train_energy(
        train.points, cfg.energy_train, rng_stream(cfg.seed, STREAM_ENERGY_TRAIN),
        callback=lambda step, rec: history.append(rec),
    )
    save_checkpoint(_out(cfg, "energy.ckpt"), net)
    write_training_log(_out(cfg, "energy_train_log.csv"), history, ["loss"])
    return ["energy.ckpt", "energy_train_log.csv"]


def run_train_xhat(cfg):
    train = resolve_split(cfg, "train")
    estimator = resolve_estimator(cfg, train.dim)
    history = []
    clf = train_xhat(
        train, estimator, cfg.sigma, cfg.classifier.hidden,
        cfg.train, cfg.attack, rng_stream(cfg.seed, STREAM_CLASSIFIER_TRAIN),
        callback=lambda step, rec: history.append(rec),
    )
    save_checkpoint(_out(cfg, "classifier.ckpt"), clf)
    write_training_log(_out(cfg, "training_log.csv"), history,
                       ["clean_loss", "adv_loss", "attack_success", "aborted"])
    return ["classifier.ckpt", "training_log.csv"]


def _certify_test_split(cfg):
    """Certify the first certify.max_points test points and write points.csv."""
    test = resolve_split(cfg, "test")
    if test is None:
        raise ConfigError("certification needs a test split (dataset.test_* for idx)")
    n = min(cfg.certify.max_points, len(test))
    classifier = resolve_hard_classifier(cfg, test.points.shape[1])
    if n == 0:
        print("warning: empty test set, writing empty result CSVs")
    results = certify_points(classifier, test.points[:n], cfg.sigma, cfg.confidence,
                             cfg.seed, workers=cfg.certify.workers)
    write_points_csv(_out(cfg, "points.csv"), results, test.labels[:n])
    return results, test.labels[:n]


def run_certify(cfg):
    _certify_test_split(cfg)
    return ["points.csv"]


def run_curve(cfg):
    results, labels = _certify_test_split(cfg)
    write_curve_csv(_out(cfg, "curve.csv"), results, labels, cfg.certify.radius_grid)
    return ["points.csv", "curve.csv"]


def run_oracle_check(cfg):
    """Certify the closed-form Gaussian pipeline and compare with the exact
    linear oracle, point by point.  The oracle is exact only for a linear
    classifier denoised by the closed-form model of one centred Gaussian, so
    any other classifier, estimator or dataset is a ConfigError, and so is a
    classifier of another dimension (resolve_hard_classifier).  Over the
    violation allowance it raises NumericalCheckError, after oracle.csv is
    written."""
    if (cfg.classifier.kind, cfg.estimator.kind) != ("linear", "closed_form"):
        raise ConfigError("oracle-check needs classifier.kind=linear and "
                          "estimator.kind=closed_form")
    if cfg.certify.max_points < 1:
        raise ConfigError("oracle-check needs certify.max_points >= 1")
    model = resolve_data_model(cfg, "oracle-check needs a gaussian_classes dataset")
    if not isinstance(model, IsoGaussian):
        raise ConfigError(f"oracle-check needs one dataset mean, got {len(model.means)}")
    if np.any(model.mean):
        raise ConfigError("oracle-check needs an all-zero dataset mean")
    classifier = resolve_hard_classifier(cfg, model.dim)
    points = model.sample(cfg.certify.max_points, rng_stream(cfg.seed, STREAM_TEST_DATA))
    results = certify_points(classifier, points, cfg.sigma, cfg.confidence, cfg.seed,
                             workers=cfg.certify.workers)
    rows = []
    for i, (x, res) in enumerate(zip(points, results)):
        oracle = linear_gaussian_oracle(classifier.base, x, cfg.sigma, model.sigma0)
        cv = int(not res.abstained and res.predicted != oracle.predicted)
        rv = int(res.radius > oracle.radius + 1e-9)
        rows.append((i, oracle.predicted, oracle.radius, res.predicted, res.pa_lower,
                     res.radius, int(res.abstained), cv, rv))
    write_csv(_out(cfg, "oracle.csv"),
              ["index", "oracle_class", "oracle_radius", "predicted", "pa_lower", "radius",
               "abstain", "class_violation", "radius_violation"], rows)
    class_violations = sum(row[-2] for row in rows)
    radius_violations = sum(row[-1] for row in rows)
    print(f"oracle-check: {len(results)} points, {class_violations} class and "
          f"{radius_violations} radius violations "
          f"(allowed {cfg.certify.max_violations})")
    total = class_violations + radius_violations
    if total > cfg.certify.max_violations:
        raise NumericalCheckError(
            f"{total} oracle violations exceed the allowed {cfg.certify.max_violations}",
            outputs=["oracle.csv"],
        )
    return ["oracle.csv"]


def run_walk_jump(cfg):
    """Draw coarse-noise observations and push them through denoise, walk,
    jump; one CSV row per sample, optional trajectory dump for the first.

    All chains run as one batch, chain i drawing its walk noise from its own
    keyed stream STREAM_WALK_BASE + i (stats.RowStreams), so each row is what
    that chain gives when walked alone.  The dumped trajectory is chain 0's
    path in that same batched walk, so it ends where samples.csv row 0 came
    from.  Nothing is written when a chain goes non-finite.  The coarse source
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
    walked = walk_jump(coarse, fine, noisy, cfg.sigma, wj, chains,
                       record=0 if wj.dump_trajectory else None)
    outs, traj = walked if wj.dump_trajectory else (walked, None)
    dim = model.dim
    write_csv(_out(cfg, "samples.csv"),
              ["index", *(f"y{i}" for i in range(dim)), *(f"out{i}" for i in range(dim))],
              ([i, *y, *out] for i, (y, out) in enumerate(zip(noisy, outs))))
    if not wj.dump_trajectory:
        return ["samples.csv"]
    write_csv(_out(cfg, "trajectory.csv"),
              ["step", *(f"x{i}" for i in range(dim)), "energy"],
              ([step, *y, float(-fine.log_density_y(y[None], wj.sigma_prime)[0])]
               for step, y in enumerate(traj)))
    return ["samples.csv", "trajectory.csv"]


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
    """Run one of COMMANDS and write <command>_manifest.json (dashes as
    underscores) into cfg.output_dir, naming the files it wrote.  A
    NumericalCheckError (oracle-check over its allowance) names the files
    already written; it propagates after the manifest is written."""
    t0 = time.perf_counter()
    failure = None
    try:
        outputs = COMMANDS[command][1](cfg)
    except NumericalCheckError as exc:
        outputs, failure = exc.outputs, exc
    write_manifest(cfg.output_dir, command.replace("-", "_"), cfg, command_line,
                   time.perf_counter() - t0, outputs)
    if failure is not None:
        raise failure
