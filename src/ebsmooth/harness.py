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

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__
from .adversarial import train_xhat
from .certify import certify, linear_gaussian_oracle
from .checkpoint import load_checkpoint, save_checkpoint
from .classifiers import EbClassifier, LinearClassifier, SoftClassifier
from .config import ConfigError, config_digest
from .datasets import GaussianClassSpec, gen_dataset, load_idx, save_dataset_csv
from .densities import IsoGaussian, IsoMixture
from .energy import EnergyNet, train_energy
from .sampler import energy_value, walk_jump
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
    """Raised when a run-level numerical check fails (exit code 2)."""


def fmt(x):
    """Float to text at 17 significant digits (lossless round-trip)."""
    return format(float(x), ".17g")


def write_manifest(outdir, name, raw_config, command, wall_time_s, outputs):
    payload = {
        "config_sha256": config_digest(raw_config),
        "seed": raw_config.get("seed", 0),
        "version": f"ebsmooth-v{__version__}",
        "command": command,
        "wall_time_s": wall_time_s,
        "outputs": sorted(outputs),
    }
    path = os.path.join(outdir, f"{name}_manifest.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# -- resolution helpers -------------------------------------------------------


def resolve_datasets(cfg):
    """Train and test LabeledDatasets from the dataset section."""
    ds = cfg.dataset
    if ds.kind == "gaussian_classes":
        means = np.asarray(ds.means, dtype=float)
        train = gen_dataset(GaussianClassSpec(means, ds.sigma0, ds.n_train),
                            rng_stream(cfg.seed, STREAM_TRAIN_DATA))
        test = gen_dataset(GaussianClassSpec(means, ds.sigma0, ds.n_test),
                           rng_stream(cfg.seed, STREAM_TEST_DATA))
        return train, test
    train = load_idx(ds.train_images, ds.train_labels, ds.limit)
    if ds.test_images is None or ds.test_labels is None:
        return train, None
    return train, load_idx(ds.test_images, ds.test_labels, ds.limit)


def resolve_data_model(cfg):
    """Exact generative model implied by a gaussian_classes dataset."""
    ds = cfg.dataset
    if ds.kind != "gaussian_classes":
        raise ConfigError(
            "closed-form estimators need a gaussian_classes dataset; "
            "train an energy model for file-based data"
        )
    means = np.asarray(ds.means, dtype=float)
    if means.shape[0] == 1:
        return IsoGaussian(sigma0=ds.sigma0, dim=means.shape[1], mean=means[0])
    return IsoMixture(means=means, sigma0=ds.sigma0)


def load_energy(path, sigma, key, dim):
    """The EnergyNet checkpoint at `path`, named by config key `key`, checked
    to be of the data dimension `dim` and to have been trained at the noise
    scale `sigma` it is about to be used at."""
    net = load_checkpoint(path)
    if not isinstance(net, EnergyNet):
        raise ConfigError(f"{key} {path} is not an energy checkpoint")
    if net.dim != dim:
        raise ConfigError(f"{key} {path} has dimension {net.dim}, but the data have "
                          f"dimension {dim}")
    try:
        # denoising no points runs only the energy's scale check
        net.bayes_estimate(np.zeros((0, net.dim)), sigma)
    except ValueError as exc:
        raise ConfigError(f"{key} {path}: {exc}") from None
    return net


def resolve_estimator(cfg, dim):
    """None (identity), an EnergyNet checkpoint for dim-dimensional data, or
    the closed-form model."""
    est = cfg.estimator
    if est.kind == "identity":
        return None
    if est.kind == "energy":
        return load_energy(est.path, cfg.sigma, "estimator.path", dim)
    return resolve_data_model(cfg)


def resolve_base_classifier(cfg):
    cl = cfg.classifier
    if cl.kind == "linear":
        return LinearClassifier(np.asarray(cl.weights, dtype=float), float(cl.bias))
    if cl.kind == "checkpoint":
        model = load_checkpoint(cl.path)
        if not isinstance(model, (SoftClassifier, LinearClassifier)):
            raise ConfigError(f"classifier.path {cl.path} is not a classifier checkpoint")
        return model
    raise ConfigError(
        "classifier.kind=mlp has no parameters yet; train one with train-xhat "
        "and point classifier.path at the checkpoint"
    )


def resolve_hard_classifier(cfg, dim):
    """The hard classifier certification runs on dim-dimensional points: base
    composed with the configured estimator, or the bare base for identity."""
    base = resolve_base_classifier(cfg)
    if base.dim != dim:
        what = ("classifier.weights" if cfg.classifier.kind == "linear"
                else f"classifier.path {cfg.classifier.path}")
        raise ConfigError(f"{what} has dimension {base.dim}, but the data have "
                          f"dimension {dim}")
    estimator = resolve_estimator(cfg, dim)
    if estimator is None:
        return base
    return EbClassifier(base, estimator, cfg.sigma)


# -- certification ------------------------------------------------------------


def _certify_task(task):
    index, classifier, point, sigma, spec, seed = task
    sel_gen = rng_stream(seed, STREAM_CERT_BASE + 2 * index)
    est_gen = rng_stream(seed, STREAM_CERT_BASE + 2 * index + 1)
    result = certify(classifier, point, sigma, spec, sel_gen, est_gen)
    return index, result


def certify_points(classifier, points, sigma, spec, seed, workers=1):
    """Certify each point with its own keyed noise streams.

    The streams depend only on (seed, point index), so the results are
    identical for any worker count; workers > 1 fans points out to a process
    pool.
    """
    tasks = [
        (i, classifier, np.asarray(p, dtype=float), sigma, spec, seed)
        for i, p in enumerate(points)
    ]
    if workers <= 1:
        pairs = [_certify_task(t) for t in tasks]
    else:
        # the bound and the quantile need scipy.special (stats imports it
        # lazily); importing it before the fork saves each worker the import
        import scipy.special  # noqa: F401
        with ProcessPoolExecutor(max_workers=workers) as pool:
            pairs = list(pool.map(_certify_task, tasks))
    pairs.sort(key=lambda item: item[0])
    return [result for _, result in pairs]


POINTS_CSV_HEADER = "index,true_label,predicted,pa_lower,radius,abstain"


def write_points_csv(path, results, labels):
    with open(path, "w", newline="") as fh:
        fh.write(POINTS_CSV_HEADER + "\n")
        for i, (res, label) in enumerate(zip(results, labels)):
            fh.write(
                f"{i},{int(label)},{res.predicted},{fmt(res.pa_lower)},"
                f"{fmt(res.radius)},{int(res.abstained)}\n"
            )


def certified_accuracy_at(results, labels, radius):
    """Fraction certified correct at the given radius; abstentions count as
    errors."""
    ok = 0
    for res, label in zip(results, labels):
        if not res.abstained and res.predicted == int(label) and res.radius >= radius:
            ok += 1
    return ok / max(len(results), 1)


def write_curve_csv(path, results, labels, radius_grid):
    with open(path, "w", newline="") as fh:
        fh.write("radius,certified_accuracy,certified_correct,total\n")
        total = len(results)
        if total == 0:
            return
        for r in radius_grid:
            acc = certified_accuracy_at(results, labels, r)
            fh.write(f"{fmt(r)},{fmt(acc)},{round(acc * total)},{total}\n")


def write_training_log(path, rows, columns):
    with open(path, "w", newline="") as fh:
        fh.write("step," + ",".join(columns) + "\n")
        for step, record in enumerate(rows):
            vals = ",".join(
                fmt(record[c]) if isinstance(record[c], float) else str(record[c])
                for c in columns
            )
            fh.write(f"{step},{vals}\n")


# -- runners ------------------------------------------------------------------


def _start(cfg):
    os.makedirs(cfg.output_dir, exist_ok=True)
    return time.perf_counter()


def run_gen_data(cfg, raw_config, command):
    t0 = _start(cfg)
    train, test = resolve_datasets(cfg)
    outputs = []
    train_path = os.path.join(cfg.output_dir, "train.csv")
    save_dataset_csv(train_path, train)
    outputs.append("train.csv")
    if test is not None:
        test_path = os.path.join(cfg.output_dir, "test.csv")
        save_dataset_csv(test_path, test)
        outputs.append("test.csv")
    write_manifest(cfg.output_dir, "gen_data", raw_config, command,
                   time.perf_counter() - t0, outputs)
    return outputs


def run_train_energy(cfg, raw_config, command):
    t0 = _start(cfg)
    train, _ = resolve_datasets(cfg)
    history = []
    net = train_energy(
        train.points, cfg.energy_train, rng_stream(cfg.seed, STREAM_ENERGY_TRAIN),
        callback=lambda step, rec: history.append(rec),
    )
    ckpt = os.path.join(cfg.output_dir, "energy.ckpt")
    save_checkpoint(ckpt, net)
    log = os.path.join(cfg.output_dir, "energy_train_log.csv")
    write_training_log(log, history, ["loss"])
    write_manifest(cfg.output_dir, "train_energy", raw_config, command,
                   time.perf_counter() - t0, ["energy.ckpt", "energy_train_log.csv"])
    return net


def run_train_xhat(cfg, raw_config, command):
    t0 = _start(cfg)
    train, _ = resolve_datasets(cfg)
    estimator = resolve_estimator(cfg, train.points.shape[1])
    history = []
    clf = train_xhat(
        train.points, train.labels, estimator, cfg.sigma, cfg.classifier.hidden,
        cfg.train, cfg.attack, rng_stream(cfg.seed, STREAM_CLASSIFIER_TRAIN),
        callback=lambda step, rec: history.append(rec),
    )
    ckpt = os.path.join(cfg.output_dir, "classifier.ckpt")
    save_checkpoint(ckpt, clf)
    log = os.path.join(cfg.output_dir, "training_log.csv")
    write_training_log(log, history,
                       ["clean_loss", "adv_loss", "attack_success", "aborted"])
    write_manifest(cfg.output_dir, "train_xhat", raw_config, command,
                   time.perf_counter() - t0, ["classifier.ckpt", "training_log.csv"])
    return clf


def _certification_inputs(cfg):
    _, test = resolve_datasets(cfg)
    if test is None:
        raise ConfigError("certification needs a test split (dataset.test_* for idx)")
    n = min(cfg.certify.max_points, len(test))
    points = test.points[:n]
    labels = test.labels[:n]
    classifier = resolve_hard_classifier(cfg, test.points.shape[1])
    return classifier, points, labels


def run_certify(cfg, raw_config, command, with_curve=False):
    t0 = _start(cfg)
    classifier, points, labels = _certification_inputs(cfg)
    if len(points) == 0:
        print("warning: empty test set, writing empty result CSVs")
    results = certify_points(classifier, points, cfg.sigma, cfg.confidence, cfg.seed,
                             workers=cfg.certify.workers)
    outputs = ["points.csv"]
    write_points_csv(os.path.join(cfg.output_dir, "points.csv"), results, labels)
    if with_curve:
        write_curve_csv(os.path.join(cfg.output_dir, "curve.csv"), results, labels,
                        cfg.certify.radius_grid)
        outputs.append("curve.csv")
    name = "curve" if with_curve else "certify"
    write_manifest(cfg.output_dir, name, raw_config, command,
                   time.perf_counter() - t0, outputs)
    return results, labels


def run_oracle_check(cfg, raw_config, command):
    """Certify the closed-form Gaussian pipeline and compare with the exact
    linear oracle, point by point."""
    t0 = _start(cfg)
    if cfg.classifier.kind != "linear":
        raise ConfigError("oracle-check needs classifier.kind=linear")
    if cfg.certify.max_points < 1:
        raise ConfigError("oracle-check needs certify.max_points >= 1")
    base = resolve_base_classifier(cfg)
    sigma0 = cfg.dataset.sigma0
    model = IsoGaussian(sigma0=sigma0, dim=base.dim)
    points = model.sample(cfg.certify.max_points, rng_stream(cfg.seed, STREAM_TEST_DATA))
    classifier = EbClassifier(base, model, cfg.sigma)
    results = certify_points(classifier, points, cfg.sigma, cfg.confidence, cfg.seed,
                             workers=cfg.certify.workers)
    class_violations = 0
    radius_violations = 0
    path = os.path.join(cfg.output_dir, "oracle.csv")
    with open(path, "w", newline="") as fh:
        fh.write("index,oracle_class,oracle_radius,predicted,pa_lower,radius,"
                 "abstain,class_violation,radius_violation\n")
        for i, (x, res) in enumerate(zip(points, results)):
            oracle = linear_gaussian_oracle(base, x, cfg.sigma, sigma0)
            cv = int(not res.abstained and res.predicted != oracle.predicted)
            rv = int(res.radius > oracle.radius + 1e-9)
            class_violations += cv
            radius_violations += rv
            fh.write(
                f"{i},{oracle.predicted},{fmt(oracle.radius)},{res.predicted},"
                f"{fmt(res.pa_lower)},{fmt(res.radius)},{int(res.abstained)},{cv},{rv}\n"
            )
    write_manifest(cfg.output_dir, "oracle_check", raw_config, command,
                   time.perf_counter() - t0, ["oracle.csv"])
    total = class_violations + radius_violations
    print(f"oracle-check: {len(results)} points, {class_violations} class and "
          f"{radius_violations} radius violations "
          f"(allowed {cfg.certify.max_violations})")
    if total > cfg.certify.max_violations:
        raise NumericalCheckError(
            f"{total} oracle violations exceed the allowed {cfg.certify.max_violations}"
        )
    return results


def run_walk_jump(cfg, raw_config, command):
    """Draw coarse-noise observations and push them through denoise, walk,
    jump; one CSV row per sample, optional trajectory dump for the first.

    All chains run as one batch, chain i drawing its walk noise from its own
    keyed stream STREAM_WALK_BASE + i (stats.RowStreams), so each row is what
    that chain gives when walked alone.  The dumped trajectory is chain 0's
    path in that same batched walk, so it ends where samples.csv row 0 came
    from.  Nothing is written when a chain goes non-finite."""
    t0 = _start(cfg)
    wj = cfg.walk_jump
    model = resolve_data_model(cfg)
    if cfg.estimator.kind == "energy":
        coarse = load_energy(cfg.estimator.path, cfg.sigma, "estimator.path", model.dim)
        if wj.fine_energy_path is None:
            raise ConfigError("walk_jump.fine_energy_path is required with energy sources")
        fine = load_energy(wj.fine_energy_path, wj.sigma_prime,
                           "walk_jump.fine_energy_path", model.dim)
    else:
        coarse = fine = model
    data_gen = rng_stream(cfg.seed, STREAM_WALK_DATA)
    clean = model.sample(wj.n_samples, data_gen)
    noisy = clean + cfg.sigma * data_gen.standard_normal(clean.shape)
    chains = RowStreams(rng_stream(cfg.seed, STREAM_WALK_BASE + i)
                        for i in range(wj.n_samples))
    # the dump needs chain 0's (tau + 1, d) path, not the (tau + 1, n, d) of all
    walked = walk_jump(coarse, fine, noisy, cfg.sigma, wj, chains,
                       record=0 if wj.dump_trajectory else None)
    outs, traj = walked if wj.dump_trajectory else (walked, None)
    outputs = ["samples.csv"]
    out_path = os.path.join(cfg.output_dir, "samples.csv")
    dim = clean.shape[1]
    with open(out_path, "w", newline="") as fh:
        names = [f"y{i}" for i in range(dim)] + [f"out{i}" for i in range(dim)]
        fh.write("index," + ",".join(names) + "\n")
        for i, (y, out) in enumerate(zip(noisy, outs)):
            row = [fmt(v) for v in y] + [fmt(v) for v in out]
            fh.write(f"{i}," + ",".join(row) + "\n")
    if wj.dump_trajectory:
        traj_path = os.path.join(cfg.output_dir, "trajectory.csv")
        with open(traj_path, "w", newline="") as fh:
            names = [f"x{i}" for i in range(dim)]
            fh.write("step," + ",".join(names) + ",energy\n")
            for step, y in enumerate(traj):
                e = energy_value(fine, y, wj.sigma_prime)
                fh.write(f"{step}," + ",".join(fmt(v) for v in y) + f",{fmt(e)}\n")
        outputs.append("trajectory.csv")
    write_manifest(cfg.output_dir, "walk_jump", raw_config, command,
                   time.perf_counter() - t0, outputs)
    return outputs
