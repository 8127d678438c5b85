"""The three benchmark workloads: configs made from a seed, the CLI commands
they run, and the checks on each command's outputs.

A workload is prepared into two lists of commands.  The set-up commands
make what the measured commands read (a dataset, a classifier checkpoint);
the round commands are the measured closed loop.  Each round command has a
role: "primary" and "secondary" name the two per-unit costs that the
end-to-end metrics report for that workload.

Checks read the result files the way a user would and raise CheckError when
an output is wrong.  They return quality values (radii, losses, counts) for
the report.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from pathlib import Path
from typing import Callable

import numpy as np


class CheckError(RuntimeError):
    """An output file is missing, malformed or wrong."""


@dataclasses.dataclass(frozen=True)
class Command:
    """One `python -m ebsmooth` invocation."""

    label: str
    argv: tuple
    outdir: Path
    outputs: tuple  # result files that must be byte-identical on every run
    check: Callable[[Path], dict]
    units: int = 1  # points, chains or steps, for the per-unit cost
    role: str | None = None  # "primary", "secondary", or None in set-up
    pool: bool = False  # uses the process pool; the traced run forces --workers 1
    samples: int = 0  # certification samples: points * (n0 + nc)


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    unit_names: tuple  # report names of the primary and secondary per-unit costs
    prepare: Callable[[int, bool, Path], tuple]


def _write_config(path, cfg):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(cfg, indent=1, sort_keys=True) + "\n")
    return str(path)


def _rows(path):
    try:
        with open(path, newline="") as fh:
            return list(csv.DictReader(fh))
    except OSError as exc:
        raise CheckError(f"{path}: {exc}") from exc


def _float(row, key, path):
    try:
        value = float(row[key])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckError(f"{path}: bad {key} in row {row}") from exc
    if not math.isfinite(value):
        raise CheckError(f"{path}: non-finite {key} in row {row}")
    return value


def _require(cond, message):
    if not cond:
        raise CheckError(message)


def _check_checkpoint(path):
    try:
        with open(path, "rb") as fh:
            magic = fh.read(4)
    except OSError as exc:
        raise CheckError(f"{path}: {exc}") from exc
    _require(magic == b"EBCK", f"{path}: not a checkpoint")


def _check_log(path, steps, columns):
    rows = _rows(path)
    _require(len(rows) == steps, f"{path}: {len(rows)} rows, expected {steps}")
    return {c: [_float(r, c, path) for r in rows] for c in columns}


# -- oracle-linear-d10 ---------------------------------------------------------


def _check_oracle(points, allowance):
    def check(outdir):
        path = outdir / "oracle.csv"
        rows = _rows(path)
        _require(len(rows) == points, f"{path}: {len(rows)} rows, expected {points}")
        violations = 0
        radius_sum = oracle_sum = correct_radius = 0.0
        certified = 0
        for row in rows:
            radius = _float(row, "radius", path)
            oracle_radius = _float(row, "oracle_radius", path)
            abstain = row["abstain"] == "1"
            predicted = int(row["predicted"])
            cv = int(not abstain and predicted != int(row["oracle_class"]))
            rv = int(radius > oracle_radius + 1e-9)
            _require(cv == int(row["class_violation"]) and rv == int(row["radius_violation"]),
                     f"{path}: violation flags disagree with the oracle columns: {row}")
            _require(abstain == (predicted == -1) and radius >= 0.0,
                     f"{path}: inconsistent abstention: {row}")
            violations += cv + rv
            if not abstain:
                certified += 1
                radius_sum += radius
                oracle_sum += oracle_radius
                if not cv:
                    correct_radius += radius
        _require(violations <= allowance,
                 f"{path}: {violations} oracle violations exceed the allowance {allowance}")
        return {
            "oracle_violations": violations,
            "radius_to_oracle": radius_sum / oracle_sum if oracle_sum > 0 else 0.0,
            "mean_cert_radius": correct_radius / points,
            "certified_share": certified / points,
        }
    return check


def prepare_oracle(seed, tiny, workdir):
    """oracle-check on the demos/configs/oracle_check.json shape: a 10-d
    isotropic Gaussian, a linear base drawn from the seed and the closed-form
    Gaussian denoiser, at workers=1.  The primary command spends n0=100,
    nc=1e5 per point, so normal draws dominate; the secondary spends nc=1e3
    on ten times as many points, so the per-point fixed cost (bound,
    quantile, oracle comparison) dominates."""
    rng = np.random.default_rng([seed, 1])
    weights = (0.33 * rng.standard_normal(10)).tolist()
    base = {
        "seed": seed,
        "sigma": 1.0,
        "dataset": {"kind": "gaussian_classes", "means": [[0.0] * 10], "sigma0": 1.0,
                    "n_train": 1000, "n_test": 200},
        "classifier": {"kind": "linear", "weights": weights,
                       "bias": float(rng.uniform(0.2, 0.8))},
    }
    allowance = 3  # oracle violations tolerated per command, as in oracle_check.json
    variants = [("nc1e5", 3 if tiny else 40, 1000 if tiny else 100_000, "primary"),
                ("nc1e3", 10 if tiny else 400, 200 if tiny else 1000, "secondary")]
    gen_cfg = _write_config(workdir / "gen.json", dict(base, output_dir=str(workdir / "data")))
    setup = [Command("gen-data", ("gen-data", "-c", gen_cfg), workdir / "data",
                     ("train.csv", "test.csv"), lambda outdir: {})]
    rounds = []
    for tag, points, nc, role in variants:
        outdir = workdir / tag
        cfg = dict(base, output_dir=str(outdir),
                   confidence={"alpha": 0.001, "n0": 100, "nc": nc},
                   certify={"max_points": points, "workers": 1, "max_violations": allowance})
        path = _write_config(workdir / f"oracle_{tag}.json", cfg)
        rounds.append(Command(f"oracle-check[{tag}]", ("oracle-check", "-c", path), outdir,
                              ("oracle.csv",), _check_oracle(points, allowance), units=points,
                              role=role, samples=points * (100 + nc)))
    return setup, rounds


# -- mixture-mlp-d64 -----------------------------------------------------------


def _test_labels(datadir):
    return [int(row["label"]) for row in _rows(datadir / "test.csv")]


def _check_curve(points, grid, datadir):
    def check(outdir):
        path = outdir / "points.csv"
        rows = _rows(path)
        _require(len(rows) == points, f"{path}: {len(rows)} rows, expected {points}")
        labels = _test_labels(datadir)
        correct = []
        certified = 0
        for i, row in enumerate(rows):
            _require(int(row["index"]) == i and int(row["true_label"]) == labels[i],
                     f"{path}: row {i} does not match the test split")
            radius = _float(row, "radius", path)
            pa_lower = _float(row, "pa_lower", path)
            abstain = row["abstain"] == "1"
            predicted = int(row["predicted"])
            _require(abstain == (predicted == -1) and 0.0 <= pa_lower <= 1.0 and radius >= 0.0,
                     f"{path}: inconsistent row {row}")
            certified += not abstain
            correct.append(radius if not abstain and predicted == labels[i] else None)
        curve_path = outdir / "curve.csv"
        curve = _rows(curve_path)
        _require(len(curve) == len(grid), f"{curve_path}: {len(curve)} rows")
        for r, row in zip(grid, curve):
            ok = sum(1 for c in correct if c is not None and c >= r)
            _require(_float(row, "radius", curve_path) == r
                     and _float(row, "certified_accuracy", curve_path) == ok / points
                     and int(row["certified_correct"]) == ok and int(row["total"]) == points,
                     f"{curve_path}: row {row} disagrees with points.csv")
        return {
            "mean_cert_radius": sum(c for c in correct if c is not None) / points,
            "certified_share": certified / points,
        }
    return check


def _check_samples(chains, dim):
    def check(outdir):
        path = outdir / "samples.csv"
        rows = _rows(path)
        _require(len(rows) == chains, f"{path}: {len(rows)} rows, expected {chains}")
        for row in rows:
            _require(len(row) == 1 + 2 * dim, f"{path}: row width {len(row)}")
            for key in row:
                if key != "index":
                    _float(row, key, path)
        return {}
    return check


def prepare_mixture(seed, tiny, workdir):
    """A 10-component 64-d gaussian_classes mixture with the closed-form
    mixture denoiser.  Set-up trains a softplus-MLP classifier (hidden [64],
    no_attack); the round runs `curve` at workers=2 and nc=1e4, then
    `walk-jump`.  Means are 0.4 * N(0, 1): far enough apart to classify,
    close enough that the curve is not saturated at the top radius."""
    rng = np.random.default_rng([seed, 2])
    dim = 64
    means = (0.4 * rng.standard_normal((10, dim))).tolist()
    points = 3 if tiny else 30
    nc = 500 if tiny else 10_000
    chains = 3 if tiny else 200
    grid = [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5]
    base = {
        "seed": seed,
        "sigma": 0.5,
        "dataset": {"kind": "gaussian_classes", "means": means, "sigma0": 1.0,
                    "n_train": 200 if tiny else 2000, "n_test": 200},
        "confidence": {"alpha": 0.001, "n0": 100, "nc": nc},
        "estimator": {"kind": "closed_form"},
        "train": {"mode": "no_attack", "steps": 5 if tiny else 150, "batch_size": 64,
                  "lr": 0.003, "m": 1},
        "certify": {"max_points": points, "workers": 2, "radius_grid": grid},
        "walk_jump": {"sigma_prime": 0.05, "delta": 0.001, "tau": 5 if tiny else 100,
                      "n_samples": chains},
    }
    datadir, clfdir = workdir / "data", workdir / "clf"
    gen_cfg = _write_config(workdir / "gen.json", dict(base, output_dir=str(datadir)))
    train_cfg = _write_config(workdir / "train.json", dict(
        base, output_dir=str(clfdir), classifier={"kind": "mlp", "hidden": [64]}))
    setup = [
        Command("gen-data", ("gen-data", "-c", gen_cfg), datadir, ("train.csv", "test.csv"),
                lambda outdir: {}),
        Command("train-xhat[no_attack]", ("train-xhat", "-c", train_cfg), clfdir,
                ("classifier.ckpt", "training_log.csv"),
                lambda outdir: _check_checkpoint(outdir / "classifier.ckpt") or {}),
    ]
    checkpoint = {"kind": "checkpoint", "path": str(clfdir / "classifier.ckpt")}
    curve_cfg = _write_config(workdir / "curve.json", dict(
        base, output_dir=str(workdir / "curve"), classifier=checkpoint))
    walk_cfg = _write_config(workdir / "walk.json", dict(
        base, output_dir=str(workdir / "walk"), classifier=checkpoint))
    rounds = [
        Command("curve", ("curve", "-c", curve_cfg), workdir / "curve",
                ("points.csv", "curve.csv"), _check_curve(points, grid, datadir),
                units=points, role="primary", pool=True, samples=points * (100 + nc)),
        Command("walk-jump", ("walk-jump", "-c", walk_cfg), workdir / "walk", ("samples.csv",),
                _check_samples(chains, dim), units=chains, role="secondary"),
    ]
    return setup, rounds


# -- energy-adv-train ----------------------------------------------------------


def _check_energy_training(steps):
    def check(outdir):
        _check_checkpoint(outdir / "energy.ckpt")
        log = _check_log(outdir / "energy_train_log.csv", steps, ["loss"])
        return {"energy_final_loss": log["loss"][-1]}
    return check


def _check_xhat_training(steps):
    def check(outdir):
        _check_checkpoint(outdir / "classifier.ckpt")
        log = _check_log(outdir / "training_log.csv", steps,
                         ["clean_loss", "adv_loss", "attack_success", "aborted"])
        return {
            "xhat_final_adv_loss": log["adv_loss"][-1],
            "attack_success": sum(log["attack_success"]) / steps,
            "aborts": int(sum(log["aborted"])),
        }
    return check


def prepare_energy(seed, tiny, workdir):
    """train-energy (hidden [128, 128]) then train-xhat --mode adversarial with
    estimator.kind=energy, on the demos/configs/mixture_experiment.json
    dataset.  train-xhat reads the checkpoint the round's train-energy just
    wrote, which is byte-identical every round."""
    energy_steps = 3 if tiny else 200
    xhat_steps = 2 if tiny else 25
    energydir, xhatdir = workdir / "energy", workdir / "xhat"
    base = {
        "seed": seed,
        "sigma": 0.3,
        "dataset": {"kind": "gaussian_classes", "means": [[2.0, 0.0], [-2.0, 0.0]],
                    "sigma0": 0.5, "n_train": 4000, "n_test": 200},
        "energy_train": {"hidden": [128, 128], "steps": energy_steps, "batch_size": 128,
                         "lr": 0.001},
        "classifier": {"kind": "mlp", "hidden": [64]},
        "train": {"mode": "adversarial", "steps": xhat_steps, "batch_size": 64, "m": 1},
        "attack": {"epsilon": 1.0, "steps": 2 if tiny else 16, "m": 1},
    }
    gen_cfg = _write_config(workdir / "gen.json", dict(base, output_dir=str(workdir / "data")))
    energy_cfg = _write_config(workdir / "energy.json", dict(base, output_dir=str(energydir)))
    xhat_cfg = _write_config(workdir / "xhat.json", dict(
        base, output_dir=str(xhatdir),
        estimator={"kind": "energy", "path": str(energydir / "energy.ckpt")}))
    setup = [Command("gen-data", ("gen-data", "-c", gen_cfg), workdir / "data",
                     ("train.csv", "test.csv"), lambda outdir: {})]
    rounds = [
        Command("train-energy", ("train-energy", "-c", energy_cfg), energydir,
                ("energy.ckpt", "energy_train_log.csv"), _check_energy_training(energy_steps),
                units=energy_steps, role="secondary"),
        Command("train-xhat[adversarial]", ("train-xhat", "-c", xhat_cfg), xhatdir,
                ("classifier.ckpt", "training_log.csv"), _check_xhat_training(xhat_steps),
                units=xhat_steps, role="primary"),
    ]
    return setup, rounds


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "oracle-linear-d10",
            ("cert_ms_per_point", "cert_ms_per_point_nc1e3"),
            prepare_oracle,
        ),
        Workload(
            "mixture-mlp-d64",
            ("cert_ms_per_point", "walk_ms_per_chain"),
            prepare_mixture,
        ),
        Workload(
            "energy-adv-train",
            ("xhat_train_ms_per_step", "energy_train_ms_per_step"),
            prepare_energy,
        ),
    )
}
