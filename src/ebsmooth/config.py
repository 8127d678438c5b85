"""Experiment configuration: one JSON file per experiment, strictly validated.

Unknown keys are rejected rather than ignored, because a silently misspelled
noise scale or failure probability would invalidate every guarantee computed
downstream.  Each section that configures a library stage is that stage's
own config object: confidence is ConfidenceSpec, attack AttackSpec, train
ClassifierTrainConfig, energy_train EnergyTrainConfig, and walk_jump a
WalkJumpConfig with the harness's keys added.  The dataclass annotations
are the schema: one builder, _build, walks the whole ExperimentConfig tree
once, when the config is loaded, for every command.  It checks each value
against its field's annotation (an int field takes only integers, a float
field only finite numbers, a bool field only true or false, a list field
only a list of its element type), then runs the section's own range checks,
then the checks across sections.  Every section raises ValueError with a
message that starts with the field name; the builder names the section.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import numbers
import os
import typing

from .adversarial import AttackSpec, ClassifierTrainConfig, runs_attack
from .energy import EnergyTrainConfig
from .mlp import check_hidden
from .sampler import WalkJumpConfig
from .stats import ConfidenceSpec


class ConfigError(ValueError):
    """Raised for malformed or inconsistent experiment configuration."""


def _build(cls, data, path=""):
    """Construct the dataclass cls from a dict, rejecting unknown keys and
    checking every value against its field's annotation (_check_type, which
    builds a nested section the same way).  A section's own check raises
    ValueError with a message that starts with the field name, so it
    becomes a ConfigError naming path.field; path is empty at the top."""
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected an object, got {type(data).__name__}")
    prefix = f"{path}." if path else ""
    hints = typing.get_type_hints(cls)
    for key in data:
        if key not in hints:
            raise ConfigError(f"unknown config key: {prefix}{key}")
    data = {key: _check_type(value, hints[key], prefix + key) for key, value in data.items()}
    try:
        return cls(**data)
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


def _check_type(value, hint, name):
    """Reject a value that does not fit its field's annotation: a bool or
    float for an int field, a non-finite or non-numeric value for a float
    field, a non-bool for a bool field, a non-string for a string field, and
    a non-list for a list field, whose elements are checked in turn at any
    depth and named by their index (dataset.means[0][1]).  X | None also
    takes None, and a section (a dataclass) goes to _build.  JSON such as
    1e3, 5, NaN, [2.5] or a number for a path then fails here and not deep
    in a run.  Returns the value, with an integer for a float field made a
    float, so that 1 and 1.0 configure (and digest to) the same
    experiment."""
    args = typing.get_args(hint)
    if type(None) in args:
        if value is None:
            return None
        (hint,) = (arg for arg in args if arg is not type(None))
    if dataclasses.is_dataclass(hint):
        return _build(hint, value, name)
    if typing.get_origin(hint) is list:
        if not isinstance(value, list):
            raise ConfigError(f"{name} must be a list, got {value!r}")
        (item,) = typing.get_args(hint)
        return [_check_type(element, item, f"{name}[{i}]") for i, element in enumerate(value)]
    if hint is int and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if hint is float:
        if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and math.isfinite(value)):
            raise ConfigError(f"{name} must be a finite number, got {value!r}")
        return float(value)
    if hint is bool and not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false, got {value!r}")
    if hint is str and not isinstance(value, str):
        raise ConfigError(f"{name} must be a string, got {value!r}")
    return value


@dataclasses.dataclass(frozen=True)
class DatasetSection:
    kind: str = "gaussian_classes"
    means: list[list[float]] | None = None
    sigma0: float = 1.0
    n_train: int = 2000
    n_test: int = 200
    train_images: str | None = None
    train_labels: str | None = None
    test_images: str | None = None
    test_labels: str | None = None
    limit: int | None = None

    def __post_init__(self):
        if self.kind not in ("gaussian_classes", "idx"):
            raise ValueError(f"kind must be gaussian_classes or idx, got {self.kind!r}")
        if self.kind == "gaussian_classes":
            if self.means is None:
                raise ValueError("means is required for gaussian_classes")
            rows = self.means
            if not (rows and rows[0] and all(len(row) == len(rows[0]) for row in rows)):
                raise ValueError("means must be a K x d list of lists of finite numbers "
                                 f"with K, d >= 1, got {rows!r}")
            if self.sigma0 <= 0:
                raise ValueError("sigma0 must be positive")
            for name in ("n_train", "n_test"):
                count = getattr(self, name)
                if count < 1:
                    raise ValueError(f"{name} must be >= 1, got {count}")
            if self.limit is not None:
                raise ValueError("limit applies only to idx data; set dataset.n_train "
                                 "and dataset.n_test to size a generated dataset")
        if self.kind == "idx":
            if self.limit is not None and self.limit < 1:
                raise ValueError(f"limit must be >= 1, got {self.limit}")
            for name in ("train_images", "train_labels", "test_images", "test_labels"):
                p = getattr(self, name)
                if p is None and name.startswith("train"):
                    raise ValueError(f"{name} is required for idx datasets")
                if p is not None and not os.path.exists(p):
                    raise ValueError(f"{name}: file not found: {p}")
            if (self.test_images is None) != (self.test_labels is None):
                raise ValueError("test_images and test_labels must be given together")


@dataclasses.dataclass(frozen=True)
class EstimatorSection:
    kind: str = "closed_form"
    path: str | None = None

    def __post_init__(self):
        if self.kind not in ("closed_form", "energy", "identity"):
            raise ValueError(f"kind must be closed_form, energy or identity, got {self.kind!r}")
        if self.kind == "energy":
            if self.path is None:
                raise ValueError("path is required for kind=energy")
            if not os.path.exists(self.path):
                raise ValueError(f"path: file not found: {self.path}")


@dataclasses.dataclass(frozen=True)
class ClassifierSection:
    kind: str = "mlp"
    hidden: list[int] = dataclasses.field(default_factory=lambda: [64])
    weights: list[float] | None = None
    bias: float | None = None
    path: str | None = None

    def __post_init__(self):
        check_hidden(self.hidden)
        if self.kind not in ("mlp", "linear", "checkpoint"):
            raise ValueError(f"kind must be mlp, linear or checkpoint, got {self.kind!r}")
        if self.kind == "linear":
            if self.weights is None or self.bias is None:
                raise ValueError("weights and bias are required for kind=linear")
            if not any(self.weights):  # empty or all zero
                raise ValueError("weights must be a list of finite numbers, not all zero, "
                                 f"got {self.weights!r}")
        if self.kind == "checkpoint":
            if self.path is None:
                raise ValueError("path is required for kind=checkpoint")
            if not os.path.exists(self.path):
                raise ValueError(f"path: file not found: {self.path}")


@dataclasses.dataclass(frozen=True)
class CertifySection:
    max_points: int = 200
    workers: int = 1
    radius_grid: list[float] = dataclasses.field(default_factory=lambda: [0.5, 1.0, 1.5, 2.0])
    max_violations: int = 3

    def __post_init__(self):
        for name, low in (("max_points", 1), ("workers", 1), ("max_violations", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")


@dataclasses.dataclass(frozen=True)
class WalkJumpSection(WalkJumpConfig):
    """The sampler's WalkJumpConfig plus the harness's keys: how many chains
    to run, whether to dump chain 0's path, and the fine-scale energy."""

    n_samples: int = 256
    dump_trajectory: bool = False
    fine_energy_path: str | None = None

    def __post_init__(self):
        super().__post_init__()
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {self.n_samples}")
        if self.fine_energy_path is not None and not os.path.exists(self.fine_energy_path):
            raise ValueError(f"fine_energy_path: file not found: {self.fine_energy_path}")


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    sigma: float = 1.0
    output_dir: str = "runs/out"
    dataset: DatasetSection = dataclasses.field(
        default_factory=lambda: DatasetSection(means=[[0.0]]))
    confidence: ConfidenceSpec = dataclasses.field(default_factory=ConfidenceSpec)
    estimator: EstimatorSection = dataclasses.field(default_factory=EstimatorSection)
    classifier: ClassifierSection = dataclasses.field(default_factory=ClassifierSection)
    # energy_train.sigma defaults to the experiment sigma
    energy_train: EnergyTrainConfig = dataclasses.field(
        default_factory=lambda: EnergyTrainConfig(sigma=ExperimentConfig.sigma))
    train: ClassifierTrainConfig = dataclasses.field(default_factory=ClassifierTrainConfig)
    attack: AttackSpec = dataclasses.field(default_factory=AttackSpec)
    certify: CertifySection = dataclasses.field(default_factory=CertifySection)
    walk_jump: WalkJumpSection = dataclasses.field(default_factory=WalkJumpSection)

    def __post_init__(self):
        runs_attack(self.train, self.attack)
        wj, s0 = self.walk_jump, self.dataset.sigma0
        for key, scale in (("sigma", self.sigma), ("energy_train.sigma", self.energy_train.sigma),
                           ("walk_jump.delta", wj.delta), ("walk_jump.sigma_prime", wj.sigma_prime),
                           ("dataset.sigma0 (as sigma / sigma0)", self.sigma / s0 if s0 else 0.0)):
            if not math.isfinite(scale * scale):  # the code takes scale**2
                raise ValueError(f"{key} is out of range: the square of {scale!r} overflows")


def config_from_dict(data):
    """Build a validated ExperimentConfig from a plain dict."""
    if not isinstance(data, dict):
        raise ConfigError("top-level config must be an object")
    sigma = _check_type(data.get("sigma", ExperimentConfig.sigma), float, "sigma")
    if not sigma > 0.0:
        raise ConfigError(f"sigma must be positive, got {sigma}")
    energy = data.get("energy_train")  # its sigma defaults to the experiment sigma
    if energy is None or isinstance(energy, dict) and energy.get("sigma") is None:
        data = {**data, "energy_train": {**(energy or {}), "sigma": sigma}}
    return _build(ExperimentConfig, data)


def load_config(path, overrides=()):
    """Load a JSON experiment config, applying dotted-path overrides.

    Each override is "section.key=value" (or "key=value" at top level); the
    value is parsed as JSON when possible, else taken as a string.
    """
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("top-level config must be an object")
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        dotted, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = data
        parts = dotted.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override path {dotted!r} crosses a non-object")
        node[parts[-1]] = value
    return config_from_dict(data)


def config_digest(cfg):
    """Stable SHA-256 of the validated ExperimentConfig (sorted-key compact
    JSON of every field, defaults included), so a config digests the same
    however its numbers are spelled and whichever defaults it writes out."""
    canonical = json.dumps(dataclasses.asdict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()
