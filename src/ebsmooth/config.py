"""Experiment configuration: one JSON file per experiment, strictly validated.

Unknown keys are rejected rather than ignored, because a silently misspelled
noise scale or failure probability would invalidate every guarantee computed
downstream.  Each section that configures a library stage is that stage's
own config object: confidence is ConfidenceSpec, attack AttackSpec, train
ClassifierTrainConfig, energy_train EnergyTrainConfig, and walk_jump a
WalkJumpConfig with the harness's keys added.  Every section is checked
once, when the config is loaded, for every command: each value against its
field's annotation (an int field takes only integers, a float field only
finite numbers, a bool field only true or false), then the section's own
range checks, then the keys that must agree across sections.
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


def _build(cls, data, path):
    """Construct a flat dataclass from a dict, rejecting unknown keys and
    values of the wrong type.  The library classes' own checks raise
    ValueError with a message that starts with the field name, so it
    becomes a ConfigError naming path.field."""
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected an object, got {type(data).__name__}")
    hints = typing.get_type_hints(cls)
    for key in data:
        if key not in hints:
            raise ConfigError(f"unknown config key: {path}.{key}")
    data = {key: _check_type(value, hints[key], f"{path}.{key}") for key, value in data.items()}
    try:
        return cls(**data)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}.{exc}") from exc
    except TypeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _check_type(value, hint, name):
    """Reject a value that does not fit its field's annotation: a bool or
    float for an int field, a non-finite or non-numeric value for a float
    field, a non-bool for a bool field, a non-string for a string field, a
    non-list for a list field, and a bad element of a list[int] or
    list[float] field.  JSON such as 1e3, 5, NaN, [2.5] or a number for a
    path then fails here and not deep in a run.  Returns the value, with an
    integer for a float field made a float, so that 1 and 1.0 configure (and
    digest to) the same experiment."""
    of_list = typing.get_origin(hint) is list  # get_args(list[int]) is (int,)
    allowed = (list,) if of_list else typing.get_args(hint) or (hint,)
    if value is None and type(None) in allowed:
        return None
    if int in allowed and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if float in allowed:
        if not _finite_number(value):
            raise ConfigError(f"{name} must be a finite number, got {value!r}")
        value = float(value)
    if bool in allowed and not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false, got {value!r}")
    if str in allowed and not isinstance(value, str):
        raise ConfigError(f"{name} must be a string, got {value!r}")
    if list in allowed and not isinstance(value, list):
        raise ConfigError(f"{name} must be a list, got {value!r}")
    if of_list:
        (item,) = typing.get_args(hint)
        return [_check_type(element, item, f"{name}[{i}]") for i, element in enumerate(value)]
    return value


def _finite_number(value):
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


@dataclasses.dataclass(frozen=True)
class DatasetSection:
    kind: str = "gaussian_classes"
    means: list | None = None
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
            raise ConfigError(f"dataset.kind must be gaussian_classes or idx, got {self.kind!r}")
        if self.kind == "gaussian_classes":
            if self.means is None:
                raise ConfigError("dataset.means is required for gaussian_classes")
            rows = self.means
            if not (rows and all(isinstance(row, list) for row in rows) and rows[0]
                    and all(len(row) == len(rows[0]) for row in rows)
                    and all(_finite_number(v) for row in rows for v in row)):
                raise ConfigError("dataset.means must be a K x d list of lists of finite "
                                  f"numbers with K, d >= 1, got {rows!r}")
            object.__setattr__(self, "means", [[float(v) for v in row] for row in rows])
            if self.sigma0 <= 0:
                raise ConfigError("dataset.sigma0 must be positive")
            for name in ("n_train", "n_test"):
                count = getattr(self, name)
                if count < 1:
                    raise ConfigError(f"dataset.{name} must be >= 1, got {count}")
        if self.limit is not None and self.limit < 1:
            raise ConfigError(f"dataset.limit must be >= 1, got {self.limit}")
        if self.kind == "idx":
            for name in ("train_images", "train_labels"):
                p = getattr(self, name)
                if p is None:
                    raise ConfigError(f"dataset.{name} is required for idx datasets")
                if not os.path.exists(p):
                    raise ConfigError(f"dataset.{name}: file not found: {p}")
            for name in ("test_images", "test_labels"):
                p = getattr(self, name)
                if p is not None and not os.path.exists(p):
                    raise ConfigError(f"dataset.{name}: file not found: {p}")


@dataclasses.dataclass(frozen=True)
class EstimatorSection:
    kind: str = "closed_form"
    path: str | None = None

    def __post_init__(self):
        if self.kind not in ("closed_form", "energy", "identity"):
            raise ConfigError(
                f"estimator.kind must be closed_form, energy or identity, got {self.kind!r}"
            )
        if self.kind == "energy":
            if self.path is None:
                raise ConfigError("estimator.path is required for kind=energy")
            if not os.path.exists(self.path):
                raise ConfigError(f"estimator.path: file not found: {self.path}")


@dataclasses.dataclass(frozen=True)
class ClassifierSection:
    kind: str = "mlp"
    hidden: list[int] = dataclasses.field(default_factory=lambda: [64])
    weights: list | None = None
    bias: float | None = None
    path: str | None = None

    def __post_init__(self):
        check_hidden(self.hidden)
        if self.kind not in ("mlp", "linear", "checkpoint"):
            raise ConfigError(
                f"classifier.kind must be mlp, linear or checkpoint, got {self.kind!r}"
            )
        if self.kind == "linear":
            if self.weights is None or self.bias is None:
                raise ConfigError("classifier.weights and classifier.bias are required for linear")
            if not (self.weights and all(_finite_number(w) for w in self.weights)):
                raise ConfigError("classifier.weights must be a non-empty list of finite "
                                  f"numbers, got {self.weights!r}")
            object.__setattr__(self, "weights", [float(w) for w in self.weights])
            if not _finite_number(self.bias):
                raise ConfigError(f"classifier.bias must be a finite number, got {self.bias!r}")
        if self.kind == "checkpoint":
            if self.path is None:
                raise ConfigError("classifier.path is required for kind=checkpoint")
            if not os.path.exists(self.path):
                raise ConfigError(f"classifier.path: file not found: {self.path}")


@dataclasses.dataclass(frozen=True)
class CertifySection:
    max_points: int = 200
    workers: int = 1
    radius_grid: list[float] = dataclasses.field(default_factory=lambda: [0.5, 1.0, 1.5, 2.0])
    max_violations: int = 3

    def __post_init__(self):
        for name, low in (("max_points", 0), ("workers", 1), ("max_violations", 0)):
            if getattr(self, name) < low:
                raise ConfigError(f"certify.{name} must be >= {low}, got {getattr(self, name)}")


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
            raise ConfigError(f"walk_jump.n_samples must be >= 1, got {self.n_samples}")
        if self.fine_energy_path is not None and not os.path.exists(self.fine_energy_path):
            raise ConfigError(
                f"walk_jump.fine_energy_path: file not found: {self.fine_energy_path}"
            )


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    sigma: float = 1.0
    output_dir: str = "runs/out"
    dataset: DatasetSection = dataclasses.field(default_factory=lambda: _build(
        DatasetSection, {"means": [[0.0]]}, "dataset"))
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


_SECTIONS = {
    "dataset": DatasetSection,
    "confidence": ConfidenceSpec,
    "estimator": EstimatorSection,
    "classifier": ClassifierSection,
    "energy_train": EnergyTrainConfig,
    "train": ClassifierTrainConfig,
    "attack": AttackSpec,
    "certify": CertifySection,
    "walk_jump": WalkJumpSection,
}
_SCALARS = {"seed": int, "sigma": float, "output_dir": str}


def config_from_dict(data):
    """Build a validated ExperimentConfig from a plain dict."""
    if not isinstance(data, dict):
        raise ConfigError("top-level config must be an object")
    kwargs = {}
    for key, value in data.items():
        if key in _SCALARS:
            kwargs[key] = _check_type(value, _SCALARS[key], key)
        elif key not in _SECTIONS:
            raise ConfigError(f"unknown config key: {key}")
    sigma = kwargs.setdefault("sigma", ExperimentConfig.sigma)
    if not sigma > 0.0:
        raise ConfigError(f"sigma must be positive, got {sigma}")
    energy = data.get("energy_train")  # its sigma defaults to the experiment sigma
    if energy is None or isinstance(energy, dict) and energy.get("sigma") is None:
        data = {**data, "energy_train": {**(energy or {}), "sigma": sigma}}
    for key, cls in _SECTIONS.items():
        if key in data:
            kwargs[key] = _build(cls, data[key], key)
    cfg = ExperimentConfig(**kwargs)
    try:
        runs_attack(cfg.train, cfg.attack)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return cfg


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
    return config_from_dict(data), data


def config_digest(cfg):
    """Stable SHA-256 of the validated ExperimentConfig (sorted-key compact
    JSON of every field, defaults included), so a config digests the same
    however its numbers are spelled and whichever defaults it writes out."""
    canonical = json.dumps(dataclasses.asdict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()
