"""Experiment configuration: one JSON file per experiment, strictly validated.

Unknown keys are rejected rather than ignored, because a silently misspelled
noise scale or failure probability would invalidate every guarantee computed
downstream.  The confidence section is the library's own ConfidenceSpec; the
other sections mirror library config objects, which the harness builds at the
point of use through _build, so that their checks also fail as ConfigError.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import numbers
import os
import typing

from .adversarial import TRAIN_MODES
from .stats import ConfidenceSpec


class ConfigError(ValueError):
    """Raised for malformed or inconsistent experiment configuration."""


def _build(cls, data, path):
    """Construct a flat dataclass from a dict, rejecting unknown keys and
    values of the wrong type for int and list fields."""
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected an object, got {type(data).__name__}")
    hints = typing.get_type_hints(cls)
    for key, value in data.items():
        if key not in hints:
            raise ConfigError(f"unknown config key: {path}.{key}")
        _check_type(value, hints[key], f"{path}.{key}")
    try:
        return cls(**data)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _check_type(value, hint, name):
    """Reject a bool or float for an int field, a non-list for a list field
    and a bad element of a list[int] field, so that JSON such as 1e3, 5 or
    [2.5] fails here and not deep in a run."""
    of_list = typing.get_origin(hint) is list  # get_args(list[int]) is (int,)
    allowed = (list,) if of_list else typing.get_args(hint) or (hint,)
    if value is None and type(None) in allowed:
        return
    if int in allowed and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if list in allowed and not isinstance(value, list):
        raise ConfigError(f"{name} must be a list, got {value!r}")
    if of_list:
        (item,) = typing.get_args(hint)
        for i, element in enumerate(value):
            _check_type(element, item, f"{name}[{i}]")


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
            if self.sigma0 <= 0:
                raise ConfigError("dataset.sigma0 must be positive")
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
            if not _finite_number(self.bias):
                raise ConfigError(f"classifier.bias must be a finite number, got {self.bias!r}")
        if self.kind == "checkpoint":
            if self.path is None:
                raise ConfigError("classifier.path is required for kind=checkpoint")
            if not os.path.exists(self.path):
                raise ConfigError(f"classifier.path: file not found: {self.path}")


@dataclasses.dataclass(frozen=True)
class EnergyTrainSection:
    sigma: float | None = None  # defaults to the experiment sigma
    hidden: list[int] = dataclasses.field(default_factory=lambda: [128, 128])
    steps: int = 4000
    batch_size: int = 128
    lr: float = 1e-3
    lr_final: float | None = None


@dataclasses.dataclass(frozen=True)
class TrainSection:
    mode: str = "adversarial"
    steps: int = 1500
    batch_size: int = 64
    lr: float = 1e-3
    lr_final: float | None = None
    m: int = 1

    def __post_init__(self):
        if self.mode not in TRAIN_MODES:
            raise ConfigError(f"train.mode must be one of {TRAIN_MODES}, got {self.mode!r}")


@dataclasses.dataclass(frozen=True)
class AttackSection:
    epsilon: float = 1.0
    steps: int = 16
    step_size: float | None = None
    m: int = 1


@dataclasses.dataclass(frozen=True)
class CertifySection:
    max_points: int = 200
    workers: int = 1
    radius_grid: list = dataclasses.field(default_factory=lambda: [0.5, 1.0, 1.5, 2.0])
    max_violations: int = 3

    def __post_init__(self):
        if self.max_points < 0:
            raise ConfigError(f"certify.max_points must be >= 0, got {self.max_points}")


@dataclasses.dataclass(frozen=True)
class WalkJumpSection:
    sigma_prime: float = 0.05
    delta: float = 0.001
    tau: int = 100
    n_samples: int = 256
    dump_trajectory: bool = False
    fine_energy_path: str | None = None

    def __post_init__(self):
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
    energy_train: EnergyTrainSection = dataclasses.field(default_factory=EnergyTrainSection)
    train: TrainSection = dataclasses.field(default_factory=TrainSection)
    attack: AttackSection = dataclasses.field(default_factory=AttackSection)
    certify: CertifySection = dataclasses.field(default_factory=CertifySection)
    walk_jump: WalkJumpSection = dataclasses.field(default_factory=WalkJumpSection)


_SECTIONS = {
    "dataset": DatasetSection,
    "confidence": ConfidenceSpec,
    "estimator": EstimatorSection,
    "classifier": ClassifierSection,
    "energy_train": EnergyTrainSection,
    "train": TrainSection,
    "attack": AttackSection,
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
        if key in _SECTIONS:
            kwargs[key] = _build(_SECTIONS[key], value, key)
        elif key in _SCALARS:
            _check_type(value, _SCALARS[key], key)
            try:
                kwargs[key] = _SCALARS[key](value)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{key}: {exc}") from exc
        else:
            raise ConfigError(f"unknown config key: {key}")
    if "sigma" in kwargs and not 0.0 < kwargs["sigma"] < math.inf:
        raise ConfigError(f"sigma must be positive and finite, got {kwargs['sigma']}")
    return ExperimentConfig(**kwargs)


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


def config_digest(data):
    """Stable SHA-256 of the raw config dict (sorted-key compact JSON)."""
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()
