"""In-memory spans around the public functions of each ebsmooth layer.

`Tracer.install()` replaces each target in TARGETS (a module function or a
class method) with a wrapper that records a span: name, start, end, parent
and a unit count.  A module function is replaced in every ebsmooth
namespace that imported it, so `from .stats import binom_lower_bound` in
another module is traced too.  `rng_stream` is wrapped so that the
generator it returns times and counts its normal draws.  `uninstall()` puts
every original back.

Only public names are wrapped.  A target that no longer exists is skipped
and listed in `absent`; its metrics then read 0 and the report says so, so a
refactor that deletes a function never breaks the benchmark.

A span's self time is its duration minus the durations of its direct
children.  Times are summed per layer over one traced round.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time

import numpy as np


def _rows(a):
    shape = np.shape(a)
    return shape[0] if len(shape) > 1 else 1


def _arg_rows(i):
    return lambda args: _rows(args[i])


def _walk_steps(args):
    return args[2].tau * _rows(args[1])


# (span name, module, attribute path, unit count from the positional args,
# and the parent span under which a call is part of that parent's own work
# and records no span: the closed-form denoisers call smoothed_score, so
# densities.score counts only the sampler's direct calls)
TARGETS = (
    ("stats.bound", "ebsmooth.stats", "binom_lower_bound", None),
    ("stats.quantile", "ebsmooth.stats", "std_normal_inv_cdf", None),
    ("densities.denoise", "ebsmooth.densities", "IsoGaussian.bayes_estimate", _arg_rows(1)),
    ("densities.denoise", "ebsmooth.densities", "IsoMixture.bayes_estimate", _arg_rows(1)),
    ("densities.score", "ebsmooth.densities", "IsoGaussian.smoothed_score", None,
     "densities.denoise"),
    ("densities.score", "ebsmooth.densities", "IsoMixture.smoothed_score", None,
     "densities.denoise"),
    ("mlp.softplus", "ebsmooth.mlp", "softplus", lambda args: np.size(args[0])),
    ("mlp.adam", "ebsmooth.mlp", "Adam.step", None),
    ("classifiers.predict", "ebsmooth.classifiers", "LinearClassifier.predict_class",
     _arg_rows(1)),
    ("classifiers.predict", "ebsmooth.classifiers", "SoftClassifier.predict_class",
     _arg_rows(1)),
    ("classifiers.estimator", "ebsmooth.classifiers", "apply_estimator", None),
    ("classifiers.estimator", "ebsmooth.classifiers", "apply_estimator_vjp", None),
    ("energy.grad", "ebsmooth.energy", "EnergyNet.input_grad", _arg_rows(1)),
    ("energy.hvp", "ebsmooth.energy", "EnergyNet.input_hvp", _arg_rows(1)),
    ("energy.train_step", "ebsmooth.energy", "denoise_loss_and_grads", None),
    ("energy.train", "ebsmooth.energy", "train_energy", None),
    ("adversarial.train", "ebsmooth.adversarial", "train_xhat", None),
    ("adversarial.theta_grad", "ebsmooth.adversarial", "xhat_objective_theta_grads", None),
    ("certify.certify", "ebsmooth.certify", "certify", None),
    ("sampler.walk", "ebsmooth.sampler", "langevin_walk", _walk_steps),
    ("sampler.jump", "ebsmooth.sampler", "jump", None),
    ("datasets.gen", "ebsmooth.datasets", "gen_dataset", None),
    ("checkpoint.load", "ebsmooth.checkpoint", "load_checkpoint", None),
    ("checkpoint.save", "ebsmooth.checkpoint", "save_checkpoint", None),
    ("harness.csv", "ebsmooth.harness", "write_points_csv", None),
    ("harness.csv", "ebsmooth.harness", "write_curve_csv", None),
    ("harness.csv", "ebsmooth.harness", "write_training_log", None),
    ("harness.csv", "ebsmooth.harness", "write_manifest", None),
)
NORMAL_SPAN = "stats.normal"
RNG_TARGET = ("ebsmooth.stats", "rng_stream")

# Per-layer metrics: (name, unit, better, source, the end-to-end metric it
# should move and on which workload).  The end-to-end names are the report's:
# cert_ms_per_point, xhat_train_ms_per_step and the like are
# primary_ms_per_unit; cert_ms_per_point_nc1e3, walk_ms_per_chain and
# energy_train_ms_per_step are secondary_ms_per_unit.  A source
# "span:<name>:<field>" reads a span aggregate (calls, count or self
# seconds); "quality:<key>" reads a value the output checks returned;
# "run:<key>" is computed by run.py or by span_metrics.
W1, W2, W3 = "oracle-linear-d10", "mixture-mlp-d64", "energy-adv-train"
_CERT = f"cert_ms_per_point on {W1}, less on {W2}"
_FIXED = f"cert_ms_per_point on {W2} (nc=1e4) more than on {W1}; cert_ms_per_point_nc1e3 on {W1}"
_XHAT = f"xhat_train_ms_per_step on {W3}"
_EMLP = f"cert_ms_per_point on {W2}, both train metrics on {W3}"
_WALK = f"walk_ms_per_chain on {W2}"
_CERT_ALL = f"cert_ms_per_point on {W1} and {W2}"
_WALL = "wall_s and setup_s on every workload"
LAYER_METRICS = (
    ("stats.normal_draws", "count", "lower", "span:stats.normal:count", _CERT),
    ("stats.normal_s", "s", "lower", "span:stats.normal:self", _CERT),
    ("stats.bound_calls", "count", "lower", "span:stats.bound:calls", _FIXED),
    ("stats.bound_s", "s", "lower", "span:stats.bound:self", _FIXED),
    ("stats.quantile_calls", "count", "lower", "span:stats.quantile:calls", _FIXED),
    ("stats.quantile_s", "s", "lower", "span:stats.quantile:self", _FIXED),
    ("densities.denoise_points", "count", "lower", "span:densities.denoise:count",
     f"cert_ms_per_point on {W2}, almost nothing on {W1}"),
    ("densities.denoise_s", "s", "lower", "span:densities.denoise:self",
     f"cert_ms_per_point on {W2}, almost nothing on {W1}"),
    ("densities.score_calls", "count", "lower", "span:densities.score:calls", _WALK),
    ("densities.score_s", "s", "lower", "span:densities.score:self", _WALK),
    ("mlp.softplus_elems", "count", "lower", "span:mlp.softplus:count", _EMLP),
    ("mlp.softplus_s", "s", "lower", "span:mlp.softplus:self", _EMLP),
    ("mlp.adam_s", "s", "lower", "span:mlp.adam:self", f"both train metrics on {W3}"),
    ("classifiers.predict_points", "count", "lower", "span:classifiers.predict:count",
     f"cert_ms_per_point on {W2}, less on {W1}"),
    ("classifiers.predict_s", "s", "lower", "span:classifiers.predict:self",
     f"cert_ms_per_point on {W2}, less on {W1}"),
    ("classifiers.estimator_s", "s", "lower", "span:classifiers.estimator:self", _XHAT),
    ("energy.grad_points", "count", "lower", "span:energy.grad:count", _XHAT),
    ("energy.grad_s", "s", "lower", "span:energy.grad:self", _XHAT),
    ("energy.hvp_points", "count", "lower", "span:energy.hvp:count", _XHAT),
    ("energy.hvp_s", "s", "lower", "span:energy.hvp:self", _XHAT),
    ("energy.train_step_s", "s", "lower", "span:energy.train_step:self",
     f"energy_train_ms_per_step on {W3}"),
    ("energy.final_loss", "loss", "lower", "quality:energy_final_loss",
     f"none: a quality guard on {W3}"),
    ("adversarial.self_s", "s", "lower", "span:adversarial.train:self", _XHAT),
    ("adversarial.theta_grad_s", "s", "lower", "span:adversarial.theta_grad:self", _XHAT),
    ("adversarial.attack_success", "share", "higher", "quality:attack_success", _XHAT),
    ("adversarial.aborts", "count", "lower", "quality:aborts", _XHAT),
    ("adversarial.final_adv_loss", "loss", "lower", "quality:xhat_final_adv_loss",
     f"none: a quality guard on {W3}"),
    ("certify.points", "count", "higher", "span:certify.certify:calls", _CERT_ALL),
    ("certify.samples", "count", "lower", "run:certify.samples", _CERT_ALL),
    ("certify.point_ms_p50", "ms", "lower", "run:certify.point_ms_p50", _CERT_ALL),
    ("certify.point_ms_p90", "ms", "lower", "run:certify.point_ms_p90", _CERT_ALL),
    ("certify.self_s", "s", "lower", "span:certify.certify:self", _CERT_ALL),
    ("certify.certified_share", "share", "higher", "quality:certified_share", _CERT_ALL),
    ("certify.mean_cert_radius", "radius", "higher", "quality:mean_cert_radius",
     f"none: a quality guard on {W1} and {W2}"),
    ("certify.radius_to_oracle", "ratio", "higher", "quality:radius_to_oracle",
     f"none: a quality guard on {W1}"),
    ("certify.oracle_violations", "count", "lower", "quality:oracle_violations",
     f"none: a correctness guard on {W1}"),
    ("sampler.walk_steps", "count", "lower", "span:sampler.walk:count", _WALK),
    ("sampler.walk_s", "s", "lower", "span:sampler.walk:self", _WALK),
    ("sampler.jump_s", "s", "lower", "span:sampler.jump:self", _WALK),
    ("cli.import_s", "s", "lower", "run:cli.import_s",
     f"wall_s on every workload, most on walk-jump in {W2}"),
    ("datasets.gen_s", "s", "lower", "span:datasets.gen:self", _WALL),
    ("checkpoint.load_s", "s", "lower", "span:checkpoint.load:self", _WALL),
    ("checkpoint.save_s", "s", "lower", "span:checkpoint.save:self", _WALL),
    ("harness.csv_s", "s", "lower", "span:harness.csv:self", _WALL),
    ("trace_overhead_share", "share", "lower", "run:trace_overhead_share",
     "none: traced wall / untraced wall - 1 of one in-process round"),
)


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, units, rows]
        self.absent = set()
        self._stack = []
        self._undo = []

    def _open(self, name, units=0):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, units, 0])
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name):
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def _wrap(self, fn, name, units, quiet_under=None):
        tracer = self

        def count(args):
            try:
                return units(args) if units else 0
            except (IndexError, AttributeError, TypeError):
                return 0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if quiet_under and tracer._stack and tracer.spans[tracer._stack[-1]][0] == quiet_under:
                return fn(*args, **kwargs)
            tracer._open(name, count(args))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close()
        return traced

    def _traced_generator_class(self):
        tracer = self

        class TracedGenerator(np.random.Generator):
            def standard_normal(self, *args, **kwargs):
                span = tracer._open(NORMAL_SPAN)
                try:
                    out = super().standard_normal(*args, **kwargs)
                finally:
                    tracer._close()
                span[4] = np.size(out)
                span[5] = np.shape(out)[0] if np.ndim(out) else 1
                return out
        return TracedGenerator

    def _replace_everywhere(self, orig, new):
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "ebsmooth" or modname.startswith("ebsmooth.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, attr, new)
                    self._undo.append((module, attr, orig))

    def install(self):
        """Wrap every target that exists; record in absent the span names
        that have no target left."""
        installed = set()
        for name, modname, path, units, *quiet_under in TARGETS:
            owner = sys.modules.get(modname)
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            orig = vars(owner).get(attr) if owner is not None else None
            if not inspect.isfunction(orig):
                continue
            installed.add(name)
            if inspect.isclass(owner):
                setattr(owner, attr, self._wrap(orig, name, units, *quiet_under))
                self._undo.append((owner, attr, orig))
            else:
                self._replace_everywhere(orig, self._wrap(orig, name, units, *quiet_under))
        self.absent = {target[0] for target in TARGETS} - installed
        stats = sys.modules.get(RNG_TARGET[0])
        rng_stream = getattr(stats, RNG_TARGET[1], None)
        if not inspect.isfunction(rng_stream):
            self.absent.add(NORMAL_SPAN)
            return
        generator = self._traced_generator_class()

        @functools.wraps(rng_stream)
        def traced_rng_stream(*args, **kwargs):
            return generator(rng_stream(*args, **kwargs).bit_generator)
        self._replace_everywhere(rng_stream, traced_rng_stream)

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)


def span_metrics(spans):
    """Per-layer aggregates of one traced round.

    Returns {"span:<name>:calls"|":count"|":self": value} plus the
    certification figures that need the span tree: certify.samples (noise
    rows drawn inside certify spans) and the p50/p90 certify span duration.
    """
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    in_certify = [False] * len(spans)
    point_ms = []
    samples = 0
    for i, (name, start, end, parent, units, rows) in enumerate(spans):
        key = f"span:{name}"
        out[f"{key}:calls"] = out.get(f"{key}:calls", 0) + 1
        out[f"{key}:count"] = out.get(f"{key}:count", 0) + units
        out[f"{key}:self"] = out.get(f"{key}:self", 0.0) + (end - start) - child_time[i]
        in_certify[i] = name == "certify.certify" or (parent >= 0 and in_certify[parent])
        if name == "certify.certify":
            point_ms.append(1e3 * (end - start))
        elif name == NORMAL_SPAN and in_certify[i]:
            samples += rows
    p50, p90 = np.percentile(point_ms, [50, 90]) if point_ms else (0.0, 0.0)
    out["run:certify.samples"] = samples
    out["run:certify.point_ms_p50"] = float(p50)
    out["run:certify.point_ms_p90"] = float(p90)
    return out
