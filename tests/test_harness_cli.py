import concurrent.futures
import gc
import json
import os
import pathlib
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest

import ebsmooth.harness as harness
from ebsmooth.cli import _FLAGS, main
from ebsmooth.config import ConfigError, ExperimentConfig, config_from_dict, load_config
from ebsmooth.harness import COMMANDS, certify_points, write_csv, write_curve_csv
from ebsmooth.adversarial import AttackSpec, ClassifierTrainConfig
from ebsmooth.certify import CertResult, OracleResult
from ebsmooth.checkpoint import load_checkpoint, save_checkpoint
from ebsmooth.classifiers import EbClassifier, LinearClassifier, SoftClassifier
from ebsmooth.densities import IsoMixture
from ebsmooth.energy import EnergyNet
from ebsmooth.stats import ConfidenceSpec, RowStreams, rng_stream

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
# oracle-check referees only one centred Gaussian; write_cfg's default
# dataset is a two-component mixture
CENTRED = {"dataset": {"means": [[0.0, 0.0]]}}


def write_cfg(tmp_path, extra=None, name="cfg.json"):
    cfg = {
        "seed": 5,
        "sigma": 1.0,
        "output_dir": str(tmp_path / "out"),
        "dataset": {
            "kind": "gaussian_classes",
            "means": [[2.0, 0.0], [-2.0, 0.0]],
            "sigma0": 1.0,
            "n_train": 200,
            "n_test": 40,
        },
        "confidence": {"alpha": 0.001, "n0": 50, "nc": 2000},
        "classifier": {"kind": "linear", "weights": [1.0, 0.0], "bias": 0.1},
        "certify": {"max_points": 12, "workers": 1, "radius_grid": [0.0, 0.5, 1.0]},
    }
    if extra:
        for key, value in extra.items():
            if isinstance(value, dict):
                cfg.setdefault(key, {}).update(value)
            else:
                cfg[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


class TestConfig:
    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key: sgima"):
            config_from_dict({"sgima": 1.0})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigError, match="confidence.alhpa"):
            config_from_dict({"confidence": {"alhpa": 0.01}})

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(path)

    def test_override_paths(self, tmp_path):
        path = write_cfg(tmp_path)
        cfg = load_config(path, ["confidence.nc=777", "sigma=0.5"])
        assert cfg.confidence.nc == 777
        assert cfg.sigma == 0.5

    def test_referenced_files_must_exist(self, tmp_path):
        with pytest.raises(ConfigError, match="file not found"):
            config_from_dict({
                "dataset": {"kind": "idx", "train_images": str(tmp_path / "x"),
                            "train_labels": str(tmp_path / "y")},
            })

    def test_bad_mode_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="train.mode"):
            config_from_dict({"train": {"mode": "nonsense"}})

    def test_no_estimator_mode_is_estimator_kind_identity(self, tmp_path, capsys):
        # training without a denoiser is spelled estimator.kind=identity; the
        # error lists the two modes and names that spelling
        path = write_cfg(tmp_path)
        assert main(["train-xhat", "-c", str(path), "--mode", "no_estimator",
                     "--set", "train.steps=1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: train.mode"), err
        assert "('adversarial', 'no_attack')" in err and "estimator.kind=identity" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", ["mixture_experiment.json", "oracle_check.json"])
    def test_demo_configs_load_every_key(self, name):
        path = pathlib.Path(__file__).resolve().parents[1] / "demos" / "configs" / name
        cfg = load_config(path)
        for key, value in json.loads(path.read_text()).items():
            if isinstance(value, dict):
                for field, item in value.items():
                    assert getattr(getattr(cfg, key), field) == item, f"{key}.{field}"
            else:
                assert getattr(cfg, key) == value, key
        assert cfg.energy_train.sigma == cfg.sigma

    def test_attack_m_must_equal_train_m(self):
        # the attack and the loss share one noise list per example, so a
        # config that runs the attack cannot be built with the two apart
        with pytest.raises(ValueError, match=r"attack\.m \(2\) must equal train\.m \(1\)"):
            ExperimentConfig(train=ClassifierTrainConfig(m=1), attack=AttackSpec(m=2))

    def test_section_defaults(self):
        cfg = ExperimentConfig()
        a, t, e, w = cfg.attack, cfg.train, cfg.energy_train, cfg.walk_jump
        assert (a.epsilon, a.steps, a.m) == (1.0, 16, 1)
        assert (t.mode, t.steps, t.batch_size, t.lr, t.m) == ("adversarial", 1500, 64, 1e-3, 1)
        assert (e.hidden, e.steps, e.batch_size, e.lr) == ([128, 128], 4000, 128, 1e-3)
        assert (w.sigma_prime, w.delta, w.tau, w.n_samples, w.dump_trajectory,
                w.fine_energy_path) == (0.05, 0.001, 100, 256, False, None)
        # an empty config is the defaults; energy_train.sigma follows sigma
        assert config_from_dict({}) == cfg
        assert config_from_dict({"sigma": 0.25}).energy_train.sigma == 0.25
        assert config_from_dict({"energy_train": {"sigma": 0.5}}).energy_train.sigma == 0.5


class TestCliExitCodes:
    def test_config_error_is_1(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"bogus_key": 1}))
        assert main(["certify", "-c", str(path)]) == 1

    def test_missing_config_is_1(self, tmp_path):
        assert main(["certify", "-c", str(tmp_path / "none.json")]) == 1

    @pytest.mark.parametrize("magic, n, rows, cols", [
        (0xDEAD, 1, 2, 2),  # bad magic
        (0x803, 0, 2, 2),  # no images
        (0x803, 3, 0, 5),  # images of no pixels
    ], ids=["bad-magic", "zero-images", "zero-size-images"])
    def test_corrupt_idx_is_3(self, tmp_path, capsys, magic, n, rows, cols):
        # an empty file or zero-size images used to end in a traceback or a
        # header-only CSV
        img = tmp_path / "im.idx"
        lab = tmp_path / "lb.idx"
        img.write_bytes(struct.pack(">IIII", magic, n, rows, cols) + b"\x00" * (n * rows * cols))
        lab.write_bytes(struct.pack(">II", 0x801, n) + b"\x00" * n)
        path = write_cfg(tmp_path, extra={"dataset": {
            "kind": "idx", "means": None,
            "train_images": str(img), "train_labels": str(lab),
        }})
        assert main(["gen-data", "-c", str(path)]) == 3
        assert capsys.readouterr().err.startswith(f"i/o error: {tmp_path}")
        assert not (tmp_path / "out").exists()

    def test_linear_type_tag_is_3(self, tmp_path, capsys):
        # type tag 3 (a linear classifier) is no longer a checkpoint type
        lin = tmp_path / "lin.ckpt"
        lin.write_bytes(b"EBCK" + struct.pack("<IIdIII", 1, 3, 0.0, 2, 2, 1)
                        + struct.pack("<3d", 1.0, 0.0, 0.1))
        path = write_cfg(tmp_path, extra={"classifier": {
            "kind": "checkpoint", "path": str(lin), "weights": None, "bias": None}})
        assert main(["certify", "-c", str(path)]) == 3
        err = capsys.readouterr().err
        assert err == "i/o error: unknown checkpoint type tag 3\n", err

    def test_nan_energy_is_2(self, tmp_path):
        from ebsmooth.checkpoint import save_checkpoint
        from ebsmooth.energy import EnergyNet
        from ebsmooth.stats import rng_stream

        net = EnergyNet.init(2, (8,), 1.0, rng_stream(0, 1))
        net.weights[0][:] = np.nan
        save_checkpoint(tmp_path / "nan.ckpt", net)
        path = write_cfg(tmp_path, extra={
            "estimator": {"kind": "energy", "path": str(tmp_path / "nan.ckpt")},
        })
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["certify", "-c", str(path)]) == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_nan_energy_gradient_is_2_and_saves_nothing(self, tmp_path, monkeypatch):
        import ebsmooth.energy as energy

        real = energy.denoise_loss_and_grads
        steps = 6
        calls = []

        def nan_on_last(net, x, y):
            loss, grads = real(net, x, y)
            calls.append(loss)
            if len(calls) == steps:
                grads[0] = np.full_like(grads[0], np.nan)
            return loss, grads

        monkeypatch.setattr(energy, "denoise_loss_and_grads", nan_on_last)
        path = write_cfg(tmp_path, extra={
            "energy_train": {"hidden": [8], "steps": steps, "batch_size": 16},
        })
        assert main(["train-energy", "-c", str(path)]) == 2
        assert len(calls) == steps
        assert not (tmp_path / "out" / "energy.ckpt").exists()

    def test_success_is_0(self, tmp_path):
        path = write_cfg(tmp_path)
        assert main(["gen-data", "-c", str(path)]) == 0

    @pytest.mark.parametrize("override", [["--seed", "1"], ["--set", "x.y=1"]])
    def test_overrides_on_a_non_object_config_are_1(self, tmp_path, capsys, override):
        # these used to die with TypeError and AttributeError tracebacks
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]")
        assert main(["gen-data", "-c", str(path), *override]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: top-level config must be an object"), err

    def test_numeric_output_dir_flag_is_a_string(self, tmp_path, monkeypatch):
        # a flag keeps its argparse type, so 123 is the directory name "123",
        # while --set output_dir=123 is a JSON integer and a config error
        monkeypatch.chdir(tmp_path)
        path = write_cfg(tmp_path)
        assert main(["gen-data", "-c", str(path), "--output-dir", "123"]) == 0
        assert (tmp_path / "123" / "train.csv").exists()
        assert main(["gen-data", "-c", str(path), "--set", "output_dir=123"]) == 1

    @pytest.mark.parametrize("flag, key, value", [
        (flag, key, {"seed": "7", "sigma": "0.5", "output_dir": "flagged",
                     "confidence.alpha": "0.01", "confidence.n0": "10",
                     "confidence.nc": "100", "attack.epsilon": "0.5",
                     "train.mode": "no_attack", "certify.workers": "2",
                     "certify.max_points": "3"}[key])
        for flag, _, key in _FLAGS
    ])
    def test_each_flag_is_its_set_override(self, tmp_path, monkeypatch, flag, key, value):
        # same raw config, so the same manifest config_sha256
        monkeypatch.chdir(tmp_path)
        path = write_cfg(tmp_path)
        digests = []
        for args in ([flag, value], ["--set", f"{key}={value}"]):
            assert main(["gen-data", "-c", str(path), *args]) == 0
            outdir = "flagged" if key == "output_dir" else tmp_path / "out"
            manifest = pathlib.Path(outdir) / "gen_data_manifest.json"
            digests.append(json.loads(manifest.read_text())["config_sha256"])
        assert digests[0] == digests[1]

    @pytest.mark.parametrize("flag, key", [("--sigma", "sigma"),
                                           ("--epsilon", "attack.epsilon"),
                                           (None, "dataset.sigma0"),
                                           (None, "classifier.bias")])
    def test_digest_does_not_depend_on_number_spelling(self, tmp_path, flag, key):
        # --sigma 1 reaches the config as 1.0, --set sigma=1 as 1: one
        # experiment, so one config_sha256
        path = write_cfg(tmp_path)
        spellings = [["--set", f"{key}=1"], ["--set", f"{key}=1.0"]]
        if flag:
            spellings.append([flag, "1"])
        digests = set()
        for args in spellings:
            assert main(["gen-data", "-c", str(path), *args]) == 0
            manifest = tmp_path / "out" / "gen_data_manifest.json"
            digests.add(json.loads(manifest.read_text())["config_sha256"])
        assert len(digests) == 1
        assert main(["gen-data", "-c", str(path), "--set", f"{key}=2"]) == 0
        assert json.loads(manifest.read_text())["config_sha256"] not in digests

    def test_digest_counts_defaults_written_out(self, tmp_path):
        path = write_cfg(tmp_path)
        digests = set()
        for args in ([], ["--set", "attack.steps=16"]):  # 16 is the default
            assert main(["gen-data", "-c", str(path), *args]) == 0
            manifest = tmp_path / "out" / "gen_data_manifest.json"
            digests.add(json.loads(manifest.read_text())["config_sha256"])
        assert len(digests) == 1


class TestGenData:
    def test_writes_deterministic_csvs(self, tmp_path):
        path = write_cfg(tmp_path)
        assert main(["gen-data", "-c", str(path)]) == 0
        train1 = (tmp_path / "out" / "train.csv").read_bytes()
        test1 = (tmp_path / "out" / "test.csv").read_bytes()
        assert main(["gen-data", "-c", str(path)]) == 0
        assert (tmp_path / "out" / "train.csv").read_bytes() == train1
        assert (tmp_path / "out" / "test.csv").read_bytes() == test1

    def test_manifest_written(self, tmp_path):
        path = write_cfg(tmp_path)
        main(["gen-data", "-c", str(path)])
        manifest = json.loads((tmp_path / "out" / "gen_data_manifest.json").read_text())
        assert manifest["seed"] == 5
        assert "config_sha256" in manifest and "wall_time_s" in manifest
        assert manifest["version"].startswith("ebsmooth-v")


class TestCertifyCli:
    def test_points_and_curve(self, tmp_path):
        path = write_cfg(tmp_path)
        assert main(["curve", "-c", str(path)]) == 0
        points = (tmp_path / "out" / "points.csv").read_text().splitlines()
        assert points[0] == "index,true_label,predicted,pa_lower,radius,abstain"
        assert len(points) == 13
        curve = (tmp_path / "out" / "curve.csv").read_text().splitlines()
        accs = [float(line.split(",")[1]) for line in curve[1:]]
        assert accs == sorted(accs, reverse=True)  # nonincreasing in radius

    def test_rerun_byte_identical(self, tmp_path):
        path = write_cfg(tmp_path)
        main(["curve", "-c", str(path)])
        first = (tmp_path / "out" / "points.csv").read_bytes()
        first_curve = (tmp_path / "out" / "curve.csv").read_bytes()
        main(["curve", "-c", str(path)])
        assert (tmp_path / "out" / "points.csv").read_bytes() == first
        assert (tmp_path / "out" / "curve.csv").read_bytes() == first_curve

    def test_worker_count_does_not_change_results(self, tmp_path):
        path = write_cfg(tmp_path)
        main(["certify", "-c", str(path), "--workers", "1"])
        serial = (tmp_path / "out" / "points.csv").read_bytes()
        main(["certify", "-c", str(path), "--workers", "2"])
        assert (tmp_path / "out" / "points.csv").read_bytes() == serial

    def test_empty_test_set_succeeds(self, tmp_path, capsys):
        path = write_cfg(tmp_path, extra={"certify": {"max_points": 0}})
        assert main(["curve", "-c", str(path)]) == 0
        out = capsys.readouterr().out
        assert "warning" in out
        curve = (tmp_path / "out" / "curve.csv").read_text().splitlines()
        assert curve == ["radius,certified_accuracy,certified_correct,total"]

    def test_flag_overrides_reach_the_run(self, tmp_path):
        path = write_cfg(tmp_path)
        assert main(["certify", "-c", str(path), "--max-points", "3"]) == 0
        points = (tmp_path / "out" / "points.csv").read_text().splitlines()
        assert len(points) == 4


class TestTrainCli:
    def test_train_energy_and_reuse(self, tmp_path):
        path = write_cfg(tmp_path, extra={
            "energy_train": {"hidden": [16], "steps": 60, "batch_size": 32},
        })
        assert main(["train-energy", "-c", str(path)]) == 0
        assert (tmp_path / "out" / "energy.ckpt").exists()
        log = (tmp_path / "out" / "energy_train_log.csv").read_text().splitlines()
        assert log[0] == "step,loss"
        assert len(log) == 61

    def test_train_xhat_reruns_bitwise(self, tmp_path):
        path = write_cfg(tmp_path, extra={
            "train": {"steps": 25, "batch_size": 16, "mode": "adversarial"},
            "attack": {"epsilon": 0.5, "steps": 3},
            "classifier": {"kind": "mlp", "hidden": [8], "weights": None, "bias": None},
        })
        assert main(["train-xhat", "-c", str(path)]) == 0
        ckpt = (tmp_path / "out" / "classifier.ckpt").read_bytes()
        log = (tmp_path / "out" / "training_log.csv").read_bytes()
        assert main(["train-xhat", "-c", str(path)]) == 0
        assert (tmp_path / "out" / "classifier.ckpt").read_bytes() == ckpt
        assert (tmp_path / "out" / "training_log.csv").read_bytes() == log
        header = log.decode().splitlines()[0]
        assert header == "step,clean_loss,adv_loss,attack_success,aborted"

    def test_classifier_has_every_dataset_class(self, tmp_path):
        # two training points of three classes draw labels 0 and 1 only; the
        # classifier is still sized from the dataset, so the test split's
        # class 2 can be predicted
        path = write_cfg(tmp_path, extra={
            "train": {"steps": 3, "batch_size": 4, "mode": "no_attack"},
            "classifier": {"kind": "mlp", "hidden": [8], "weights": None, "bias": None},
            "dataset": {"means": [[2.0, 0.0], [-2.0, 0.0], [0.0, 2.0]], "n_train": 2,
                        "n_test": 30},
        })
        assert main(["train-xhat", "-c", str(path)]) == 0
        assert load_checkpoint(tmp_path / "out" / "classifier.ckpt").n_classes == 3

    def test_idx_classes_come_from_every_label_file(self, tmp_path):
        # the first four training labels hold no class 2; the fifth training
        # label and the test labels do, so both splits and the classifier
        # have three classes
        files = {}
        for split, labels in (("train", [0, 1, 0, 1, 2]), ("test", [2, 2, 0, 1, 2, 0])):
            img, lab = tmp_path / f"{split}-im.idx", tmp_path / f"{split}-lb.idx"
            pixels = rng_stream(0, len(labels)).integers(0, 256, 4 * len(labels))
            img.write_bytes(struct.pack(">IIII", 0x803, len(labels), 2, 2)
                            + bytes(pixels.tolist()))
            lab.write_bytes(struct.pack(">II", 0x801, len(labels)) + bytes(labels))
            files.update({f"{split}_images": str(img), f"{split}_labels": str(lab)})
        path = write_cfg(tmp_path, extra={
            "dataset": {"kind": "idx", "means": None, "limit": 4, **files},
            "estimator": {"kind": "identity"},
            "train": {"steps": 3, "batch_size": 4, "mode": "no_attack"},
            "classifier": {"kind": "mlp", "hidden": [8], "weights": None, "bias": None},
        })
        cfg = load_config(path)
        for split in ("train", "test"):
            assert harness.resolve_split(cfg, split).n_classes == 3
        assert main(["train-xhat", "-c", str(path)]) == 0
        assert load_checkpoint(tmp_path / "out" / "classifier.ckpt").widths[-1] == 3

    def test_certify_trained_checkpoint(self, tmp_path):
        path = write_cfg(tmp_path, extra={
            "train": {"steps": 40, "batch_size": 32, "mode": "no_attack"},
            "attack": {"epsilon": 0.0, "steps": 1},
            "classifier": {"kind": "mlp", "hidden": [8], "weights": None, "bias": None},
            "dataset": {"sigma0": 0.4},
            "sigma": 0.3,
        })
        assert main(["train-xhat", "-c", str(path)]) == 0
        ckpt = str(tmp_path / "out" / "classifier.ckpt")
        assert main(["certify", "-c", str(path),
                     "--set", f"classifier.path={ckpt}",
                     "--set", "classifier.kind=checkpoint"]) == 0
        assert (tmp_path / "out" / "points.csv").exists()


class TestWalkJumpCli:
    def test_learned_energy_sources(self, tmp_path):
        from ebsmooth.checkpoint import save_checkpoint
        from ebsmooth.energy import EnergyNet
        from ebsmooth.stats import rng_stream

        coarse = EnergyNet.init(2, (8,), 1.0, rng_stream(0, 1))
        fine = EnergyNet.init(2, (8,), 0.05, rng_stream(0, 2))
        save_checkpoint(tmp_path / "coarse.ckpt", coarse)
        save_checkpoint(tmp_path / "fine.ckpt", fine)
        path = write_cfg(tmp_path, extra={
            "estimator": {"kind": "energy", "path": str(tmp_path / "coarse.ckpt")},
            "walk_jump": {"n_samples": 4, "tau": 5,
                          "fine_energy_path": str(tmp_path / "fine.ckpt")},
        })
        assert main(["walk-jump", "-c", str(path)]) == 0
        samples = (tmp_path / "out" / "samples.csv").read_text().splitlines()
        assert len(samples) == 5

    def test_samples_and_trajectory(self, tmp_path):
        # at these means a one-chain walk, which sums its matmuls in another
        # order than the batch, drifts from chain 0 of the batch by ulps
        means = 2.0 * rng_stream(9, 7).standard_normal((4, 2))
        path = write_cfg(tmp_path, extra={
            "dataset": {"means": means.tolist()},
            "walk_jump": {"n_samples": 8, "tau": 20, "dump_trajectory": True},
        })
        assert main(["walk-jump", "-c", str(path)]) == 0
        samples = (tmp_path / "out" / "samples.csv").read_text().splitlines()
        assert len(samples) == 9
        traj = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
        assert traj[0] == "step,x0,x1,energy"
        assert len(traj) == 22  # tau + 1 rows plus header
        # the dump is chain 0's path in the batched walk behind samples.csv,
        # bit for bit
        from ebsmooth.densities import IsoMixture
        from ebsmooth.harness import STREAM_WALK_BASE
        from ebsmooth.sampler import WalkJumpConfig, walk_jump

        rows = np.loadtxt(tmp_path / "out" / "samples.csv", delimiter=",", skiprows=1)
        mix = IsoMixture(means=means, sigma0=1.0)
        chains = RowStreams((rng_stream(5, STREAM_WALK_BASE + i) for i in range(8)), 20)
        outs, path = walk_jump(mix, mix, rows[:, 1:3], 1.0, WalkJumpConfig(tau=20), chains,
                               record=0)
        dumped = np.loadtxt(tmp_path / "out" / "trajectory.csv", delimiter=",", skiprows=1)
        assert np.array_equal(dumped[:, 1:3], path)
        assert np.array_equal(rows[:, 3:], outs)

    def test_rerun_byte_identical(self, tmp_path):
        path = write_cfg(tmp_path, extra={"walk_jump": {"n_samples": 5, "tau": 10}})
        main(["walk-jump", "-c", str(path)])
        first = (tmp_path / "out" / "samples.csv").read_bytes()
        main(["walk-jump", "-c", str(path)])
        assert (tmp_path / "out" / "samples.csv").read_bytes() == first

    @staticmethod
    def _energy_sources(tmp_path, dim, nan=None):
        paths = {}
        for name, sigma, stream in (("coarse", 1.0, 1), ("fine", 0.05, 2)):
            net = EnergyNet.init(dim, (8,), sigma, rng_stream(0, stream))
            if name == nan:
                net.weights[0][:] = np.nan
            paths[name] = tmp_path / f"{name}.ckpt"
            save_checkpoint(paths[name], net)
        return {
            "estimator": {"kind": "energy", "path": str(paths["coarse"])},
            "walk_jump": {"n_samples": 7, "tau": 30, "fine_energy_path": str(paths["fine"])},
        }

    @pytest.mark.parametrize("source", ["mixture", "energy", "mixture-energy"])
    def test_batch_equals_chains_walked_alone(self, tmp_path, source):
        # every row of samples.csv is its chain walked alone on its own keyed
        # stream, up to the summation order of the batched matmuls
        from ebsmooth.harness import STREAM_WALK_BASE, load_energy
        from ebsmooth.densities import IsoMixture
        from ebsmooth.sampler import WalkJumpConfig, walk_jump

        means = rng_stream(9, 0).standard_normal((4, 6))
        extra = {"dataset": {"means": means.tolist()},
                 "walk_jump": {"n_samples": 7, "tau": 30}}
        if source != "mixture":
            extra.update(self._energy_sources(tmp_path, 6))
        if source == "mixture-energy":  # the closed-form coarse source, a learned fine one
            del extra["estimator"]
        path = write_cfg(tmp_path, extra=extra)
        assert main(["walk-jump", "-c", str(path)]) == 0
        rows = np.loadtxt(tmp_path / "out" / "samples.csv", delimiter=",", skiprows=1)
        noisy, got = rows[:, 1:7], rows[:, 7:]
        coarse = fine = IsoMixture(means=means, sigma0=1.0)
        if source == "energy":
            coarse = load_energy(extra["estimator"]["path"], 1.0, "coarse", 6)
        if source != "mixture":
            fine = load_energy(extra["walk_jump"]["fine_energy_path"], 0.05, "fine", 6)
        cfg = WalkJumpConfig(sigma_prime=0.05, delta=0.001, tau=30)
        for i in range(7):
            alone = walk_jump(coarse, fine, noisy[i:i + 1], 1.0, cfg,
                              rng_stream(5, STREAM_WALK_BASE + i))
            np.testing.assert_allclose(got[i], alone[0], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("nan, stage", [("coarse", "coarse estimate"),
                                            ("fine", "iterate at walk step 0")])
    def test_nan_energy_is_2_and_writes_no_row(self, tmp_path, capsys, nan, stage):
        path = write_cfg(tmp_path, extra=self._energy_sources(tmp_path, 2, nan=nan))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["walk-jump", "-c", str(path)]) == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert err == f"numerical failure: non-finite {stage} in chain 0\n"
        samples = tmp_path / "out" / "samples.csv"
        assert not samples.exists() or "nan" not in samples.read_text().lower()


class TestOracleCheckCli:
    def test_passes_on_sound_pipeline(self, tmp_path):
        path = write_cfg(tmp_path, extra={
            "dataset": {"means": [[0.0, 0.0]], "n_test": 15},
            "classifier": {"kind": "linear", "weights": [1.0, -0.5], "bias": 0.4},
            "certify": {"max_points": 15},
        })
        assert main(["oracle-check", "-c", str(path)]) == 0
        lines = (tmp_path / "out" / "oracle.csv").read_text().splitlines()
        assert len(lines) == 16

    def test_over_allowance_is_2_and_keeps_its_files(self, tmp_path, monkeypatch, capsys):
        # an oracle whose radius is below any certificate makes every point a
        # radius violation
        monkeypatch.setattr(harness, "linear_gaussian_oracle",
                            lambda *args: OracleResult(predicted=0, radius=-1.0))
        path = write_cfg(tmp_path, extra=CENTRED)
        assert main(["oracle-check", "-c", str(path), "--max-points", "4"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and "exceed the allowed 3" in err, err
        out = tmp_path / "out"
        assert sorted(os.listdir(out)) == ["oracle.csv", "oracle_check_manifest.json"]
        assert len((out / "oracle.csv").read_text().splitlines()) == 5
        manifest = json.loads((out / "oracle_check_manifest.json").read_text())
        assert manifest["outputs"] == ["oracle.csv"]


class TestProcessExit:
    """`python -m ebsmooth` freezes the collector's objects before it exits;
    an in-process main() must not."""

    def test_in_process_main_does_not_freeze(self, tmp_path):
        path = write_cfg(tmp_path)
        before = gc.get_freeze_count()
        assert main(["curve", "-c", str(path), "--max-points", "3", "--workers", "2"]) == 0
        assert gc.get_freeze_count() == before

    def test_module_over_allowance_is_2_and_keeps_its_files(self, tmp_path):
        # alpha = 0.9 makes an unsound bound, so at nc = 20 many certificates
        # exceed the exact radius
        path = write_cfg(tmp_path, extra=CENTRED)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-m", "ebsmooth", "oracle-check", "-c", str(path),
             "--alpha", "0.9", "--nc", "20", "--set", "certify.max_violations=0"],
            env=env, capture_output=True, text=True, timeout=300)
        assert out.returncode == 2, out.stderr
        assert out.stderr.startswith("numerical failure:") and "exceed the allowed 0" in out.stderr
        outdir = tmp_path / "out"
        assert sorted(os.listdir(outdir)) == ["oracle.csv", "oracle_check_manifest.json"]
        assert len((outdir / "oracle.csv").read_text().splitlines()) == 13
        manifest = json.loads((outdir / "oracle_check_manifest.json").read_text())
        assert manifest["outputs"] == ["oracle.csv"]


# the files each command writes; walk-jump adds trajectory.csv with dump_trajectory
_COMMAND_OUTPUTS = {
    "gen-data": (["train.csv", "test.csv"], []),
    "train-energy": (["energy.ckpt", "energy_train_log.csv"],
                     ["--set", "energy_train.steps=3", "--set", "energy_train.hidden=[4]"]),
    "train-xhat": (["classifier.ckpt", "training_log.csv"],
                   ["--mode", "no_attack", "--set", "train.steps=3",
                    "--set", "classifier.hidden=[4]"]),
    "certify": (["points.csv"], ["--max-points", "3"]),
    "curve": (["points.csv", "curve.csv"], ["--max-points", "3"]),
    "walk-jump": (["samples.csv"],
                  ["--set", "walk_jump.n_samples=2", "--set", "walk_jump.tau=2"]),
    "oracle-check": (["oracle.csv"], ["--max-points", "3"]),
}


class TestManifests:
    def test_every_command_is_covered(self):
        assert set(_COMMAND_OUTPUTS) == set(COMMANDS)

    @pytest.mark.parametrize("command, dump", [
        *((command, False) for command in COMMANDS), ("walk-jump", True)])
    def test_manifest_lists_exactly_the_files_written(self, tmp_path, command, dump):
        outputs, args = _COMMAND_OUTPUTS[command]
        if dump:
            outputs = [*outputs, "trajectory.csv"]
            args = [*args, "--set", "walk_jump.dump_trajectory=true"]
        path = write_cfg(tmp_path, extra=CENTRED if command == "oracle-check" else None)
        assert main([command, "-c", str(path), *args]) == 0
        name = command.replace("-", "_") + "_manifest.json"
        out = tmp_path / "out"
        assert sorted(os.listdir(out)) == sorted([*outputs, name])
        manifest = json.loads((out / name).read_text())
        assert manifest["outputs"] == sorted(outputs)
        assert manifest["command"] == " ".join(["ebsmooth", command, "-c", str(path), *args])


class TestWriteCsv:
    def test_text_is_the_per_value_spelling(self, tmp_path):
        # every CSV the commands write goes through write_csv: floats at 17
        # significant digits as format(float(v), ".17g") spells them, any
        # other value as str(v); a writer change that moves a byte fails here
        rows = [
            [0.0, -0.0, 5e-324, -5e-324, float("inf"), float("-inf"), float("nan")],
            [0.1, 1e16, 1 / 3, -2.5e-310, 1.7976931348623157e308, 123456789.0, 1.0],
            [np.float64(0.1), np.float64(-0.0), np.float64(np.nan), np.float64(-np.inf),
             np.float64(1e16), np.float64(2.0), np.float64(-1 / 7)],
            [np.int64(7), np.int64(-3), 0, -12, 2**70, True, np.float32(0.1)],
            [3, np.float64(0.5), "label", np.int64(0), 1e-5, -1e-320, 1e22],
        ]
        path = tmp_path / "pin.csv"
        write_csv(path, ["a", "b", "c", "d", "e", "f", "g"], rows)
        lines = path.read_text().split("\n")
        assert lines[0] == "a,b,c,d,e,f,g" and lines[-1] == ""
        for line, row in zip(lines[1:-1], rows, strict=True):
            assert line == ",".join(format(float(v), ".17g") if isinstance(v, float)
                                    else str(v) for v in row)
        assert lines[1] == "0,-0,4.9406564584124654e-324,-4.9406564584124654e-324,inf,-inf,nan"
        assert lines[2].startswith("0.10000000000000001,10000000000000000,0.33333333333333331,")


class TestParallelCertifyHelpers:
    def test_accuracy_counts_abstains_as_errors(self, tmp_path):
        results = [
            CertResult(1, 0.9, 1.0, np.array([0, 100])),
            CertResult(-1, 0.4, 0.0, np.array([50, 50])),
            CertResult(0, 0.8, 0.5, np.array([90, 10])),
        ]
        labels = [1, 1, 1]
        write_curve_csv(tmp_path / "curve.csv", results, labels, [0.0, 0.6, 1.1])
        rows = np.loadtxt(tmp_path / "curve.csv", delimiter=",", skiprows=1)
        assert rows[:, 2].tolist() == [1, 1, 0]  # certified_correct
        assert rows[:, 3].tolist() == [3, 3, 3]  # total
        assert rows[:, 1] == pytest.approx([1 / 3, 1 / 3, 0.0])

    def test_certify_points_worker_equivalence(self):
        # workers=1 bounds point by point; workers=2 tallies in the pool and
        # bounds every point in the parent in one vectorized call
        linear = LinearClassifier(np.array([1.0, 0.0]), 0.2)
        mixture = IsoMixture(means=np.array([[2.0, 0.0], [-1.0, 1.7], [-1.0, -1.7]]),
                             sigma0=0.5)
        soft = EbClassifier(SoftClassifier.init(2, (8,), 3, rng_stream(0, 4)), mixture, 0.8)
        cases = [
            (linear, np.array([[1.5, 0.0], [-0.4, 1.0], [0.1, -2.0], [2.5, 0.3]]),
             ConfidenceSpec(0.01, 20, 500)),
            (soft, np.vstack([np.zeros(2), 1.5 * rng_stream(0, 5).standard_normal((11, 2))]),
             ConfidenceSpec(0.01, 20, 500)),
            # class 1 has mass 0.05 here, so a one-sample selection pass
            # sometimes picks it and the estimation pass then gives it no hit
            (linear, np.tile([-1.5, 0.0], (200, 1)), ConfidenceSpec(0.01, 1, 20)),
        ]
        outcomes = set()
        for h, pts, spec in cases:
            serial = certify_points(h, pts, 0.8, spec, seed=3, workers=1)
            parallel = certify_points(h, pts, 0.8, spec, seed=3, workers=2)
            assert len(serial) == len(parallel) == len(pts)
            for a, b in zip(serial, parallel):
                assert a.predicted == b.predicted
                assert type(a.pa_lower) is type(b.pa_lower) is float
                assert type(a.radius) is type(b.radius) is float
                assert a.pa_lower.hex() == b.pa_lower.hex()
                assert a.radius.hex() == b.radius.hex()
                assert a.counts.dtype == b.counts.dtype and np.array_equal(a.counts, b.counts)
                outcomes.add("zero hits" if a.pa_lower == 0.0 else
                             "abstain" if a.abstained else f"class {a.predicted}")
            assert all(r.radius == 0.0 for r in serial if r.abstained)
        assert outcomes == {"zero hits", "abstain", "class 0", "class 1", "class 2"}

    def test_pool_is_no_larger_than_the_point_count(self, monkeypatch):
        started = []

        class RecordingPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        h = LinearClassifier(np.array([1.0, 0.0]), 0.2)
        pts = np.array([[1.5, 0.0], [-0.4, 1.0], [0.1, -2.0]])
        spec = ConfidenceSpec(0.01, 20, 500)
        serial = certify_points(h, pts, 0.8, spec, seed=3, workers=1)
        capped = certify_points(h, pts, 0.8, spec, seed=3, workers=64)
        assert started == [3]
        assert [(r.predicted, r.pa_lower, r.radius) for r in capped] == [
            (r.predicted, r.pa_lower, r.radius) for r in serial]
        certify_points(h, pts[:1], 0.8, spec, seed=3, workers=64)
        certify_points(h, pts[:0], 0.8, spec, seed=3, workers=64)
        assert started == [3]  # one point or none: no pool


class TestCheckpointMisuse:
    """An energy checkpoint of the wrong kind or noise scale is a config error
    (exit 1, one line on stderr), not a traceback."""

    @staticmethod
    def _energy(tmp_path, name, sigma, dim=2):
        path = tmp_path / name
        save_checkpoint(path, EnergyNet.init(dim, (8,), sigma, rng_stream(0, 1)))
        return str(path)

    @staticmethod
    def _assert_config_error(args, startswith="config error:"):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-m", "ebsmooth", *args], env=env,
                             capture_output=True, text=True, timeout=300)
        assert out.returncode == 1, out.stderr
        assert out.stderr.startswith(startswith), out.stderr
        assert "Traceback" not in out.stderr
        config = json.loads(pathlib.Path(args[args.index("-c") + 1]).read_text())
        assert not os.path.exists(config["output_dir"])

    def test_classifier_as_fine_energy(self, tmp_path):
        clf = tmp_path / "clf.ckpt"
        save_checkpoint(clf, SoftClassifier.init(2, (4,), 2, rng_stream(0, 2)))
        path = write_cfg(tmp_path, extra={
            "estimator": {"kind": "energy", "path": self._energy(tmp_path, "c.ckpt", 1.0)},
            "walk_jump": {"n_samples": 2, "tau": 2, "fine_energy_path": str(clf)},
        })
        self._assert_config_error(["walk-jump", "-c", str(path)])

    def test_fine_energy_at_wrong_scale(self, tmp_path):
        path = write_cfg(tmp_path, extra={
            "estimator": {"kind": "energy", "path": self._energy(tmp_path, "c.ckpt", 1.0)},
            "walk_jump": {"n_samples": 2, "tau": 2, "sigma_prime": 0.05,
                          "fine_energy_path": self._energy(tmp_path, "f.ckpt", 0.3)},
        })
        self._assert_config_error(["walk-jump", "-c", str(path)])

    def test_certify_energy_at_wrong_scale(self, tmp_path):
        path = write_cfg(tmp_path, extra={
            "estimator": {"kind": "energy", "path": self._energy(tmp_path, "e.ckpt", 0.3)},
        })
        self._assert_config_error(["certify", "-c", str(path), "--sigma", "0.5"])

    @pytest.mark.parametrize("command, wrong", [
        ("certify", "coarse"), ("curve", "coarse"), ("train-xhat", "coarse"),
        ("walk-jump", "coarse"), ("walk-jump", "fine"),
    ])
    def test_energy_of_wrong_dimension(self, tmp_path, command, wrong):
        # a 3-d energy on 2-d data used to die in densities._as_batch with a
        # traceback
        dims = {"coarse": 2, "fine": 2, wrong: 3}
        path = write_cfg(tmp_path, extra={
            "estimator": {"kind": "energy",
                          "path": self._energy(tmp_path, "c.ckpt", 1.0, dims["coarse"])},
            "walk_jump": {"n_samples": 2, "tau": 2, "fine_energy_path":
                          self._energy(tmp_path, "f.ckpt", 0.05, dims["fine"])},
        })
        key = "estimator.path" if wrong == "coarse" else "walk_jump.fine_energy_path"
        self._assert_config_error([command, "-c", str(path)],
                                  startswith=f"config error: {key} ")


class TestBadConfigValues:
    """Out-of-range values fail as config errors (exit 1, one line on
    stderr), not as tracebacks, late numerical failures or hangs."""

    @pytest.mark.parametrize("args", [
        ["oracle-check", "--alpha", "2"],
        ["oracle-check", "--nc", "0"],
        ["oracle-check", "--sigma", "NaN"],
        ["oracle-check", "--sigma", "Infinity"],
        ["certify", "--set", "confidence.n0=0"],
        ["walk-jump", "--set", "walk_jump.delta=0"],
        ["train-xhat", "--set", "train.steps=0"],
        ["train-xhat", "--set", "attack.steps=0"],
        ["train-energy", "--set", "energy_train.steps=0"],
        ["gen-data", "--set", "dataset.n_train=0"],
        ["gen-data", "--set", "dataset.n_test=0"],
        ["train-xhat", "--set", "train.lr=-1"],
        ["train-xhat", "--set", "train.lr_final=-0.001"],
        ["train-energy", "--set", "energy_train.lr=0"],
        ["train-energy", "--set", "energy_train.lr_final=-1"],
        ["train-xhat", "--set", "attack.m=2"],
        ["oracle-check", "--workers", "0"],
        ["oracle-check", "--set", "certify.max_violations=-1"],
        ["train-xhat", "--set", "attack.step_size=-1"],
    ])
    def test_rejected_in_process(self, tmp_path, capsys, args):
        path = write_cfg(tmp_path, extra=CENTRED if args[0] == "oracle-check" else None)
        assert main([args[0], "-c", str(path), *args[1:]]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:"), err
        assert "Traceback" not in err
        # the learning rate is constant and the attack step 2 * epsilon / steps
        key = args[-1].split("=")[0]
        if key in ("train.lr_final", "energy_train.lr_final", "attack.step_size"):
            assert err.startswith(f"config error: unknown config key: {key}"), err

    @pytest.mark.parametrize("args", [
        ["oracle-check", "--set", "certify.max_points=-1"],
        ["oracle-check", "--max-points", "0"],
        ["certify", "--set", "certify.max_points=-1"],
        ["certify", "--set", "certify.max_violations=1e3"],
        ["certify", "--set", "confidence.nc=true"],
        ["train-xhat", "--set", "classifier.hidden=5"],
        ["train-xhat", "--set", "classifier.hidden=[2.5]"],
        ["train-xhat", "--set", "classifier.hidden=[0]"],
        ["train-energy", "--set", "energy_train.hidden=[2.5]"],
        ["train-energy", "--set", "energy_train.hidden=[0]"],
        ["walk-jump", "--set", "walk_jump.n_samples=0"],
        ["walk-jump", "--set", "walk_jump.tau=2.5"],
        ["oracle-check", "--set", "seed=1.5"],
        ["train-xhat", "--set", "attack.epsilon=NaN"],
        ["gen-data", "--set", "dataset.sigma0=NaN"],
        ["train-energy", "--set", "energy_train.lr=abc"],
        ["curve", "--set", 'certify.radius_grid=["a"]'],
        ["walk-jump", "--set", "walk_jump.sigma_prime=NaN"],
        ["walk-jump", "--set", "walk_jump.dump_trajectory=1"],
        ["train-xhat", "--set", "attack.epsilon=true"],
        ["certify", "--set", "classifier.kind=checkpoint", "--set", "classifier.path=1"],
        ["certify", "--set", "estimator.kind=energy", "--set", "estimator.path=2"],
        ["walk-jump", "--set", "walk_jump.fine_energy_path=1"],
        ["gen-data", "--set", "dataset.kind=idx", "--set", "dataset.train_images=1"],
        ["gen-data", "--set", "output_dir=[1, 2]"],
        ["certify", "--set", "estimator.kind=3"],
    ])
    def test_wrong_type_or_count_rejected(self, tmp_path, capsys, monkeypatch, args):
        # config.py checks int, list and string fields against their
        # annotations; these used to fail with a traceback, to drop a point
        # without a word (a negative max_points), to open a file descriptor
        # as a path (classifier.path=1), or to write into a directory named
        # "[1, 2]"
        monkeypatch.chdir(tmp_path)
        path = write_cfg(tmp_path, extra=CENTRED if args[0] == "oracle-check" else None)
        assert main([args[0], "-c", str(path), *args[1:]]) == 1
        err = capsys.readouterr().err
        # the message names the key the last --set gave
        key = args[-1].split("=")[0] if args[-2] == "--set" else ""
        assert err.startswith(f"config error: {key}"), err
        assert "Traceback" not in err
        assert os.listdir(tmp_path) == ["cfg.json"]

    @pytest.mark.parametrize("args", [
        ["certify", "--set", "classifier.weights=[1,0,0]"],
        ["certify", "--set", "classifier.weights=[]"],
        ["certify", "--set", "classifier.weights=[1,NaN]"],
        ["certify", "--set", 'classifier.bias="x"'],
        ["gen-data", "--set", "dataset.means=[[1,0],[1]]"],
        ["gen-data", "--set", 'dataset.means=[[1,"a"]]'],
        ["gen-data", "--set", "dataset.means=[]"],
        ["gen-data", "--set", "dataset.means=[[]]"],
        ["gen-data", "--set", "dataset.means=[[1,Infinity]]"],
    ])
    def test_bad_means_or_weights_rejected(self, tmp_path, capsys, args):
        # a ragged, empty, non-numeric or non-finite matrix, or linear weights
        # that do not match the data dimension, used to die with a traceback
        # or, for means=[], to write a 0-dimension dataset
        path = write_cfg(tmp_path)
        assert main([args[0], "-c", str(path), *args[1:]]) == 1
        err = capsys.readouterr().err
        key, value = args[-1].split("=")
        assert err.startswith(f"config error: {key}"), err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()
        # a bad element is named by its index
        element = {'[[1,"a"]]': "dataset.means[0][1]", "[[1,Infinity]]": "dataset.means[0][1]",
                   "[1,NaN]": "classifier.weights[1]"}.get(value)
        if element is not None:
            assert err.startswith(f"config error: {element} must be a finite number"), err

    @pytest.mark.parametrize("case", ["oracle-nonlinear", "oracle-off-centre",
                                      "oracle-wrong-dimension", "oracle-mixture",
                                      "oracle-idx", "idx-without-test", "walk-jump-idx",
                                      "idx-limit-negative", "idx-limit-zero",
                                      "generated-limit", "walk-jump-identity", "walk-jump-without-fine",
                                      "energy-as-classifier", "classifier-as-estimator",
                                      "oracle-identity", "oracle-energy",
                                      "walk-jump-fine-not-energy"])
    def test_runner_config_error_makes_no_output_dir(self, tmp_path, capsys, case):
        # errors found only once a runner resolves its inputs still come
        # before the first write, so the output directory is never made
        energy, clf = tmp_path / "e.ckpt", tmp_path / "clf.ckpt"
        save_checkpoint(energy, EnergyNet.init(2, (4,), 1.0, rng_stream(0, 1)))
        save_checkpoint(clf, SoftClassifier.init(2, (4,), 2, rng_stream(0, 2)))
        img, lab = tmp_path / "im.idx", tmp_path / "lb.idx"
        img.write_bytes(struct.pack(">IIII", 0x803, 2, 1, 2) + bytes([0, 255, 9, 3]))
        lab.write_bytes(struct.pack(">II", 0x801, 2) + bytes([0, 1]))
        idx = {"kind": "idx", "means": None, "train_images": str(img), "train_labels": str(lab)}
        command, extra = {
            "oracle-nonlinear": ("oracle-check", {**CENTRED, "classifier": {
                "kind": "checkpoint", "path": str(clf), "weights": None, "bias": None}}),
            # the exact oracle holds only for one centred Gaussian of the
            # linear classifier's dimension
            "oracle-off-centre": ("oracle-check", {"dataset": {"means": [[3.0, 0.0]]}}),
            "oracle-wrong-dimension": ("oracle-check", {**CENTRED, "classifier": {
                "weights": [1.0] + [0.0] * 9}}),
            "oracle-mixture": ("oracle-check", {}),
            "oracle-idx": ("oracle-check", {"dataset": idx}),
            # the oracle is exact only through the closed-form denoiser
            "oracle-identity": ("oracle-check", {**CENTRED, "estimator": {"kind": "identity"}}),
            "oracle-energy": ("oracle-check", {**CENTRED, "estimator": {
                "kind": "energy", "path": str(energy)}}),
            "idx-without-test": ("certify", {"dataset": idx}),
            "walk-jump-idx": ("walk-jump", {"dataset": idx}),
            # a limit below 1 would leave no training point
            "idx-limit-negative": ("train-xhat", {"dataset": {**idx, "limit": -1},
                                                  "estimator": {"kind": "identity"}}),
            "idx-limit-zero": ("train-xhat", {"dataset": {**idx, "limit": 0},
                                              "estimator": {"kind": "identity"}}),
            # a generated dataset is sized by n_train and n_test alone
            "generated-limit": ("gen-data", {"dataset": {"limit": 5}}),
            # walk-jump walks on a score, which the identity does not have
            "walk-jump-identity": ("walk-jump", {"estimator": {"kind": "identity"}}),
            "walk-jump-without-fine": ("walk-jump", {
                "estimator": {"kind": "energy", "path": str(energy)}}),
            # the fine source is read whatever the coarse one is
            "walk-jump-fine-not-energy": ("walk-jump", {
                "walk_jump": {"n_samples": 2, "tau": 2, "fine_energy_path": str(clf)}}),
            "energy-as-classifier": ("certify", {"classifier": {
                "kind": "checkpoint", "path": str(energy), "weights": None, "bias": None}}),
            "classifier-as-estimator": ("train-xhat", {
                "estimator": {"kind": "energy", "path": str(clf)}}),
        }[case]
        path = write_cfg(tmp_path, extra=extra)
        assert main([command, "-c", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:"), err
        assert not (tmp_path / "out").exists()
        if case in ("oracle-idx", "walk-jump-idx"):
            # no estimator, learned or not, lets these commands run on file data
            assert err.startswith(f"config error: {command} needs a gaussian_classes"), err
            assert "energy" not in err
        if case.startswith("idx-limit"):
            assert err.startswith("config error: dataset.limit must be >= 1"), err
        if case == "generated-limit":
            assert err.startswith("config error: dataset.limit applies only to idx"), err
        expected = {
            "oracle-identity": "oracle-check needs classifier.kind=linear and estimator.kind",
            "oracle-energy": "oracle-check needs classifier.kind=linear and estimator.kind",
            # oracle-check resolves its classifier as certify does
            "oracle-wrong-dimension": "classifier.weights has dimension 10, but the data have "
                                      "dimension 2",
            "walk-jump-fine-not-energy": f"walk_jump.fine_energy_path {clf} is not an energy",
        }.get(case)
        if expected is not None:
            assert err.startswith(f"config error: {expected}"), err

    def test_checkpoint_classifier_of_wrong_dimension_rejected(self, tmp_path, capsys):
        clf = tmp_path / "clf.ckpt"
        save_checkpoint(clf, SoftClassifier.init(3, (4,), 2, rng_stream(0, 2)))
        path = write_cfg(tmp_path, extra={
            "classifier": {"kind": "checkpoint", "path": str(clf),
                           "weights": None, "bias": None}})
        assert main(["certify", "-c", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: classifier.path"), err

    def test_removed_chunk_key_rejected(self, tmp_path, capsys):
        # tally blocks are sized from the dimension; a config that still sets
        # the old chunk knob is told so rather than silently ignored
        path = write_cfg(tmp_path)
        assert main(["certify", "-c", str(path), "--set", "certify.chunk=1000"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: unknown config key: certify.chunk"), err
