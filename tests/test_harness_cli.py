import json
import struct

import numpy as np
import pytest

from ebsmooth.cli import main
from ebsmooth.config import ConfigError, config_from_dict, load_config
from ebsmooth.harness import certified_accuracy_at, certify_points
from ebsmooth.certify import CertResult
from ebsmooth.classifiers import LinearClassifier
from ebsmooth.stats import ConfidenceSpec


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
        cfg, _ = load_config(path, ["confidence.nc=777", "sigma=0.5"])
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


class TestCliExitCodes:
    def test_config_error_is_1(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"bogus_key": 1}))
        assert main(["certify", "-c", str(path)]) == 1

    def test_missing_config_is_1(self, tmp_path):
        assert main(["certify", "-c", str(tmp_path / "none.json")]) == 1

    def test_corrupt_idx_is_3(self, tmp_path):
        img = tmp_path / "im.idx"
        lab = tmp_path / "lb.idx"
        img.write_bytes(struct.pack(">IIII", 0xDEAD, 1, 2, 2) + b"\x00" * 4)
        lab.write_bytes(struct.pack(">II", 0x801, 1) + b"\x00")
        path = write_cfg(tmp_path, extra={"dataset": {
            "kind": "idx", "means": None,
            "train_images": str(img), "train_labels": str(lab),
        }})
        assert main(["gen-data", "-c", str(path)]) == 3

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
        with np.errstate(invalid="ignore"):
            assert main(["certify", "-c", str(path)]) == 2

    def test_success_is_0(self, tmp_path):
        path = write_cfg(tmp_path)
        assert main(["gen-data", "-c", str(path)]) == 0


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
        path = write_cfg(tmp_path, extra={
            "walk_jump": {"n_samples": 8, "tau": 20, "dump_trajectory": True},
        })
        assert main(["walk-jump", "-c", str(path)]) == 0
        samples = (tmp_path / "out" / "samples.csv").read_text().splitlines()
        assert len(samples) == 9
        traj = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
        assert traj[0] == "step,x0,x1,energy"
        assert len(traj) == 22  # tau + 1 rows plus header

    def test_rerun_byte_identical(self, tmp_path):
        path = write_cfg(tmp_path, extra={"walk_jump": {"n_samples": 5, "tau": 10}})
        main(["walk-jump", "-c", str(path)])
        first = (tmp_path / "out" / "samples.csv").read_bytes()
        main(["walk-jump", "-c", str(path)])
        assert (tmp_path / "out" / "samples.csv").read_bytes() == first


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


class TestParallelCertifyHelpers:
    def test_accuracy_counts_abstains_as_errors(self):
        spec = ConfidenceSpec(0.05, 10, 100)
        results = [
            CertResult(1, 0.9, 1.0, np.array([0, 100]), spec),
            CertResult(-1, 0.4, 0.0, np.array([50, 50]), spec),
            CertResult(0, 0.8, 0.5, np.array([90, 10]), spec),
        ]
        labels = [1, 1, 1]
        assert certified_accuracy_at(results, labels, 0.0) == pytest.approx(1 / 3)
        assert certified_accuracy_at(results, labels, 0.6) == pytest.approx(1 / 3)
        assert certified_accuracy_at(results, labels, 1.1) == 0.0

    def test_certify_points_worker_equivalence(self):
        h = LinearClassifier(np.array([1.0, 0.0]), 0.2)
        gen_pts = np.array([[1.5, 0.0], [-0.4, 1.0], [0.1, -2.0], [2.5, 0.3]])
        spec = ConfidenceSpec(0.01, 20, 500)
        serial = certify_points(h, gen_pts, 0.8, spec, seed=3, workers=1)
        parallel = certify_points(h, gen_pts, 0.8, spec, seed=3, workers=2)
        for a, b in zip(serial, parallel):
            assert a.predicted == b.predicted
            assert a.pa_lower == b.pa_lower
            assert a.radius == b.radius
