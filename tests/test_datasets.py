import struct

import numpy as np
import pytest

from ebsmooth.datasets import (
    IdxFormatError,
    LabeledDataset,
    gen_dataset,
    load_idx,
    read_idx,
)
from ebsmooth.harness import write_dataset_csv
from ebsmooth.stats import rng_stream


def make_idx_pair(tmp_path, n=4, rows=28, cols=28, labels=(0, 1, 2, 3),
                  pixel=None):
    """Hand-build a tiny IDX image/label fixture."""
    img_path = tmp_path / "images.idx"
    lab_path = tmp_path / "labels.idx"
    pixels = np.zeros((n, rows, cols), dtype=np.uint8)
    for i in range(n):
        pixels[i, i % rows, i % cols] = 255 if pixel is None else pixel
    img_path.write_bytes(struct.pack(">IIII", 0x803, n, rows, cols) + pixels.tobytes())
    lab_path.write_bytes(struct.pack(">II", 0x801, n) + bytes(labels))
    return img_path, lab_path


class TestGenDataset:
    def test_balanced_labels(self):
        means = np.array([[3.0, 0.0], [-3.0, 0.0]])
        ds = gen_dataset(means, 1.0, 1000, rng_stream(0, 0))
        assert np.bincount(ds.labels).tolist() == [500, 500]

    def test_deterministic_under_seed(self):
        means = np.array([[1.0], [-1.0]])
        a = gen_dataset(means, 0.5, 64, rng_stream(1, 7))
        b = gen_dataset(means, 0.5, 64, rng_stream(1, 7))
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.labels, b.labels)

    def test_class_means_recovered(self):
        means = np.array([[4.0, 0.0], [-4.0, 0.0], [0.0, 4.0]])
        ds = gen_dataset(means, 1.0, 30_000, rng_stream(2, 0))
        for k in range(3):
            sample_mean = ds.points[ds.labels == k].mean(axis=0)
            tol = 4.0 / np.sqrt(30_000 / 3)
            assert np.all(np.abs(sample_mean - means[k]) < tol)

    def test_remainder_goes_to_early_classes(self):
        means = np.array([[1.0], [-1.0]])
        ds = gen_dataset(means, 1.0, 7, rng_stream(3, 0))
        assert np.bincount(ds.labels).tolist() == [4, 3]

    @pytest.mark.parametrize("sigma0, n, match", [(0.0, 5, "sigma0"), (-1.0, 5, "sigma0"),
                                                  (np.nan, 5, "sigma0"), (1.0, 0, "n must")])
    def test_bad_scale_or_count_rejected(self, sigma0, n, match):
        with pytest.raises(ValueError, match=match):
            gen_dataset([[1.0], [-1.0]], sigma0, n, rng_stream(3, 0))

    def test_one_mean_may_be_a_vector(self):
        a = gen_dataset([1.0, -2.0], 0.5, 6, rng_stream(3, 1))
        b = gen_dataset([[1.0, -2.0]], 0.5, 6, rng_stream(3, 1))
        assert a.n_classes == 1 and a.dim == 2
        assert np.array_equal(a.points, b.points)


class TestLoadIdx:
    def test_fixture_roundtrip(self, tmp_path):
        img, lab = make_idx_pair(tmp_path)
        ds = load_idx(img, lab)
        assert len(ds) == 4
        assert ds.dim == 784
        assert ds.labels.tolist() == [0, 1, 2, 3]

    def test_pixel_255_maps_to_one(self, tmp_path):
        img, lab = make_idx_pair(tmp_path, pixel=255)
        ds = load_idx(img, lab)
        assert ds.points.max() == 1.0
        img, lab = make_idx_pair(tmp_path, pixel=51)
        ds = load_idx(img, lab)
        assert ds.points.max() == 51.0 / 255.0

    def test_corrupt_magic_names_offset(self, tmp_path):
        img, lab = make_idx_pair(tmp_path)
        blob = bytearray(img.read_bytes())
        blob[0] = 0xFF
        img.write_bytes(bytes(blob))
        with pytest.raises(IdxFormatError, match="byte offset 0"):
            load_idx(img, lab)

    def test_label_magic_checked(self, tmp_path):
        img, lab = make_idx_pair(tmp_path)
        blob = bytearray(lab.read_bytes())
        blob[3] = 0x05
        lab.write_bytes(bytes(blob))
        with pytest.raises(IdxFormatError, match="bad magic"):
            load_idx(img, lab)

    def test_truncated_pixels(self, tmp_path):
        img, lab = make_idx_pair(tmp_path)
        blob = img.read_bytes()
        img.write_bytes(blob[:-10])
        with pytest.raises(IdxFormatError, match="truncated"):
            load_idx(img, lab)

    def test_count_mismatch(self, tmp_path):
        img, lab = make_idx_pair(tmp_path)
        lab.write_bytes(struct.pack(">II", 0x801, 3) + bytes([0, 1, 2]))
        with pytest.raises(IdxFormatError, match="count mismatch"):
            load_idx(img, lab)

    def test_limit(self, tmp_path):
        img, lab = make_idx_pair(tmp_path)
        ds = load_idx(img, lab, limit=2)
        assert len(ds) == 2
        assert ds.n_classes == 4  # from every label in the file

    def test_read_idx_shape_and_top_label(self, tmp_path):
        # a label of 255 makes 256 classes; the uint8 labels must not wrap
        img, lab = make_idx_pair(tmp_path, labels=(0, 1, 2, 255))
        pixels = read_idx(img, 0x803)
        assert pixels.dtype == np.uint8 and pixels.shape == (4, 28, 28)
        assert load_idx(img, lab).n_classes == 256

    def test_negative_limit_rejected(self, tmp_path):
        img, lab = make_idx_pair(tmp_path)
        with pytest.raises(ValueError, match="limit must be >= 0"):
            load_idx(img, lab, limit=-1)


class TestDatasetCsv:
    def test_roundtrip_bit_exact(self, tmp_path):
        means = np.array([[2.0, 0.0, 1.0], [-2.0, 0.5, 0.0]])
        ds = gen_dataset(means, 1.0, 50, rng_stream(4, 0))
        path = tmp_path / "d.csv"
        write_dataset_csv(path, ds)
        header, *lines = path.read_text().splitlines()
        assert header == "label,x0,x1,x2"
        rows = [line.split(",") for line in lines]
        assert [int(r[0]) for r in rows] == ds.labels.tolist()
        assert np.array_equal(np.array([[float(v) for v in r[1:]] for r in rows]), ds.points)

    def test_validation(self):
        with pytest.raises(ValueError):
            LabeledDataset(np.zeros((3, 2)), np.array([0, 1]), n_classes=2)
        with pytest.raises(ValueError):
            LabeledDataset(np.zeros((2, 2)), np.array([0, 5]), n_classes=2)
