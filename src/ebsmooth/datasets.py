"""Dataset generation and ingestion.

Synthetic datasets are class-conditional isotropic Gaussians (one component
per class, shared scale).  Real data comes in through the IDX binary format;
pixel bytes are scaled to [0, 1] doubles.  Datasets round-trip through a CSV
whose floats are printed with 17 significant digits, so a written file loads
back bit-exact.
"""

from __future__ import annotations

import dataclasses
import struct

import numpy as np

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


class IdxFormatError(ValueError):
    """Raised for malformed IDX files."""


@dataclasses.dataclass(frozen=True)
class LabeledDataset:
    """Points (n, d) with integer labels in [0, n_classes)."""

    points: np.ndarray
    labels: np.ndarray
    n_classes: int

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float)
        labels = np.asarray(self.labels, dtype=np.int64)
        if points.ndim != 2:
            raise ValueError("points must be a (n, d) array")
        if labels.shape != (points.shape[0],):
            raise ValueError("labels and points must have equal lengths")
        if labels.size and (labels.min() < 0 or labels.max() >= self.n_classes):
            raise ValueError("labels must lie in [0, n_classes)")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "labels", labels)

    @property
    def dim(self):
        return self.points.shape[1]

    def __len__(self):
        return self.points.shape[0]


@dataclasses.dataclass(frozen=True)
class GaussianClassSpec:
    """One isotropic Gaussian per class: means (K, d), shared scale, total count."""

    means: np.ndarray
    sigma0: float
    n: int

    def __post_init__(self):
        means = np.atleast_2d(np.asarray(self.means, dtype=float))
        object.__setattr__(self, "means", means)
        if self.sigma0 <= 0.0:
            raise ValueError(f"sigma0 must be positive, got {self.sigma0}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")


def gen_dataset(spec, gen):
    """Draw a labeled dataset from the class-conditional Gaussian spec.

    Classes are exactly balanced up to remainder (earlier classes get the
    extra points), then the order is shuffled; everything is driven by `gen`,
    so a fixed seed reproduces the dataset exactly.
    """
    k, dim = spec.means.shape
    base = spec.n // k
    counts = np.full(k, base)
    counts[: spec.n - base * k] += 1
    labels = np.repeat(np.arange(k), counts)
    points = spec.means[labels] + spec.sigma0 * gen.standard_normal((spec.n, dim))
    order = gen.permutation(spec.n)
    return LabeledDataset(points[order], labels[order], k)


def _read_u32s(blob, count, offset, path):
    end = offset + 4 * count
    if end > len(blob):
        raise IdxFormatError(
            f"{path}: truncated header, wanted {end} bytes, file has {len(blob)}"
        )
    return struct.unpack(f">{count}I", blob[offset:end]), end


def load_idx(images_path, labels_path, limit=None):
    """Load an IDX image/label pair into a LabeledDataset.

    Big-endian headers are checked against the canonical magics; pixels are
    unsigned bytes scaled so that 255 maps to exactly 1.0.
    """
    with open(images_path, "rb") as fh:
        img_blob = fh.read()
    with open(labels_path, "rb") as fh:
        lab_blob = fh.read()

    (img_magic,), off = _read_u32s(img_blob, 1, 0, images_path)
    if img_magic != IDX_IMAGES_MAGIC:
        raise IdxFormatError(
            f"{images_path}: bad magic 0x{img_magic:08x} at byte offset 0, "
            f"expected 0x{IDX_IMAGES_MAGIC:08x}"
        )
    (n_images, rows, cols), off = _read_u32s(img_blob, 3, off, images_path)
    expected = off + n_images * rows * cols
    if len(img_blob) < expected:
        raise IdxFormatError(
            f"{images_path}: truncated pixel data, wanted {expected} bytes, "
            f"file has {len(img_blob)}"
        )

    (lab_magic,), loff = _read_u32s(lab_blob, 1, 0, labels_path)
    if lab_magic != IDX_LABELS_MAGIC:
        raise IdxFormatError(
            f"{labels_path}: bad magic 0x{lab_magic:08x} at byte offset 0, "
            f"expected 0x{IDX_LABELS_MAGIC:08x}"
        )
    (n_labels,), loff = _read_u32s(lab_blob, 1, loff, labels_path)
    if len(lab_blob) < loff + n_labels:
        raise IdxFormatError(
            f"{labels_path}: truncated label data, wanted {loff + n_labels} "
            f"bytes, file has {len(lab_blob)}"
        )
    if n_labels != n_images:
        raise IdxFormatError(
            f"count mismatch: {n_images} images in {images_path} but "
            f"{n_labels} labels in {labels_path}"
        )

    take = n_images if limit is None else min(int(limit), n_images)
    pixels = np.frombuffer(img_blob, dtype=np.uint8, count=take * rows * cols,
                           offset=off)
    points = pixels.astype(np.float64).reshape(take, rows * cols) / 255.0
    labels = np.frombuffer(lab_blob, dtype=np.uint8, count=take, offset=loff)
    labels = labels.astype(np.int64)
    return LabeledDataset(points, labels, int(labels.max()) + 1 if take else 0)


def save_dataset_csv(path, dataset):
    """Write label plus coordinates per row, floats at 17 significant digits."""
    dim = dataset.dim
    header = "label," + ",".join(f"x{i}" for i in range(dim))
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for label, row in zip(dataset.labels, dataset.points):
            coords = ",".join(format(v, ".17g") for v in row)
            fh.write(f"{int(label)},{coords}\n")


def load_dataset_csv(path):
    rows = []
    labels = []
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if not header or header[0] != "label":
            raise ValueError(f"{path}: not a dataset CSV (header {header!r})")
        for line in fh:
            parts = line.strip().split(",")
            if not parts or parts == [""]:
                continue
            labels.append(int(parts[0]))
            rows.append([float(v) for v in parts[1:]])
    points = np.asarray(rows, dtype=float)
    labels = np.asarray(labels, dtype=np.int64)
    return LabeledDataset(points, labels, int(labels.max()) + 1 if labels.size else 0)
