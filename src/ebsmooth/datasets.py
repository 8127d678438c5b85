"""Dataset generation and ingestion.

Synthetic datasets are class-conditional isotropic Gaussians (one component
per class, shared scale).  Real data comes in through the IDX binary format;
pixel bytes are scaled to [0, 1] doubles.
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


def _read_idx_labels(path):
    """Every label of an IDX label file, one unsigned byte each, with the
    big-endian header checked against the canonical magic."""
    with open(path, "rb") as fh:
        blob = fh.read()
    (magic,), off = _read_u32s(blob, 1, 0, path)
    if magic != IDX_LABELS_MAGIC:
        raise IdxFormatError(f"{path}: bad magic 0x{magic:08x} at byte offset 0, "
                             f"expected 0x{IDX_LABELS_MAGIC:08x}")
    (n_labels,), off = _read_u32s(blob, 1, off, path)
    if len(blob) < off + n_labels:
        raise IdxFormatError(f"{path}: truncated label data, wanted {off + n_labels} "
                             f"bytes, file has {len(blob)}")
    return np.frombuffer(blob, dtype=np.uint8, count=n_labels, offset=off).astype(np.int64)


def load_idx(images_path, labels_path, limit=None):
    """Load an IDX image/label pair into a LabeledDataset.

    Big-endian headers are checked against the canonical magics; pixels are
    unsigned bytes scaled so that 255 maps to exactly 1.0.  A limit keeps
    only the first `limit` points, and a negative one is a ValueError.
    n_classes is one more than the largest label in the whole label file,
    whatever the limit.
    """
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    with open(images_path, "rb") as fh:
        img_blob = fh.read()

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

    all_labels = _read_idx_labels(labels_path)
    if all_labels.size != n_images:
        raise IdxFormatError(
            f"count mismatch: {n_images} images in {images_path} but "
            f"{all_labels.size} labels in {labels_path}"
        )

    take = n_images if limit is None else min(int(limit), n_images)
    pixels = np.frombuffer(img_blob, dtype=np.uint8, count=take * rows * cols,
                           offset=off)
    points = pixels.astype(np.float64).reshape(take, rows * cols) / 255.0
    return LabeledDataset(points, all_labels[:take], int(all_labels.max(initial=-1)) + 1)

