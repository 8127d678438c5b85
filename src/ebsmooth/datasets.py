"""Dataset generation and ingestion.

Synthetic datasets are class-conditional isotropic Gaussians (one component
per class, shared scale), drawn by gen_dataset(means, sigma0, n, gen), which
checks its own arguments.  Real data comes in through the IDX binary format;
pixel bytes are scaled to [0, 1] doubles.
"""

from __future__ import annotations

import dataclasses
import math
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


def gen_dataset(means, sigma0, n, gen):
    """Draw n labeled points, one isotropic Gaussian of scale sigma0 per row
    of means (K, d).

    Classes are exactly balanced up to remainder (earlier classes get the
    extra points), then the order is shuffled; everything is driven by `gen`,
    so a fixed seed reproduces the dataset exactly.
    """
    means = np.atleast_2d(np.asarray(means, dtype=float))
    if not sigma0 > 0.0:
        raise ValueError(f"sigma0 must be positive, got {sigma0}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    k, dim = means.shape
    base = n // k
    counts = np.full(k, base)
    counts[: n - base * k] += 1
    labels = np.repeat(np.arange(k), counts)
    points = means[labels] + sigma0 * gen.standard_normal((n, dim))
    order = gen.permutation(n)
    return LabeledDataset(points[order], labels[order], k)


def _read_u32s(blob, count, offset, path):
    end = offset + 4 * count
    if end > len(blob):
        raise IdxFormatError(f"{path}: truncated header, wanted {end} bytes, "
                             f"file has {len(blob)}")
    return struct.unpack(f">{count}I", blob[offset:end]), end


def read_idx(path, magic):
    """The uint8 array an IDX file holds.  The big-endian magic must be
    `magic`, whose low byte is the number of big-endian uint32 dimensions
    that follow; a zero dimension (an empty file, zero-size images) and a
    file shorter than that shape are IdxFormatErrors."""
    with open(path, "rb") as fh:
        blob = fh.read()
    (found,), off = _read_u32s(blob, 1, 0, path)
    if found != magic:
        raise IdxFormatError(f"{path}: bad magic 0x{found:08x} at byte offset 0, "
                             f"expected 0x{magic:08x}")
    shape, off = _read_u32s(blob, magic & 0xFF, off, path)
    if 0 in shape:
        raise IdxFormatError(f"{path}: shape {shape} holds no data")
    end = off + math.prod(shape)
    if len(blob) < end:
        what = "label" if magic == IDX_LABELS_MAGIC else "pixel"
        raise IdxFormatError(f"{path}: truncated {what} data, wanted {end} bytes, "
                             f"file has {len(blob)}")
    return np.frombuffer(blob, dtype=np.uint8, count=end - off, offset=off).reshape(shape)


def load_idx(images_path, labels_path, limit=None):
    """Load an IDX image/label pair into a LabeledDataset.

    Both files are read by read_idx; pixels are unsigned bytes scaled so
    that 255 maps to exactly 1.0.  A limit keeps only the first `limit`
    points, and a negative one is a ValueError.  n_classes is one more than
    the largest label in the whole label file, whatever the limit.
    """
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    images = read_idx(images_path, IDX_IMAGES_MAGIC)
    labels = read_idx(labels_path, IDX_LABELS_MAGIC)
    if len(labels) != len(images):
        raise IdxFormatError(f"count mismatch: {len(images)} images in {images_path} "
                             f"but {len(labels)} labels in {labels_path}")
    points = images.reshape(len(images), -1)[:limit].astype(np.float64) / 255.0
    return LabeledDataset(points, labels[:limit], int(labels.max()) + 1)
