"""Binary checkpoint container shared by all model types.

Layout (all integers little-endian):

    bytes 0..3    magic b"EBCK"
    bytes 4..7    format version, uint32 (currently 1)
    bytes 8..11   type tag, uint32: 1 energy net, 2 soft classifier
    bytes 12..19  sigma, float64 (0.0 for models that carry no noise scale)
    bytes 20..23  number of widths, uint32
    then          widths, uint32 each, input dimension first, output last
    then          per affine layer in order: weight matrix (fan_in x fan_out)
                  row-major float64, then bias vector float64

An energy net's scalar readout is its last, (h, 1) layer, in memory as in
the file.  Only trained models are checkpointed: a linear classifier is
configured by its weights and bias, never loaded from a file.  Round-trips
are bit-exact: the parameter bytes written are the raw float64 buffers.
"""

from __future__ import annotations

import struct

import numpy as np

from .classifiers import SoftClassifier
from .energy import EnergyNet

MAGIC = b"EBCK"
FORMAT_VERSION = 1
TAG_ENERGY = 1
TAG_SOFT_CLASSIFIER = 2


class CheckpointError(OSError):
    """Raised for malformed checkpoint files (an OSError, as gzip.BadGzipFile is)."""


def _pack(tag, sigma, widths, weights, biases):
    parts = [MAGIC, struct.pack("<II", FORMAT_VERSION, tag),
             struct.pack("<d", float(sigma)),
             struct.pack("<I", len(widths)),
             struct.pack(f"<{len(widths)}I", *widths)]
    for w, b in zip(weights, biases):
        parts.append(np.ascontiguousarray(w, dtype="<f8").tobytes())
        parts.append(np.ascontiguousarray(b, dtype="<f8").tobytes())
    return b"".join(parts)


def save_checkpoint(path, model):
    """Write an EnergyNet or a SoftClassifier to path."""
    if isinstance(model, EnergyNet):
        blob = _pack(TAG_ENERGY, model.sigma, model.widths, model.weights, model.biases)
    elif isinstance(model, SoftClassifier):
        blob = _pack(TAG_SOFT_CLASSIFIER, 0.0, model.widths,
                     model.weights, model.biases)
    else:
        raise TypeError(f"cannot checkpoint object of type {type(model).__name__}")
    with open(path, "wb") as fh:
        fh.write(blob)


def _take(blob, offset, count):
    if offset + count > len(blob):
        raise CheckpointError(
            f"truncated checkpoint: wanted {count} bytes at offset {offset}, "
            f"file has {len(blob)}"
        )
    return blob[offset:offset + count], offset + count


def load_checkpoint(path):
    """Read back whichever model type the file holds."""
    with open(path, "rb") as fh:
        blob = fh.read()
    raw, off = _take(blob, 0, 4)
    if raw != MAGIC:
        raise CheckpointError(f"bad magic {raw!r} at byte offset 0, expected {MAGIC!r}")
    raw, off = _take(blob, off, 8)
    version, tag = struct.unpack("<II", raw)
    if version != FORMAT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    raw, off = _take(blob, off, 8)
    (sigma,) = struct.unpack("<d", raw)
    raw, off = _take(blob, off, 4)
    (n_widths,) = struct.unpack("<I", raw)
    raw, off = _take(blob, off, 4 * n_widths)
    widths = struct.unpack(f"<{n_widths}I", raw)
    if n_widths < 2:
        raise CheckpointError("checkpoint must describe at least one affine layer")
    if 0 in widths:
        raise CheckpointError(f"checkpoint widths {widths} hold a zero width")

    weights, biases = [], []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        raw, off = _take(blob, off, 8 * fan_in * fan_out)
        weights.append(np.frombuffer(raw, dtype="<f8").reshape(fan_in, fan_out).copy())
        raw, off = _take(blob, off, 8 * fan_out)
        biases.append(np.frombuffer(raw, dtype="<f8").copy())
    if off != len(blob):
        raise CheckpointError(f"{len(blob) - off} trailing bytes after parameters")

    if tag == TAG_ENERGY:
        if widths[-1] != 1:
            raise CheckpointError("energy checkpoint must end in a scalar readout")
        return EnergyNet(weights, biases, sigma)
    if tag == TAG_SOFT_CLASSIFIER:
        return SoftClassifier(weights, biases)
    raise CheckpointError(f"unknown checkpoint type tag {tag}")
