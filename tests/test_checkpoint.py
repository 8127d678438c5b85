import struct

import numpy as np
import pytest

from ebsmooth.checkpoint import (
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from ebsmooth.classifiers import LinearClassifier, SoftClassifier
from ebsmooth.energy import EnergyNet
from ebsmooth.stats import rng_stream


def linear_tag_blob(w, b):
    """Checkpoint bytes with type tag 3 and one (d, 1) layer holding w, b."""
    return (b"EBCK" + struct.pack("<IIdI", 1, 3, 0.0, 2) + struct.pack("<II", len(w), 1)
            + np.asarray(w, dtype="<f8").tobytes() + struct.pack("<d", b))


def test_energy_roundtrip_bit_exact(tmp_path):
    net = EnergyNet.init(4, (16, 8), 0.37, rng_stream(0, 0))
    path = tmp_path / "energy.ckpt"
    save_checkpoint(path, net)
    back = load_checkpoint(path)
    assert isinstance(back, EnergyNet)
    assert back.sigma == net.sigma
    assert back.widths == net.widths
    for a, b in zip(net.parameters(), back.parameters()):
        assert np.array_equal(a, b)
    # saving the loaded model reproduces the file byte for byte
    path2 = tmp_path / "energy2.ckpt"
    save_checkpoint(path2, back)
    assert path.read_bytes() == path2.read_bytes()


@pytest.mark.parametrize("hidden", [(16, 8), ()])
def test_energy_file_is_its_layer_stack(tmp_path, hidden):
    # the readout is the net's last layer in memory as on disk: the file
    # holds net.widths, then each layer's raw float64 weights and bias
    net = EnergyNet.init(4, hidden, 0.37, rng_stream(0, 0))
    path = tmp_path / "energy.ckpt"
    save_checkpoint(path, net)
    blob = path.read_bytes()
    (n_widths,) = struct.unpack_from("<I", blob, 20)
    assert struct.unpack_from(f"<{n_widths}I", blob, 24) == net.widths
    assert net.widths == (4, *hidden, 1)
    params = b"".join(w.tobytes() + b.tobytes() for w, b in zip(net.weights, net.biases))
    assert blob[24 + 4 * n_widths:] == params
    back = load_checkpoint(path)
    for a, b in zip((*net.weights, *net.biases), (*back.weights, *back.biases)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_soft_classifier_roundtrip_bit_exact(tmp_path):
    clf = SoftClassifier.init(3, (8,), 5, rng_stream(1, 0))
    path = tmp_path / "clf.ckpt"
    save_checkpoint(path, clf)
    back = load_checkpoint(path)
    assert isinstance(back, SoftClassifier)
    assert back.widths == clf.widths
    for a, b in zip(clf.parameters(), back.parameters()):
        assert np.array_equal(a, b)


def test_linear_classifier_is_not_checkpointed(tmp_path):
    # a linear base comes only from classifier.kind=linear
    path = tmp_path / "lin.ckpt"
    with pytest.raises(TypeError, match="LinearClassifier"):
        save_checkpoint(path, LinearClassifier(np.array([0.25, -1.5, 3.0]), -0.125))
    assert not path.exists()


def test_linear_type_tag_rejected(tmp_path):
    # a well-formed file in the layout type tag 3 once held: one (d, 1) layer
    path = tmp_path / "lin.ckpt"
    path.write_bytes(linear_tag_blob([0.25, -1.5, 3.0], -0.125))
    with pytest.raises(CheckpointError, match="unknown checkpoint type tag 3"):
        load_checkpoint(path)


@pytest.mark.parametrize("tag", [1, 2])
@pytest.mark.parametrize("widths", [(2, 3, 0), (2, 0, 2), (0, 4, 1)])
def test_zero_width_rejected(tmp_path, tag, widths):
    # a layer of no units holds no parameters, so the file is otherwise
    # well formed; read_idx rejects a zero dimension the same way
    params = sum(a * b + b for a, b in zip(widths, widths[1:]))
    path = tmp_path / "zero.ckpt"
    path.write_bytes(b"EBCK" + struct.pack("<IIdI", 1, tag, 0.5, len(widths))
                     + struct.pack(f"<{len(widths)}I", *widths) + b"\x00" * (8 * params))
    with pytest.raises(CheckpointError, match="zero width"):
        load_checkpoint(path)


def test_evaluations_survive_roundtrip(tmp_path):
    net = EnergyNet.init(3, (8,), 0.5, rng_stream(2, 0))
    path = tmp_path / "e.ckpt"
    save_checkpoint(path, net)
    back = load_checkpoint(path)
    y = rng_stream(2, 1).standard_normal((10, 3))
    assert np.array_equal(net.log_density_y(y, 0.5), back.log_density_y(y, 0.5))
    assert np.array_equal(net.smoothed_score(y, 0.5), back.smoothed_score(y, 0.5))


def test_bad_magic_names_offset(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"XXXX" + b"\x00" * 64)
    with pytest.raises(CheckpointError, match="byte offset 0"):
        load_checkpoint(path)


def test_truncated_file(tmp_path):
    net = EnergyNet.init(4, (8,), 1.0, rng_stream(3, 0))
    path = tmp_path / "t.ckpt"
    save_checkpoint(path, net)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_trailing_garbage_rejected(tmp_path):
    net = EnergyNet.init(2, (4,), 1.0, rng_stream(4, 0))
    path = tmp_path / "g.ckpt"
    save_checkpoint(path, net)
    path.write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(path)


def test_unsupported_version(tmp_path):
    net = EnergyNet.init(2, (4,), 1.0, rng_stream(5, 0))
    path = tmp_path / "v.ckpt"
    save_checkpoint(path, net)
    blob = bytearray(path.read_bytes())
    blob[4] = 99
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_unknown_object_rejected(tmp_path):
    with pytest.raises(TypeError):
        save_checkpoint(tmp_path / "x.ckpt", object())
