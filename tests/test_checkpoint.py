import json
import struct

import numpy as np
import pytest

from ganevade import checkpoint as ckpt
from ganevade.gan import GanModel, GanPreset, load_gan, save_gan
from ganevade.nncore import build_mlp, forward


def test_container_roundtrip_bit_exact(tmp_path):
    path = tmp_path / "c.gevd"
    arrays = {"a": np.arange(6, dtype=np.float64).reshape(2, 3),
              "b": np.array([np.pi, -0.0, 1e-300])}
    meta = {"kind": "test", "nested": {"x": 1}}
    ckpt.save_container(path, meta, arrays)
    meta2, arrays2 = ckpt.load_container(path)
    assert meta2 == meta
    for name in arrays:
        assert arrays2[name].tobytes() == arrays[name].tobytes()


def test_magic_rejected(tmp_path):
    path = tmp_path / "bad.gevd"
    path.write_bytes(b"NOPE!" + b"\x00" * 16)
    with pytest.raises(ckpt.CheckpointError):
        ckpt.load_container(path)


def test_truncated_body_rejected(tmp_path):
    path = tmp_path / "c.gevd"
    ckpt.save_container(path, {}, {"a": np.zeros(10)})
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(ckpt.CheckpointError):
        ckpt.load_container(path)


def test_bytes_after_last_array_rejected(tmp_path):
    path = tmp_path / "c.gevd"
    ckpt.save_container(path, {"key": "k1"}, {"a": np.zeros(3)})
    path.write_bytes(path.read_bytes() + b"\x00" * 22)
    with pytest.raises(ckpt.CheckpointError):
        ckpt.load_container(path, "k1")


def test_key_checked(tmp_path):
    path = tmp_path / "c.gevd"
    ckpt.save_container(path, {"key": "k1"}, {"a": np.zeros(2)})
    assert ckpt.load_container(path, "k1")[0] == {"key": "k1"}
    with pytest.raises(ckpt.CheckpointError):
        ckpt.load_container(path, "k2")


def test_truncated_header_rejected(tmp_path):
    path = tmp_path / "c.gevd"
    ckpt.save_container(path, {}, {"a": np.zeros(2)})
    path.write_bytes(path.read_bytes()[:7])
    with pytest.raises(ckpt.CheckpointError):
        ckpt.load_container(path)


@pytest.mark.parametrize("header", [
    {}, [], "x", None,
    {"meta": [], "arrays": []},
    {"meta": {}},
    {"meta": {}, "arrays": {}},
    {"meta": {}, "arrays": [["a", [2]]]},
    {"meta": {}, "arrays": [{"name": "a"}]},
    {"meta": {}, "arrays": [{"shape": [2]}]},
    {"meta": {}, "arrays": [{"name": "a", "shape": 2}]},
    {"meta": {}, "arrays": [{"name": "a", "shape": [-1]}]},
    {"meta": {}, "arrays": [{"name": "a", "shape": [2.0]}]},
    {"meta": {}, "arrays": [{"name": "a", "shape": [True]}]},
], ids=repr)
def test_malformed_header_rejected(tmp_path, header):
    path = tmp_path / "c.gevd"
    raw = json.dumps(header).encode("utf-8")
    path.write_bytes(ckpt.MAGIC + struct.pack("<I", len(raw)) + raw)
    with pytest.raises(ckpt.CheckpointError):
        ckpt.load_container(path)


@pytest.mark.parametrize("raw", [b"{\"meta\": {", b"\xff\xfe"], ids=repr)
def test_unreadable_header_rejected(tmp_path, raw):
    path = tmp_path / "c.gevd"
    path.write_bytes(ckpt.MAGIC + struct.pack("<I", len(raw)) + raw)
    with pytest.raises(ckpt.CheckpointError):
        ckpt.load_container(path)


def test_header_longer_than_the_file_rejected(tmp_path):
    path = tmp_path / "c.gevd"
    path.write_bytes(ckpt.MAGIC + struct.pack("<I", 0xFFFFFFFF) + b"{}")
    with pytest.raises(ckpt.CheckpointError):
        ckpt.load_container(path)


def test_huge_declared_array_rejected(tmp_path):
    path = tmp_path / "c.gevd"
    raw = json.dumps({"meta": {}, "arrays": [
        {"name": "a", "shape": [2**40, 2**40]}]}).encode("utf-8")
    path.write_bytes(ckpt.MAGIC + struct.pack("<I", len(raw)) + raw)
    with pytest.raises(ckpt.CheckpointError):
        ckpt.load_container(path)


def test_empty_and_scalar_arrays_roundtrip(tmp_path):
    path = tmp_path / "c.gevd"
    arrays = {"e": np.zeros((0, 3)), "s": np.array(2.5), "z": np.zeros(0)}
    ckpt.save_container(path, {}, arrays)
    _, back = ckpt.load_container(path)
    assert back["e"].shape == (0, 3) and back["z"].shape == (0,)
    assert back["s"].shape == () and back["s"] == 2.5


def _gan_with(generator, critic) -> GanModel:
    # save_gan writes the preset as metadata only; it need not fit the nets
    preset = GanPreset("byte_histogram", 3, 2, (7,), (4,), "softmax")
    return GanModel(generator=generator, critic=critic, preset=preset)


def test_mlp_roundtrip_preserves_outputs(tmp_path):
    rng = np.random.default_rng(0)
    net = build_mlp([5, 7, 2], "leaky_relu", "sigmoid", rng,
                    input_dropout=0.1, hidden_dropout=0.5)
    path = tmp_path / "net.gevd"
    save_gan(path, _gan_with(net, build_mlp([3, 4, 1], "relu", "linear", rng)))
    net2 = load_gan(path).generator
    x = rng.normal(size=(3, 5))
    np.testing.assert_array_equal(forward(net, x)[0], forward(net2, x)[0])
    assert net2.input_dropout_rate == 0.1
    assert net2.hidden_dropout_rate == 0.5
    assert [l.activation for l in net2.layers] == ["leaky_relu", "sigmoid"]


def test_save_is_deterministic(tmp_path):
    rng = np.random.default_rng(1)
    net = build_mlp([3, 4, 1], "relu", "linear", rng)
    model = _gan_with(net, net)
    p1, p2 = tmp_path / "a.gevd", tmp_path / "b.gevd"
    save_gan(p1, model)
    save_gan(p2, model)
    assert p1.read_bytes() == p2.read_bytes()
