import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

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
        assert arrays2[name].astype("<f8").tobytes() == arrays[name].tobytes()
    assert arrays2["a"].dtype == np.uint8 and arrays2["b"].dtype == "<f8"


# (dtype, lowest, highest) of each narrow dtype, narrowest first
RANGES = [("|u1", 0, 255), ("|i1", -128, 127), ("<u2", 0, 65535),
          ("<i2", -32768, 32767), ("<i4", -2**31, 2**31 - 1)]
# NaN payloads: signalling, negative and quiet with payload bits set
NANS = np.array([0x7FF0000000000001, 0xFFF8000000000123, 0x7FF8DEAD00000000],
                dtype="<u8").view("<f8").tolist()
EDGES = [0.0, -0.0, 1.0, -1.0, 255.0, 256.0, -128.0, -129.0, 32767.0,
         32768.0, 65535.0, 65536.0, -32768.0, -32769.0, 2.0**31 - 1,
         2.0**31, -2.0**31, -2.0**31 - 1, 0.5, 5e-324, 2.2250738585072014e-308,
         np.inf, -np.inf, *NANS]


def expected_dtype(a: np.ndarray) -> str:
    """The dtype the container should store float64 ``a`` in: the narrowest
    of ``RANGES`` that holds every value, when all are finite integers
    without ``-0.0``."""
    if not (np.isfinite(a).all() and (a == np.trunc(a)).all()
            and not np.signbit(a[a == 0]).any()):
        return "<f8"
    lo, hi = a.min(initial=0), a.max(initial=0)
    return next((d for d, low, high in RANGES if low <= lo and hi <= high),
                "<f8")


float64_arrays = st.one_of(
    # any bits: NaN payloads, subnormals, signed zeros, infinities
    arrays("<u8", array_shapes(min_dims=0, max_dims=2, max_side=5),
           elements=st.integers(0, 2**64 - 1)).map(lambda a: a.view("<f8")),
    arrays("<f8", array_shapes(min_dims=0, max_dims=2, max_side=5),
           elements=st.sampled_from(EDGES)),
    # integer-valued, around each narrow dtype's bounds
    st.sampled_from([255, 127, 65535, 32767, 2**31 - 1]).flatmap(
        lambda bound: arrays("<f8", array_shapes(max_dims=2, max_side=5),
                             elements=st.integers(-bound - 2, bound + 2)
                             .map(float))),
)


@settings(max_examples=300, deadline=None)
@given(float64_arrays)
def test_container_roundtrip_is_bit_exact_as_float64(a):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.gevd"
        ckpt.save_container(path, {}, {"a": a})
        back = ckpt.load_container(path)[1]["a"]
    assert back.shape == a.shape
    assert back.astype("<f8").tobytes() == a.tobytes()
    assert back.dtype.str == expected_dtype(a)


@pytest.mark.parametrize("values, dtype", [
    ([0, 1, 255], "|u1"), ([256], "<u2"), ([-1, 127], "|i1"),
    ([-129], "<i2"), ([-1, 128], "<i2"), ([65535], "<u2"), ([-1, 32768], "<i4"),
    ([2**31 - 1], "<i4"), ([-2**31], "<i4"), ([2**31], "<f8"),
    ([-0.0, 1], "<f8"), ([0.5], "<f8"), ([np.nan], "<f8"), ([np.inf], "<f8"),
], ids=repr)
def test_narrowest_dtype(values, dtype):
    a = np.array(values, dtype=np.float64)
    assert ckpt.narrowest(a).dtype.str == dtype
    assert ckpt.narrowest(a).astype("<f8").tobytes() == a.tobytes()


def test_narrowest_checks_every_block():
    # integer-valued but for one value past the first block
    a = np.zeros(3 * ckpt.CHECK_BLOCK + 5)
    a[-1] = 0.25
    assert ckpt.narrowest(a).dtype == "<f8"
    a[-1] = 3.0
    assert ckpt.narrowest(a).dtype == np.uint8


def test_gevd1_container_rejected(tmp_path):
    # the layout before per-array dtypes: raw float64 arrays
    path = tmp_path / "old.gevd"
    raw = json.dumps({"meta": {}, "arrays": [{"name": "a", "shape": [2]}]},
                     sort_keys=True).encode("utf-8")
    path.write_bytes(b"GEVD1" + struct.pack("<I", len(raw)) + raw
                     + np.ones(2).tobytes())
    with pytest.raises(ckpt.CheckpointError, match="magic"):
        ckpt.load_container(path)


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
        {"name": "a", "shape": [2**40, 2**40], "dtype": "<f8"}]}).encode("utf-8")
    path.write_bytes(ckpt.MAGIC + struct.pack("<I", len(raw)) + raw)
    with pytest.raises(ckpt.CheckpointError):
        ckpt.load_container(path)


@pytest.mark.parametrize("entry", [
    {"dtype": "|O"}, {"dtype": ">f8"}, {"dtype": "<c16"}, {"dtype": "<f4"},
    {"dtype": "<i8"}, {"dtype": "float64"}, {"dtype": ["<f8"]},
    {"dtype": 8}, {}], ids=repr)
def test_dtype_outside_the_allowlist_rejected(tmp_path, monkeypatch, entry):
    # a body as long as two values of that dtype would be, so only the
    # dtype can refuse the file, and it must before any array exists
    try:
        itemsize = np.dtype(entry["dtype"]).itemsize
    except (KeyError, TypeError):
        itemsize = 8
    path = tmp_path / "c.gevd"
    raw = json.dumps({"meta": {}, "arrays": [
        {"name": "a", "shape": [2], **entry}]}).encode("utf-8")
    path.write_bytes(ckpt.MAGIC + struct.pack("<I", len(raw)) + raw
                     + b"\x01" * (2 * itemsize))

    def refuse(*args, **kwargs):
        raise AssertionError("an array was allocated")
    monkeypatch.setattr(ckpt.np, "empty", refuse)
    with pytest.raises(ckpt.CheckpointError, match="malformed"):
        ckpt.load_container(path)


@pytest.mark.parametrize("dtype", ckpt.DTYPES)
def test_body_sized_by_the_itemsize(tmp_path, dtype):
    path = tmp_path / "c.gevd"
    raw = json.dumps({"meta": {}, "arrays": [
        {"name": "a", "shape": [2, 3], "dtype": dtype}]}).encode("utf-8")
    body = b"\x02" * (6 * np.dtype(dtype).itemsize)
    path.write_bytes(ckpt.MAGIC + struct.pack("<I", len(raw)) + raw + body)
    back = ckpt.load_container(path)[1]["a"]
    assert back.dtype.str == dtype and back.tobytes() == body
    path.write_bytes(path.read_bytes()[:-1])
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
