"""Binary container for every artifact a stage reads back: the feature
matrices and vocabularies, and the detector and GAN checkpoints.

Layout (little-endian):
    magic   b"GEVD1"
    u32     header length in bytes
    header  UTF-8 JSON: {"meta": {...}, "arrays": [{"name", "shape"}, ...]}
    body    raw float64 buffers, row-major, in header order

The file ends with the last array; any byte after it is an error.
Round-trips are bit-exact. ``meta["key"]``, when a writer sets it, is the
content key of the inputs the arrays were computed from; a reader that
passes ``key`` gets a ``CheckpointError`` for any other.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .nncore import DenseLayer, Mlp

MAGIC = b"GEVD1"


class CheckpointError(ValueError):
    pass


def save_container(path, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    entries = [{"name": k, "shape": list(v.shape)} for k, v in arrays.items()]
    header = json.dumps({"meta": meta, "arrays": entries},
                        sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for v in arrays.values():
            fh.write(np.ascontiguousarray(v, dtype="<f8").tobytes())


def load_container(path, key: str | None = None):
    with open(path, "rb") as fh:
        magic = fh.read(5)
        if magic != MAGIC:
            raise CheckpointError(f"bad magic {magic!r}")
        raw = fh.read(4)
        if len(raw) != 4:
            raise CheckpointError("truncated header")
        (hlen,) = struct.unpack("<I", raw)
        header = json.loads(fh.read(hlen).decode("utf-8"))
        if key is not None and header["meta"].get("key") != key:
            raise CheckpointError("checkpoint built from other inputs")
        arrays = {}
        for entry in header["arrays"]:
            shape = tuple(entry["shape"])
            n = int(np.prod(shape)) if shape else 1
            buf = fh.read(8 * n)
            if len(buf) != 8 * n:
                raise CheckpointError(f"truncated array {entry['name']}")
            arrays[entry["name"]] = np.frombuffer(buf, dtype="<f8").reshape(shape).copy()
        if fh.read(1):
            raise CheckpointError("bytes after the last array")
    return header["meta"], arrays


def mlp_meta(net: Mlp) -> dict:
    return {
        "layers": [{"in": l.in_dim, "out": l.out_dim,
                    "activation": l.activation, "slope": l.slope}
                   for l in net.layers],
        "input_dropout": net.input_dropout_rate,
        "hidden_dropout": net.hidden_dropout_rate,
    }


def mlp_arrays(net: Mlp, prefix: str) -> dict[str, np.ndarray]:
    out = {}
    for i, layer in enumerate(net.layers):
        out[f"{prefix}.{i}.w"] = layer.weights
        out[f"{prefix}.{i}.b"] = layer.biases
    return out


def mlp_from(meta: dict, arrays: dict[str, np.ndarray], prefix: str) -> Mlp:
    layers = []
    for i, spec in enumerate(meta["layers"]):
        layers.append(DenseLayer(arrays[f"{prefix}.{i}.w"],
                                 arrays[f"{prefix}.{i}.b"],
                                 spec["activation"], slope=spec["slope"]))
    return Mlp(layers, input_dropout_rate=meta["input_dropout"],
               hidden_dropout_rate=meta["hidden_dropout"])
