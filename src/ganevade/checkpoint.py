"""Binary container for every artifact a stage reads back: the feature
matrices and vocabularies, and the detector and GAN checkpoints.

Layout (little-endian):
    magic   b"GEVD1"
    u32     header length in bytes
    header  UTF-8 JSON: {"meta": {...}, "arrays": [{"name", "shape"}, ...]}
    body    raw float64 buffers, row-major, in header order

The file ends with the last array. A header of any other shape, a body
of any other length and a short file raise ``CheckpointError``.
Round-trips are bit-exact. ``meta["key"]``, when a writer sets it, is the
content key of the inputs the arrays were computed from; a reader that
passes ``key`` gets a ``CheckpointError`` for any other. A loader reads
each field through ``field``, so a container that lacks one, or holds one
of another type, raises ``CheckpointError`` too.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .nncore import DenseLayer, Mlp

MAGIC = b"GEVD1"
NUMBER = (int, float)


class CheckpointError(ValueError):
    pass


def save_container(path, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    entries = [{"name": k, "shape": list(v.shape)} for k, v in arrays.items()]
    header = json.dumps({"meta": meta, "arrays": entries},
                        sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(len(header).to_bytes(4, "little"))
        fh.write(header)
        for v in arrays.values():
            fh.write(np.ascontiguousarray(v, dtype="<f8").tobytes())


def _well_formed(header) -> bool:
    """An object whose ``meta`` is an object and whose ``arrays`` lists
    ``{name, shape}`` entries, each shape a list of non-negative ints."""
    return (isinstance(header, dict) and isinstance(header.get("meta"), dict)
            and isinstance(header.get("arrays"), list)
            and all(isinstance(e, dict) and isinstance(e.get("name"), str)
                    and isinstance(e.get("shape"), list)
                    and all(type(d) is int and d >= 0 for d in e["shape"])
                    for e in header["arrays"]))


def load_container(path, key: str | None = None):
    """The (meta, arrays) ``save_container`` wrote. The body length is
    checked against the file's size before any array is allocated, and
    each array is read straight into its own buffer, so the file is never
    held whole besides the arrays."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(9)
        if head[:5] != MAGIC:
            raise CheckpointError(f"bad magic {head[:5]!r}")
        end = 9 + int.from_bytes(head[5:9], "little")
        if size < end:
            raise CheckpointError("truncated header")
        try:
            header = json.loads(fh.read(end - 9).decode("utf-8"))
        except ValueError as exc:
            raise CheckpointError(f"unreadable header: {exc}") from None
        if not _well_formed(header):
            raise CheckpointError("malformed header")
        if key is not None and header["meta"].get("key") != key:
            raise CheckpointError("checkpoint built from other inputs")
        nbytes = [8 * math.prod(e["shape"]) for e in header["arrays"]]
        if end + sum(nbytes) != size:
            raise CheckpointError("body length differs from the header's arrays")
        arrays = {}
        for e, n in zip(header["arrays"], nbytes):
            array = arrays[e["name"]] = np.empty(e["shape"], "<f8")
            if fh.readinto(array) != n:
                raise CheckpointError("body length differs from the header's arrays")
    return header["meta"], arrays


def field(mapping, name: str, kind, item=None):
    """``mapping[name]`` when it is a ``kind`` (a list of ``item``s, when
    ``item`` is given); ``CheckpointError`` when it is missing or not."""
    value = mapping.get(name) if isinstance(mapping, dict) else None
    if not isinstance(value, kind) or (
            item is not None and not all(isinstance(v, item) for v in value)):
        raise CheckpointError(f"checkpoint field {name!r} missing or mistyped")
    return value


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
    for i, spec in enumerate(field(meta, "layers", list, dict)):
        layers.append(DenseLayer(field(arrays, f"{prefix}.{i}.w", np.ndarray),
                                 field(arrays, f"{prefix}.{i}.b", np.ndarray),
                                 field(spec, "activation", str),
                                 slope=field(spec, "slope", NUMBER)))
    return Mlp(layers, input_dropout_rate=field(meta, "input_dropout", NUMBER),
               hidden_dropout_rate=field(meta, "hidden_dropout", NUMBER))
