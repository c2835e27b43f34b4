"""Binary container for every artifact a stage reads back: the feature
matrices, each with its vocabulary, and the detector and GAN checkpoints.

Layout (little-endian):
    magic   b"GEVD2"
    u32     header length in bytes
    header  UTF-8 JSON: {"meta": {...},
                         "arrays": [{"name", "shape", "dtype"}, ...]}
    body    each array's raw buffer, row-major, in header order

Each array is stored in the narrowest of ``NARROW`` (``uint8``, ``int8``,
``uint16``, ``int16``, ``int32``) whose values convert back to the same
float64 bits: integer-valued, finite, no ``-0.0`` and in that type's
range, like a Top-K indicator matrix or a hashed count matrix. Any other
array is stored as ``<f8``. ``load_container`` returns each array in its
stored dtype, so the round trip is bit-exact as float64:
``astype("<f8")`` gives back the bytes that were saved.

The file ends with the last array. A header of any other shape, a
``dtype`` outside ``DTYPES``, a body of any other length and a short file
raise ``CheckpointError``; so does a file of another magic, such as a
``GEVD1`` container of raw float64 arrays, which a stage then recomputes.
``meta["key"]``, when a writer sets it, is the content key of the inputs
the arrays were computed from; a reader that passes ``key`` gets a
``CheckpointError`` for any other. A loader reads each field through
``field``, so a container that lacks one, or holds one of another type,
raises ``CheckpointError`` too.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .nncore import DenseLayer, Mlp

MAGIC = b"GEVD2"
NUMBER = (int, float)
# the integer dtypes an array may be stored in, narrowest first, and every
# dtype a header may name
NARROW = ("|u1", "|i1", "<u2", "<i2", "<i4")
DTYPES = ("<f8", *NARROW)
# narrowest checks a float array for exactness this many elements at a time
CHECK_BLOCK = 1 << 16


class CheckpointError(ValueError):
    pass


def narrowest(array) -> np.ndarray:
    """``array`` in the first of ``NARROW`` whose range holds its values
    when each value converts back to the same float64 bits, else as
    ``<f8``. An array already in that dtype is returned as it is."""
    a = np.asarray(array)
    if a.dtype.kind not in "iu":
        a = a.astype("<f8", copy=False)
    with np.errstate(invalid="ignore"):     # a signalling NaN may flag it
        lo, hi = a.min(initial=0), a.max(initial=0)
    dtype = next((d for d in NARROW
                  if np.iinfo(d).min <= lo and hi <= np.iinfo(d).max), None)
    if dtype is not None and a.dtype.kind == "f":
        # every dtype in range holds the same truncated values, so the
        # first to lose a bit rules out all of them
        flat = a.reshape(-1)
        for start in range(0, flat.size, CHECK_BLOCK):
            block = flat[start:start + CHECK_BLOCK]
            if not np.array_equal(block.astype(dtype).astype("<f8").view("<u8"),
                                  block.view("<u8")):
                dtype = None
                break
    return a.astype(dtype or "<f8", copy=False)


def save_container(path, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    stored = {k: narrowest(v) for k, v in arrays.items()}
    entries = [{"name": k, "shape": list(v.shape), "dtype": v.dtype.str}
               for k, v in stored.items()]
    header = json.dumps({"meta": meta, "arrays": entries},
                        sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(len(header).to_bytes(4, "little"))
        fh.write(header)
        for v in stored.values():
            fh.write(np.ascontiguousarray(v).data)


def _well_formed(header) -> bool:
    """An object whose ``meta`` is an object and whose ``arrays`` lists
    ``{name, shape, dtype}`` entries, each shape a list of non-negative
    ints and each dtype one of ``DTYPES``."""
    return (isinstance(header, dict) and isinstance(header.get("meta"), dict)
            and isinstance(header.get("arrays"), list)
            and all(isinstance(e, dict) and isinstance(e.get("name"), str)
                    and isinstance(e.get("shape"), list)
                    and all(type(d) is int and d >= 0 for d in e["shape"])
                    and e.get("dtype") in DTYPES
                    for e in header["arrays"]))


def load_container(path, key: str | None = None):
    """The (meta, arrays) ``save_container`` wrote, each array in its stored
    dtype. The body length, each array's element count times its dtype's
    itemsize, is checked against the file's size before any array is
    allocated, and each array is read straight into its own buffer, so the
    file is never held whole besides the arrays."""
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
        nbytes = [np.dtype(e["dtype"]).itemsize * math.prod(e["shape"])
                  for e in header["arrays"]]
        if end + sum(nbytes) != size:
            raise CheckpointError("body length differs from the header's arrays")
        arrays = {}
        for e, n in zip(header["arrays"], nbytes):
            array = arrays[e["name"]] = np.empty(e["shape"], e["dtype"])
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
