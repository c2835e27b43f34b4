"""Static feature families: byte histograms, import and string indicators.

Also provides the benign-frequency Top-K vocabulary selection and the
signed hashing-trick vectorizer used by the hashed detector variants.
"""

from __future__ import annotations

import hashlib
import json
import re
import struct
from collections import Counter
from dataclasses import dataclass

import numpy as np

DEFAULT_MIN_STRING_LEN = 5
DEFAULT_HASH_DIM = 1280

FEATURE_MAGIC = b"GEVF1"


class EmptyInputError(ValueError):
    pass


@dataclass
class ByteHistogram:
    freq: np.ndarray            # 256 bins, sums to 1
    total_bytes: int

    @property
    def counts(self) -> np.ndarray:
        return np.rint(self.freq * self.total_bytes).astype(np.int64)


@dataclass
class Vocabulary:
    kind: str                   # "api" | "string"
    entries: list[str]
    provenance: str = ""

    def __post_init__(self):
        if len(set(self.entries)) != len(self.entries):
            raise ValueError("vocabulary entries must be distinct")
        self.index = {tok: i for i, tok in enumerate(self.entries)}

    @property
    def size(self) -> int:
        return len(self.entries)


def byte_histogram(data: bytes) -> ByteHistogram:
    if len(data) == 0:
        raise EmptyInputError("cannot build a byte histogram of an empty file")
    counts = np.bincount(np.frombuffer(data, dtype=np.uint8), minlength=256)
    return ByteHistogram(freq=counts / len(data), total_bytes=len(data))


def extract_imports(pe) -> set[str]:
    """``library!function`` tokens (lowercased) from a parsed image.

    Ordinal imports render as ``library!#ordinal``.
    """
    tokens = set()
    for desc in pe.import_descriptors:
        lib = desc.library.lower()
        for entry in desc.entries:
            if entry.name is not None:
                tokens.add(f"{lib}!{entry.name.lower()}")
            else:
                tokens.add(f"{lib}!#{entry.ordinal}")
    return tokens


def extract_strings(data: bytes, min_len: int = DEFAULT_MIN_STRING_LEN) -> Counter:
    """Maximal printable-ASCII runs of length >= min_len, as a multiset."""
    if min_len < 1:
        raise ValueError("min_len must be >= 1")
    return Counter(run.decode("ascii") for run in
                   re.findall(rb"[\x20-\x7e]{%d,}" % min_len, data))


def select_topk(benign_token_sets, k: int, kind: str = "api") -> Vocabulary:
    """Top-K tokens by benign document frequency, ties broken lexicographically."""
    docs = [set(s) for s in benign_token_sets]
    if not docs:
        raise ValueError("empty benign corpus")
    df: Counter = Counter()
    for doc in docs:
        df.update(doc)
    ranked = sorted(df, key=lambda t: (-df[t], t))
    digest = hashlib.sha256(
        "\n".join(sorted(df)).encode("utf-8")).hexdigest()[:16]
    return Vocabulary(kind=kind, entries=ranked[:k], provenance=digest)


def vectorize(tokens, vocab: Vocabulary) -> np.ndarray:
    """Binary indicator vector over the vocabulary; OOV tokens ignored."""
    bits = np.zeros(vocab.size, dtype=np.float64)
    for tok in tokens:
        i = vocab.index.get(tok)
        if i is not None:
            bits[i] = 1.0
    return bits


def fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def hash_features(tokens, dim: int = DEFAULT_HASH_DIM) -> np.ndarray:
    """Signed hashing trick: FNV-1a-64 index, sign from the hash's top bit."""
    if dim <= 0:
        raise ValueError("hash dimension must be positive")
    out = np.zeros(dim, dtype=np.float64)
    items = tokens.items() if isinstance(tokens, Counter) else ((t, 1) for t in tokens)
    for tok, count in items:
        h = fnv1a64(tok.encode("utf-8"))
        sign = 1.0 if (h >> 63) == 0 else -1.0
        out[h % dim] += sign * count
    return out


# --- persistence -----------------------------------------------------------
# Each file's header carries ``key``, the content key of the inputs it was
# computed from; a loader given ``key`` raises ValueError for any other.

def save_vocab(vocab: Vocabulary, path, key: str = "") -> None:
    """Header line, then one JSON string per entry, so that any token
    (blank, padded, holding a newline) reads back as written."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# kind={vocab.kind} k={vocab.size} "
                 f"corpus={vocab.provenance} key={key}\n")
        for tok in vocab.entries:
            fh.write(json.dumps(tok) + "\n")


def load_vocab(path, key: str | None = None) -> Vocabulary:
    with open(path, encoding="utf-8") as fh:
        fields = dict(part.split("=", 1)
                      for part in fh.readline().lstrip("# ").split())
        if key is not None and fields.get("key") != key:
            raise ValueError(f"{path}: vocabulary built from other inputs")
        entries = [json.loads(line) for line in fh]
    if len(entries) != int(fields["k"]):
        raise ValueError(f"{path}: {len(entries)} entries, header says {fields['k']}")
    return Vocabulary(kind=fields["kind"], entries=entries,
                      provenance=fields.get("corpus", ""))


def save_matrix(matrix: np.ndarray, columns, path, key: str = "") -> None:
    """Compact binary feature matrix; bit-exact round trip."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    header = json.dumps({"shape": list(matrix.shape), "columns": list(columns),
                         "key": key}).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        fh.write(np.ascontiguousarray(matrix, dtype="<f8").tobytes())


def load_matrix(path, key: str | None = None):
    with open(path, "rb") as fh:
        if fh.read(5) != FEATURE_MAGIC:
            raise ValueError("bad feature-matrix magic")
        raw = fh.read(4)
        if len(raw) != 4:
            raise ValueError("truncated feature-matrix header")
        header = json.loads(fh.read(struct.unpack("<I", raw)[0]).decode("utf-8"))
        if key is not None and header.get("key") != key:
            raise ValueError(f"{path}: feature matrix built from other inputs")
        body = fh.read()
    shape = header["shape"]
    if len(body) != 8 * int(np.prod(shape)):
        raise ValueError(f"{path}: truncated feature matrix")
    return np.frombuffer(body, dtype="<f8").reshape(shape).copy(), header["columns"]
