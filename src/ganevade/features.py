"""Static feature families: byte histograms, import and string indicators.

Also provides the benign-frequency Top-K vocabulary selection and the
signed hashing-trick vectorizer used by the hashed detector variants.
"""

from __future__ import annotations

import functools
import hashlib
import re
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import checkpoint as ckpt

DEFAULT_MIN_STRING_LEN = 5
DEFAULT_HASH_DIM = 1280
# the (token, dim) pairs whose bucket and sign ``hash_features`` remembers; the
# bound keeps a corpus of unique tokens from growing the memo without limit
HASH_MEMO_SIZE = 1 << 14


class EmptyInputError(ValueError):
    pass


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


def byte_histogram(data: bytes) -> np.ndarray:
    """Frequency of each of the 256 byte values; sums to 1."""
    if len(data) == 0:
        raise EmptyInputError("cannot build a byte histogram of an empty file")
    counts = np.bincount(np.frombuffer(data, dtype=np.uint8), minlength=256)
    return counts / len(data)


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
    """Top-K tokens by benign document frequency, ties broken lexicographically.
    The documents are read once, in order, so a generator will do."""
    df: Counter = Counter()
    docs = 0
    for doc in benign_token_sets:
        df.update(set(doc))
        docs += 1
    if not docs:
        raise ValueError("empty benign corpus")
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


@functools.lru_cache(maxsize=HASH_MEMO_SIZE)
def _bucket(token: str, dim: int) -> tuple[int, float]:
    """A token's index in ``dim`` buckets and its sign (the hash's top bit)."""
    h = fnv1a64(token.encode("utf-8"))
    return h % dim, 1.0 if (h >> 63) == 0 else -1.0


def hash_features(tokens, dim: int = DEFAULT_HASH_DIM) -> np.ndarray:
    """Signed hashing trick: FNV-1a-64 index, sign from the hash's top bit.
    A token is hashed once per ``dim`` while the memo (``_bucket``) holds it."""
    if dim <= 0:
        raise ValueError("hash dimension must be positive")
    out = np.zeros(dim, dtype=np.float64)
    items = tokens.items() if isinstance(tokens, Counter) else ((t, 1) for t in tokens)
    for tok, count in items:
        idx, sign = _bucket(tok, dim)
        out[idx] += sign * count
    return out


# --- persistence -----------------------------------------------------------
# Both are checkpoint containers whose ``key`` is the content key of the
# inputs they were computed from; a loader given ``key`` raises
# ``CheckpointError`` (a ValueError) for any other, and for a container
# that lacks a field it reads.

def save_vocab(path, vocab: Vocabulary, key: str = "") -> None:
    ckpt.save_container(path, {"kind": vocab.kind, "entries": vocab.entries,
                               "provenance": vocab.provenance, "key": key}, {})


def load_vocab(path, key: str | None = None) -> Vocabulary:
    meta, _ = ckpt.load_container(path, key)
    return Vocabulary(kind=ckpt.field(meta, "kind", str),
                      entries=ckpt.field(meta, "entries", list, str),
                      provenance=ckpt.field(meta, "provenance", str))


def save_matrix(path, value: tuple, key: str = "") -> None:
    """``value``, a feature matrix and its ``columns`` names, as
    ``load_matrix`` returns it; bit-exact round trip."""
    matrix, columns = value
    ckpt.save_container(path, {"columns": list(columns), "key": key},
                        {"matrix": matrix})


def load_matrix(path, key: str | None = None):
    meta, arrays = ckpt.load_container(path, key)
    return (ckpt.field(arrays, "matrix", np.ndarray),
            ckpt.field(meta, "columns", list, str))
