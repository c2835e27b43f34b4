"""Static feature families: byte histograms, import and string indicators.

Also provides the benign-frequency Top-K vocabulary selection and the
signed hashing-trick vectorizer used by the hashed detector variants. A
vocabulary is an ordered ``{token: column}`` dict, and it is stored in the
container of the matrix whose columns it names.
"""

from __future__ import annotations

import functools
import heapq
import re
from collections import Counter

import numpy as np

from . import checkpoint as ckpt

DEFAULT_MIN_STRING_LEN = 5
DEFAULT_HASH_DIM = 1280
# the (token, dim) pairs whose bucket and sign ``hash_features`` remembers; the
# bound keeps a corpus of unique tokens from growing the memo without limit
HASH_MEMO_SIZE = 1 << 14


class EmptyInputError(ValueError):
    pass


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


def select_topk(benign_token_sets, k: int) -> dict:
    """Top-K tokens by benign document frequency, ties broken lexicographically,
    each mapped to its column. The documents are read once, in order, so a
    generator will do. It holds one document-frequency entry per distinct
    token and a heap of ``k`` candidates while ranking, not a sorted list
    of every distinct token."""
    df: Counter = Counter()
    docs = 0
    for doc in benign_token_sets:
        df.update(set(doc))
        docs += 1
    if not docs:
        raise ValueError("empty benign corpus")
    # the same tokens in the same order as sorted(...)[:k]
    ranked = heapq.nsmallest(k, df, key=lambda t: (-df[t], t))
    return {tok: i for i, tok in enumerate(ranked)}


def vectorize(tokens, vocab: dict) -> np.ndarray:
    """Binary indicator vector over the vocabulary; OOV tokens ignored."""
    bits = np.zeros(len(vocab), dtype=np.float64)
    for tok in tokens:
        i = vocab.get(tok)
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
# A matrix is a checkpoint container whose ``key`` is the content key of the
# inputs it was computed from; ``load_matrix`` given ``key`` raises
# ``CheckpointError`` (a ValueError) for any other, and for a container that
# lacks a field it reads.

def save_matrix(path, value: tuple, key: str = "") -> None:
    """``value``, a feature matrix, its ``columns`` names and its vocabulary
    (``None`` for a family without one), as ``load_matrix`` returns it: the
    matrix in its narrowest exact dtype (``checkpoint.narrowest``), the same
    float64 bits."""
    matrix, columns, vocab = value
    ckpt.save_container(path, {"columns": list(columns),
                               "vocab": None if vocab is None else list(vocab),
                               "key": key}, {"matrix": matrix})


def load_matrix(path, key: str | None = None):
    """The ``(matrix, columns, vocab)`` stored at ``path``; the vocabulary is
    ``None`` when none is stored, and is refused when an entry repeats or
    when it does not name each of the matrix's columns once."""
    meta, arrays = ckpt.load_container(path, key)
    matrix = ckpt.field(arrays, "matrix", np.ndarray)
    columns = ckpt.field(meta, "columns", list, str)
    if meta.get("vocab") is None:
        return matrix, columns, None
    entries = ckpt.field(meta, "vocab", list, str)
    vocab = {tok: i for i, tok in enumerate(entries)}
    if len(vocab) != len(entries) or matrix.shape[1:] != (len(vocab),):
        raise ckpt.CheckpointError(f"{len(entries)} vocabulary entries, "
                                   f"{len(vocab)} distinct, name the columns "
                                   f"of a {matrix.shape} matrix")
    return matrix, columns, vocab
