"""Experiment orchestration: synthetic corpora, pipeline stages, reports.

``STAGES`` runs, orders and names every stage: ``run_stages`` runs them in
order, in one process, handing results on in memory, and names a failed
one by its row. A CLI subcommand runs the table up to its own stage; a run
is reproducible from the config and seed. No file is held in memory: the
corpus and each attack's outputs are a ``FileSet`` each, whose files are
read from disk when a stage visits them and checked against their records,
with the rest of its manifest as ``meta``. A set's files are written on
one writer thread while the caller makes the next, at most
``WRITE_AHEAD`` of them waiting. Each attack writes each rewritten file
under ``attacks/<attack>/`` as it makes it, and evaluation
re-extracts features from those files, never from the adversarial feature
vectors. ``_store`` writes every JSON artifact, a set's manifest among
them, and ``_stored`` reads it back.

Each attack is one entry of ``ATTACKS``: its steps, each an editor of one
file's image in memory that declares the GAN kinds and config fields it
needs, which key the attack. ``run_attack`` is the one loop over the
files: it parses each once, hands it through the steps in order and
writes it once. ``gan_all`` is the ``gan_api``, ``gan_strings`` and
``gan_byte`` steps.

Each feature family is one entry of ``FAMILIES``, the builder of one
file's vector from its lazily extracted ``FileFeatures``. Extract loads or
computes only the families the run reads; a later step of an attack and
evaluation build the rewritten files' rows through the same table.
Extract and evaluation go through ``FeatureTable.extract``, which visits
each file once and drops its ``FileFeatures`` before the next file's is
made, so a run holds the matrices, not every file's token sets. A Top-K
family's vocabulary is stored in its matrix's container, so it is ranked
exactly when the matrix is computed: from the train-benign files, visited
first, whose token sets alone are held until it exists, as references to
one copy of each distinct token.

Every artifact resumes through ``_resume`` under a content key
(``_key``): a SHA-256 over the config slice that determines it and the
keys of what it was computed from, as each stage builds it. What is
stored under the key loads; anything else is computed and written over
it, except a corpus file that kept its size but not its bytes: that fails
the run (``CorpusError``). Extract resumes its matrices, one file per
family, in one ``_resume`` call, so one pass over the files computes all
that missed. Each matrix is held, as it is stored, in its narrowest exact
dtype (``checkpoint.narrowest``).
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import hashlib
import itertools
import json
import math
import os
import re
import shutil
import threading
import time
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from . import baselines, detectors, features, gan, padopt, petk
from . import checkpoint as ckpt
from . import __version__

SCHEMA_VERSION = 1
CACHE_ENV_VAR = "GANEVADE_CACHE_DIR"

# GAN kind -> the feature family its generator rewrites
GAN_FAMILIES = {"byte_histogram": "byte", "api": "api_topk",
                "strings": "strings_topk"}
GAN_KINDS = tuple(GAN_FAMILIES)
# GAN kind -> the steps it trains for when the config's ``gans`` leaves it out
GAN_STEPS = {"byte_histogram": 3000, "api": 300, "strings": 300}


class ConfigError(ValueError):
    pass


class StageError(RuntimeError):
    def __init__(self, stage: str, message: str):
        super().__init__(f"stage {stage!r} failed: {message}")
        self.stage = stage


# --- configuration ----------------------------------------------------------

# the synthetic corpus's Dirichlet byte-content profile of each class:
# printable-heavy, text-like benign content, high-byte heavy malicious content
BYTE_ALPHA = {label: np.full(256, 0.3) for label in ("benign", "malicious")}
BYTE_ALPHA["benign"][0x20:0x80] = 6.0
BYTE_ALPHA["malicious"][0x80:] = 6.0


def _token_pools(benign, malicious, shared, tail) -> tuple:
    """(tokens, p_benign, p_malicious) of each pool: each of its tokens is in
    a file of that class with that probability."""
    return ((benign, 0.35, 0.05), (malicious, 0.02, 0.4), (shared, 0.5, 0.5),
            # long tail of rare benign tokens: individually below any Top-K
            # cut, collectively visible to the hashed representation
            (tail, 0.25, 0.0))


# the synthetic corpus's import and string pools
API_POOLS = _token_pools(
    [f"oslib{i % 12:02d}.dll!service{i:03d}" for i in range(120)],
    [f"shady{i % 8:02d}.dll!payload{i:03d}" for i in range(60)],
    [f"common{i % 4:02d}.dll!util{i:03d}" for i in range(30)],
    [f"vendor{i % 40:02d}.dll!ext{i:03d}" for i in range(400)])
STRING_POOLS = _token_pools(
    [f"product-release-note-{i:03d}" for i in range(150)],
    [f"exfil-beacon-target-{i:03d}" for i in range(80)],
    [f"shared-runtime-msg-{i:03d}" for i in range(40)],
    [f"locale-resource-entry-{i:03d}" for i in range(400)])


@dataclass
class CorpusConfig:
    kind: str = "synthetic"                 # synthetic | dirs
    n_per_class: int = 100
    content_size: tuple = (1024, 4096)
    benign_dir: str | None = None
    malicious_dir: str | None = None


@dataclass
class FeatureConfig:
    k_api: int = 150
    k_strings: int = 200
    hash_dim: int = features.DEFAULT_HASH_DIM


@dataclass
class DetectorSpec:
    name: str
    kind: str = "logreg"                    # logreg | mlp
    families: tuple = ("byte",)
    hyperparams: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.families, (list, tuple)):
            raise TypeError(f"detector families must be a list, got "
                            f"{self.families!r}")
        if not isinstance(self.hyperparams, dict):
            raise TypeError(f"detector hyperparams must be an object, got "
                            f"{self.hyperparams!r}")
        self.families = tuple(self.families)


def _default_detectors() -> list:
    return [
        DetectorSpec("byte_logreg", "logreg", ("byte",)),
        DetectorSpec("api_topk_logreg", "logreg", ("api_topk",)),
        DetectorSpec("api_hashed_logreg", "logreg", ("api_hashed",)),
        DetectorSpec("strings_topk_logreg", "logreg", ("strings_topk",)),
        DetectorSpec("strings_hashed_logreg", "logreg", ("strings_hashed",)),
        DetectorSpec("multimodal_v1", "logreg", ("byte", "api_hashed")),
        DetectorSpec("multimodal_v2", "logreg",
                     ("byte", "api_hashed", "strings_hashed")),
    ]


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# a detector's name becomes part of a file name under models/
DETECTOR_NAME = re.compile(r"[A-Za-z0-9_-]+")

# the upper bounds of the config's sizes, each with the largest allocation
# it allows, the other sizes at their bounds
MAX_N_PER_CLASS = 10_000    # a matrix of 20,000 float64 rows of 4096: 655 MB
MAX_CONTENT_SIZE = 1 << 20  # WRITE_AHEAD files of 1 MiB: 64 MiB
MAX_HASH_DIM = 4096         # a hashed row of 32 KiB per file
# pipeline_preset's GAN of a Top-K family: about 3 k^2 = 12.6M generator
# weights, 101 MB, and 403 MB with their gradient and two Adam moments
MAX_TOPK = 2048

DEFAULT_GAP_SWEEP = (0.01, 0.008, 0.005, 0.003, 0.001, 0.0008, 0.0005,
                     0.0003, 0.0001)


@dataclass
class ExperimentConfig:
    corpus: CorpusConfig = field(default_factory=CorpusConfig)
    feature_cfg: FeatureConfig = field(default_factory=FeatureConfig)
    gans: dict = field(default_factory=dict)    # kind -> gan.TrainingConfig
    detectors: list = field(default_factory=_default_detectors)
    attacks: list = field(default_factory=lambda: [
        "gan_byte", "gan_api", "gan_strings", "benign_injection",
        "malgan_byte"])
    split: tuple = (0.8, 0.1, 0.1)
    gap: float = 0.001
    gap_sweep: tuple = DEFAULT_GAP_SWEEP
    sweep_subsample: int = 200
    max_new_imports: int = 2048
    max_new_strings: int = 4096
    malgan_max_queries: int = 50_000
    seed: int = 0

    def __post_init__(self):
        seqs = (list, tuple)
        if not (isinstance(self.gans, dict) and all(
                isinstance(v, seqs)
                for v in (self.detectors, self.attacks, self.gap_sweep))):
            raise ConfigError("gans must be an object, detectors, attacks and "
                              "gap_sweep lists")
        if not (isinstance(self.split, seqs) and len(self.split) == 3
                and all(_is_number(f) and f >= 0 for f in self.split)
                and abs(sum(self.split) - 1.0) <= 1e-9):
            raise ConfigError(f"split must be three fractions >= 0 that sum "
                              f"to 1, got {self.split!r}")
        corpus, fcfg = self.corpus, self.feature_cfg
        for name, value, least, most in (
                ("seed", self.seed, 0, math.inf),
                ("sweep_subsample", self.sweep_subsample, 1, math.inf),
                ("max_new_imports", self.max_new_imports, 0, math.inf),
                ("max_new_strings", self.max_new_strings, 0, math.inf),
                ("malgan_max_queries", self.malgan_max_queries, 0, math.inf),
                ("corpus.n_per_class", corpus.n_per_class, 1, MAX_N_PER_CLASS),
                ("feature_cfg.k_api", fcfg.k_api, 1, MAX_TOPK),
                ("feature_cfg.k_strings", fcfg.k_strings, 1, MAX_TOPK),
                ("feature_cfg.hash_dim", fcfg.hash_dim, 1, MAX_HASH_DIM)):
            if not (_is_int(value) and least <= value <= most):
                raise ConfigError(f"{name} must be an integer in [{least}, "
                                  f"{most}], got {value!r}")
        for attack in self.attacks:
            if attack not in ATTACKS:
                raise ConfigError(f"unknown attack {attack!r}")
        names = [spec.name for spec in self.detectors]
        for name in names:
            if not (isinstance(name, str) and DETECTOR_NAME.fullmatch(name)):
                raise ConfigError(f"detector name {name!r} is not "
                                  f"{DETECTOR_NAME.pattern}")
        if len(set(names)) != len(names):
            raise ConfigError(f"detector names repeat: {names}")
        for spec in self.detectors:
            if spec.kind not in detectors.KINDS:
                raise ConfigError(f"unknown detector kind {spec.kind!r}")
            if not spec.families:
                raise ConfigError(f"detector {spec.name!r} reads no family")
            unknown = set(spec.hyperparams) - set(detectors.DEFAULT_HYPERPARAMS)
            if unknown:
                raise ConfigError(f"unknown hyperparams {sorted(unknown)} "
                                  f"of detector {spec.name!r}")
            if not all(_is_int(v) and v >= 1 for v in spec.hyperparams.values()):
                raise ConfigError(f"detector {spec.name!r}: steps and hidden "
                                  f"must be integers >= 1")
            for fam in spec.families:
                if fam not in FAMILIES:
                    raise ConfigError(f"unknown feature family {fam!r}")
                if spec.families.count(fam) > 1:
                    raise ConfigError(f"detector {spec.name!r} names the "
                                      f"family {fam!r} twice")
        # MalGAN queries a byte-only detector; gan_byte's gap sweep scores on one
        if ({"gan_byte", "malgan_byte"} & set(self.attacks) and
                ("byte",) not in [spec.families for spec in self.detectors]):
            raise ConfigError("gan_byte and malgan_byte need a detector that "
                              "reads the byte family alone")
        for kind in self.gans:
            if kind not in GAN_KINDS:
                raise ConfigError(f"unknown GAN kind {kind!r} in gans")
        # a kind left out trains for its default steps
        self.gans = {kind: self.gans.get(kind, gan.TrainingConfig(steps))
                     for kind, steps in GAN_STEPS.items()}
        for gap in (self.gap, *self.gap_sweep):
            if not (_is_number(gap) and 0.0 <= gap < 1.0):
                raise ConfigError(f"gap {gap!r} outside [0, 1)")
        if self.corpus.kind not in ("synthetic", "dirs"):
            raise ConfigError(f"unknown corpus kind {self.corpus.kind!r}")
        paths = (corpus.benign_dir, corpus.malicious_dir)
        if corpus.kind == "dirs" and None in paths:
            raise ConfigError("a dirs corpus needs benign_dir and malicious_dir")
        for path in paths:
            if not (path is None or isinstance(path, str) and (
                    corpus.kind != "dirs" or os.path.isdir(path))):
                raise ConfigError(f"corpus path {path!r} is not a directory")
        if self.corpus.kind == "synthetic":
            # a dirs corpus is checked by extract, once its files are known
            n = self.corpus.n_per_class
            n_train, n_val = _split_sizes(n, self.split)
            for part, count in (("train", n_train), ("test", n - n_train - n_val)):
                if count < 1:
                    raise ConfigError(f"split {self.split} leaves each class of "
                                      f"{n} synthetic files no {part} file")
        size = self.corpus.content_size
        if not (isinstance(size, (tuple, list)) and len(size) == 2
                and all(_is_int(v) for v in size)
                and 1 <= size[0] <= size[1] <= MAX_CONTENT_SIZE):
            raise ConfigError(f"corpus.content_size must be integers 1 <= lo "
                              f"<= hi <= {MAX_CONTENT_SIZE}, got {size!r}")

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["schema_version"] = SCHEMA_VERSION
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise ConfigError("a config is a JSON object")
        d = dict(d)
        version = d.pop("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ConfigError(f"unsupported config schema version {version}")
        try:
            if "corpus" in d:
                d["corpus"] = CorpusConfig(**d["corpus"])
            if "feature_cfg" in d:
                d["feature_cfg"] = FeatureConfig(**d["feature_cfg"])
            # another container is left as it is, for __post_init__ to refuse
            if isinstance(d.get("gans"), dict):
                d["gans"] = {k: gan.TrainingConfig(**v)
                             for k, v in d["gans"].items()}
            if isinstance(d.get("detectors"), list):
                d["detectors"] = [DetectorSpec(**s) for s in d["detectors"]]
            for key in ("split", "gap_sweep"):
                if isinstance(d.get(key), list):
                    d[key] = tuple(d[key])
            if "corpus" in d and isinstance(d["corpus"].content_size, list):
                d["corpus"].content_size = tuple(d["corpus"].content_size)
            return cls(**d)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from None

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:16]


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            return ExperimentConfig.from_dict(json.load(fh))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None


def default_workdir() -> Path:
    return Path(os.environ.get(CACHE_ENV_VAR, ".ganevade"))


# --- synthetic corpus -------------------------------------------------------

def _sample_tokens(pools: tuple, label: str, rng: np.random.Generator) -> list[str]:
    picked = []
    for tokens, p_benign, p_malicious in pools:
        p = p_benign if label == "benign" else p_malicious
        mask = rng.random(len(tokens)) < p
        picked.extend(itertools.compress(tokens, mask.tolist()))
    return picked


def _sample_content(alpha: np.ndarray, size: int, rng: np.random.Generator) -> bytes:
    dist = rng.dirichlet(alpha)
    counts = rng.multinomial(size, dist)
    values = np.repeat(np.arange(256, dtype=np.uint8), counts)
    return rng.permutation(values).tobytes()


class CorpusError(RuntimeError):
    """A stored file whose bytes differ from those its manifest records."""


# at most this many files handed to a FileSet's writer wait to be written:
# the caller that makes them faster waits, holding no more files' bytes
WRITE_AHEAD = 64


class _Writer:
    """One thread that creates each file handed to ``put``, in order, while
    the caller makes the next; ``close`` waits for them all and raises the
    first error. Each of ``os.open``, ``os.write`` and ``os.close`` lets the
    caller run meanwhile; once a write fails, the rest are not made."""

    def __init__(self):
        self.pending = collections.deque()
        self.ready = threading.Semaphore(0)
        self.slots = threading.Semaphore(WRITE_AHEAD)
        self.error = None
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()

    def put(self, path: Path, data: bytes) -> None:
        self.slots.acquire()
        if self.error is not None:
            raise self.error
        self.pending.append((path, data))
        self.ready.release()

    def close(self) -> None:
        self.pending.append(None)
        self.ready.release()
        self.thread.join()
        if self.error is not None:
            raise self.error

    def _run(self) -> None:
        while True:
            self.ready.acquire()
            item = self.pending.popleft()
            if item is None:
                return
            path, data = item
            if self.error is None:
                try:
                    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC,
                                 0o666)
                    try:
                        view = memoryview(data)
                        while view:
                            view = view[os.write(fd, view):]
                    finally:
                        os.close(fd)
                # kept for the caller to raise; this thread goes on freeing
                # a slot for each file, so no caller waits for one forever
                except Exception as exc:
                    self.error = exc
            self.slots.release()


class FileSet(Mapping):
    """Read-only name -> bytes over files on disk, each recorded by name,
    size and SHA-256 (and a corpus file's ``label`` and ``source``, a
    padded file's ``certificate``) in the order it was added. A file is
    read each time it is accessed and never held; bytes other than those
    recorded raise ``CorpusError``, naming it. A record with a ``source``
    (a ``dirs`` corpus) is read there, any other from ``directory``.
    ``write`` hands each file to a writer thread; ``wait``, which reading
    a file and ``save`` call, waits until they are all written."""

    def __init__(self, directory: Path | None, records=(), kind="corpus"):
        self.directory = directory
        self.records = {rec["name"]: rec for rec in records}
        self.kind = kind    # what the error of a changed file calls it
        self.meta = {}      # the rest of its manifest
        self._writer = None

    def path(self, name: str) -> Path:
        rec = self.records[name]
        return Path(rec["source"]) if "source" in rec else self.directory / name

    def add(self, name: str, data: bytes, **extra) -> None:
        """Record ``data``, read in place or written, as file ``name``."""
        self.records[name] = {"name": name, **extra, "size": len(data),
                              "sha256": hashlib.sha256(data).hexdigest()}

    def write(self, name: str, data: bytes, **extra) -> None:
        """Record ``data`` as file ``name`` in ``directory`` and hand it to
        the set's writer, started with the first file; raise the error of
        an earlier write."""
        if self._writer is None:
            # the directory comes with the first file: an attack that fails
            # before it makes one leaves none
            self.directory.mkdir(parents=True, exist_ok=True)
            self._writer = _Writer()
        self._writer.put(self.directory / name, data)
        self.add(name, data, **extra)

    def wait(self) -> None:
        """Wait until every file handed to ``write`` is written and stop the
        writer; raise the first write error."""
        writer, self._writer = self._writer, None
        if writer is not None:
            writer.close()

    def __getitem__(self, name: str) -> bytes:
        self.wait()
        path = self.path(name)
        data = path.read_bytes()
        if hashlib.sha256(data).hexdigest() != self.records[name]["sha256"]:
            raise CorpusError(f"{self.kind} file {path} differs from the "
                              f"bytes its manifest records")
        return data

    def __iter__(self):
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def files(self, names: list[str]) -> "Files":
        return Files(names, self.__getitem__)

    def save(self, path: Path, key: str | None) -> None:
        """``meta``, the records and ``key`` at ``path``, after the files."""
        self.wait()
        _store(path, key, **self.meta, files=list(self.records.values()))

    @classmethod
    def load(cls, path: Path, key: str | None, kind: str, required: tuple,
             **fields) -> "FileSet":
        """The set ``save`` wrote at ``path`` under ``key``, each record, each
        of ``fields`` of ``meta`` and each file (``check``) checked. Each
        record holds the string fields ``required``; one with a ``source``
        not among them is refused, so a set whose files all live in
        ``directory`` is read nowhere else."""
        meta = _stored(path, key)
        records = ckpt.field(meta, "files", list, dict)
        for rec in records:
            ckpt.field(rec, "size", int)
            for name in ("name", "sha256", *required):
                ckpt.field(rec, name, str)
            if "source" in rec and "source" not in required:
                raise ValueError(f"{path.name} records a source for "
                                 f"{rec['name']!r}")
            # a name with a directory in it leads out of ``directory``
            if rec["name"] in ("", ".", "..") or \
                    os.path.basename(rec["name"]) != rec["name"]:
                raise ValueError(f"{path.name} records the file name "
                                 f"{rec['name']!r}")
        for name, kinds in fields.items():
            ckpt.field(meta, name, *kinds)
        files = cls(path.parent, meta.pop("files"), kind)
        files.meta = meta
        files.check()
        return files

    def check(self) -> None:
        """``ValueError`` when a file is gone or resized, then
        ``CorpusError`` when one kept its size but not its bytes. A file
        read in place (``source``) is not hashed: the key of a ``dirs``
        corpus holds each source's SHA-256."""
        for name, rec in self.records.items():
            path = self.path(name)
            if not path.is_file() or path.stat().st_size != rec["size"]:
                raise ValueError(f"{self.kind} file {path} is gone or resized")
        for name, rec in self.records.items():
            if "source" not in rec:
                self[name]


class Files(Sequence):
    """The bytes of each of ``names``, ``read(name)`` when indexed: a
    caller that walks it holds one file at a time."""

    def __init__(self, names: list[str], read: Callable[[str], bytes]):
        self.names = names
        self.read = read

    def __len__(self) -> int:
        return len(self.names)

    def __getitem__(self, i: int) -> bytes:
        return self.read(self.names[i])


def _store(path: Path, key: str | None, **fields) -> None:
    """``fields`` and ``key`` as one JSON object at ``path``."""
    path.write_text(json.dumps({"key": key, **fields}, sort_keys=True,
                               indent=1))


def _stored(path: Path, key: str | None) -> dict:
    """The fields ``_store`` wrote at ``path``, ``key`` aside: ``ValueError``
    for a file that is not a JSON object or, unless ``key`` is None, one
    stored under another key."""
    stored = json.loads(path.read_text())
    if not isinstance(stored, dict) or (
            stored.pop("key", None) != key and key is not None):
        raise ValueError(f"{path.name} is malformed or of other inputs")
    return stored


def _synth_files(cfg: CorpusConfig, seed: int):
    """(name, label, bytes) of each synthetic corpus file, in manifest
    order, each made when it is reached."""
    rng = np.random.default_rng(seed)
    lo, hi = cfg.content_size
    for label in ("benign", "malicious"):
        for i in range(cfg.n_per_class):
            content = _sample_content(BYTE_ALPHA[label],
                                      int(rng.integers(lo, hi + 1)), rng)
            imports = _sample_tokens(API_POOLS, label, rng)
            strings = _sample_tokens(STRING_POOLS, label, rng)
            spec = petk.SynthSpec(
                sections=[petk.SectionSpec(".text", content=content)],
                imports=imports, strings=strings)
            yield (f"{label}_{i:05d}.exe", label,
                   petk.synth_pe(spec, seed=int(rng.integers(0, 2**31))))


def _digest(digest, name: str, label: str, data: bytes) -> None:
    """Add corpus file ``name`` to ``digest``, the SHA-256 over the whole
    corpus in manifest order that keys extract."""
    digest.update(json.dumps([name, label, len(data)]).encode("utf-8"))
    digest.update(data)


def gen_corpus(cfg: CorpusConfig, seed: int, corpus_dir: Path) -> FileSet:
    """A labeled synthetic PE corpus written to ``corpus_dir``, in place of
    whatever it held, each file handed to the writer as it is made and
    written while the next is made, its files read from disk when
    accessed. Same seed, same bytes."""
    shutil.rmtree(corpus_dir, ignore_errors=True)
    blobs, digest = FileSet(corpus_dir), hashlib.sha256()
    try:
        for name, label, data in _synth_files(cfg, seed):
            blobs.write(name, data, label=label)
            _digest(digest, name, label, data)
    finally:
        blobs.wait()
    blobs.meta = {"seed": seed, "digest": digest.hexdigest()}
    return blobs


def ingest_dirs(benign_dir, malicious_dir) -> FileSet:
    """A corpus of user-supplied PE directories, read in place: each source
    is read once here, for its record, and is not copied. An empty file has
    no byte histogram: it is left out, and ``skipped`` names it with the
    reason."""
    blobs, skipped, digest = FileSet(None), [], hashlib.sha256()
    for label, src in (("benign", benign_dir), ("malicious", malicious_dir)):
        for i, path in enumerate(sorted(Path(src).iterdir())):
            if not path.is_file():
                continue
            data = path.read_bytes()
            if not data:
                skipped.append({"source": str(path), "reason": "empty file"})
                continue
            name = f"{label}_{i:05d}.exe"
            blobs.add(name, data, label=label, source=str(path))
            _digest(digest, name, label, data)
    blobs.meta = {"seed": None, "skipped": skipped,
                  "digest": digest.hexdigest()}
    return blobs


def save_corpus(corpus_dir: Path, blobs: FileSet, key: str | None = None) -> None:
    """Write the manifest of ``blobs`` under ``key`` to ``corpus_dir``,
    which holds its files already but those read in place (``source``),
    and remove any other file there."""
    corpus_dir.mkdir(parents=True, exist_ok=True)
    for path in corpus_dir.iterdir():
        rec = blobs.records.get(path.name)
        if rec is None or "source" in rec:
            path.unlink()
    blobs.save(corpus_dir / "manifest.json", key)


def load_corpus(corpus_dir: Path, key: str | None = None,
                kind: str = "synthetic") -> FileSet:
    """The ``kind`` corpus ``save_corpus`` wrote. ``ValueError`` (or
    ``OSError``) for a miss, which is made again; ``CorpusError``, which
    fails the stage and names it, for a file that kept its size but not its
    bytes. Only a ``dirs`` corpus reads its files at their sources."""
    return FileSet.load(corpus_dir / "manifest.json", key, "corpus",
                        ("label", "source") if kind == "dirs" else ("label",),
                        digest=(str,))


# --- feature extraction -----------------------------------------------------

class FileFeatures:
    """One file's features, each extracted when first read: a byte-only run
    never parses a file or scans it for strings. A non-PE has no imports; a
    PE whose import walk was cut short has those read before."""

    def __init__(self, data: bytes):
        self.data = data

    @functools.cached_property
    def histogram(self) -> np.ndarray:
        return features.byte_histogram(self.data)

    @functools.cached_property
    def import_tokens(self) -> set:
        try:
            return features.extract_imports(petk.parse(self.data, strict=False))
        except petk.PeEditError:
            return set()

    @functools.cached_property
    def string_tokens(self) -> "features.Counter":
        return features.extract_strings(self.data)


# family -> the builder of one file's vector from its FileFeatures and the
# FeatureTable, whose ``vocabs`` holds each Top-K family's vocabulary
FAMILIES = {
    "byte": lambda f, table: f.histogram,
    "api_topk": lambda f, table: features.vectorize(
        f.import_tokens, table.vocabs["api_topk"]),
    "api_hashed": lambda f, table: features.hash_features(
        f.import_tokens, table.fcfg.hash_dim),
    "strings_topk": lambda f, table: features.vectorize(
        f.string_tokens, table.vocabs["strings_topk"]),
    "strings_hashed": lambda f, table: features.hash_features(
        f.string_tokens, table.fcfg.hash_dim),
}
# Top-K family -> its vocabulary's FeatureConfig size field and the
# FileFeatures field of the tokens it ranks
TOPK = {"api_topk": ("k_api", "import_tokens"),
        "strings_topk": ("k_strings", "string_tokens")}


def _split_sizes(n: int, fractions) -> tuple[int, int]:
    """The train and validation counts of a class of ``n`` files; the test
    part holds the rest, if any."""
    return int(round(fractions[0] * n)), int(round(fractions[1] * n))


def split_indices(labels: list[str], fractions, seed: int) -> dict[str, list[int]]:
    """Stratified, seeded train/val/test split over manifest order."""
    rng = np.random.default_rng(seed)
    out = {"train": [], "val": [], "test": []}
    for cls in ("benign", "malicious"):
        idx = [i for i, lab in enumerate(labels) if lab == cls]
        idx = list(rng.permutation(idx))
        n_train, n_val = _split_sizes(len(idx), fractions)
        out["train"].extend(int(i) for i in idx[:n_train])
        out["val"].extend(int(i) for i in idx[n_train:n_train + n_val])
        out["test"].extend(int(i) for i in idx[n_train + n_val:])
    for part in out.values():
        part.sort()
    return out


class FeatureTable:
    """The matrices, over the manifest's file order, of the families the run
    reads, each in its narrowest exact dtype once extract has them, and
    the vocabularies of its Top-K families."""

    def __init__(self, names: list[str], labels: list[str], fcfg: FeatureConfig):
        self.names = names
        self.labels = labels
        self.fcfg = fcfg
        self.vocabs = {}
        self.matrices = {}

    def by_class(self, spec_families, rows) -> tuple[np.ndarray, np.ndarray]:
        """The benign and the malicious files among ``rows``, assembled."""
        def assemble(label):
            part = [i for i in rows if self.labels[i] == label]
            return np.hstack([self.matrices[fam][part] for fam in spec_families])
        return assemble("benign"), assemble("malicious")

    def vector_for(self, feats: FileFeatures, spec_families) -> np.ndarray:
        return np.concatenate([FAMILIES[fam](feats, self)
                               for fam in spec_families])

    def fill(self, matrices: dict, n: int, i: int, feats, families) -> None:
        """Row ``i`` of the matrix of each of ``families`` in ``matrices``,
        from ``feats``; a matrix gets its ``n`` rows when its first is
        written."""
        for fam in families:
            row = self.vector_for(feats, (fam,))
            if fam not in matrices:
                matrices[fam] = np.empty((n, row.size))
            matrices[fam][i] = row

    def extract(self, blobs: Sequence, families, rows=None, matrices=None,
                visit=None) -> dict:
        """The matrices of ``families`` over ``blobs`` (row ``i`` is
        ``blobs[i]``, read when it is built, as ``Files`` reads it), with
        ``rows`` filled, in that order (all of them by default), in
        ``matrices`` or in new ones. Each file is extracted once, into one
        ``FileFeatures`` that ``visit`` also sees and that is dropped before
        the next file's is made."""
        matrices = {} if matrices is None else matrices
        for i in range(len(blobs)) if rows is None else rows:
            feats = FileFeatures(blobs[i])
            self.fill(matrices, len(blobs), i, feats, families)
            if visit is not None:
                visit(feats)
            del feats   # not alive while the next file's is made
        return matrices


# --- GAN wiring -------------------------------------------------------------

def pipeline_preset(kind: str, dim: int) -> gan.GanPreset:
    """Canonical preset when dims match it, else a size-appropriate variant."""
    canonical = gan.PRESETS[kind]
    if dim == canonical.input_dim:
        return canonical
    return gan.GanPreset(kind, dim, canonical.noise_dim,
                         (max(dim, 64), max(dim, 64)),
                         (max(dim // 2, 32), max(dim // 4, 16)),
                         canonical.output_activation)


def train_gan_for(state: PipelineState, kind: str,
                  metrics_path: Path) -> gan.GanModel:
    """The GAN of ``kind`` trained on the train split's rows of its family's
    matrix, its per-step losses written to ``metrics_path`` as CSV.
    ``gan.train`` reads the rows in place through each class's row
    indices, so nothing beyond the table's matrix and one step's batches
    holds the training rows."""
    cfg = state.cfg
    x = state.table.matrices[GAN_FAMILIES[kind]]
    benign_rows = _rows(state, "train", "benign")
    malicious_rows = _rows(state, "train", "malicious")
    preset = pipeline_preset(kind, x.shape[1])
    lines = ["step,loss_critic,loss_generator,gradient_penalty,step_ms\n"]

    def sink(step, ld, lg, gp, step_ms):
        lines.append(f"{step},{ld!r},{lg!r},{gp!r},{step_ms:.4f}\n")
    model = gan.train(x, benign_rows, malicious_rows, preset, cfg.gans[kind],
                      cfg.seed, metrics_sink=sink)
    metrics_path.parent.mkdir(parents=True, exist_ok=True)
    metrics_path.write_text("".join(lines))
    return model


# --- attacks ----------------------------------------------------------------

def load_attack(path: Path, key: str) -> FileSet:
    """The attack outputs ``FileSet.save`` wrote at ``path`` under ``key``.
    ``ValueError`` (or ``OSError``) for another key, a malformed manifest
    or a file gone, resized or edited: the attack then runs again."""
    try:
        return FileSet.load(path, key, "attack output", (),
                            query_count=(int,), stats=(dict,),
                            warnings=(list, str))
    except CorpusError as exc:
        raise ValueError(str(exc)) from None


def _certified_plan(data: bytes, target: np.ndarray,
                    gap: float) -> padopt.PaddingPlan:
    """``padopt.plan_for``'s plan to pad ``data`` towards ``target`` within
    ``gap`` (0 is exact), re-checked against its certificate."""
    counts = np.bincount(np.frombuffer(data, dtype=np.uint8), minlength=256)
    req = padopt.PaddingRequest(counts, target, gap=gap)
    plan = padopt.plan_for(req)
    if not padopt.check_plan(plan, req):
        raise padopt.InfeasiblePaddingError(
            "padding plan misses its certified bound")
    return plan


def _safe_target(target: np.ndarray) -> np.ndarray:
    """Keep every target bin strictly positive so the exact model stays
    feasible; renormalize after flooring. The floor bounds how much the
    exact model can inflate a file (a bin with b_i counts forces a total
    of at least b_i / floor)."""
    floored = np.maximum(target, 1e-6)
    return floored / floored.sum()


def _byte_target(model, histogram: np.ndarray, rng) -> np.ndarray:
    """One generated byte-histogram target for ``histogram``, floored."""
    z = gan.sample_noise(model.preset.noise_dim, 1, rng)
    return _safe_target(gan.generate(model, histogram[None, :], z)[0])


def _padder(model, rng, gap: float) -> Callable:
    """The editor that pads a file towards a ``_byte_target`` of its byte
    row within ``gap``, its record holding the plan's certificate."""
    def edit(name, pe, row, out):
        plan = _certified_plan(pe.data, _byte_target(model, row, rng), gap)
        edited = petk.append_overlay(pe, plan)
        return (edited, {"certificate": plan.certificate},
                {"mean_appended_bytes": len(edited.data) - len(pe.data)})
    return edit


class Step(NamedTuple):
    family: str | None      # the feature family of the row its editor reads
    # (state, out) -> edit(name, pe, row, out) -> (image, extras, numbers)
    prepare: Callable
    gans: tuple             # the GAN kinds it needs trained
    fields: tuple           # the config fields it reads, besides seed


def _indicator_step(kind: str, cap_field: str, seed_offset: int, stat: str,
                    write: Callable) -> Step:
    """The step that adds, through ``write(pe, tokens)``, each token of its
    family's vocabulary that the ``kind`` GAN turns on, at most the
    ``cap_field`` config field's number of them, counted as ``stat``."""
    family = GAN_FAMILIES[kind]

    def prepare(state, out):
        model, vocab = state.gan_models[kind], state.table.vocabs[family]
        cap = getattr(state.cfg, cap_field)
        rng = np.random.default_rng(state.cfg.seed + seed_offset)

        def edit(name, pe, m, out):
            z = gan.sample_noise(model.preset.noise_dim, 1, rng)
            m_adv = gan.generate(model, m[None, :], z)[0]
            new = [tok for tok, i in vocab.items()
                   if m_adv[i] > 0.5 and m[i] < 0.5]
            if len(new) > cap:
                out.meta["warnings"].append(
                    f"{name}: {len(new)} new tokens over cap {cap}")
                new = new[:cap]
            return write(pe, new), {}, {stat: len(new)}
        return edit
    return Step(family, prepare, (kind,), (cap_field,))


GAN_API = _indicator_step("api", "max_new_imports", 11, "mean_new_imports",
                          lambda pe, new: petk.extend_imports(pe, new)[0])
GAN_STRINGS = _indicator_step(
    "strings", "max_new_strings", 12, "mean_new_strings",
    lambda pe, new: petk.add_section(pe, ".sdat2", b"\x00" + b"\x00".join(
        s.encode("latin-1") for s in new) + b"\x00"))
GAN_BYTE = Step("byte", lambda state, out: _padder(
    state.gan_models["byte_histogram"],
    np.random.default_rng(state.cfg.seed + 10), state.cfg.gap),
    ("byte_histogram",), ("gap",))


def _prepare_benign_injection(state, out):
    rng = np.random.default_rng(state.cfg.seed + 13)
    pool = state.blobs.files(sorted(
        state.table.names[i] for i in _rows(state, "train", "benign")))
    return lambda name, pe, row, out: (
        baselines.benign_injection(pe, pool, rng), {}, {})


def _prepare_malgan_byte(state, out):
    cfg = state.cfg
    benign, malicious = state.table.by_class(("byte",), state.splits["train"])
    preset = pipeline_preset("byte_histogram", benign.shape[1])
    black_box = state.detector_models[_primary_byte_name(cfg)].label_fn()
    model = baselines.train_malgan(malicious, benign, black_box, preset,
                                   cfg.malgan_max_queries, cfg.seed)
    out.meta["query_count"] = model.training_meta["queries"]
    out.meta["stats"]["rounds"] = model.training_meta.get("rounds", 0)
    return _padder(model, np.random.default_rng(cfg.seed + 2), cfg.gap)


# attack -> its steps, applied to each file in order
ATTACKS = {
    "gan_byte": (GAN_BYTE,),
    "gan_api": (GAN_API,),
    "gan_strings": (GAN_STRINGS,),
    "gan_all": (GAN_API, GAN_STRINGS, GAN_BYTE),
    "benign_injection": (Step(None, _prepare_benign_injection, (), ()),),
    "malgan_byte": (Step("byte", _prepare_malgan_byte, (),
                         ("detectors", "malgan_max_queries", "gap")),),
}


def attack_gans(attack: str) -> tuple:
    """The GAN kinds ``attack``'s steps need, in ``GAN_KINDS`` order."""
    return tuple(kind for kind in GAN_KINDS
                 if any(kind in step.gans for step in ATTACKS[attack]))


def run_attack(state: PipelineState, steps: tuple, directory: Path) -> FileSet:
    """Parse each malicious test file once, leniently, hand its image
    through ``steps`` and write the result to ``directory`` once, with the
    extras they returned; average each number they returned into the
    returned set's ``stats``. The first step reads the file's row from the
    table, a later one the row of the bytes the step before made."""
    out = FileSet(directory, kind="attack output")
    out.meta = {"query_count": 0, "stats": {}, "warnings": []}
    edits = [(step.family, step.prepare(state, out)) for step in steps]
    numbers = {}
    try:
        for i in _rows(state, "test", "malicious"):
            name = state.table.names[i]
            pe, extras = petk.parse(state.blobs[name], strict=False), {}
            for k, (family, edit) in enumerate(edits):
                row = None if family is None else (
                    state.table.matrices[family][i] if k == 0 else
                    state.table.vector_for(FileFeatures(pe.data), (family,)))
                pe, extra, nums = edit(name, pe, row, out)
                extras.update(extra)
                for stat, value in nums.items():
                    numbers.setdefault(stat, []).append(value)
            out.write(name, pe.data, **extras)
    finally:
        out.wait()
    out.meta["stats"].update({stat: float(np.mean(values))
                              for stat, values in numbers.items()})
    return out


# --- pipeline ---------------------------------------------------------------

@dataclass
class PipelineState:
    cfg: ExperimentConfig
    workdir: Path
    blobs: FileSet | None = None
    splits: dict | None = None
    extract_key: str | None = None
    table: FeatureTable | None = None
    detector_models: dict = field(default_factory=dict)
    gan_models: dict = field(default_factory=dict)
    attack_outputs: dict = field(default_factory=dict)
    # the ``what`` of each artifact that ``_resume`` computed rather than
    # loaded from the workdir, and the key of each it resumed, by ``what``
    computed: set = field(default_factory=set)
    keys: dict = field(default_factory=dict)


def _key(*parts) -> str:
    """Content key of an artifact: SHA-256 over the JSON of ``parts``."""
    blob = json.dumps(parts, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


class Artifact(NamedTuple):
    # (kind, name), the kind one of "corpus", "features",
    # "detector", "gan", "attack", "rates" and "gap_sweep"
    what: tuple
    path: Path
    load: Callable      # (path, key) -> value
    save: Callable      # (path, value, key) -> None


def _resume(state: PipelineState, key: str, artifacts: list,
            compute: Callable) -> dict:
    """The value of each of ``artifacts``, by its ``what``: ``load(path,
    key)``, what a run stored under ``key``. Those that miss (missing, built
    from other inputs, truncated, unreadable or lacking a field) are
    computed together: ``compute(loaded)``, given the values that loaded,
    returns each missing value by ``what``. Each is saved with
    ``save(path, value, key)`` once all are computed, and recorded in
    ``state.computed``. Every key is recorded in ``state.keys``."""
    loaded, missing = {}, []
    for art in artifacts:
        state.keys[art.what] = key
        if art.path.exists():
            try:
                loaded[art.what] = art.load(art.path, key)
                continue
            except (OSError, ValueError):
                pass
        missing.append(art)
    values = {**loaded, **(compute(loaded) if missing else {})}
    for art in missing:
        art.path.parent.mkdir(parents=True, exist_ok=True)
        art.save(art.path, values[art.what], key)
        state.computed.add(art.what)
    return {art.what: values[art.what] for art in artifacts}


def _rows(state: PipelineState, part: str, label: str) -> list[int]:
    """Table rows of the ``label`` files in split ``part``."""
    return [i for i in state.splits[part] if state.table.labels[i] == label]


def stage_corpus(state: PipelineState):
    cfg = state.cfg.corpus
    corpus_dir = state.workdir / "corpus"
    what = ("corpus", cfg.kind)
    if cfg.kind == "synthetic":
        # also keyed by the distributions it is drawn from, so a corpus made
        # before they changed is made again
        key = _key("corpus", dataclasses.asdict(cfg), state.cfg.seed,
                   {label: a.tolist() for label, a in BYTE_ALPHA.items()},
                   API_POOLS, STRING_POOLS)
        made = None
    else:
        # a dirs corpus is also keyed by its files, each read once here, so
        # an edited one is ingested again
        made = ingest_dirs(cfg.benign_dir, cfg.malicious_dir)
        key = _key("corpus", dataclasses.asdict(cfg), state.cfg.seed,
                   {**made.meta, "files": list(made.records.values())})
    # a corpus just made is read back from disk like a stored one, so no
    # stage holds its bytes
    state.blobs = _resume(
        state, key, [Artifact(what, corpus_dir, functools.partial(
            load_corpus, kind=cfg.kind), save_corpus)],
        lambda _: {what: gen_corpus(cfg, state.cfg.seed, corpus_dir)
                   if made is None else made})[what]


def _gans_needed(cfg: ExperimentConfig) -> list[str]:
    """The GAN kinds the configured attacks need trained, sorted."""
    return sorted({kind for attack in cfg.attacks
                   for kind in attack_gans(attack)})


def stage_extract(state: PipelineState):
    cfg = state.cfg
    fcfg = cfg.feature_cfg
    names = list(state.blobs)
    labels = [rec["label"] for rec in state.blobs.records.values()]
    state.splits = split_indices(labels, cfg.split, cfg.seed)
    for part in ("train", "test"):
        if {labels[i] for i in state.splits[part]} != {"benign", "malicious"}:
            raise ConfigError(f"split {cfg.split} leaves a class of this "
                              f"{len(names)}-file corpus no {part} file")
    key = state.extract_key = _key(
        "extract", SCHEMA_VERSION, __version__,
        state.blobs.meta["digest"],
        dataclasses.asdict(fcfg), cfg.split, cfg.seed)
    feat_dir = state.workdir / "features"
    table = state.table = FeatureTable(names, labels, fcfg)
    # the run reads the detectors' families and those the needed GANs
    # rewrite (MalGAN's byte rows come with the byte detector it requires).
    # Each resumes; the files are extracted, each once, only on a miss.
    read = {fam for spec in cfg.detectors for fam in spec.families}
    read |= {GAN_FAMILIES[kind] for kind in _gans_needed(cfg)}
    families = [fam for fam in FAMILIES if fam in read]

    def load_matrix(path, key):
        matrix, columns, vocab = features.load_matrix(path, key)
        if columns != names:
            raise ValueError(f"{path.name} holds the rows of other files")
        # a Top-K matrix stored without its vocabulary is a miss
        if (vocab is None) == (path.stem in TOPK):
            raise ValueError(f"{path.name} holds a vocabulary exactly when "
                             f"its family has none")
        return matrix, columns, vocab

    values = _resume(state, key,
                     [Artifact(("features", fam), feat_dir / f"{fam}.gevf",
                               load_matrix, features.save_matrix)
                      for fam in families],
                     lambda loaded: _extract_missing(state, families, loaded))
    for (_, fam), (matrix, _, vocab) in values.items():
        table.matrices[fam] = matrix
        if vocab is not None:
            table.vocabs[fam] = vocab


def _extract_missing(state: PipelineState, families, loaded: dict) -> dict:
    """The matrices, each with its columns and vocabulary, of ``families``
    that ``loaded`` lacks, by ``what``, from one visit to each corpus file.
    A missing Top-K matrix ranks its vocabulary from the train-benign files'
    tokens, so those files come first and their token sets are held, each
    distinct token once, until it exists."""
    table = state.table
    blobs = state.blobs.files(table.names)
    missing = [fam for fam in families if ("features", fam) not in loaded]
    ranked = [fam for fam in missing if fam in TOPK]
    matrices = {}
    rest = range(len(blobs))
    if ranked:
        first = _rows(state, "train", "benign")
        held = {fam: [] for fam in ranked}
        shared = {}

        def hold(feats):
            for fam in ranked:
                tokens = getattr(feats, TOPK[fam][1])
                held[fam].append(tuple(map(shared.setdefault, tokens, tokens)))
        table.extract(blobs, [fam for fam in missing if fam not in ranked],
                      first, matrices, hold)
        for fam in ranked:
            k, field_name = TOPK[fam]
            table.vocabs[fam] = features.select_topk(held[fam],
                                                     getattr(table.fcfg, k))
            for i, tokens in zip(first, held[fam]):
                table.fill(matrices, len(blobs), i,
                           SimpleNamespace(**{field_name: tokens}), (fam,))
            del held[fam]
        rest = sorted(set(rest) - set(first))
    table.extract(blobs, missing, rest, matrices)
    # each in the dtype it is stored and loaded in, so a cold run holds
    # the arrays a warm one loads
    return {("features", fam): (ckpt.narrowest(matrices.pop(fam)), table.names,
                                table.vocabs.get(fam))
            for fam in missing}


def stage_detectors(state: PipelineState):
    model_dir = state.workdir / "models"
    for spec in state.cfg.detectors:
        what = ("detector", spec.name)
        key = _key("detector", state.extract_key, dataclasses.asdict(spec),
                   state.cfg.seed)
        state.detector_models[spec.name] = _resume(
            state, key, [Artifact(what, model_dir / f"detector_{spec.name}.gevd",
                                  detectors.load_detector,
                                  detectors.save_detector)],
            lambda _: {what: detectors.train_detector(
                spec.kind, *state.table.by_class(spec.families,
                                                 state.splits["train"]),
                hyperparams=spec.hyperparams, seed=state.cfg.seed)})[what]


def stage_gans(state: PipelineState):
    model_dir = state.workdir / "models"
    for kind in _gans_needed(state.cfg):
        what = ("gan", kind)
        key = _key("gan", state.extract_key, kind,
                   dataclasses.asdict(state.cfg.gans[kind]),
                   state.cfg.seed)
        state.gan_models[kind] = _resume(
            state, key, [Artifact(what, model_dir / f"gan_{kind}.gevd",
                                  gan.load_gan, gan.save_gan)],
            lambda _: {what: train_gan_for(
                state, kind, model_dir / f"gan_{kind}_metrics.csv")})[what]


def stage_attacks(state: PipelineState):
    cfg = state.cfg
    config = cfg.to_dict()
    for attack in cfg.attacks:
        what, steps = ("attack", attack), ATTACKS[attack]
        directory = state.workdir / "attacks" / attack
        key = _key("attack", attack, state.extract_key,
                   [state.keys[("gan", kind)] for kind in attack_gans(attack)],
                   {name: config[name] for step in steps
                    for name in step.fields}, cfg.seed)

        def run(_):
            # replace, not add to, what an earlier run (maybe of another
            # corpus, whose file names repeat) left there
            shutil.rmtree(directory, ignore_errors=True)
            return {what: run_attack(state, steps, directory)}
        state.attack_outputs[attack] = _resume(state, key, [Artifact(
            what, directory / "manifest.json", load_attack,
            lambda path, out, key: out.save(path, key))], run)[what]


def load_rates(path: Path, key: str) -> dict:
    """The detection rates stored at ``path`` under ``key``, by detector."""
    rates = ckpt.field(_stored(path, key), "rates", dict)
    for name in rates:
        ckpt.field(rates, name, float)
    return rates


def load_sweep(path: Path, key: str) -> list:
    """The gap sweep rows stored at ``path`` under ``key``."""
    rows = ckpt.field(_stored(path, key), "rows", list, dict)
    for row in rows:
        ckpt.field(row, "gap", (str, *ckpt.NUMBER))
        for name in ("mean_size_mb", "mean_appended_bytes", "detection_rate"):
            ckpt.field(row, name, float)
    return rows


def _primary_byte_name(cfg: ExperimentConfig) -> str:
    """The first byte-only detector; the config ensures one where needed."""
    return next(spec.name for spec in cfg.detectors
                if spec.families == ("byte",))


def stage_evaluate(state: PipelineState) -> dict:
    cfg = state.cfg
    table = state.table
    test_mal = _rows(state, "test", "malicious")
    names = [table.names[i] for i in test_mal]

    families = [fam for fam in FAMILIES
                if any(fam in spec.families for spec in cfg.detectors)]

    def rates(rows: dict) -> dict:
        """Each detector's rate on ``rows``, family -> matrix."""
        return {spec.name: detectors.detection_rate(
                    state.detector_models[spec.name],
                    np.hstack([rows[fam] for fam in spec.families]))
                for spec in cfg.detectors}

    # the original files' rows come from the table; the rewritten files
    # are extracted again from their bytes
    original_rates = rates({fam: table.matrices[fam][test_mal]
                            for fam in families})
    test_ben = _rows(state, "test", "benign")
    fpr = rates({fam: table.matrices[fam][test_ben] for fam in families})

    attack_rates = {}
    query_counts = {}
    attack_stats = {}
    detector_keys = [state.keys[("detector", spec.name)]
                     for spec in cfg.detectors]
    for attack, out in state.attack_outputs.items():
        what = ("rates", attack)
        attack_rates[attack] = _resume(
            state, _key("rates", state.keys[("attack", attack)], detector_keys),
            [Artifact(what, out.directory / "rates.json", load_rates,
                      lambda path, rates, key: _store(path, key, rates=rates))],
            # read back from the files the attack wrote
            lambda _: {what: rates(table.extract(out.files(names), families))}
        )[what]
        query_counts[attack] = out.meta["query_count"]
        stats = dict(out.meta["stats"])
        stats["mean_size_mb"] = float(np.mean(
            [rec["size"] for rec in out.records.values()])) / 1e6
        stats["capacity_warnings"] = len(out.meta["warnings"])
        attack_stats[attack] = stats

    gap_rows = []
    if "gan_byte" in state.attack_outputs:
        what = ("gap_sweep", "gan_byte")
        key = _key("gap_sweep", state.keys[("gan", "byte_histogram")],
                   state.keys[("detector", _primary_byte_name(cfg))],
                   state.extract_key, cfg.gap_sweep, cfg.sweep_subsample,
                   cfg.seed)
        # beside the attack's directory, which a rerun of the attack empties
        gap_rows = _resume(
            state, key, [Artifact(
                what, state.workdir / "attacks" / "gap_sweep.json", load_sweep,
                lambda path, rows, key: _store(path, key, rows=rows))],
            lambda _: {what: _gap_sweep(state, test_mal)})[what]

    return {
        "original_rates": original_rates,
        "false_positive_rates": fpr,
        "attack_rates": attack_rates,
        "query_counts": query_counts,
        "attack_stats": attack_stats,
        "gap_sweep": gap_rows,
        "original_mean_size_mb": float(np.mean(
            [state.blobs.records[name]["size"] for name in names])) / 1e6,
    }


def _gap_sweep(state: PipelineState, test_mal) -> list[dict]:
    cfg = state.cfg
    sweep_seed = cfg.seed + 1
    rng = np.random.default_rng(sweep_seed)
    subset = test_mal
    if len(test_mal) > cfg.sweep_subsample:
        pick = sorted(rng.choice(len(test_mal), size=cfg.sweep_subsample,
                                 replace=False).tolist())
        subset = [test_mal[i] for i in pick]
    model = state.gan_models["byte_histogram"]
    byte_detector = state.detector_models[_primary_byte_name(cfg)]

    # one target per file, shared across every gap value
    zrng = np.random.default_rng(sweep_seed + 1)
    byte_rows = state.table.matrices["byte"]
    targets = {i: _byte_target(model, byte_rows[i], zrng) for i in subset}

    # the "exact" row is gap 0, as is a 0 in the sweep: plan each gap once,
    # each file read once. Sizes and histograms follow from the plans; no
    # need to materialize the (possibly huge) exact-mode files
    planned = {gap: [] for gap in (0.0, *cfg.gap_sweep)}
    for i in subset:
        blob = state.blobs[state.table.names[i]]
        for gap, plans in planned.items():
            plan = _certified_plan(blob, targets[i], gap)
            plans.append((len(blob) + plan.total_appended,
                          plan.total_appended, plan.achieved))
    rows = []
    for label, gap in (("exact", 0.0), *((g, g) for g in cfg.gap_sweep)):
        sizes, appended, hists = zip(*planned[gap])
        rows.append({"gap": label,
                     "mean_size_mb": float(np.mean(sizes)) / 1e6,
                     "mean_appended_bytes": float(np.mean(appended)),
                     "detection_rate": detectors.detection_rate(
                         byte_detector, np.array(hists))})
    return rows


# stage name -> the module global that runs it, looked up when the stage
# runs so that a wrapper installed on the attribute sees the call
STAGES = (
    ("corpus", "stage_corpus"),
    ("extract", "stage_extract"),
    ("train-detector", "stage_detectors"),
    ("train-gan", "stage_gans"),
    ("attack", "stage_attacks"),
    ("evaluate", "stage_evaluate"),
)


def run_stages(state: PipelineState, upto: str = "evaluate"):
    """Run ``STAGES`` in order up to and including ``upto``; return the last
    stage's result. Any failure but a ``ConfigError`` or ``StageError`` is
    raised as a ``StageError`` named by the stage's row, chained to it."""
    last = [name for name, _ in STAGES].index(upto)
    result = None
    for name, attr in STAGES[:last + 1]:
        try:
            result = globals()[attr](state)
        except (ConfigError, StageError):
            raise
        except Exception as exc:
            raise StageError(name, f"{type(exc).__name__}: {exc}") from exc
    return result


def run_pipeline(cfg: ExperimentConfig, workdir) -> dict:
    """Full run: corpus -> features -> detectors -> GANs -> attacks ->
    evaluation -> persisted report."""
    t0 = time.time()
    workdir = Path(workdir)
    evaluation = run_stages(PipelineState(cfg=cfg, workdir=workdir))
    report = {
        "config_hash": cfg.config_hash(),
        "seed": cfg.seed,
        "sweep_seed": cfg.seed + 1,
        "tool_version": __version__,
        **evaluation,
        "runtime_seconds": round(time.time() - t0, 3),
    }
    (workdir / "report.json").write_text(render_report(report, "json"))
    return report


# --- report rendering -------------------------------------------------------

def report_without_runtime(report: dict) -> dict:
    return {k: v for k, v in report.items() if k != "runtime_seconds"}


def render_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=1)
    if fmt == "csv":
        lines = ["detector,attack,detection_rate"]
        for det, rate in sorted(report.get("original_rates", {}).items()):
            lines.append(f"{det},original,{rate!r}")
        for attack, rates in sorted(report.get("attack_rates", {}).items()):
            for det, rate in sorted(rates.items()):
                lines.append(f"{det},{attack},{rate!r}")
        lines.append("")
        lines.append("gap,mean_size_mb,mean_appended_bytes,detection_rate")
        for row in report.get("gap_sweep", []):
            lines.append(f"{row['gap']},{row['mean_size_mb']!r},"
                         f"{row['mean_appended_bytes']!r},"
                         f"{row['detection_rate']!r}")
        return "\n".join(lines) + "\n"
    if fmt == "markdown":
        def table(header, body) -> list[str]:
            # the separator and each row have a cell per header cell
            head, *rows = ["| " + " | ".join(map(str, cells)) + " |"
                           for cells in (header, *body)]
            return [head, "|---" * len(header) + "|", *rows]
        attacks = sorted(report.get("attack_rates", {}))
        lines = table(["Detector", "Original", *attacks], [
            [det, f"{orig:.3f}", *(
                f"{report['attack_rates'][a].get(det, float('nan')):.3f}"
                for a in attacks)]
            for det, orig in sorted(report.get("original_rates", {}).items())])
        if report.get("gap_sweep"):
            lines += ["", *table(
                ["Gap", "Mean size (MB)", "Detection rate"],
                [[row["gap"], f"{row['mean_size_mb']:.3f}",
                  f"{row['detection_rate']:.3f}"]
                 for row in report["gap_sweep"]])]
        return "\n".join(lines) + "\n"
    raise ConfigError(f"unknown report format {fmt!r}")
