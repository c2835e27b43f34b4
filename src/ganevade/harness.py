"""Experiment orchestration: synthetic corpora, pipeline stages, reports.

The stages run in the order of ``STAGES``, in one process, handing their
results on in memory. A CLI subcommand runs the table up to its own stage,
and a full pipeline run is reproducible from the config plus the global
seed. No file is held in memory: the corpus and each attack's outputs are
a ``FileSet`` each, whose files are read from disk when a stage visits
them and checked against their records. Each attack writes each rewritten
file under ``attacks/<attack>/`` as it makes it, and evaluation
re-extracts features from those files, never from the adversarial feature
vectors. ``_store`` writes every JSON artifact, a set's manifest among
them, and ``_stored`` reads it back.

Each attack is one entry of ``ATTACKS``: the GAN kinds it needs trained,
the config fields it reads and the function that runs it. ``gan_all`` runs
the ``gan_api``, ``gan_strings`` and ``gan_byte`` entries in sequence, each
step on the files the step before rewrote.

Each feature family is one entry of ``FAMILIES``, the builder of one
file's vector from its lazily extracted ``FileFeatures``. Extract loads or
computes only the families the run reads; ``gan_all`` and evaluation
build the rewritten files' rows through the same table. All three go
through ``FeatureTable.extract``, which visits each file once and drops its
``FileFeatures`` before the next file's is made, so a run holds the
matrices, not every file's token sets. A Top-K vocabulary that is missing
is ranked from the train-benign files, visited first; only their Top-K
tokens are held until it exists, as references to one copy of each
distinct token.

Every artifact resumes through ``_resume`` under a content key
(``_key``): a SHA-256 over the config slice that determines it and the
keys of what it was computed from, as each stage builds it. What is
stored under the key loads; anything else is computed and written over
it, except a corpus file that kept its size but not its bytes: that fails
the run (``CorpusError``). Extract resumes its vocabularies and matrices
in one ``_resume`` call, so one pass over the files computes all that
missed. Each matrix is held, as it is stored, in its narrowest exact
dtype (``checkpoint.narrowest``).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import json
import os
import shutil
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
from .gan import TrainingConfig as GanStageConfig

SCHEMA_VERSION = 1
CACHE_ENV_VAR = "GANEVADE_CACHE_DIR"

# GAN kind -> the feature family its generator rewrites
GAN_FAMILIES = {"byte_histogram": "byte", "api": "api_topk",
                "strings": "strings_topk"}
GAN_KINDS = tuple(GAN_FAMILIES)


class ConfigError(ValueError):
    pass


class StageError(RuntimeError):
    def __init__(self, stage: str, message: str):
        super().__init__(f"stage {stage!r} failed: {message}")
        self.stage = stage


# --- configuration ----------------------------------------------------------

def _default_byte_alpha(kind: str) -> list[float]:
    alpha = np.full(256, 0.3)
    if kind == "benign":
        alpha[0x20:0x80] = 6.0      # printable-heavy, text-like content
    else:
        alpha[0x80:] = 6.0          # high-byte heavy content
    return alpha.tolist()


def _default_api_pools() -> dict:
    benign = [f"oslib{i % 12:02d}.dll!service{i:03d}" for i in range(120)]
    malicious = [f"shady{i % 8:02d}.dll!payload{i:03d}" for i in range(60)]
    shared = [f"common{i % 4:02d}.dll!util{i:03d}" for i in range(30)]
    # long tail of rare benign imports: individually below any Top-K cut,
    # collectively visible to the hashed representation
    tail = [f"vendor{i % 40:02d}.dll!ext{i:03d}" for i in range(400)]
    return {
        "benign": {"tokens": benign, "p_benign": 0.35, "p_malicious": 0.05},
        "malicious": {"tokens": malicious, "p_benign": 0.02, "p_malicious": 0.4},
        "shared": {"tokens": shared, "p_benign": 0.5, "p_malicious": 0.5},
        "benign_tail": {"tokens": tail, "p_benign": 0.25, "p_malicious": 0.0},
    }


def _default_string_pools() -> dict:
    benign = [f"product-release-note-{i:03d}" for i in range(150)]
    malicious = [f"exfil-beacon-target-{i:03d}" for i in range(80)]
    shared = [f"shared-runtime-msg-{i:03d}" for i in range(40)]
    tail = [f"locale-resource-entry-{i:03d}" for i in range(400)]
    return {
        "benign": {"tokens": benign, "p_benign": 0.35, "p_malicious": 0.05},
        "malicious": {"tokens": malicious, "p_benign": 0.02, "p_malicious": 0.4},
        "shared": {"tokens": shared, "p_benign": 0.5, "p_malicious": 0.5},
        "benign_tail": {"tokens": tail, "p_benign": 0.25, "p_malicious": 0.0},
    }


@dataclass
class CorpusConfig:
    kind: str = "synthetic"                 # synthetic | dirs
    n_per_class: int = 100
    content_size: tuple = (1024, 4096)
    byte_alpha_benign: list = field(default_factory=lambda: _default_byte_alpha("benign"))
    byte_alpha_malicious: list = field(default_factory=lambda: _default_byte_alpha("malicious"))
    api_pools: dict = field(default_factory=_default_api_pools)
    string_pools: dict = field(default_factory=_default_string_pools)
    benign_dir: str | None = None
    malicious_dir: str | None = None


@dataclass
class FeatureConfig:
    k_api: int = 150
    k_strings: int = 200
    hash_dim: int = 1280
    min_string_len: int = 5


@dataclass
class DetectorSpec:
    name: str
    kind: str = "logreg"                    # logreg | mlp
    families: tuple = ("byte",)
    hyperparams: dict = field(default_factory=dict)

    def __post_init__(self):
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


DEFAULT_GAP_SWEEP = (0.01, 0.008, 0.005, 0.003, 0.001, 0.0008, 0.0005,
                     0.0003, 0.0001)


@dataclass
class ExperimentConfig:
    corpus: CorpusConfig = field(default_factory=CorpusConfig)
    feature_cfg: FeatureConfig = field(default_factory=FeatureConfig)
    gans: dict = field(default_factory=lambda: {
        "byte_histogram": GanStageConfig(max_steps=3000),
        "api": GanStageConfig(max_steps=300),
        "strings": GanStageConfig(max_steps=300),
    })
    detectors: list = field(default_factory=_default_detectors)
    attacks: list = field(default_factory=lambda: [
        "gan_byte", "gan_api", "gan_strings", "benign_injection",
        "malgan_byte"])
    split: tuple = (0.8, 0.1, 0.1)
    gap: float = 0.001
    gap_sweep: tuple = DEFAULT_GAP_SWEEP
    sweep_subsample: int = 200
    sweep_seed: int | None = None           # defaults to seed + 1, recorded
    max_new_imports: int = 2048
    max_new_strings: int = 4096
    malgan_max_queries: int = 50_000
    seed: int = 0

    def __post_init__(self):
        seqs = (list, tuple)
        if not (isinstance(self.gans, dict) and isinstance(self.detectors, seqs)
                and isinstance(self.attacks, seqs)):
            raise ConfigError("gans must be an object, detectors and attacks "
                              "lists")
        if not (isinstance(self.split, seqs) and len(self.split) == 3
                and all(_is_number(f) and f >= 0 for f in self.split)
                and abs(sum(self.split) - 1.0) <= 1e-9):
            raise ConfigError(f"split must be three fractions >= 0 that sum "
                              f"to 1, got {self.split!r}")
        corpus, fcfg = self.corpus, self.feature_cfg
        sweep_seed = 0 if self.sweep_seed is None else self.sweep_seed
        for name, value, least in (
                ("seed", self.seed, 0), ("sweep_seed", sweep_seed, 0),
                ("sweep_subsample", self.sweep_subsample, 1),
                ("max_new_imports", self.max_new_imports, 0),
                ("max_new_strings", self.max_new_strings, 0),
                ("malgan_max_queries", self.malgan_max_queries, 0),
                ("corpus.n_per_class", corpus.n_per_class, 1),
                *((f"feature_cfg.{f.name}", getattr(fcfg, f.name), 1)
                  for f in dataclasses.fields(fcfg))):
            if not (_is_int(value) and value >= least):
                raise ConfigError(f"{name} must be an integer >= {least}, "
                                  f"got {value!r}")
        for label in ("benign", "malicious"):
            alpha = getattr(corpus, f"byte_alpha_{label}")
            if not (isinstance(alpha, seqs) and len(alpha) == 256 and all(
                    _is_number(a) and 0 < a < float("inf") for a in alpha)):
                raise ConfigError(f"corpus.byte_alpha_{label} must be 256 "
                                  f"finite numbers > 0")
        for attack in self.attacks:
            if attack not in ATTACKS:
                raise ConfigError(f"unknown attack {attack!r}")
        names = [spec.name for spec in self.detectors]
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
            hp = {**detectors.DEFAULT_HYPERPARAMS, **spec.hyperparams}
            if not all(_is_int(hp[k]) and hp[k] >= 1 for k in ("steps", "hidden")):
                raise ConfigError(f"detector {spec.name!r}: steps and hidden "
                                  f"must be integers >= 1")
            if not (_is_number(hp["lr"]) and hp["lr"] > 0
                    and _is_number(hp["l2"]) and hp["l2"] >= 0):
                raise ConfigError(f"detector {spec.name!r}: lr must be > 0 "
                                  f"and l2 >= 0")
            for fam in spec.families:
                if fam not in FAMILIES:
                    raise ConfigError(f"unknown feature family {fam!r}")
        # MalGAN queries a byte-only detector; gan_byte's gap sweep scores on one
        if ({"gan_byte", "malgan_byte"} & set(self.attacks) and
                ("byte",) not in [spec.families for spec in self.detectors]):
            raise ConfigError("gan_byte and malgan_byte need a detector that "
                              "reads the byte family alone")
        for kind in self.gans:
            if kind not in GAN_KINDS:
                raise ConfigError(f"unknown GAN kind {kind!r} in gans")
        for gap in (self.gap, *self.gap_sweep):
            if not (_is_number(gap) and 0.0 <= gap < 1.0):
                raise ConfigError(f"gap {gap!r} outside [0, 1)")
        if self.corpus.kind not in ("synthetic", "dirs"):
            raise ConfigError(f"unknown corpus kind {self.corpus.kind!r}")
        if self.corpus.kind == "dirs" and None in (self.corpus.benign_dir,
                                                   self.corpus.malicious_dir):
            raise ConfigError("a dirs corpus needs benign_dir and malicious_dir")
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
                and 1 <= size[0] <= size[1]):
            raise ConfigError(f"corpus.content_size must be two integers "
                              f"1 <= lo <= hi, got {size!r}")

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
                d["gans"] = {k: GanStageConfig(**v) for k, v in d["gans"].items()}
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

def _sample_tokens(pools: dict, label: str, rng: np.random.Generator) -> list[str]:
    picked = []
    for pool in pools.values():
        p = pool["p_benign"] if label == "benign" else pool["p_malicious"]
        mask = rng.random(len(pool["tokens"])) < p
        picked.extend(itertools.compress(pool["tokens"], mask.tolist()))
    return picked


def _sample_content(alpha: np.ndarray, size: int, rng: np.random.Generator) -> bytes:
    dist = rng.dirichlet(alpha)
    counts = rng.multinomial(size, dist)
    values = np.repeat(np.arange(256, dtype=np.uint8), counts)
    return rng.permutation(values).tobytes()


class CorpusError(RuntimeError):
    """A stored file whose bytes differ from those its manifest records."""


class FileSet(Mapping):
    """Read-only name -> bytes over files on disk, each recorded by name,
    size and SHA-256 (and a corpus file's ``label`` and ``source``, a
    padded file's ``certificate``) in the order it was added. A file is
    read each time it is accessed and never held; bytes other than those
    recorded raise ``CorpusError``, naming it. A record with a ``source``
    (a ``dirs`` corpus) is read there, any other from ``directory``."""

    def __init__(self, directory: Path | None, records=(), kind="corpus"):
        self.directory = directory
        self.records = {rec["name"]: rec for rec in records}
        self.kind = kind    # what the error of a changed file calls it

    def path(self, name: str) -> Path:
        rec = self.records[name]
        return Path(rec["source"]) if "source" in rec else self.directory / name

    def add(self, name: str, data: bytes, **extra) -> None:
        """Record ``data``, read in place or written, as file ``name``."""
        self.records[name] = {"name": name, **extra, "size": len(data),
                              "sha256": hashlib.sha256(data).hexdigest()}

    def write(self, name: str, data: bytes, **extra) -> None:
        # the directory comes with the first file: an attack that fails
        # before it makes one leaves none
        self.directory.mkdir(parents=True, exist_ok=True)
        (self.directory / name).write_bytes(data)
        self.add(name, data, **extra)

    def __getitem__(self, name: str) -> bytes:
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


def _stored_files(path: Path, key: str | None, kind: str,
                  *required) -> tuple[dict, FileSet]:
    """The manifest ``_store`` wrote at ``path`` under ``key``, but its
    ``files``, and the ``FileSet`` of those, each record checked for its
    fields (``required`` ones too) and each file by ``FileSet.check``."""
    manifest = _stored(path, key)
    records = ckpt.field(manifest, "files", list, dict)
    for rec in records:
        ckpt.field(rec, "size", int)
        for name in ("name", "sha256", *required):
            ckpt.field(rec, name, str)
        if "source" in rec:
            ckpt.field(rec, "source", str)
    files = FileSet(path.parent, manifest.pop("files"), kind)
    files.check()
    return manifest, files


# gen_corpus writes the files it makes in batches of this many: creating
# each file right after making it, interleaved with generation, ran about
# 15% slower on ext4 (a 1000-file corpus, 2 vCPUs), and a batch holds at
# most this many files' bytes
CORPUS_WRITE_BATCH = 64


def _synth_files(cfg: CorpusConfig, seed: int):
    """(name, label, bytes) of each synthetic corpus file, in manifest
    order, each made when it is reached."""
    rng = np.random.default_rng(seed)
    lo, hi = cfg.content_size
    for label, alpha in (("benign", np.asarray(cfg.byte_alpha_benign)),
                         ("malicious", np.asarray(cfg.byte_alpha_malicious))):
        for i in range(cfg.n_per_class):
            content = _sample_content(alpha, int(rng.integers(lo, hi + 1)), rng)
            imports = _sample_tokens(cfg.api_pools, label, rng)
            strings = _sample_tokens(cfg.string_pools, label, rng)
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


def gen_corpus(cfg: CorpusConfig, seed: int,
               corpus_dir: Path) -> tuple[dict, FileSet]:
    """A labeled synthetic PE corpus written to ``corpus_dir``, in place of
    whatever it held, as it is made, ``CORPUS_WRITE_BATCH`` files at a
    time: (manifest, blobs), the blobs read from disk when accessed. Same
    seed, same bytes."""
    shutil.rmtree(corpus_dir, ignore_errors=True)
    blobs, digest = FileSet(corpus_dir), hashlib.sha256()
    files = _synth_files(cfg, seed)
    while batch := list(itertools.islice(files, CORPUS_WRITE_BATCH)):
        for name, label, data in batch:
            blobs.write(name, data, label=label)
            _digest(digest, name, label, data)
    return {"seed": seed, "digest": digest.hexdigest()}, blobs


def ingest_dirs(benign_dir, malicious_dir) -> tuple[dict, FileSet]:
    """A corpus, (manifest, blobs), of user-supplied PE directories, read in
    place: each source is read once here, for its record, and is not
    copied. An empty file has no byte histogram: it is left out, and
    ``skipped`` names it with the reason."""
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
    return {"seed": None, "skipped": skipped,
            "digest": digest.hexdigest()}, blobs


def _manifest(manifest: dict, files: FileSet) -> dict:
    """``manifest`` with the records of ``files`` as its ``files``."""
    return {**manifest, "files": list(files.records.values())}


def save_corpus(corpus_dir: Path, corpus: tuple, key: str | None = None) -> None:
    """Write the manifest of ``corpus`` (manifest, blobs) under ``key`` to
    ``corpus_dir``, which holds its files already but those read in place
    (``source``), and remove any other file there."""
    manifest, blobs = corpus
    corpus_dir.mkdir(parents=True, exist_ok=True)
    for path in corpus_dir.iterdir():
        rec = blobs.records.get(path.name)
        if rec is None or "source" in rec:
            path.unlink()
    _store(corpus_dir / "manifest.json", key, **_manifest(manifest, blobs))


def load_corpus(corpus_dir: Path, key: str | None = None) -> tuple[dict, FileSet]:
    """The (manifest, blobs) ``save_corpus`` wrote. ``ValueError`` (or
    ``OSError``) for a malformed manifest, a file gone or resized or, when
    ``key`` is given, a corpus stored under another: it is made again. A
    file that kept its size but not its bytes raises ``CorpusError``,
    which fails the stage and names it."""
    manifest, blobs = _stored_files(corpus_dir / "manifest.json", key,
                                    "corpus", "label")
    ckpt.field(manifest, "digest", str)
    return manifest, blobs


# --- feature extraction -----------------------------------------------------

class FileFeatures:
    """One file's features, each extracted when first read: a byte-only run
    never parses a file or scans it for strings. A non-PE has no imports; a
    PE whose import walk was cut short has those read before."""

    def __init__(self, data: bytes, fcfg: FeatureConfig):
        self.data = data
        self.fcfg = fcfg

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
        return features.extract_strings(self.data, self.fcfg.min_string_len)


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
# Top-K family -> its vocabulary's file, kind and FeatureConfig size field,
# and the FileFeatures field of the tokens it ranks
TOPK = {"api_topk": ("vocab_api.gevf", "api", "k_api", "import_tokens"),
        "strings_topk": ("vocab_strings.gevf", "string", "k_strings",
                         "string_tokens")}


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
            feats = FileFeatures(blobs[i], self.fcfg)
            self.fill(matrices, len(blobs), i, feats, families)
            if visit is not None:
                visit(feats)
            del feats   # not alive while the next file's is made
        return matrices


# --- GAN wiring -------------------------------------------------------------

def pipeline_preset(kind: str, dim: int, stage_cfg: GanStageConfig) -> gan.GanPreset:
    """Canonical preset when dims match it, else a size-appropriate variant."""
    canonical = gan.preset_for(kind)
    if dim == canonical.input_dim and stage_cfg.generator_hidden is None \
            and stage_cfg.critic_hidden is None:
        return canonical
    gen_hidden = tuple(stage_cfg.generator_hidden or
                       (max(dim, 64), max(dim, 64)))
    critic_hidden = tuple(stage_cfg.critic_hidden or
                          (max(dim // 2, 32), max(dim // 4, 16)))
    return gan.GanPreset(kind, dim, canonical.noise_dim, gen_hidden,
                         critic_hidden, canonical.output_activation)


def train_gan_for(kind: str, table: FeatureTable, train_idx, cfg: ExperimentConfig,
                  metrics_path=None) -> gan.GanModel:
    benign, malicious = table.by_class((GAN_FAMILIES[kind],), train_idx)
    stage = cfg.gans.get(kind, GanStageConfig())
    preset = pipeline_preset(kind, benign.shape[1], stage)
    sink = None
    rows_out = []
    if metrics_path is not None:
        def sink(step, ld, lg, gp, step_ms):
            rows_out.append(f"{step},{ld!r},{lg!r},{gp!r},{step_ms:.4f}\n")
    model = gan.train(benign, malicious, preset, stage, cfg.seed,
                      metrics_sink=sink)
    if metrics_path is not None:
        metrics_path.parent.mkdir(parents=True, exist_ok=True)
        with open(metrics_path, "w") as fh:
            fh.write("step,loss_critic,loss_generator,gradient_penalty,"
                     "step_ms\n")
            fh.writelines(rows_out)
    return model


# --- attacks ----------------------------------------------------------------

@dataclass
class AttackOutput:
    """What an attack made: ``files``, each rewritten file, written as
    soon as it is made and kept only as its record."""
    files: FileSet
    query_count: int = 0
    stats: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)


def save_attack(path: Path, out: AttackOutput, key: str) -> None:
    """The manifest of ``out``, ``key`` in it, written after its files."""
    _store(path, key, **_manifest({"query_count": out.query_count,
                                   "stats": out.stats,
                                   "warnings": out.warnings}, out.files))


def load_attack(path: Path, key: str) -> AttackOutput:
    """The ``AttackOutput`` ``save_attack`` wrote at ``path`` under ``key``.
    ``ValueError`` (or ``OSError``) for another key, a malformed manifest
    or a file gone, resized or edited: the attack then runs again."""
    try:
        manifest, files = _stored_files(path, key, "attack output")
    except CorpusError as exc:
        raise ValueError(str(exc)) from None
    return AttackOutput(files,
                        query_count=ckpt.field(manifest, "query_count", int),
                        stats=ckpt.field(manifest, "stats", dict),
                        warnings=ckpt.field(manifest, "warnings", list, str))


def _padding_request(data: bytes, target: np.ndarray,
                     gap: float) -> padopt.PaddingRequest:
    """Padding of ``data`` towards ``target`` within ``gap``; 0 is exact."""
    counts = np.bincount(np.frombuffer(data, dtype=np.uint8), minlength=256)
    return padopt.PaddingRequest(counts, target, gap=gap)


def _certified_plan(req: padopt.PaddingRequest) -> padopt.PaddingPlan:
    """``padopt.plan_for``'s plan, re-checked against its certificate."""
    plan = padopt.plan_for(req)
    if not padopt.check_plan(plan, req):
        raise padopt.InfeasiblePaddingError(
            "padding plan misses its certified bound")
    return plan


def _pad_to_target(data: bytes, target: np.ndarray,
                   gap: float) -> tuple[bytes, dict]:
    """``data`` padded towards ``target``, and the plan's certificate."""
    plan = _certified_plan(_padding_request(data, target, gap))
    pe = petk.parse(data, strict=False)
    return petk.append_overlay(pe, plan).data, plan.certificate


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


# An attack runs on the state, the names of the files it rewrites, their
# bytes ``blobs`` (``blobs[i]`` is file ``names[i]``, read when indexed),
# ``rows``, where ``rows(family)`` holds those files' feature rows of
# ``family``, row for row, and the ``AttackOutput`` it writes each
# rewritten file to.

def attack_gan_byte(state, names, blobs, rows, out: AttackOutput) -> None:
    model = state.gan_models["byte_histogram"]
    rng = np.random.default_rng(state.cfg.seed + 10)
    appended = []
    for name, data, histogram in zip(names, blobs, rows("byte")):
        target = _byte_target(model, histogram, rng)
        rewritten, certificate = _pad_to_target(data, target, state.cfg.gap)
        out.files.write(name, rewritten, certificate=certificate)
        appended.append(len(rewritten) - len(data))
    out.stats["mean_appended_bytes"] = float(np.mean(appended))


def attack_gan_indicator(model, names, indicators, blobs,
                         vocab: features.Vocabulary, kind: str, cap: int,
                         seed, out: AttackOutput) -> None:
    rng = np.random.default_rng(seed)
    added_counts = []
    for name, m, data in zip(names, indicators, blobs):
        z = gan.sample_noise(model.preset.noise_dim, 1, rng)
        m_adv = gan.generate(model, m[None, :], z)[0]
        new = [vocab.entries[i] for i in range(vocab.size)
               if m_adv[i] > 0.5 and m[i] < 0.5]
        if len(new) > cap:
            out.warnings.append(f"{name}: {len(new)} new tokens over cap {cap}")
            new = new[:cap]
        added_counts.append(len(new))
        pe = petk.parse(data, strict=False)
        if kind == "api":
            edited, _ = petk.extend_imports(pe, new)
        else:
            payload = b"\x00" + b"\x00".join(
                s.encode("latin-1") for s in new) + b"\x00"
            edited = petk.add_section(pe, ".sdat2", payload)
        out.files.write(name, edited.data)
    out.stats["mean_new_tokens"] = float(np.mean(added_counts))


def attack_gan_api(state, names, blobs, rows, out) -> None:
    attack_gan_indicator(state.gan_models["api"], names, rows("api_topk"),
                         blobs, state.table.vocabs["api_topk"], "api",
                         state.cfg.max_new_imports, state.cfg.seed + 11, out)


def attack_gan_strings(state, names, blobs, rows, out) -> None:
    attack_gan_indicator(state.gan_models["strings"], names,
                         rows("strings_topk"), blobs,
                         state.table.vocabs["strings_topk"], "strings",
                         state.cfg.max_new_strings, state.cfg.seed + 12, out)


def attack_gan_all(state, names, blobs, rows, out) -> None:
    """The API, string and byte attacks in sequence, each step writing to
    ``out``'s directory: a step reads the files the step before wrote
    there, its rows extracted from them. Only the steps' warnings are
    kept."""
    for step in ("gan_api", "gan_strings", "gan_byte"):
        step_out = AttackOutput(out.files)
        ATTACKS[step].run(state, names, blobs, rows, step_out)
        out.warnings += step_out.warnings
        blobs = out.files.files(names)
        rows = lambda family, blobs=blobs: state.table.extract(
            blobs, [family])[family]


def attack_benign_injection(state, names, blobs, rows, out) -> None:
    rng = np.random.default_rng(state.cfg.seed + 13)
    pool = state.blobs.files(sorted(
        state.table.names[i] for i in _rows(state, "train", "benign")))
    for name, data in zip(names, blobs):
        pe = petk.parse(data, strict=False)
        out.files.write(name, baselines.benign_injection(pe, pool, rng).data)


def attack_malgan_byte(state, names, blobs, rows, out) -> None:
    cfg = state.cfg
    benign, malicious = state.table.by_class(("byte",), state.splits["train"])
    stage = cfg.gans.get("byte_histogram", GanStageConfig())
    preset = pipeline_preset("byte_histogram", benign.shape[1], stage)
    black_box = _primary_byte_detector(state).label_fn()
    model = baselines.train_malgan(malicious, benign, black_box, preset,
                                   cfg.malgan_max_queries, cfg.seed)
    rng = np.random.default_rng(cfg.seed + 2)
    for name, data, histogram in zip(names, blobs, rows("byte")):
        target = _byte_target(model, histogram, rng)
        rewritten, certificate = _pad_to_target(data, target, cfg.gap)
        out.files.write(name, rewritten, certificate=certificate)
    out.query_count = model.training_meta["queries"]
    out.stats["rounds"] = model.training_meta.get("rounds", 0)


class Attack(NamedTuple):
    gans: tuple             # the GAN kinds it needs trained
    fields: tuple           # the config fields it reads, besides seed
    run: Callable           # (state, names, blobs, rows, out) -> None


ATTACKS = {
    "gan_byte": Attack(("byte_histogram",), ("gap",), attack_gan_byte),
    "gan_api": Attack(("api",), ("max_new_imports",), attack_gan_api),
    "gan_strings": Attack(("strings",), ("max_new_strings",),
                          attack_gan_strings),
    "gan_all": Attack(GAN_KINDS, ("max_new_imports", "max_new_strings", "gap"),
                      attack_gan_all),
    "benign_injection": Attack((), (), attack_benign_injection),
    "malgan_byte": Attack((), ("detectors", "gans", "malgan_max_queries",
                               "gap"), attack_malgan_byte),
}


# --- pipeline ---------------------------------------------------------------

@dataclass
class PipelineState:
    cfg: ExperimentConfig
    workdir: Path
    manifest: dict | None = None
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


def _stage(name):
    def wrap(fn):
        def run(state, *args, **kwargs):
            try:
                return fn(state, *args, **kwargs)
            except (ConfigError, StageError):
                raise
            except Exception as exc:
                raise StageError(name, f"{type(exc).__name__}: {exc}") from exc
        run.__name__ = fn.__name__
        return run
    return wrap


def _key(*parts) -> str:
    """Content key of an artifact: SHA-256 over the JSON of ``parts``."""
    blob = json.dumps(parts, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


class Artifact(NamedTuple):
    # (kind, name), the kind one of "corpus", "vocab", "features",
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


@_stage("corpus")
def stage_corpus(state: PipelineState):
    cfg = state.cfg.corpus
    corpus_dir = state.workdir / "corpus"
    what = ("corpus", cfg.kind)
    if cfg.kind == "synthetic":
        key = _key("corpus", dataclasses.asdict(cfg), state.cfg.seed)
        made = None
    else:
        # a dirs corpus is also keyed by its files, each read once here, so
        # an edited one is ingested again
        made = ingest_dirs(cfg.benign_dir, cfg.malicious_dir)
        key = _key("corpus", dataclasses.asdict(cfg), state.cfg.seed,
                   _manifest(*made))
    # a corpus just made is read back from disk like a stored one, so no
    # stage holds its bytes
    state.manifest, state.blobs = _resume(
        state, key, [Artifact(what, corpus_dir, load_corpus, save_corpus)],
        lambda _: {what: gen_corpus(cfg, state.cfg.seed, corpus_dir)
                   if made is None else made})[what]


def _gans_needed(cfg: ExperimentConfig) -> list[str]:
    """The GAN kinds the configured attacks need trained, sorted."""
    return sorted({kind for attack in cfg.attacks
                   for kind in ATTACKS[attack].gans})


@_stage("extract")
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
        state.manifest["digest"],
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
        matrix, columns = features.load_matrix(path, key)
        if columns != names:
            raise ValueError(f"{path.name} holds the rows of other files")
        return matrix, columns

    artifacts = []
    for fam in families:
        if fam in TOPK:
            artifacts.append(Artifact(("vocab", fam), feat_dir / TOPK[fam][0],
                                      features.load_vocab, features.save_vocab))
        artifacts.append(Artifact(("features", fam), feat_dir / f"{fam}.gevf",
                                  load_matrix, features.save_matrix))
    values = _resume(state, key, artifacts,
                     lambda loaded: _extract_missing(state, families, loaded))
    for (what, fam), value in values.items():
        if what == "vocab":
            table.vocabs[fam] = value
        else:
            table.matrices[fam] = value[0]


def _extract_missing(state: PipelineState, families, loaded: dict) -> dict:
    """The vocabularies and matrices of ``families`` that ``loaded`` lacks,
    by ``what``, from one visit to each corpus file. A missing vocabulary
    ranks the train-benign files' tokens, so those files come first and
    only their Top-K tokens are held, each distinct token once, until it
    exists."""
    table = state.table
    blobs = state.blobs.files(table.names)
    for (what, fam), value in loaded.items():
        if what == "vocab":
            table.vocabs[fam] = value
    ranked = [fam for fam in families if ("vocab", fam) not in loaded
              and fam in TOPK]
    missing = [fam for fam in families if ("features", fam) not in loaded]
    out, matrices = {}, {}
    rest = range(len(blobs))
    if ranked:
        first = _rows(state, "train", "benign")
        held = {fam: [] for fam in ranked}
        shared = {}

        def hold(feats):
            for fam in ranked:
                tokens = getattr(feats, TOPK[fam][3])
                held[fam].append(tuple(map(shared.setdefault, tokens, tokens)))
        table.extract(blobs, [fam for fam in missing if fam not in ranked],
                      first, matrices, hold)
        for fam in ranked:
            _, kind, k, field_name = TOPK[fam]
            table.vocabs[fam] = out[("vocab", fam)] = features.select_topk(
                held[fam], getattr(table.fcfg, k), kind=kind)
            if fam in missing:
                for i, tokens in zip(first, held[fam]):
                    table.fill(matrices, len(blobs), i,
                               SimpleNamespace(**{field_name: tokens}), (fam,))
            del held[fam]
        rest = sorted(set(rest) - set(first))
    if missing:
        table.extract(blobs, missing, rest, matrices)
    # each in the dtype it is stored and loaded in, so a cold run holds
    # the arrays a warm one loads
    for fam in missing:
        out[("features", fam)] = ckpt.narrowest(matrices.pop(fam)), table.names
    return out


@_stage("train-detector")
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


@_stage("train-gan")
def stage_gans(state: PipelineState):
    model_dir = state.workdir / "models"
    for kind in _gans_needed(state.cfg):
        what = ("gan", kind)
        key = _key("gan", state.extract_key, kind,
                   dataclasses.asdict(state.cfg.gans.get(kind, GanStageConfig())),
                   state.cfg.seed)
        state.gan_models[kind] = _resume(
            state, key, [Artifact(what, model_dir / f"gan_{kind}.gevd",
                                  gan.load_gan, gan.save_gan)],
            lambda _: {what: train_gan_for(
                kind, state.table, state.splits["train"], state.cfg,
                metrics_path=model_dir / f"gan_{kind}_metrics.csv")})[what]


@_stage("attack")
def stage_attacks(state: PipelineState):
    cfg = state.cfg
    test_mal = _rows(state, "test", "malicious")
    names = [state.table.names[i] for i in test_mal]
    config = cfg.to_dict()

    def rows(family):
        return state.table.matrices[family][test_mal]

    for attack in cfg.attacks:
        what, spec = ("attack", attack), ATTACKS[attack]
        directory = state.workdir / "attacks" / attack
        key = _key("attack", attack, state.extract_key,
                   [state.keys[("gan", kind)] for kind in spec.gans],
                   {name: config[name] for name in spec.fields}, cfg.seed)

        def run(_):
            # replace, not add to, what an earlier run (maybe of another
            # corpus, whose file names repeat) left there
            shutil.rmtree(directory, ignore_errors=True)
            out = AttackOutput(FileSet(directory, kind="attack output"))
            spec.run(state, names, state.blobs.files(names), rows, out)
            return {what: out}
        state.attack_outputs[attack] = _resume(
            state, key, [Artifact(what, directory / "manifest.json",
                                  load_attack, save_attack)], run)[what]


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


def _primary_byte_detector(state: PipelineState) -> detectors.DetectorModel:
    return state.detector_models[_primary_byte_name(state.cfg)]


@_stage("evaluate")
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
            [Artifact(what, out.files.directory / "rates.json", load_rates,
                      lambda path, rates, key: _store(path, key, rates=rates))],
            # read back from the files the attack wrote
            lambda _: {what: rates(table.extract(out.files.files(names),
                                                 families))}
        )[what]
        query_counts[attack] = out.query_count
        stats = dict(out.stats)
        stats["mean_size_mb"] = float(np.mean(
            [rec["size"] for rec in out.files.records.values()])) / 1e6
        stats["capacity_warnings"] = len(out.warnings)
        attack_stats[attack] = stats

    gap_rows = []
    if "gan_byte" in state.attack_outputs:
        what = ("gap_sweep", "gan_byte")
        key = _key("gap_sweep", state.keys[("gan", "byte_histogram")],
                   state.keys[("detector", _primary_byte_name(cfg))],
                   state.extract_key, cfg.gap_sweep, cfg.sweep_subsample,
                   cfg.sweep_seed, cfg.seed)
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
    sweep_seed = cfg.sweep_seed if cfg.sweep_seed is not None else cfg.seed + 1
    rng = np.random.default_rng(sweep_seed)
    subset = test_mal
    if len(test_mal) > cfg.sweep_subsample:
        pick = sorted(rng.choice(len(test_mal), size=cfg.sweep_subsample,
                                 replace=False).tolist())
        subset = [test_mal[i] for i in pick]
    model = state.gan_models["byte_histogram"]
    byte_detector = _primary_byte_detector(state)

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
            plan = _certified_plan(_padding_request(blob, targets[i], gap))
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
    """Run the stages in order up to and including ``upto``; return the
    last stage's result."""
    last = [name for name, _ in STAGES].index(upto)
    result = None
    for _, attr in STAGES[:last + 1]:
        result = globals()[attr](state)
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
        "sweep_seed": cfg.sweep_seed if cfg.sweep_seed is not None else cfg.seed + 1,
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
        attacks = sorted(report.get("attack_rates", {}))
        lines = ["| Detector | Original | " + " | ".join(attacks) + " |",
                 "|---" * (len(attacks) + 2) + "|"]
        for det, orig in sorted(report.get("original_rates", {}).items()):
            cells = [f"{report['attack_rates'][a].get(det, float('nan')):.3f}"
                     for a in attacks]
            lines.append(f"| {det} | {orig:.3f} | " + " | ".join(cells) + " |")
        if report.get("gap_sweep"):
            lines.append("")
            lines.append("| Gap | Mean size (MB) | Detection rate |")
            lines.append("|---|---|---|")
            for row in report["gap_sweep"]:
                lines.append(f"| {row['gap']} | {row['mean_size_mb']:.3f} |"
                             f" {row['detection_rate']:.3f} |")
        return "\n".join(lines) + "\n"
    raise ConfigError(f"unknown report format {fmt!r}")
