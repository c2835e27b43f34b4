"""Experiment orchestration: synthetic corpora, pipeline stages, reports.

The stages run in the order of ``STAGES``, in one process, handing their
results on in memory. A CLI subcommand runs the table up to its own stage,
and a full pipeline run is reproducible from the config plus the global
seed. Evaluation always re-extracts features from the bytes of the
rewritten files (held in memory, the same bytes the attack stage writes),
never from the adversarial feature vectors.

Each attack is one entry of ``ATTACKS``: the GAN kinds it needs trained
and the function that runs it. ``gan_all`` runs the ``gan_api``,
``gan_strings`` and ``gan_byte`` entries in sequence, each step on the
files the step before rewrote.

Each feature family is one entry of ``FAMILIES``, the builder of one
file's vector from its lazily extracted ``FileFeatures``. Extract loads or
computes only the families the run reads; ``gan_all`` and evaluation
build the rewritten files' rows through the same table.

The corpus, vocabularies, feature matrices, detectors and GANs resume
through ``_resume``, each under a content key: a SHA-256 over the config
slice that determines it and the key of what it was computed from
(``_key``). The corpus is keyed by ``corpus`` + ``seed`` (a ``dirs`` corpus
also by each source file's name, size and SHA-256); the features by the
tool and schema versions, the corpus bytes, ``feature_cfg``, ``split`` and
``seed``; each model by the feature key, its own spec and ``seed``. What is
stored under the key loads; anything else is computed and written over it.
Attack and evaluation always run.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
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
        if abs(sum(self.split) - 1.0) > 1e-9:
            raise ConfigError("split fractions must sum to 1")
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
        fcfg = self.feature_cfg
        if min(fcfg.k_api, fcfg.k_strings, fcfg.hash_dim, fcfg.min_string_len) < 1:
            raise ConfigError("k_api, k_strings, hash_dim and min_string_len "
                              "must be at least 1")
        for kind in self.gans:
            if kind not in GAN_KINDS:
                raise ConfigError(f"unknown GAN kind {kind!r} in gans")
        for gap in (self.gap, *self.gap_sweep):
            if not 0.0 <= gap < 1.0:
                raise ConfigError(f"gap {gap!r} outside [0, 1)")
        if self.sweep_subsample < 1:
            raise ConfigError("sweep_subsample must be at least 1")
        if self.corpus.kind not in ("synthetic", "dirs"):
            raise ConfigError(f"unknown corpus kind {self.corpus.kind!r}")
        if self.corpus.kind == "dirs" and None in (self.corpus.benign_dir,
                                                   self.corpus.malicious_dir):
            raise ConfigError("a dirs corpus needs benign_dir and malicious_dir")
        if self.corpus.n_per_class < 1:
            raise ConfigError("corpus.n_per_class must be at least 1")
        size = self.corpus.content_size
        if not (isinstance(size, (tuple, list)) and len(size) == 2
                and all(_is_int(v) for v in size)
                and 1 <= size[0] <= size[1]):
            raise ConfigError(f"corpus.content_size must be two integers "
                              f"1 <= lo <= hi, got {size!r}")
        if self.max_new_imports < 0 or self.max_new_strings < 0:
            raise ConfigError("max_new_imports and max_new_strings must be >= 0")

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["schema_version"] = SCHEMA_VERSION
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        d = dict(d)
        version = d.pop("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ConfigError(f"unsupported config schema version {version}")
        try:
            if "corpus" in d:
                d["corpus"] = CorpusConfig(**d["corpus"])
            if "feature_cfg" in d:
                d["feature_cfg"] = FeatureConfig(**d["feature_cfg"])
            if "gans" in d:
                d["gans"] = {k: GanStageConfig(**v) if isinstance(v, dict) else v
                             for k, v in d["gans"].items()}
            if "detectors" in d:
                d["detectors"] = [DetectorSpec(**s) if isinstance(s, dict) else s
                                  for s in d["detectors"]]
            for key in ("split", "gap_sweep"):
                if key in d:
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
        picked.extend(tok for tok, hit in zip(pool["tokens"], mask) if hit)
    return picked


def _sample_content(alpha: np.ndarray, size: int, rng: np.random.Generator) -> bytes:
    dist = rng.dirichlet(alpha)
    counts = rng.multinomial(size, dist)
    values = np.repeat(np.arange(256, dtype=np.uint8), counts)
    return rng.permutation(values).tobytes()


def gen_corpus(cfg: CorpusConfig, seed: int) -> tuple[dict, dict[str, bytes]]:
    """A labeled synthetic PE corpus, (manifest, blobs); same seed, same
    bytes."""
    rng = np.random.default_rng(seed)
    lo, hi = cfg.content_size
    records, blobs = [], {}
    for label, alpha in (("benign", np.asarray(cfg.byte_alpha_benign)),
                         ("malicious", np.asarray(cfg.byte_alpha_malicious))):
        for i in range(cfg.n_per_class):
            content = _sample_content(alpha, int(rng.integers(lo, hi + 1)), rng)
            imports = _sample_tokens(cfg.api_pools, label, rng)
            strings = _sample_tokens(cfg.string_pools, label, rng)
            spec = petk.SynthSpec(
                sections=[petk.SectionSpec(".text", content=content)],
                imports=imports, strings=strings)
            name = f"{label}_{i:05d}.exe"
            blobs[name] = petk.synth_pe(spec, seed=int(rng.integers(0, 2**31)))
            records.append({"name": name, "label": label})
    return {"seed": seed, "files": records}, blobs


def ingest_dirs(benign_dir, malicious_dir) -> tuple[dict, dict[str, bytes]]:
    """A corpus, (manifest, blobs), of user-supplied PE directories. An
    empty file has no byte histogram: it is left out, and ``skipped`` names
    it with the reason."""
    records, skipped, blobs = [], [], {}
    for label, src in (("benign", benign_dir), ("malicious", malicious_dir)):
        for i, path in enumerate(sorted(Path(src).iterdir())):
            if not path.is_file():
                continue
            data = path.read_bytes()
            if not data:
                skipped.append({"source": str(path), "reason": "empty file"})
                continue
            name = f"{label}_{i:05d}.exe"
            blobs[name] = data
            records.append({"name": name, "label": label, "source": str(path)})
    return {"seed": None, "files": records, "skipped": skipped}, blobs


def save_corpus(corpus_dir: Path, corpus: tuple, key: str | None = None) -> None:
    """Write ``corpus`` (manifest, blobs), ``key`` in its manifest, in place
    of whatever ``corpus_dir`` held."""
    manifest, blobs = corpus
    shutil.rmtree(corpus_dir, ignore_errors=True)
    corpus_dir.mkdir(parents=True)
    for name, data in blobs.items():
        (corpus_dir / name).write_bytes(data)
    (corpus_dir / "manifest.json").write_text(
        json.dumps({**manifest, "key": key}, sort_keys=True, indent=1))


def load_corpus(corpus_dir: Path, key: str | None = None) -> tuple[dict, dict[str, bytes]]:
    """The (manifest, blobs) ``save_corpus`` wrote; ``ValueError`` for a
    malformed manifest or, when ``key`` is given, one stored under another."""
    manifest = json.loads((corpus_dir / "manifest.json").read_text())
    records = ckpt.field(manifest, "files", list, dict)
    if manifest.pop("key", None) != key and key is not None:
        raise ValueError("corpus built from other inputs")
    blobs = {}
    for rec in records:
        ckpt.field(rec, "label", str)
        name = ckpt.field(rec, "name", str)
        blobs[name] = (corpus_dir / name).read_bytes()
    return manifest, blobs


# --- feature extraction -----------------------------------------------------

class FileFeatures:
    """One file's features, each extracted when first read: a byte-only run
    never parses a file or scans it for strings. A non-PE has no imports."""

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


def split_indices(labels: list[str], fractions, seed: int) -> dict[str, list[int]]:
    """Stratified, seeded train/val/test split over manifest order."""
    rng = np.random.default_rng(seed)
    out = {"train": [], "val": [], "test": []}
    for cls in ("benign", "malicious"):
        idx = [i for i, lab in enumerate(labels) if lab == cls]
        idx = list(rng.permutation(idx))
        n = len(idx)
        n_train = int(round(fractions[0] * n))
        n_val = int(round(fractions[1] * n))
        out["train"].extend(int(i) for i in idx[:n_train])
        out["val"].extend(int(i) for i in idx[n_train:n_train + n_val])
        out["test"].extend(int(i) for i in idx[n_train + n_val:])
    for part in out.values():
        part.sort()
    return out


class FeatureTable:
    """The matrices, over the manifest's file order, of the families the run
    reads, and the vocabularies of its Top-K families."""

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

    def rows_of(self, blobs) -> Callable:
        """``rows(family)``, the rows of the files ``blobs`` holds, in order;
        each file is extracted once, each family's rows are built once."""
        files = [FileFeatures(data, self.fcfg) for data in blobs]

        @functools.cache
        def rows(family):
            return np.array([self.vector_for(f, (family,)) for f in files])
        return rows


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
        with open(metrics_path, "w") as fh:
            fh.write("step,loss_critic,loss_generator,gradient_penalty,"
                     "step_ms\n")
            fh.writelines(rows_out)
    return model


# --- attacks ----------------------------------------------------------------

@dataclass
class AttackOutput:
    rewritten: dict                 # file name -> bytes
    query_count: int = 0
    stats: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)


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


def _pad_to_target(data: bytes, target: np.ndarray, gap: float) -> bytes:
    plan = _certified_plan(_padding_request(data, target, gap))
    pe = petk.parse(data, strict=False)
    return petk.append_overlay(pe, plan).data


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


# An attack runs on the state, the names of the files it rewrites, the
# blobs it starts from and ``rows``: ``rows(family)`` holds those files'
# feature rows of ``family``, row for row.

def attack_gan_byte(state, names, blobs, rows) -> AttackOutput:
    model = state.gan_models["byte_histogram"]
    rng = np.random.default_rng(state.cfg.seed + 10)
    rewritten = {}
    appended = []
    for name, histogram in zip(names, rows("byte")):
        target = _byte_target(model, histogram, rng)
        data = _pad_to_target(blobs[name], target, state.cfg.gap)
        rewritten[name] = data
        appended.append(len(data) - len(blobs[name]))
    return AttackOutput(rewritten=rewritten,
                        stats={"mean_appended_bytes": float(np.mean(appended))})


def attack_gan_indicator(model, names, indicators, blobs,
                         vocab: features.Vocabulary, kind: str, cap: int,
                         seed) -> AttackOutput:
    rng = np.random.default_rng(seed)
    rewritten = {}
    warnings = []
    added_counts = []
    for name, m in zip(names, indicators):
        z = gan.sample_noise(model.preset.noise_dim, 1, rng)
        m_adv = gan.generate(model, m[None, :], z)[0]
        new = [vocab.entries[i] for i in range(vocab.size)
               if m_adv[i] > 0.5 and m[i] < 0.5]
        if len(new) > cap:
            warnings.append(f"{name}: {len(new)} new tokens over cap {cap}")
            new = new[:cap]
        added_counts.append(len(new))
        pe = petk.parse(blobs[name], strict=False)
        if kind == "api":
            edited, _ = petk.extend_imports(pe, new)
        else:
            payload = b"\x00" + b"\x00".join(
                s.encode("latin-1") for s in new) + b"\x00"
            edited = petk.add_section(pe, ".sdat2", payload)
        rewritten[name] = edited.data
    return AttackOutput(rewritten=rewritten,
                        stats={"mean_new_tokens": float(np.mean(added_counts))},
                        warnings=warnings)


def attack_gan_api(state, names, blobs, rows) -> AttackOutput:
    return attack_gan_indicator(state.gan_models["api"], names,
                                rows("api_topk"), blobs,
                                state.table.vocabs["api_topk"], "api",
                                state.cfg.max_new_imports, state.cfg.seed + 11)


def attack_gan_strings(state, names, blobs, rows) -> AttackOutput:
    return attack_gan_indicator(state.gan_models["strings"], names,
                                rows("strings_topk"), blobs,
                                state.table.vocabs["strings_topk"], "strings",
                                state.cfg.max_new_strings, state.cfg.seed + 12)


def attack_gan_all(state, names, blobs, rows) -> AttackOutput:
    """The API, string and byte attacks in sequence: each step starts from
    the blobs the step before rewrote, its rows extracted from them. Only
    the steps' warnings are kept."""
    warnings = []
    for step in ("gan_api", "gan_strings", "gan_byte"):
        out = ATTACKS[step].run(state, names, blobs, rows)
        warnings += out.warnings
        blobs = {**blobs, **out.rewritten}
        rows = state.table.rows_of([blobs[name] for name in names])
    return AttackOutput(rewritten=out.rewritten, warnings=warnings)


def attack_benign_injection(state, names, blobs, rows) -> AttackOutput:
    rng = np.random.default_rng(state.cfg.seed + 13)
    pool = [state.blobs[name] for name in sorted(
        state.table.names[i] for i in _rows(state, "train", "benign"))]
    rewritten = {}
    for name in names:
        pe = petk.parse(blobs[name], strict=False)
        rewritten[name] = baselines.benign_injection(pe, pool, rng).data
    return AttackOutput(rewritten=rewritten)


def attack_malgan_byte(state, names, blobs, rows) -> AttackOutput:
    cfg = state.cfg
    benign, malicious = state.table.by_class(("byte",), state.splits["train"])
    stage = cfg.gans.get("byte_histogram", GanStageConfig())
    preset = pipeline_preset("byte_histogram", benign.shape[1], stage)
    black_box = _primary_byte_detector(state).label_fn()
    model = baselines.train_malgan(malicious, benign, black_box, preset,
                                   cfg.malgan_max_queries, cfg.seed)
    rng = np.random.default_rng(cfg.seed + 2)
    rewritten = {}
    for name, histogram in zip(names, rows("byte")):
        target = _byte_target(model, histogram, rng)
        rewritten[name] = _pad_to_target(blobs[name], target, cfg.gap)
    return AttackOutput(rewritten=rewritten,
                        query_count=model.training_meta["queries"],
                        stats={"rounds": model.training_meta.get("rounds", 0)})


class Attack(NamedTuple):
    gans: tuple             # the GAN kinds it needs trained
    run: Callable           # (state, names, blobs, rows) -> AttackOutput


ATTACKS = {
    "gan_byte": Attack(("byte_histogram",), attack_gan_byte),
    "gan_api": Attack(("api",), attack_gan_api),
    "gan_strings": Attack(("strings",), attack_gan_strings),
    "gan_all": Attack(GAN_KINDS, attack_gan_all),
    "benign_injection": Attack((), attack_benign_injection),
    "malgan_byte": Attack((), attack_malgan_byte),
}


# --- pipeline ---------------------------------------------------------------

@dataclass
class PipelineState:
    cfg: ExperimentConfig
    workdir: Path
    manifest: dict | None = None
    blobs: dict | None = None
    splits: dict | None = None
    extract_key: str | None = None
    table: FeatureTable | None = None
    detector_models: dict = field(default_factory=dict)
    gan_models: dict = field(default_factory=dict)
    # ("corpus"|"vocab"|"features"|"detector"|"gan", name) of each artifact
    # that ``_resume`` computed rather than loaded from the workdir
    computed: set = field(default_factory=set)
    attack_outputs: dict = field(default_factory=dict)


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


def _resume(state: PipelineState, what: tuple, path: Path, key: str,
            load: Callable, compute: Callable, save: Callable):
    """``load(path, key)``, the artifact a run stored under ``key``. On a
    miss (missing, built from other inputs, truncated, unreadable or
    lacking a field) ``compute()``, saved with ``save(path, value, key)``
    and recorded in ``state.computed`` as ``what``."""
    if path.exists():
        try:
            return load(path, key)
        except (OSError, ValueError):
            pass
    path.parent.mkdir(parents=True, exist_ok=True)
    value = compute()
    save(path, value, key)
    state.computed.add(what)
    return value


def _rows(state: PipelineState, part: str, label: str) -> list[int]:
    """Table rows of the ``label`` files in split ``part``."""
    return [i for i in state.splits[part] if state.table.labels[i] == label]


@_stage("corpus")
def stage_corpus(state: PipelineState):
    cfg = state.cfg.corpus
    # a dirs corpus is also keyed by its files, so an edited one is copied again
    sources = [] if cfg.kind == "synthetic" else [_source_listing(cfg)]
    key = _key("corpus", dataclasses.asdict(cfg), state.cfg.seed, *sources)
    state.manifest, state.blobs = _resume(
        state, ("corpus", cfg.kind), state.workdir / "corpus", key, load_corpus,
        lambda: (gen_corpus(cfg, state.cfg.seed) if cfg.kind == "synthetic"
                 else ingest_dirs(cfg.benign_dir, cfg.malicious_dir)),
        save_corpus)


def _source_listing(cfg: CorpusConfig) -> list:
    """Name, size and SHA-256 of each file a dirs corpus ingests."""
    listing = []
    for src in (cfg.benign_dir, cfg.malicious_dir):
        for path in sorted(Path(src).iterdir()):
            if path.is_file():
                data = path.read_bytes()
                listing.append([path.name, len(data),
                                hashlib.sha256(data).hexdigest()])
    return listing


def _corpus_digest(manifest: dict, blobs: dict) -> str:
    """SHA-256 over the manifest's file order, labels and blob bytes."""
    h = hashlib.sha256()
    for rec in manifest["files"]:
        data = blobs[rec["name"]]
        h.update(json.dumps([rec["name"], rec["label"], len(data)]).encode("utf-8"))
        h.update(data)
    return h.hexdigest()


def _gans_needed(cfg: ExperimentConfig) -> list[str]:
    """The GAN kinds the configured attacks need trained, sorted."""
    return sorted({kind for attack in cfg.attacks
                   for kind in ATTACKS[attack].gans})


@_stage("extract")
def stage_extract(state: PipelineState):
    cfg = state.cfg
    fcfg = cfg.feature_cfg
    names = [rec["name"] for rec in state.manifest["files"]]
    labels = [rec["label"] for rec in state.manifest["files"]]
    state.splits = split_indices(labels, cfg.split, cfg.seed)
    for part in ("train", "test"):
        if {labels[i] for i in state.splits[part]} != {"benign", "malicious"}:
            raise ConfigError(f"split {cfg.split} leaves a class of this "
                              f"{len(names)}-file corpus no {part} file")
    key = state.extract_key = _key(
        "extract", SCHEMA_VERSION, __version__,
        _corpus_digest(state.manifest, state.blobs),
        dataclasses.asdict(fcfg), cfg.split, cfg.seed)
    feat_dir = state.workdir / "features"
    table = state.table = FeatureTable(names, labels, fcfg)
    # the run reads the detectors' families and those the needed GANs
    # rewrite (MalGAN's byte rows come with the byte detector it requires).
    # Each resumes; the files are extracted, each once, only on a miss.
    read = {fam for spec in cfg.detectors for fam in spec.families}
    read |= {GAN_FAMILIES[kind] for kind in _gans_needed(cfg)}
    files = functools.cache(
        lambda: [FileFeatures(state.blobs[name], fcfg) for name in names])

    def load_matrix(path, key):
        matrix, columns = features.load_matrix(path, key)
        if columns != names:
            raise ValueError(f"{path.name} holds the rows of other files")
        return matrix, columns

    for fam in [fam for fam in FAMILIES if fam in read]:
        if fam in TOPK:
            file_name, kind, k, tokens = TOPK[fam]
            table.vocabs[fam] = _resume(
                state, ("vocab", fam), feat_dir / file_name, key,
                features.load_vocab, lambda: features.select_topk(
                    [getattr(files()[i], tokens)
                     for i in _rows(state, "train", "benign")],
                    getattr(fcfg, k), kind=kind), features.save_vocab)
        table.matrices[fam], _ = _resume(
            state, ("features", fam), feat_dir / f"{fam}.gevf", key,
            load_matrix, lambda: (np.array(
                [table.vector_for(f, (fam,)) for f in files()]), names),
            features.save_matrix)


@_stage("train-detector")
def stage_detectors(state: PipelineState):
    model_dir = state.workdir / "models"
    for spec in state.cfg.detectors:
        path = model_dir / f"detector_{spec.name}.gevd"
        key = _key("detector", state.extract_key, dataclasses.asdict(spec),
                   state.cfg.seed)
        state.detector_models[spec.name] = _resume(
            state, ("detector", spec.name), path, key, detectors.load_detector,
            lambda: detectors.train_detector(
                spec.kind, *state.table.by_class(spec.families,
                                                 state.splits["train"]),
                hyperparams=spec.hyperparams, seed=state.cfg.seed),
            detectors.save_detector)


@_stage("train-gan")
def stage_gans(state: PipelineState):
    model_dir = state.workdir / "models"
    for kind in _gans_needed(state.cfg):
        path = model_dir / f"gan_{kind}.gevd"
        key = _key("gan", state.extract_key, kind,
                   dataclasses.asdict(state.cfg.gans.get(kind, GanStageConfig())),
                   state.cfg.seed)
        state.gan_models[kind] = _resume(
            state, ("gan", kind), path, key, gan.load_gan,
            lambda: train_gan_for(
                kind, state.table, state.splits["train"], state.cfg,
                metrics_path=model_dir / f"gan_{kind}_metrics.csv"),
            gan.save_gan)


@_stage("attack")
def stage_attacks(state: PipelineState):
    test_mal = _rows(state, "test", "malicious")
    names = [state.table.names[i] for i in test_mal]

    def rows(family):
        return state.table.matrices[family][test_mal]

    for attack in state.cfg.attacks:
        out = ATTACKS[attack].run(state, names, state.blobs, rows)
        state.attack_outputs[attack] = out
        # replace, not add to, what an earlier run (maybe of another
        # corpus, whose file names repeat) left there
        attack_dir = state.workdir / "attacks" / attack
        shutil.rmtree(attack_dir, ignore_errors=True)
        attack_dir.mkdir(parents=True)
        for name, data in sorted(out.rewritten.items()):
            (attack_dir / name).write_bytes(data)
        (attack_dir / "manifest.json").write_text(json.dumps({
            "attack": attack, "query_count": out.query_count,
            "stats": out.stats, "warnings": out.warnings,
            "files": sorted(out.rewritten)}, sort_keys=True, indent=1))


def _primary_byte_detector(state: PipelineState) -> detectors.DetectorModel:
    """The first byte-only detector; the config ensures one where needed."""
    return next(state.detector_models[spec.name] for spec in state.cfg.detectors
                if spec.families == ("byte",))


@_stage("evaluate")
def stage_evaluate(state: PipelineState) -> dict:
    cfg = state.cfg
    table = state.table
    test_mal = _rows(state, "test", "malicious")
    names = [table.names[i] for i in test_mal]

    def rates(rows_of) -> dict:
        """Each detector's rate on the rows ``rows_of(family)`` gives."""
        return {spec.name: detectors.detection_rate(
                    state.detector_models[spec.name],
                    np.hstack([rows_of(fam) for fam in spec.families]))
                for spec in cfg.detectors}

    # the original files' rows come from the table; the rewritten files
    # are extracted again from their bytes
    original_rates = rates(lambda fam: table.matrices[fam][test_mal])
    test_ben = _rows(state, "test", "benign")
    fpr = rates(lambda fam: table.matrices[fam][test_ben])

    attack_rates = {}
    query_counts = {}
    attack_stats = {}
    for attack, out in state.attack_outputs.items():
        attack_rates[attack] = rates(
            table.rows_of([out.rewritten[name] for name in names]))
        query_counts[attack] = out.query_count
        stats = dict(out.stats)
        stats["mean_size_mb"] = float(np.mean(
            [len(out.rewritten[name]) for name in names])) / 1e6
        stats["capacity_warnings"] = len(out.warnings)
        attack_stats[attack] = stats

    gap_rows = []
    if "gan_byte" in state.attack_outputs:
        gap_rows = _gap_sweep(state, test_mal)

    return {
        "original_rates": original_rates,
        "false_positive_rates": fpr,
        "attack_rates": attack_rates,
        "query_counts": query_counts,
        "attack_stats": attack_stats,
        "gap_sweep": gap_rows,
        "original_mean_size_mb": float(np.mean(
            [len(state.blobs[name]) for name in names])) / 1e6,
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

    # the "exact" row is gap 0, as is a 0 in the sweep: plan each gap once
    by_gap: dict[float, dict] = {}
    rows = []
    for label, gap_value in (("exact", 0.0), *((g, g) for g in cfg.gap_sweep)):
        if gap_value not in by_gap:
            sizes = []
            appended = []
            hists = []
            for i in subset:
                # sizes and histograms follow from the plan; no need to
                # materialize the (possibly huge) exact-mode files
                blob = state.blobs[state.table.names[i]]
                plan = _certified_plan(
                    _padding_request(blob, targets[i], gap_value))
                sizes.append(len(blob) + plan.total_appended)
                appended.append(plan.total_appended)
                hists.append(plan.achieved)
            by_gap[gap_value] = {
                "mean_size_mb": float(np.mean(sizes)) / 1e6,
                "mean_appended_bytes": float(np.mean(appended)),
                "detection_rate": detectors.detection_rate(
                    byte_detector, np.array(hists))}
        rows.append({"gap": label, **by_gap[gap_value]})
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
