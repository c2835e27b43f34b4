"""Experiment orchestration: synthetic corpora, pipeline stages, reports.

The stages run in the order of ``STAGES``, in one process, handing their
results on in memory. A CLI subcommand runs the table up to its own stage,
and a full pipeline run is reproducible from the config plus the global
seed. Evaluation always re-extracts features from the rewritten files on
disk, never from in-memory adversarial vectors.

The stages up to train-gan resume. Each of their artifacts carries a
content key: a SHA-256 over the config slice that determines it and the
key of what it was computed from (``_key``). The corpus manifest holds the
key of ``corpus`` + ``seed``; the feature matrices and vocabularies the key
of the tool and schema versions, the corpus bytes, ``feature_cfg``,
``split`` and ``seed``; each detector and GAN checkpoint the feature key
plus its own spec and ``seed``. A stage loads an artifact whose stored key
matches and recomputes (and rewrites) any other: missing, stale, truncated
or unreadable. Attack and evaluation always run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import baselines, detectors, features, gan, padopt, petk
from . import __version__

SCHEMA_VERSION = 1
CACHE_ENV_VAR = "GANEVADE_CACHE_DIR"

FAMILIES = ("byte", "api_topk", "api_hashed", "strings_topk", "strings_hashed")
# GAN kind -> the feature family its generator rewrites
GAN_FAMILIES = {"byte_histogram": "byte", "api": "api_topk",
                "strings": "strings_topk"}
GAN_KINDS = tuple(GAN_FAMILIES)
# attack -> the GAN kinds it needs trained
ATTACK_GANS = {
    "gan_byte": ("byte_histogram",),
    "gan_api": ("api",),
    "gan_strings": ("strings",),
    "gan_all": GAN_KINDS,
    "benign_injection": (),
    "malgan_byte": (),
}


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
class GanStageConfig:
    max_steps: int = 3000
    batch_size: int = 64
    lambda_gp: float = 10.0
    n_generator: int = 5
    learning_rate: float = 1e-4
    generator_hidden: list | None = None    # None: size-appropriate default
    critic_hidden: list | None = None


@dataclass
class DetectorSpec:
    name: str
    kind: str = "logreg"                    # logreg | mlp
    families: tuple = ("byte",)
    hyperparams: dict = field(default_factory=dict)


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
            if attack not in ATTACK_GANS:
                raise ConfigError(f"unknown attack {attack!r}")
        for spec in self.detectors:
            for fam in spec.families:
                if fam not in FAMILIES:
                    raise ConfigError(f"unknown feature family {fam!r}")
        for kind in self.gans:
            if kind not in GAN_KINDS:
                raise ConfigError(f"unknown GAN kind {kind!r} in gans")
        for gap in (self.gap, *self.gap_sweep):
            if not 0.0 <= gap < 1.0:
                raise ConfigError(f"gap {gap!r} outside [0, 1)")
        if self.sweep_subsample < 1:
            raise ConfigError("sweep_subsample must be at least 1")
        if self.corpus.n_per_class < 1:
            raise ConfigError("corpus.n_per_class must be at least 1")
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
                d["detectors"] = [
                    DetectorSpec(**{**s, "families": tuple(s["families"])})
                    if isinstance(s, dict) else s for s in d["detectors"]]
            for key in ("split", "gap_sweep"):
                if key in d:
                    d[key] = tuple(d[key])
            if "corpus" in d and isinstance(d["corpus"].content_size, list):
                d["corpus"].content_size = tuple(d["corpus"].content_size)
            return cls(**d)
        except TypeError as exc:
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


def gen_corpus(cfg: CorpusConfig, seed: int, out_dir, key: str | None = None) -> dict:
    """Write a labeled synthetic PE corpus; same seed, same bytes. ``key``
    goes into the manifest."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    lo, hi = cfg.content_size
    records = []
    for label, alpha in (("benign", np.asarray(cfg.byte_alpha_benign)),
                         ("malicious", np.asarray(cfg.byte_alpha_malicious))):
        for i in range(cfg.n_per_class):
            content = _sample_content(alpha, int(rng.integers(lo, hi + 1)), rng)
            imports = _sample_tokens(cfg.api_pools, label, rng)
            strings = _sample_tokens(cfg.string_pools, label, rng)
            spec = petk.SynthSpec(
                sections=[petk.SectionSpec(".text", content=content)],
                imports=imports, strings=strings)
            data = petk.synth_pe(spec, seed=int(rng.integers(0, 2**31)))
            name = f"{label}_{i:05d}.exe"
            (out_dir / name).write_bytes(data)
            records.append({"name": name, "label": label})
    manifest = {"seed": seed, "files": records, "key": key}
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=1))
    return manifest


def load_corpus(corpus_dir) -> tuple[dict, dict[str, bytes]]:
    corpus_dir = Path(corpus_dir)
    manifest = json.loads((corpus_dir / "manifest.json").read_text())
    blobs = {rec["name"]: (corpus_dir / rec["name"]).read_bytes()
             for rec in manifest["files"]}
    return manifest, blobs


def ingest_dirs(benign_dir, malicious_dir, out_dir, key: str | None = None) -> dict:
    """Build a manifest over user-supplied PE directories (files copied);
    ``key`` goes into the manifest."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records = []
    for label, src in (("benign", benign_dir), ("malicious", malicious_dir)):
        for i, path in enumerate(sorted(Path(src).iterdir())):
            if not path.is_file():
                continue
            name = f"{label}_{i:05d}.exe"
            (out_dir / name).write_bytes(path.read_bytes())
            records.append({"name": name, "label": label, "source": str(path)})
    manifest = {"seed": None, "files": records, "key": key}
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=1))
    return manifest


# --- feature extraction -----------------------------------------------------

@dataclass
class FileFeatures:
    name: str
    label: str
    histogram: np.ndarray
    import_tokens: set
    string_tokens: "features.Counter"


def extract_file(name: str, label: str, data: bytes,
                 fcfg: FeatureConfig) -> FileFeatures:
    hist = features.byte_histogram(data).freq
    try:
        pe = petk.parse(data, strict=False)
        imports = features.extract_imports(pe)
    except petk.PeEditError:
        imports = set()
    strings = features.extract_strings(data, fcfg.min_string_len)
    return FileFeatures(name=name, label=label, histogram=hist,
                        import_tokens=imports, string_tokens=strings)


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
    """Per-family matrices over the manifest's file order, plus the
    vocabularies: built from extracted ``files`` or from stored ``matrices``
    (exactly one of the two is given)."""

    def __init__(self, names: list[str], labels: list[str], fcfg: FeatureConfig,
                 vocab_api: features.Vocabulary,
                 vocab_strings: features.Vocabulary, *,
                 files: list[FileFeatures] | None = None,
                 matrices: dict | None = None):
        self.names = names
        self.labels = labels
        self.fcfg = fcfg
        self.vocab_api = vocab_api
        self.vocab_strings = vocab_strings
        if matrices is None:
            matrices = {fam: np.array([self._family_vector(fam, f) for f in files])
                        for fam in FAMILIES}
        self.matrices = matrices

    def _family_vector(self, family: str, feats: FileFeatures) -> np.ndarray:
        if family == "byte":
            return feats.histogram
        if family == "api_topk":
            return features.vectorize(feats.import_tokens, self.vocab_api)
        if family == "api_hashed":
            return features.hash_features(feats.import_tokens, self.fcfg.hash_dim)
        if family == "strings_topk":
            return features.vectorize(set(feats.string_tokens), self.vocab_strings)
        if family == "strings_hashed":
            return features.hash_features(feats.string_tokens, self.fcfg.hash_dim)
        raise ConfigError(f"unknown feature family {family!r}")

    def assemble(self, spec_families, rows) -> np.ndarray:
        parts = [self.matrices[fam][rows] for fam in spec_families]
        return np.hstack(parts)

    def by_class(self, spec_families, rows) -> tuple[np.ndarray, np.ndarray]:
        """The benign and the malicious files among ``rows``, assembled."""
        benign = [i for i in rows if self.labels[i] == "benign"]
        malicious = [i for i in rows if self.labels[i] == "malicious"]
        return (self.assemble(spec_families, benign),
                self.assemble(spec_families, malicious))

    def vector_for(self, feats: FileFeatures, spec_families) -> np.ndarray:
        return np.concatenate([self._family_vector(fam, feats)
                               for fam in spec_families])


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
    tcfg = gan.TrainingConfig(
        lambda_gp=stage.lambda_gp, n_generator=stage.n_generator,
        batch_size=stage.batch_size, learning_rate=stage.learning_rate,
        seed=cfg.seed, max_steps=stage.max_steps)
    sink = None
    rows_out = []
    if metrics_path is not None:
        def sink(step, ld, lg, gp):
            rows_out.append(f"{step},{ld!r},{lg!r},{gp!r}\n")
    model = gan.train(benign, malicious, preset, tcfg, metrics_sink=sink)
    if metrics_path is not None:
        with open(metrics_path, "w") as fh:
            fh.write("step,loss_critic,loss_generator,gradient_penalty\n")
            fh.writelines(rows_out)
    return model


# --- attacks ----------------------------------------------------------------

@dataclass
class AttackOutput:
    name: str
    rewritten: dict                 # file name -> bytes
    query_count: int = 0
    stats: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)


def _padding_request(data: bytes, target: np.ndarray,
                     gap: float) -> padopt.PaddingRequest:
    """Padding of ``data`` towards ``target`` within ``gap``; 0 is exact."""
    counts = np.bincount(np.frombuffer(data, dtype=np.uint8), minlength=256)
    return padopt.PaddingRequest(counts, target, gap=gap)


def _pad_to_target(data: bytes, target: np.ndarray, gap: float) -> bytes:
    plan = padopt.plan_for(_padding_request(data, target, gap))
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


# An attack takes the names of the files it rewrites and, when a generator
# drives it, the feature vectors the generator starts from, row for row.

def attack_gan_byte(model, names, histograms, blobs, gap, seed) -> AttackOutput:
    rng = np.random.default_rng(seed)
    rewritten = {}
    appended = []
    for name, histogram in zip(names, histograms):
        target = _byte_target(model, histogram, rng)
        data = _pad_to_target(blobs[name], target, gap)
        rewritten[name] = data
        appended.append(len(data) - len(blobs[name]))
    return AttackOutput(name="gan_byte", rewritten=rewritten,
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
    return AttackOutput(name=f"gan_{kind}", rewritten=rewritten,
                        stats={"mean_new_tokens": float(np.mean(added_counts))},
                        warnings=warnings)


def attack_benign_injection(names, blobs, benign_train_blobs, seed) -> AttackOutput:
    rng = np.random.default_rng(seed)
    pool = [benign_train_blobs[k] for k in sorted(benign_train_blobs)]
    rewritten = {}
    for name in names:
        pe = petk.parse(blobs[name], strict=False)
        rewritten[name] = baselines.benign_injection(pe, pool, rng).data
    return AttackOutput(name="benign_injection", rewritten=rewritten)


def attack_malgan_byte(table: FeatureTable, train_idx, names, histograms, blobs,
                       black_box, gap, cfg: ExperimentConfig) -> AttackOutput:
    benign, malicious = table.by_class(("byte",), train_idx)
    stage = cfg.gans.get("byte_histogram", GanStageConfig())
    preset = pipeline_preset("byte_histogram", benign.shape[1], stage)
    mcfg = baselines.MalganConfig(seed=cfg.seed,
                                  max_queries=cfg.malgan_max_queries)
    model = baselines.train_malgan(malicious, benign, black_box, preset, mcfg)
    rng = np.random.default_rng(cfg.seed + 2)
    rewritten = {}
    for name, histogram in zip(names, histograms):
        target = _byte_target(model, histogram, rng)
        rewritten[name] = _pad_to_target(blobs[name], target, gap)
    return AttackOutput(name="malgan_byte", rewritten=rewritten,
                        query_count=model.query_count,
                        stats={"rounds": model.training_meta.get("rounds", 0)})


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


def _load(loader, path: Path, key: str):
    """``loader(path, key)``, or None when the artifact is missing, was
    built from other inputs, or cannot be read back."""
    if not path.is_file():
        return None
    try:
        return loader(path, key)
    except (OSError, ValueError):
        return None


def _rows(state: PipelineState, part: str, label: str) -> list[int]:
    """Table rows of the ``label`` files in split ``part``."""
    return [i for i in state.splits[part] if state.table.labels[i] == label]


@_stage("corpus")
def stage_corpus(state: PipelineState):
    corpus_dir = state.workdir / "corpus"
    cfg = state.cfg.corpus
    if cfg.kind not in ("synthetic", "dirs"):
        raise ConfigError(f"unknown corpus kind {cfg.kind!r}")
    if cfg.kind == "dirs" and (cfg.benign_dir is None or cfg.malicious_dir is None):
        raise ConfigError("dirs corpus needs benign_dir and malicious_dir")
    key = _key("corpus", dataclasses.asdict(cfg), state.cfg.seed)
    try:
        stored = json.loads((corpus_dir / "manifest.json").read_text()).get("key")
    except (OSError, ValueError):
        stored = None
    if stored != key:
        shutil.rmtree(corpus_dir, ignore_errors=True)
        if cfg.kind == "synthetic":
            gen_corpus(cfg, state.cfg.seed, corpus_dir, key)
        else:
            ingest_dirs(cfg.benign_dir, cfg.malicious_dir, corpus_dir, key)
    state.manifest, state.blobs = load_corpus(corpus_dir)


def _corpus_digest(manifest: dict, blobs: dict) -> str:
    """SHA-256 over the manifest's file order, labels and blob bytes."""
    h = hashlib.sha256()
    for rec in manifest["files"]:
        data = blobs[rec["name"]]
        h.update(json.dumps([rec["name"], rec["label"], len(data)]).encode("utf-8"))
        h.update(data)
    return h.hexdigest()


def _load_table(feat_dir: Path, names, labels, fcfg: FeatureConfig,
                key: str) -> FeatureTable | None:
    vocab_api = _load(features.load_vocab, feat_dir / "vocab_api.txt", key)
    vocab_strings = _load(features.load_vocab, feat_dir / "vocab_strings.txt", key)
    if vocab_api is None or vocab_strings is None:
        return None
    matrices = {}
    for fam in FAMILIES:
        loaded = _load(features.load_matrix, feat_dir / f"{fam}.gevf", key)
        if loaded is None or loaded[1] != names:
            return None
        matrices[fam] = loaded[0]
    return FeatureTable(names, labels, fcfg, vocab_api, vocab_strings,
                        matrices=matrices)


@_stage("extract")
def stage_extract(state: PipelineState):
    cfg = state.cfg
    fcfg = cfg.feature_cfg
    names = [rec["name"] for rec in state.manifest["files"]]
    labels = [rec["label"] for rec in state.manifest["files"]]
    state.splits = split_indices(labels, cfg.split, cfg.seed)
    state.extract_key = _key(
        "extract", SCHEMA_VERSION, __version__,
        _corpus_digest(state.manifest, state.blobs),
        dataclasses.asdict(fcfg), cfg.split, cfg.seed)
    feat_dir = state.workdir / "features"
    state.table = _load_table(feat_dir, names, labels, fcfg, state.extract_key)
    if state.table is not None:
        return
    files = [extract_file(name, label, state.blobs[name], fcfg)
             for name, label in zip(names, labels)]
    benign_train = [files[i] for i in state.splits["train"]
                    if labels[i] == "benign"]
    vocab_api = features.select_topk(
        [f.import_tokens for f in benign_train], fcfg.k_api, kind="api")
    vocab_strings = features.select_topk(
        [set(f.string_tokens) for f in benign_train], fcfg.k_strings,
        kind="string")
    state.table = FeatureTable(names, labels, fcfg, vocab_api, vocab_strings,
                               files=files)
    feat_dir.mkdir(parents=True, exist_ok=True)
    features.save_vocab(vocab_api, feat_dir / "vocab_api.txt", state.extract_key)
    features.save_vocab(vocab_strings, feat_dir / "vocab_strings.txt",
                        state.extract_key)
    for fam, mat in state.table.matrices.items():
        features.save_matrix(mat, names, feat_dir / f"{fam}.gevf",
                             state.extract_key)


@_stage("train-detector")
def stage_detectors(state: PipelineState):
    model_dir = state.workdir / "models"
    for spec in state.cfg.detectors:
        path = model_dir / f"detector_{spec.name}.gevd"
        key = _key("detector", state.extract_key, dataclasses.asdict(spec),
                   state.cfg.seed)
        model = _load(detectors.load_detector, path, key)
        if model is None:
            xb, xm = state.table.by_class(spec.families, state.splits["train"])
            model = detectors.train_detector(
                spec.kind, detectors.FeatureSpec(tuple(spec.families)), xb, xm,
                hyperparams=spec.hyperparams, seed=state.cfg.seed)
            model_dir.mkdir(parents=True, exist_ok=True)
            detectors.save_detector(path, model, key)
        state.detector_models[spec.name] = model


@_stage("train-gan")
def stage_gans(state: PipelineState):
    model_dir = state.workdir / "models"
    needed = {kind for attack in state.cfg.attacks for kind in ATTACK_GANS[attack]}
    for kind in sorted(needed):
        path = model_dir / f"gan_{kind}.gevd"
        key = _key("gan", state.extract_key, kind,
                   dataclasses.asdict(state.cfg.gans.get(kind, GanStageConfig())),
                   state.cfg.seed)
        model = _load(gan.load_gan, path, key)
        if model is None:
            model_dir.mkdir(parents=True, exist_ok=True)
            model = train_gan_for(kind, state.table, state.splits["train"],
                                  state.cfg,
                                  metrics_path=model_dir / f"gan_{kind}_metrics.csv")
            gan.save_gan(path, model, key)
        state.gan_models[kind] = model


@_stage("attack")
def stage_attacks(state: PipelineState):
    cfg = state.cfg
    table = state.table
    test_mal = _rows(state, "test", "malicious")
    names = [table.names[i] for i in test_mal]
    benign_train = {table.names[i]: state.blobs[table.names[i]]
                    for i in _rows(state, "train", "benign")}
    for attack in cfg.attacks:
        if attack == "gan_byte":
            out = attack_gan_byte(state.gan_models["byte_histogram"], names,
                                  table.matrices["byte"][test_mal],
                                  state.blobs, cfg.gap, cfg.seed + 10)
        elif attack == "gan_api":
            out = attack_gan_indicator(state.gan_models["api"], names,
                                       table.matrices["api_topk"][test_mal],
                                       state.blobs, table.vocab_api, "api",
                                       cfg.max_new_imports, cfg.seed + 11)
        elif attack == "gan_strings":
            out = attack_gan_indicator(state.gan_models["strings"], names,
                                       table.matrices["strings_topk"][test_mal],
                                       state.blobs, table.vocab_strings,
                                       "strings", cfg.max_new_strings,
                                       cfg.seed + 12)
        elif attack == "gan_all":
            out = _attack_gan_all(state, test_mal)
        elif attack == "benign_injection":
            out = attack_benign_injection(names, state.blobs, benign_train,
                                          cfg.seed + 13)
        elif attack == "malgan_byte":
            target = _primary_byte_detector(state)
            out = attack_malgan_byte(table, state.splits["train"], names,
                                     table.matrices["byte"][test_mal],
                                     state.blobs, target.label_fn(), cfg.gap, cfg)
        else:
            raise ConfigError(f"attack {attack!r} not implemented")
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


def _attack_gan_all(state: PipelineState, test_mal) -> AttackOutput:
    """Stack byte, API, and string modifications on each file; each step
    starts from the features of the file the step before rewrote."""
    cfg = state.cfg
    table = state.table
    names = [table.names[i] for i in test_mal]
    api_out = attack_gan_indicator(state.gan_models["api"], names,
                                   table.matrices["api_topk"][test_mal],
                                   state.blobs, table.vocab_api, "api",
                                   cfg.max_new_imports, cfg.seed + 11)
    blobs2 = dict(state.blobs)
    blobs2.update(api_out.rewritten)
    feats2 = [extract_file(name, "malicious", blobs2[name], cfg.feature_cfg)
              for name in names]
    str_out = attack_gan_indicator(
        state.gan_models["strings"], names,
        np.array([table.vector_for(f, ("strings_topk",)) for f in feats2]),
        blobs2, table.vocab_strings, "strings", cfg.max_new_strings,
        cfg.seed + 12)
    blobs3 = dict(blobs2)
    blobs3.update(str_out.rewritten)
    feats3 = [extract_file(name, "malicious", blobs3[name], cfg.feature_cfg)
              for name in names]
    byte_out = attack_gan_byte(state.gan_models["byte_histogram"], names,
                               np.array([f.histogram for f in feats3]),
                               blobs3, cfg.gap, cfg.seed + 10)
    return AttackOutput(name="gan_all", rewritten=byte_out.rewritten,
                        warnings=api_out.warnings + str_out.warnings)


def _primary_byte_detector(state: PipelineState) -> detectors.DetectorModel:
    for spec in state.cfg.detectors:
        if tuple(spec.families) == ("byte",):
            return state.detector_models[spec.name]
    raise StageError("attack", "no byte-only detector available for MalGAN")


@_stage("evaluate")
def stage_evaluate(state: PipelineState) -> dict:
    cfg = state.cfg
    table = state.table
    test_mal = _rows(state, "test", "malicious")
    names = [table.names[i] for i in test_mal]
    models = {spec.name: state.detector_models[spec.name] for spec in cfg.detectors}

    # the original files' rows come from the table; a rewritten file is
    # re-extracted and vectorized once per family, then assembled per detector
    original_rates = {
        spec.name: detectors.detection_rate(
            models[spec.name], table.assemble(spec.families, test_mal))
        for spec in cfg.detectors}
    test_ben = _rows(state, "test", "benign")
    fpr = {spec.name: detectors.false_positive_rate(
               models[spec.name], table.assemble(spec.families, test_ben))
           for spec in cfg.detectors}

    used = sorted({fam for spec in cfg.detectors for fam in spec.families})
    attack_rates = {}
    query_counts = {}
    attack_stats = {}
    for attack, out in state.attack_outputs.items():
        feats_adv = [extract_file(name, "malicious", out.rewritten[name],
                                  cfg.feature_cfg) for name in names]
        adv = {fam: np.array([table.vector_for(f, (fam,)) for f in feats_adv])
               for fam in used}
        attack_rates[attack] = {
            spec.name: detectors.detection_rate(
                models[spec.name], np.hstack([adv[fam] for fam in spec.families]))
            for spec in cfg.detectors}
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
                req = _padding_request(blob, targets[i], gap_value)
                plan = padopt.plan_for(req)
                total = req.counts.sum() + plan.total_appended
                sizes.append(len(blob) + plan.total_appended)
                appended.append(plan.total_appended)
                hists.append((req.counts + plan.p) / total)
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
    workdir.mkdir(parents=True, exist_ok=True)
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
        lines.append("gap,mean_size_mb,detection_rate")
        for row in report.get("gap_sweep", []):
            lines.append(f"{row['gap']},{row['mean_size_mb']!r},"
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
