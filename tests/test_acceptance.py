"""End-to-end acceptance gate.

Each test prints one PASS line with the numbers backing the criterion.
The two expensive fixtures (a 1000-per-class byte pipeline and three
seeded API pipelines) are shared across criteria.
"""

import json
import time

import numpy as np
import pytest

from ganevade import gan, harness, nncore, padopt, petk
from ganevade.features import byte_histogram, extract_imports
from ganevade.harness import (CorpusConfig, DetectorSpec, ExperimentConfig,
                              FeatureConfig, report_without_runtime,
                              run_pipeline)
from ganevade.nncore import build_mlp
from test_padopt import lp_oracle


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    """1000/class corpus, byte detector, trained byte GAN, MalGAN contrast."""
    workdir = tmp_path_factory.mktemp("full")
    cfg = ExperimentConfig(
        corpus=CorpusConfig(n_per_class=1000),
        detectors=[DetectorSpec("byte_logreg", "logreg", ("byte",))],
        attacks=["gan_byte", "malgan_byte"],
        gans={"byte_histogram": gan.TrainingConfig(max_steps=3000)},
        seed=0)
    t0 = time.time()
    report = run_pipeline(cfg, workdir)
    elapsed = time.time() - t0
    return cfg, workdir, report, elapsed


@pytest.fixture(scope="module")
def api_runs(tmp_path_factory):
    """Three seeded API-attack pipelines for the hashing comparison."""
    results = []
    for seed in (0, 1, 2):
        workdir = tmp_path_factory.mktemp(f"api{seed}")
        cfg = ExperimentConfig(
            corpus=CorpusConfig(n_per_class=200),
            feature_cfg=FeatureConfig(k_api=150),
            detectors=[DetectorSpec("api_topk_logreg", "logreg", ("api_topk",)),
                       DetectorSpec("api_hashed_logreg", "logreg",
                                    ("api_hashed",))],
            attacks=["gan_api"],
            gans={"api": gan.TrainingConfig(max_steps=200)},
            seed=seed)
        results.append((cfg, workdir, run_pipeline(cfg, workdir)))
    return results


def test_ac01_lp_matches_simplex_oracle():
    rng = np.random.default_rng(2024)
    t0 = time.time()
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(4, 17))
        b = rng.integers(0, 500, size=n).astype(np.float64)
        b[int(rng.integers(0, n))] += 1
        r = rng.dirichlet(np.full(n, 0.7))
        gap = float(rng.uniform(0.0, 0.1))
        res = lp_oracle(b, r, gap)
        assert res.status == 0
        ours = padopt.solve_relaxed(padopt.PaddingRequest(b, r, gap=gap))
        diff = abs(ours.total_appended - res.fun)
        worst = max(worst, diff)
        assert diff <= 1.0
    elapsed = time.time() - t0
    assert elapsed < 30.0
    print(f"AC1 PASS: 500 instances within 1 unit of simplex oracle "
          f"(worst diff {worst:.6f}, {elapsed:.1f}s)")


def test_ac02_exact_mode_blowup(full_run):
    _, _, report, _ = full_run
    rows = {row["gap"]: row for row in report["gap_sweep"]}
    exact = rows["exact"]["mean_appended_bytes"]
    relaxed = rows[0.001]["mean_appended_bytes"]
    assert exact >= 5.0 * relaxed
    print(f"AC2 PASS: exact mean appended {exact / 1e6:.2f} MB >= 5x "
          f"g=0.001 ({relaxed / 1e6:.2f} MB)")


def test_ac03_gap_monotonicity(full_run):
    cfg, _, report, _ = full_run
    rows = report["gap_sweep"][1:]          # descending gap values
    assert len(rows) == 9
    sizes = [r["mean_size_mb"] for r in rows]
    rates = [r["detection_rate"] for r in rows]
    # size non-increasing in g: along descending g it must not shrink
    for larger_g, smaller_g in zip(sizes, sizes[1:]):
        assert larger_g <= smaller_g + 2.56e-4   # 256-byte rounding slack
    # detection non-decreasing in g on >= 7 of 8 adjacent pairs
    good = sum(1 for a, b in zip(rates, rates[1:]) if a >= b - 1e-12)
    assert good >= 7
    print(f"AC3 PASS: sizes {['%.2f' % s for s in sizes]} MB monotone, "
          f"detection ordering holds on {good}/8 pairs")


def test_ac04_end_to_end_byte_attack(full_run):
    _, _, report, elapsed = full_run
    original = report["original_rates"]["byte_logreg"]
    adversarial = report["attack_rates"]["gan_byte"]["byte_logreg"]
    assert original >= 0.90
    assert adversarial <= 0.20
    assert elapsed < 15 * 60
    print(f"AC4 PASS: byte detection {original:.3f} -> {adversarial:.3f} "
          f"on rewritten files, pipeline {elapsed:.0f}s")


def test_ac05_query_free_contrast(full_run):
    _, _, report, _ = full_run
    assert report["query_counts"]["gan_byte"] == 0
    assert report["query_counts"]["malgan_byte"] > 0
    original = report["original_rates"]["byte_logreg"]
    malgan = report["attack_rates"]["malgan_byte"]["byte_logreg"]
    assert malgan <= original
    print(f"AC5 PASS: GAN queries 0; MalGAN queries "
          f"{report['query_counts']['malgan_byte']}, detection "
          f"{original:.3f} -> {malgan:.3f}")


def test_ac06_or_superset(api_runs):
    cfg, workdir, _ = api_runs[0]
    # feature space: trained API model plus a fresh strings-preset model
    model = gan.load_gan(workdir / "models" / "gan_api.gevd")
    rng = np.random.default_rng(0)
    checked = 0
    for gmodel in (model,
                   gan.build_gan(gan.GanPreset("strings", 64, 16, (32, 32),
                                               (16,), "sigmoid"), seed=1)):
        dim = gmodel.preset.input_dim
        m = (rng.random((250, dim)) > 0.7).astype(np.float64)
        z = gan.sample_noise(gmodel.preset.noise_dim, 250, rng)
        out = gan.generate(gmodel, m, z)
        assert np.all(out >= m)
        checked += len(m)
    # on disk: every rewritten file's import set contains the original's
    blobs = harness.load_corpus(workdir / "corpus")
    files = 0
    for path in sorted((workdir / "attacks" / "gan_api").glob("*.exe")):
        before = extract_imports(petk.parse(blobs[path.name], strict=False))
        after = extract_imports(petk.parse(path.read_bytes(), strict=False))
        assert after >= before
        files += 1
    assert files > 0
    print(f"AC6 PASS: {checked} generated vectors and {files} rewritten "
          f"files are supersets of their originals")


def test_ac07_gradient_penalty_vs_finite_differences():
    # real = fake = x: the distance term and its gradient cancel, and the
    # weight gradient is the penalty's, as the pipeline computes it
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        critic = build_mlp([4, 6, 1], "leaky_relu", "linear", rng)
        x = rng.normal(size=(5, 4))
        eps = rng.random((5, 1))

        def penalty_of(w0):
            critic.layers[0].weights = w0
            return gan.critic_loss(critic, x, x, 1.0, eps,
                                   out=[np.empty_like(p) for p in
                                        critic.parameters()])[2]

        w0 = critic.layers[0].weights.copy()
        h = 1e-5
        fd = np.zeros_like(w0)
        it = np.nditer(w0, flags=["multi_index"])
        while not it.finished:
            i = it.multi_index
            wp = w0.copy()
            wp[i] += h
            wm = w0.copy()
            wm[i] -= h
            fd[i] = (penalty_of(wp) - penalty_of(wm)) / (2 * h)
            it.iternext()
        critic.layers[0].weights = w0
        grads = [np.empty_like(p) for p in critic.parameters()]
        gan.critic_loss(critic, x, x, 1.0, eps, out=grads)
        g = grads[0]
        rel = np.abs(g - fd).max() / (np.abs(fd).max() + 1e-12)
        worst = max(worst, rel)
        assert rel <= 1e-4
    print(f"AC7 PASS: nested gradient matches finite differences on 20 "
          f"critics (worst rel err {worst:.2e})")


def test_ac08_pe_integrity_property():
    rng = np.random.default_rng(99)
    survived = 0
    for _ in range(1000):
        nsec = int(rng.integers(1, 4))
        spec = petk.SynthSpec(
            sections=[petk.SectionSpec(f".s{i}",
                                       size=int(rng.integers(16, 400)))
                      for i in range(nsec)],
            imports=[f"lib{int(rng.integers(0, 6))}.dll!"
                     f"fn{int(rng.integers(0, 99))}"],
            strings=[f"acceptance-string-{int(rng.integers(0, 9999)):04d}"],
            pe64=bool(rng.integers(0, 2)))
        data = petk.synth_pe(spec, seed=int(rng.integers(0, 2**31)))
        pe = petk.parse(data, strict=True)
        assert pe.data == data

        out1 = petk.add_section(pe, ".inj", b"\x00payload-here\x00")
        petk.parse(out1.data, strict=True)

        out2, _ = petk.extend_imports(pe, ["fresh.dll!added"])
        assert "fresh.dll!added" in extract_imports(
            petk.parse(out2.data, strict=True))

        counts = np.bincount(np.frombuffer(data, np.uint8), minlength=256)
        target = rng.dirichlet(np.full(256, 2.0))
        req = padopt.PaddingRequest(counts, target, gap=0.02)
        plan = padopt.plan_for(req)
        out3 = petk.append_overlay(pe, plan)
        petk.parse(out3.data, strict=True)
        achieved_counts = np.bincount(np.frombuffer(out3.data, np.uint8),
                                      minlength=256)
        assert np.array_equal(achieved_counts, counts + plan.p)
        assert padopt.check_plan(plan, req)
        survived += 1
    assert survived == 1000
    print("AC8 PASS: 1000 synthetic PEs survived every editor with strict "
          "re-parse and certified plans")


def test_ac09_pipeline_determinism(tmp_path):
    cfg_dict = {
        "corpus": {"n_per_class": 10, "content_size": [400, 800]},
        "feature_cfg": {"k_api": 40, "k_strings": 40, "hash_dim": 64},
        "gans": {"byte_histogram": {"max_steps": 20}},
        "detectors": [{"name": "byte_logreg", "kind": "logreg",
                       "families": ["byte"]}],
        "attacks": ["gan_byte"],
        "gap_sweep": [0.01, 0.001],
        "sweep_subsample": 3,
        "seed": 3,
    }
    texts = []
    for name in ("one", "two"):
        cfg = ExperimentConfig.from_dict(json.loads(json.dumps(cfg_dict)))
        report = run_pipeline(cfg, tmp_path / name)
        texts.append(json.dumps(report_without_runtime(report),
                                sort_keys=True))
    assert texts[0] == texts[1]
    print("AC9 PASS: two seeded runs produced byte-identical report JSON "
          "(runtime excluded)")


def test_ac09b_resumed_run_determinism(tmp_path):
    # AC9's config, run twice in one workdir: the second run loads the
    # features and models the first stored
    cfg_dict = {
        "corpus": {"n_per_class": 10, "content_size": [400, 800]},
        "feature_cfg": {"k_api": 40, "k_strings": 40, "hash_dim": 64},
        "gans": {"byte_histogram": {"max_steps": 20}},
        "detectors": [{"name": "byte_logreg", "kind": "logreg",
                       "families": ["byte"]}],
        "attacks": ["gan_byte"],
        "gap_sweep": [0.01, 0.001],
        "sweep_subsample": 3,
        "seed": 3,
    }
    texts = []
    for _ in range(2):
        cfg = ExperimentConfig.from_dict(json.loads(json.dumps(cfg_dict)))
        report = run_pipeline(cfg, tmp_path / "one")
        texts.append(json.dumps(report_without_runtime(report),
                                sort_keys=True))
    assert texts[0] == texts[1]
    print("AC9b PASS: a resumed run reproduced the cold run's report JSON "
          "byte for byte (runtime excluded)")


def test_ac10_hashed_representation_attenuates(api_runs):
    wins = 0
    pairs = []
    for _, _, report in api_runs:
        topk = report["attack_rates"]["gan_api"]["api_topk_logreg"]
        hashed = report["attack_rates"]["gan_api"]["api_hashed_logreg"]
        pairs.append((topk, hashed))
        if hashed >= topk:
            wins += 1
    assert wins >= 2
    print(f"AC10 PASS: hashed >= raw Top-K detection on {wins}/3 seeds "
          f"(topk, hashed) = {pairs}")
