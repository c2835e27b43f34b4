"""The attack loop against a reference copy of the attacks it replaced.

The reference runs each attack as its own loop over the files, on their
bytes and on rows handed in by family: each attack parses each file it
rewrites, and ``gan_all`` runs the API, the string and the byte attack in
turn, each writing every file and the next reading it back, its rows
extracted again from those bytes. ``harness.run_attack`` parses each file
once, hands the image through the steps in memory and writes it once. Both
must write the same bytes, records, query count and warnings, and the same
value of every stat the reference writes, under the name it has now.
"""

import collections

import numpy as np
import pytest

from ganevade import baselines, gan, harness, petk
from ganevade.harness import (AttackOutput, CorpusConfig, DetectorSpec,
                              ExperimentConfig, FeatureConfig, FileSet,
                              PipelineState)


def reference_pad_files(model, rng, gap, names, blobs, histograms, out):
    appended = []
    for name, data, histogram in zip(names, blobs, histograms):
        plan = harness._certified_plan(
            data, harness._byte_target(model, histogram, rng), gap)
        rewritten = petk.append_overlay(petk.parse(data, strict=False),
                                        plan).data
        out.files.write(name, rewritten, certificate=plan.certificate)
        appended.append(len(rewritten) - len(data))
    return appended


def reference_gan_byte(state, names, blobs, rows, out):
    appended = reference_pad_files(
        state.gan_models["byte_histogram"],
        np.random.default_rng(state.cfg.seed + 10), state.cfg.gap, names,
        blobs, rows("byte"), out)
    out.stats["mean_appended_bytes"] = float(np.mean(appended))


def reference_gan_indicator(model, names, indicators, blobs, vocab, kind,
                            cap, seed, out):
    rng = np.random.default_rng(seed)
    added_counts = []
    for name, m, data in zip(names, indicators, blobs):
        z = gan.sample_noise(model.preset.noise_dim, 1, rng)
        m_adv = gan.generate(model, m[None, :], z)[0]
        new = [tok for tok, i in vocab.items()
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


def reference_gan_api(state, names, blobs, rows, out):
    reference_gan_indicator(state.gan_models["api"], names, rows("api_topk"),
                            blobs, state.table.vocabs["api_topk"], "api",
                            state.cfg.max_new_imports, state.cfg.seed + 11,
                            out)


def reference_gan_strings(state, names, blobs, rows, out):
    reference_gan_indicator(state.gan_models["strings"], names,
                            rows("strings_topk"), blobs,
                            state.table.vocabs["strings_topk"], "strings",
                            state.cfg.max_new_strings, state.cfg.seed + 12,
                            out)


def reference_gan_all(state, names, blobs, rows, out):
    for step in ("gan_api", "gan_strings", "gan_byte"):
        step_out = AttackOutput(out.files)
        REFERENCE[step](state, names, blobs, rows, step_out)
        out.warnings += step_out.warnings
        blobs = out.files.files(names)
        rows = lambda family, blobs=blobs: state.table.extract(
            blobs, [family])[family]


def reference_benign_injection(state, names, blobs, rows, out):
    rng = np.random.default_rng(state.cfg.seed + 13)
    pool = state.blobs.files(sorted(
        state.table.names[i] for i in harness._rows(state, "train", "benign")))
    for name, data in zip(names, blobs):
        pe = petk.parse(data, strict=False)
        out.files.write(name, baselines.benign_injection(pe, pool, rng).data)


def reference_malgan_byte(state, names, blobs, rows, out):
    cfg = state.cfg
    benign, malicious = state.table.by_class(("byte",), state.splits["train"])
    preset = harness.pipeline_preset("byte_histogram", benign.shape[1])
    black_box = state.detector_models[
        harness._primary_byte_name(cfg)].label_fn()
    model = baselines.train_malgan(malicious, benign, black_box, preset,
                                   cfg.malgan_max_queries, cfg.seed)
    reference_pad_files(model, np.random.default_rng(cfg.seed + 2), cfg.gap,
                        names, blobs, rows("byte"), out)
    out.query_count = model.training_meta["queries"]
    out.stats["rounds"] = model.training_meta.get("rounds", 0)


REFERENCE = {
    "gan_byte": reference_gan_byte,
    "gan_api": reference_gan_api,
    "gan_strings": reference_gan_strings,
    "gan_all": reference_gan_all,
    "benign_injection": reference_benign_injection,
    "malgan_byte": reference_malgan_byte,
}
# the name each reference stat has now, where it changed
RENAMED = {"gan_api": {"mean_new_tokens": "mean_new_imports"},
           "gan_strings": {"mean_new_tokens": "mean_new_strings"}}


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A state run up to train-gan for every attack: 20 malicious test
    files, caps low enough that both indicator steps warn."""
    cfg = ExperimentConfig(
        corpus=CorpusConfig(n_per_class=40, content_size=(400, 800)),
        feature_cfg=FeatureConfig(k_api=40, k_strings=40, hash_dim=64),
        gans={"byte_histogram": gan.TrainingConfig(max_steps=20),
              "api": gan.TrainingConfig(max_steps=10),
              "strings": gan.TrainingConfig(max_steps=10)},
        detectors=[DetectorSpec("byte_logreg", "logreg", ("byte",))],
        attacks=list(harness.ATTACKS), split=(0.5, 0.0, 0.5),
        max_new_imports=3, max_new_strings=2, malgan_max_queries=300, seed=7)
    state = PipelineState(cfg=cfg, workdir=tmp_path_factory.mktemp("oracle"))
    harness.run_stages(state, "train-gan")
    return state


def counting_parse(monkeypatch) -> list:
    """Count each ``petk.parse`` call, the editors' own among them."""
    calls, parse = [], petk.parse

    def counted(*args, **kwargs):
        calls.append(1)
        return parse(*args, **kwargs)
    monkeypatch.setattr(petk, "parse", counted)
    return calls


@pytest.mark.parametrize("attack", list(REFERENCE))
def test_run_attack_matches_the_reference(trained, tmp_path, monkeypatch,
                                          attack):
    state = trained
    test_mal = harness._rows(state, "test", "malicious")
    names = [state.table.names[i] for i in test_mal]
    assert len(names) >= 20
    steps = len(harness.ATTACKS[attack].steps)

    reference = AttackOutput(FileSet(tmp_path / "reference"))
    parses = counting_parse(monkeypatch)
    REFERENCE[attack](state, names, state.blobs.files(names),
                      lambda family: state.table.matrices[family][test_mal],
                      reference)
    # each step parsed each file and its editor re-parsed the result
    assert len(parses) == len(names) * 2 * steps
    out = AttackOutput(FileSet(tmp_path / "new"))
    parses.clear()
    harness.run_attack(state, harness.ATTACKS[attack], out)
    # each file once, then each step's editor once
    assert len(parses) == len(names) * (1 + steps)
    monkeypatch.undo()

    assert list(out.files) == list(reference.files) == names
    for name in names:
        assert out.files[name] == reference.files[name]
    assert out.files.records == reference.files.records
    assert out.query_count == reference.query_count
    assert collections.Counter(out.warnings) \
        == collections.Counter(reference.warnings)
    renamed = RENAMED.get(attack, {})
    assert {renamed.get(stat, stat): value
            for stat, value in reference.stats.items()}.items() \
        <= out.stats.items()


def test_both_indicator_caps_warn(trained, tmp_path):
    out = AttackOutput(FileSet(tmp_path))
    harness.run_attack(trained, harness.ATTACKS["gan_all"], out)
    caps = {w.rsplit(" ", 1)[1] for w in out.warnings}
    assert caps == {"3", "2"}
    assert set(out.stats) == {"mean_new_imports", "mean_new_strings",
                              "mean_appended_bytes"}
