import dataclasses
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from ganevade import cli, detectors, gan, harness, padopt, petk
from ganevade.harness import (ConfigError, CorpusConfig, ExperimentConfig,
                              FeatureConfig, GanStageConfig, PipelineState,
                              StageError, gen_corpus, ingest_dirs, load_corpus,
                              pipeline_preset, render_report,
                              report_without_runtime, run_pipeline,
                              split_indices)


def tiny_config(seed=7, attacks=("gan_byte", "benign_injection", "malgan_byte")):
    return ExperimentConfig(
        corpus=CorpusConfig(n_per_class=10, content_size=(400, 800)),
        feature_cfg=FeatureConfig(k_api=40, k_strings=40, hash_dim=64),
        gans={"byte_histogram": GanStageConfig(max_steps=20),
              "api": GanStageConfig(max_steps=10),
              "strings": GanStageConfig(max_steps=10)},
        attacks=list(attacks),
        gap_sweep=(0.01, 0.001),
        sweep_subsample=3,
        malgan_max_queries=300,
        seed=seed)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("run")
    cfg = tiny_config()
    report = run_pipeline(cfg, workdir)
    return cfg, workdir, report


class TestConfig:
    def test_roundtrip_preserves_hash(self):
        cfg = tiny_config()
        cfg2 = ExperimentConfig.from_dict(cfg.to_dict())
        assert cfg2.config_hash() == cfg.config_hash()

    def test_unknown_attack_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(attacks=["frobnicate"])

    def test_split_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(split=(0.5, 0.2, 0.2))

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(detectors=[harness.DetectorSpec(
                "x", "logreg", ("registry",))])

    def test_schema_version_checked(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"schema_version": 99})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"no_such_field": 1})

    def test_load_config_bad_json(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("{nope")
        with pytest.raises(ConfigError):
            harness.load_config(p)

    @pytest.mark.parametrize("gap", [-0.1, 1.0, 1.5])
    def test_gap_outside_unit_interval_rejected(self, gap):
        with pytest.raises(ConfigError):
            ExperimentConfig(gap=gap)

    def test_gap_sweep_value_outside_unit_interval_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(gap_sweep=(0.01, 1.2))

    def test_sweep_subsample_below_one_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(sweep_subsample=0)

    def test_empty_corpus_class_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(corpus=CorpusConfig(n_per_class=0))

    @pytest.mark.parametrize("field", ["max_new_imports", "max_new_strings"])
    def test_negative_token_cap_rejected(self, field):
        with pytest.raises(ConfigError):
            ExperimentConfig(**{field: -1})

    def test_unknown_gan_kind_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(
                {"gans": {"bytes_histogram": {"max_steps": 5}}})


class TestCorpus:
    def test_gen_corpus_counts_and_labels(self, tmp_path):
        cfg = CorpusConfig(n_per_class=3, content_size=(200, 400))
        manifest = gen_corpus(cfg, 0, tmp_path / "c")
        labels = [r["label"] for r in manifest["files"]]
        assert labels.count("benign") == 3
        assert labels.count("malicious") == 3
        _, blobs = load_corpus(tmp_path / "c")
        for data in blobs.values():
            petk.parse(data, strict=True)

    def test_same_seed_identical_bytes(self, tmp_path):
        cfg = CorpusConfig(n_per_class=2, content_size=(200, 300))
        gen_corpus(cfg, 5, tmp_path / "a")
        gen_corpus(cfg, 5, tmp_path / "b")
        _, ba = load_corpus(tmp_path / "a")
        _, bb = load_corpus(tmp_path / "b")
        assert ba == bb

    def test_class_profiles_separate_histograms(self, tmp_path):
        cfg = CorpusConfig(n_per_class=5, content_size=(2000, 3000))
        gen_corpus(cfg, 1, tmp_path / "c")
        _, blobs = load_corpus(tmp_path / "c")
        from ganevade.features import byte_histogram
        high = {name: byte_histogram(b).freq[0x80:].sum()
                for name, b in blobs.items()}
        ben = np.mean([v for k, v in high.items() if k.startswith("benign")])
        mal = np.mean([v for k, v in high.items() if k.startswith("malicious")])
        assert mal > ben + 0.2

    def test_ingest_dirs(self, tmp_path):
        bdir, mdir = tmp_path / "b", tmp_path / "m"
        bdir.mkdir()
        mdir.mkdir()
        data = petk.synth_pe(petk.SynthSpec(
            sections=[petk.SectionSpec(".t", size=100)]))
        (bdir / "one.exe").write_bytes(data)
        (mdir / "two.exe").write_bytes(data)
        manifest = ingest_dirs(bdir, mdir, tmp_path / "out")
        labels = sorted(r["label"] for r in manifest["files"])
        assert labels == ["benign", "malicious"]


class TestSplits:
    def test_stratified_fractions(self):
        labels = ["benign"] * 100 + ["malicious"] * 100
        s = split_indices(labels, (0.8, 0.1, 0.1), seed=0)
        assert len(s["train"]) == 160
        assert len(s["val"]) == 20
        assert len(s["test"]) == 20
        all_idx = sorted(s["train"] + s["val"] + s["test"])
        assert all_idx == list(range(200))
        # stratification: 80 of each class in train
        assert sum(1 for i in s["train"] if labels[i] == "benign") == 80

    def test_seed_changes_assignment(self):
        labels = ["benign"] * 50 + ["malicious"] * 50
        a = split_indices(labels, (0.8, 0.1, 0.1), seed=0)
        b = split_indices(labels, (0.8, 0.1, 0.1), seed=1)
        assert a != b
        assert a == split_indices(labels, (0.8, 0.1, 0.1), seed=0)


class TestPresetScaling:
    def test_canonical_when_dims_match(self):
        p = pipeline_preset("byte_histogram", 256, GanStageConfig())
        assert p == gan.byte_preset()

    def test_scaled_variant_otherwise(self):
        p = pipeline_preset("api", 150, GanStageConfig())
        assert p.input_dim == 150
        assert p.noise_dim == gan.api_preset().noise_dim
        assert p.output_activation == "sigmoid"

    def test_explicit_hidden_override(self):
        stage = GanStageConfig(generator_hidden=[32, 32], critic_hidden=[16])
        p = pipeline_preset("strings", 80, stage)
        assert p.generator_hidden == (32, 32)
        assert p.critic_hidden == (16,)


class TestPipeline:
    def test_report_structure(self, tiny_run):
        cfg, workdir, report = tiny_run
        assert report["config_hash"] == cfg.config_hash()
        assert set(report["original_rates"]) == {d.name for d in cfg.detectors}
        assert set(report["attack_rates"]) == set(cfg.attacks)
        assert (workdir / "report.json").exists()
        assert (workdir / "corpus" / "manifest.json").exists()
        assert (workdir / "features" / "vocab_api.txt").exists()
        assert (workdir / "models" / "gan_byte_histogram.gevd").exists()
        assert (workdir / "attacks" / "gan_byte" / "manifest.json").exists()

    def test_query_ledger(self, tiny_run):
        _, _, report = tiny_run
        assert report["query_counts"]["gan_byte"] == 0
        assert report["query_counts"]["benign_injection"] == 0
        assert report["query_counts"]["malgan_byte"] > 0

    def test_gap_sweep_rows(self, tiny_run):
        cfg, _, report = tiny_run
        rows = report["gap_sweep"]
        assert len(rows) == len(cfg.gap_sweep) + 1
        assert rows[0]["gap"] == "exact"
        assert [r["gap"] for r in rows[1:]] == list(cfg.gap_sweep)

    def test_attack_files_strict_parseable(self, tiny_run):
        _, workdir, _ = tiny_run
        files = sorted((workdir / "attacks" / "gan_byte").glob("*.exe"))
        assert files
        for f in files:
            petk.parse(f.read_bytes(), strict=True)

    def test_rewritten_files_only_malicious(self, tiny_run):
        _, workdir, _ = tiny_run
        for f in (workdir / "attacks" / "gan_byte").glob("*.exe"):
            assert f.name.startswith("malicious_")

    def test_empty_attack_roster(self, tmp_path):
        cfg = tiny_config(attacks=())
        report = run_pipeline(cfg, tmp_path / "w")
        assert report["attack_rates"] == {}
        assert report["gap_sweep"] == []
        assert set(report["original_rates"]) == {d.name for d in cfg.detectors}

    def test_render_formats(self, tiny_run):
        _, _, report = tiny_run
        as_json = render_report(report, "json")
        assert json.loads(as_json) == json.loads(
            json.dumps(report, sort_keys=True))
        csv_text = render_report(report, "csv")
        assert csv_text.startswith("detector,attack,detection_rate")
        md = render_report(report, "markdown")
        assert md.startswith("| Detector |")
        with pytest.raises(ConfigError):
            render_report(report, "yaml")

    def test_runtime_excluded_helper(self, tiny_run):
        _, _, report = tiny_run
        stripped = report_without_runtime(report)
        assert "runtime_seconds" not in stripped
        assert stripped["config_hash"] == report["config_hash"]

    def test_stage_table_calls_module_globals(self, tmp_path, monkeypatch):
        # stages are looked up when they run, so a replaced attribute is used
        seen = []
        for _, attr in harness.STAGES:
            monkeypatch.setattr(harness, attr,
                                lambda state, attr=attr: seen.append(attr))
        state = PipelineState(cfg=tiny_config(), workdir=tmp_path)
        harness.run_stages(state, "train-gan")
        assert seen == ["stage_corpus", "stage_extract", "stage_detectors",
                        "stage_gans"]

    def test_stage_error_names_stage(self, tmp_path):
        state = PipelineState(cfg=tiny_config(), workdir=tmp_path)
        with pytest.raises(StageError) as exc:
            harness.stage_extract(state)   # corpus never loaded
        assert exc.value.stage == "extract"

    def test_dirs_kind_requires_paths(self, tmp_path):
        cfg = tiny_config()
        cfg.corpus.kind = "dirs"
        state = PipelineState(cfg=cfg, workdir=tmp_path)
        with pytest.raises(ConfigError):
            harness.stage_corpus(state)


class TestResume:
    """Stages up to train-gan load what a run in the same workdir stored,
    when the inputs that determine it are unchanged."""

    ATTACKS = ("gan_byte", "gan_api", "gan_strings", "benign_injection")

    @staticmethod
    def record_training(monkeypatch, workdir, fail=False):
        """Record (or refuse) every extraction of a file of the corpus in
        ``workdir`` and every detector and GAN fit."""
        done = {"extract": 0, "detectors": [], "gans": []}
        corpus = load_corpus(workdir / "corpus")[1]
        real_extract, real_train = harness.extract_file, gan.train
        real_detector = detectors.train_detector

        def extract_file(name, label, data, fcfg):
            if corpus.get(name) == data:
                assert not fail, f"corpus file {name} extracted again"
                done["extract"] += 1
            return real_extract(name, label, data, fcfg)

        def train_detector(kind, spec, *args, **kwargs):
            assert not fail, "detector trained again"
            done["detectors"].append(spec.families)
            return real_detector(kind, spec, *args, **kwargs)

        def train(benign, malicious, preset, *args, **kwargs):
            assert not fail, "GAN trained again"
            done["gans"].append(preset.feature_kind)
            return real_train(benign, malicious, preset, *args, **kwargs)

        monkeypatch.setattr(harness, "extract_file", extract_file)
        monkeypatch.setattr(detectors, "train_detector", train_detector)
        monkeypatch.setattr(gan, "train", train)
        return done

    def test_attack_only_change_trains_nothing(self, tmp_path, monkeypatch):
        cfg = tiny_config(attacks=self.ATTACKS)
        run_pipeline(cfg, tmp_path / "w")
        changed = dataclasses.replace(cfg, max_new_imports=1)
        cold = run_pipeline(changed, tmp_path / "cold")
        self.record_training(monkeypatch, tmp_path / "w", fail=True)
        warm = run_pipeline(changed, tmp_path / "w")
        assert report_without_runtime(warm) == report_without_runtime(cold)

    def test_one_gan_changed_retrains_only_it(self, tmp_path, monkeypatch):
        cfg = tiny_config(attacks=self.ATTACKS)
        run_pipeline(cfg, tmp_path / "w")
        gans = dict(cfg.gans, api=GanStageConfig(max_steps=11))
        done = self.record_training(monkeypatch, tmp_path / "w")
        run_pipeline(dataclasses.replace(cfg, gans=gans), tmp_path / "w")
        assert done["gans"] == ["api"]
        assert done["detectors"] == [] and done["extract"] == 0

    def test_feature_change_recomputes_everything(self, tmp_path, monkeypatch):
        cfg = tiny_config(attacks=self.ATTACKS)
        run_pipeline(cfg, tmp_path / "w")
        fcfg = dataclasses.replace(cfg.feature_cfg, k_api=30)
        done = self.record_training(monkeypatch, tmp_path / "w")
        run_pipeline(dataclasses.replace(cfg, feature_cfg=fcfg), tmp_path / "w")
        assert done["extract"] == 2 * cfg.corpus.n_per_class
        assert len(done["detectors"]) == len(cfg.detectors)
        assert sorted(done["gans"]) == sorted(harness.GAN_KINDS)

    def test_truncated_checkpoint_is_recomputed(self, tmp_path, monkeypatch,
                                                tiny_config_file):
        argv = ["pipeline", "--config", str(tiny_config_file),
                "--workdir", str(tmp_path / "w")]
        assert cli.main(argv) == 0
        path = tmp_path / "w" / "models" / "detector_byte_logreg.gevd"
        intact = path.read_bytes()
        path.write_bytes(intact[:len(intact) // 2])
        done = self.record_training(monkeypatch, tmp_path / "w")
        assert cli.main(argv) == 0
        assert done["detectors"] == [("byte",)] and done["gans"] == []
        assert path.read_bytes() == intact

    def test_cli_attack_after_train_gan_trains_nothing(self, tmp_path,
                                                       monkeypatch,
                                                       tiny_config_file):
        common = ["--config", str(tiny_config_file),
                  "--workdir", str(tmp_path / "w")]
        assert cli.main(["train-gan", *common]) == 0
        self.record_training(monkeypatch, tmp_path / "w", fail=True)
        assert cli.main(["attack", *common]) == 0

    def test_hit_rewrites_nothing(self, tmp_path):
        cfg = tiny_config(attacks=self.ATTACKS)
        run_pipeline(cfg, tmp_path / "w")
        stored = {p: p.stat().st_mtime_ns
                  for d in ("corpus", "features", "models")
                  for p in (tmp_path / "w" / d).iterdir()}
        run_pipeline(cfg, tmp_path / "w")
        assert {p: p.stat().st_mtime_ns for p in stored} == stored
        assert not (tmp_path / "w" / "features" / "splits.json").exists()

    def test_corpus_regenerated_when_its_config_changes(self, tmp_path):
        cfg = tiny_config()
        cfg.corpus.n_per_class = 3
        harness.run_stages(PipelineState(cfg=cfg, workdir=tmp_path / "w"),
                           "corpus")
        bigger = dataclasses.replace(
            cfg, corpus=dataclasses.replace(cfg.corpus, n_per_class=4))
        state = PipelineState(cfg=bigger, workdir=tmp_path / "w")
        harness.run_stages(state, "corpus")
        assert len(state.manifest["files"]) == 8
        fresh = PipelineState(cfg=bigger, workdir=tmp_path / "fresh")
        harness.run_stages(fresh, "corpus")
        assert state.manifest == fresh.manifest
        assert state.blobs == fresh.blobs

    def test_attack_outputs_replace_an_earlier_run(self, tmp_path):
        # 4 test files per class at the first split, 1 at the second
        cfg = tiny_config(attacks=("gan_byte",))
        run_pipeline(dataclasses.replace(cfg, split=(0.5, 0.1, 0.4)),
                     tmp_path / "w")
        run_pipeline(cfg, tmp_path / "w")
        attack_dir = tmp_path / "w" / "attacks" / "gan_byte"
        listed = json.loads((attack_dir / "manifest.json").read_text())["files"]
        assert sorted(p.name for p in attack_dir.glob("*.exe")) == listed


class TestBytePadding:
    def test_gap_zero_on_floored_targets_certifies(self):
        # peaked generator-like targets floored as the attacks floor them;
        # gap 0 is the exact model and must plan, not raise
        blob = petk.synth_pe(petk.SynthSpec(
            sections=[petk.SectionSpec(".text", size=3000)]), seed=0)
        rng = np.random.default_rng(0)
        for _ in range(16):
            logits = rng.normal(scale=3.0, size=256)
            t = np.exp(logits - logits.max())
            target = harness._safe_target(t / t.sum())
            req = harness._padding_request(blob, target, 0.0)
            assert padopt.check_plan(padopt.plan_for(req), req)


class TestCapacityCap:
    def test_cap_zero_warns_and_truncates(self, tmp_path):
        cfg = tiny_config(attacks=("gan_api",))
        state = PipelineState(cfg=cfg, workdir=tmp_path)
        harness.stage_corpus(state)
        harness.stage_extract(state)
        preset = pipeline_preset("api", state.table.vocab_api.size,
                                 GanStageConfig())
        model = gan.build_gan(preset, seed=0)
        table = state.table
        mal = [i for i, label in enumerate(table.labels) if label == "malicious"]
        names = [table.names[i] for i in mal]
        out = harness.attack_gan_indicator(model, names,
                                           table.matrices["api_topk"][mal],
                                           state.blobs, table.vocab_api, "api",
                                           0, seed=0)
        assert out.warnings
        from ganevade.features import extract_imports
        for name in names:
            before = extract_imports(petk.parse(state.blobs[name]))
            after = extract_imports(petk.parse(out.rewritten[name]))
            assert after == before


@pytest.fixture
def tiny_config_file(tmp_path):
    cfg = tiny_config().to_dict()
    cfg["gans"] = {"byte_histogram": {"max_steps": 3}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


class TestCli:
    def test_bad_config_exit_2(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"attacks": ["nope"]}))
        rc = cli.main(["pipeline", "--config", str(p),
                       "--workdir", str(tmp_path / "w")])
        assert rc == 2

    @pytest.mark.parametrize("command", ["pipeline", "extract", "attack"])
    def test_invalid_config_writes_nothing(self, tmp_path, command):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"gap": 1.5}))
        rc = cli.main([command, "--config", str(p),
                       "--workdir", str(tmp_path / "w")])
        assert rc == 2
        assert not (tmp_path / "w").exists()

    @pytest.mark.parametrize("argv,summary", [
        (["extract"], "extracted 20 files; vocab sizes"),
        (["train-detector", "--name", "byte_logreg"],
         "trained detector byte_logreg\n"),
        (["train-gan", "--kind", "byte_histogram"],
         "trained byte_histogram model: "),
        (["attack", "--attack", "gan_byte"],
         "attack gan_byte: 1 files rewritten, queries=0, warnings=0"),
    ])
    def test_stage_subcommands(self, tmp_path, tiny_config_file, capsys,
                               argv, summary):
        rc = cli.main([*argv, "--config", str(tiny_config_file),
                       "--workdir", str(tmp_path / "w")])
        assert rc == 0
        assert summary in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [["train-gan", "--kind", "bogus"],
                                      ["train-detector", "--name", "nope"],
                                      ["attack", "--attack", "bogus"]])
    def test_unknown_subcommand_target_exit_2(self, tmp_path,
                                              tiny_config_file, argv):
        rc = cli.main([*argv, "--config", str(tiny_config_file),
                       "--workdir", str(tmp_path / "w")])
        assert rc == 2

    def test_gap_zero_byte_attack_exit_0(self, tmp_path, monkeypatch):
        # gap 0 in the attack and in the sweep is the exact model
        cfg = tiny_config(attacks=("gan_byte",)).to_dict()
        cfg.update(gap=0, gap_sweep=[0.0, 0.001],
                   gans={"byte_histogram": {"max_steps": 3}})
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))

        sweep = {"active": False, "plans": 0, "subset": None}
        real_sweep, real_plan_for = harness._gap_sweep, padopt.plan_for

        def counting_sweep(state, test_mal):
            sweep["subset"] = min(len(test_mal), state.cfg.sweep_subsample)
            sweep["active"] = True
            try:
                return real_sweep(state, test_mal)
            finally:
                sweep["active"] = False

        def counting_plan_for(req):
            sweep["plans"] += sweep["active"]
            return real_plan_for(req)

        monkeypatch.setattr(harness, "_gap_sweep", counting_sweep)
        monkeypatch.setattr(padopt, "plan_for", counting_plan_for)
        rc = cli.main(["pipeline", "--config", str(p),
                       "--workdir", str(tmp_path / "w")])
        assert rc == 0
        report = json.loads((tmp_path / "w" / "report.json").read_text())
        rows = report["gap_sweep"]
        assert [r["gap"] for r in rows] == ["exact", 0.0, 0.001]
        # the exact row and the gap-0 row are the same model, planned once
        assert rows[0] == {**rows[1], "gap": "exact"}
        assert sweep["subset"] > 0
        assert sweep["plans"] == sweep["subset"] * 2

    def test_report_before_run_exit_3(self, tmp_path):
        rc = cli.main(["report", "--workdir", str(tmp_path / "empty")])
        assert rc == 3

    def test_gen_corpus_exit_0(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"corpus": {"n_per_class": 2,
                                            "content_size": [200, 300]}}))
        rc = cli.main(["gen-corpus", "--config", str(p),
                       "--workdir", str(tmp_path / "w")])
        assert rc == 0
        assert (tmp_path / "w" / "corpus" / "manifest.json").exists()
        assert "4 files" in capsys.readouterr().out

    def test_seed_override_changes_hash(self, tmp_path):
        cfg = tiny_config()
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg.to_dict()))

        class Args:
            config = str(p)
            seed = 1234

        loaded = cli._load_cfg(Args)
        assert loaded.seed == 1234


def test_gap_sweep_script_smoke(tmp_path, monkeypatch, capsys):
    path = Path(__file__).resolve().parent.parent / "scripts" / "run_gap_sweep.py"
    spec = importlib.util.spec_from_file_location("run_gap_sweep", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(sys, "argv", [
        "run_gap_sweep.py", "--workdir", str(tmp_path / "w"),
        "--n-per-class", "10", "--steps", "5", "--gaps", "0.01", "0"])
    assert script.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "gap,mean_size_mb,mean_appended_bytes,detection_rate"
    assert [line.split(",")[0] for line in lines[1:]] == ["exact", "0.01", "0.0"]
