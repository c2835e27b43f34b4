import collections
import dataclasses
import json
import shutil
import struct
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ganevade import checkpoint as ckpt
from ganevade import cli, detectors, features, gan, harness, padopt, petk
from ganevade.harness import (ConfigError, CorpusConfig, ExperimentConfig,
                              FeatureConfig, PipelineState,
                              StageError, gen_corpus, ingest_dirs, load_corpus,
                              pipeline_preset, render_report,
                              report_without_runtime, run_pipeline,
                              save_corpus, split_indices)


def tiny_config(seed=7, attacks=("gan_byte", "benign_injection", "malgan_byte")):
    return ExperimentConfig(
        corpus=CorpusConfig(n_per_class=10, content_size=(400, 800)),
        feature_cfg=FeatureConfig(k_api=40, k_strings=40, hash_dim=64),
        gans={"byte_histogram": gan.TrainingConfig(max_steps=20),
              "api": gan.TrainingConfig(max_steps=10),
              "strings": gan.TrainingConfig(max_steps=10)},
        attacks=list(attacks),
        gap_sweep=(0.01, 0.001),
        sweep_subsample=3,
        malgan_max_queries=300,
        seed=seed)


# every field of the config and of its nested configs, by its path in the
# config's JSON (the API GAN's entry and the first detector stand for each),
# with its declared type
CONFIG_FIELDS = [
    *(((f.name,), f.type) for f in dataclasses.fields(ExperimentConfig)),
    *(((name, f.name), f.type)
      for name, nested in (("corpus", CorpusConfig),
                           ("feature_cfg", FeatureConfig))
      for f in dataclasses.fields(nested)),
    *((("gans", "api", f.name), f.type)
      for f in dataclasses.fields(gan.TrainingConfig)),
    *((("detectors", 0, f.name), f.type)
      for f in dataclasses.fields(harness.DetectorSpec))]
JSON_SCALARS = (st.none() | st.booleans() | st.integers()
                | st.floats(allow_nan=False, allow_infinity=False)
                | st.text(max_size=6))
JSON_VALUES = {
    "null": st.none(), "bool": st.booleans(), "int": st.integers(),
    "float": st.floats(allow_nan=False, allow_infinity=False),
    "string": st.text(max_size=6),
    "list": st.lists(JSON_SCALARS, max_size=3),
    "object": st.dictionaries(st.text(max_size=6), JSON_SCALARS, max_size=3)}
# the JSON types a declared type accepts
DECLARED_JSON_TYPES = {
    "int": {"int"}, "float": {"int", "float"}, "str": {"string"},
    "str | None": {"string", "null"}, "tuple": {"list"}, "list": {"list"},
    "dict": {"object"}, "CorpusConfig": {"object"},
    "FeatureConfig": {"object"}}


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

    @staticmethod
    def mlp_with(**hyperparams):
        return [harness.DetectorSpec("m", "mlp", ("byte",), hyperparams)]

    @pytest.mark.parametrize("steps", [0, -3, 2.5, "many", True])
    def test_detector_steps_must_be_integer_at_least_one(self, steps):
        with pytest.raises(ConfigError):
            ExperimentConfig(detectors=self.mlp_with(steps=steps))

    @pytest.mark.parametrize("hidden", [0, -1, 8.0, "wide"])
    def test_detector_hidden_must_be_integer_at_least_one(self, hidden):
        with pytest.raises(ConfigError):
            ExperimentConfig(detectors=self.mlp_with(hidden=hidden))

    # the logreg's step size and L2 weight are detectors' constants: a
    # config that sets either, to any value, names an unknown hyperparam
    @pytest.mark.parametrize("lr", [0, -1, float("nan"), "fast"])
    def test_detector_lr_must_be_positive(self, lr):
        with pytest.raises(ConfigError, match=r"unknown hyperparams \['lr'\]"):
            ExperimentConfig(detectors=self.mlp_with(lr=lr))

    @pytest.mark.parametrize("l2", [-1e-4, float("nan"), None])
    def test_detector_l2_must_be_non_negative(self, l2):
        with pytest.raises(ConfigError, match=r"unknown hyperparams \['l2'\]"):
            ExperimentConfig(detectors=self.mlp_with(l2=l2))

    def test_detector_hyperparams_at_their_bounds_accepted(self):
        ExperimentConfig(detectors=self.mlp_with(steps=1, hidden=1))

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

    @pytest.mark.parametrize("size", [(400,), (800, 400), (0, 400),
                                      (400.0, 800), 400])
    def test_content_size_not_a_size_range_rejected(self, size):
        with pytest.raises(ConfigError):
            ExperimentConfig(corpus=CorpusConfig(content_size=size))

    @pytest.mark.parametrize("field", ["max_new_imports", "max_new_strings"])
    def test_negative_token_cap_rejected(self, field):
        with pytest.raises(ConfigError):
            ExperimentConfig(**{field: -1})

    def test_unknown_gan_kind_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(
                {"gans": {"bytes_histogram": {"max_steps": 5}}})

    @pytest.mark.parametrize("setting", [
        {"lambda_gp": 0}, {"batch_size": 0}, {"max_steps": 0},
        {"n_generator": 0}, {"learning_rate": -1e-4}, {"critic_hidden": [0]}])
    def test_gan_setting_out_of_range_rejected(self, setting):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"gans": {"byte_histogram": setting}})

    def test_gan_settings_are_one_class(self):
        assert [f.name for f in dataclasses.fields(gan.TrainingConfig)] == [
            "max_steps"]
        assert all(type(v) is gan.TrainingConfig
                   for v in ExperimentConfig().gans.values())

    def test_gan_kind_left_out_trains_for_its_default_steps(self):
        cfg = ExperimentConfig.from_dict(
            {"gans": {"byte_histogram": {"max_steps": 5}}})
        assert {kind: stage.max_steps for kind, stage in cfg.gans.items()} \
            == {"byte_histogram": 5, "api": 300, "strings": 300}
        assert ExperimentConfig().gans == ExperimentConfig.from_dict(
            {}).gans == {kind: gan.TrainingConfig(steps)
                         for kind, steps in harness.GAN_STEPS.items()}

    def test_empty_gan_entry_rejected(self):
        # an entry names its steps; a kind left out takes its default
        with pytest.raises(ConfigError, match="max_steps"):
            ExperimentConfig.from_dict({"gans": {"api": {}}})

    def test_unknown_detector_kind_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(detectors=[harness.DetectorSpec("x", "svm")])

    def test_repeated_detector_name_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(detectors=[
                harness.DetectorSpec("x", "logreg", ("byte",)),
                harness.DetectorSpec("x", "mlp", ("api_topk",))])

    def test_detector_families_default_to_byte(self):
        cfg = ExperimentConfig.from_dict({"detectors": [{"name": "x"}]})
        assert cfg.detectors[0].families == ("byte",)

    def test_detector_without_families_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(
                {"detectors": [{"name": "x", "families": []}]})

    @pytest.mark.parametrize("attack", ["gan_byte", "malgan_byte"])
    def test_byte_attack_without_byte_only_detector_rejected(self, attack):
        with pytest.raises(ConfigError):
            ExperimentConfig(attacks=[attack], detectors=[harness.DetectorSpec(
                "x", "logreg", ("byte", "api_hashed"))])

    def test_indicator_attacks_need_no_byte_only_detector(self):
        ExperimentConfig(attacks=["gan_api", "gan_all", "benign_injection"],
                         detectors=[harness.DetectorSpec("x", "logreg",
                                                         ("api_topk",))])

    def test_unknown_hyperparam_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(detectors=[harness.DetectorSpec(
                "x", "mlp", ("byte",), hyperparams={"hiden": 8})])

    @pytest.mark.parametrize("field", ["hash_dim", "k_api", "k_strings"])
    def test_feature_size_below_one_rejected(self, field):
        with pytest.raises(ConfigError):
            ExperimentConfig(feature_cfg=FeatureConfig(**{field: 0}))

    @pytest.mark.parametrize(
        "path,declared", CONFIG_FIELDS,
        ids=[".".join(map(str, path)) for path, _ in CONFIG_FIELDS])
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_field_of_another_json_type_is_a_config_error(self, path, declared,
                                                          data):
        other = sorted(set(JSON_VALUES) - DECLARED_JSON_TYPES[declared])
        value = data.draw(JSON_VALUES[data.draw(st.sampled_from(other))])
        cfg = json.loads(json.dumps(tiny_config().to_dict()))
        parent = cfg
        for step in path[:-1]:
            parent = parent[step]
        parent[path[-1]] = value
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(cfg)


class TestCorpus:
    def test_config_written_with_sorted_keys_draws_the_same_corpus(
            self, tmp_path):
        # the two configs have one config_hash and one corpus key
        cfg = tiny_config()
        written = ExperimentConfig.from_dict(
            json.loads(json.dumps(cfg.to_dict(), sort_keys=True)))
        assert written.config_hash() == cfg.config_hash()
        made, _ = gen_corpus(cfg.corpus, 0, tmp_path / "a")
        read, _ = gen_corpus(written.corpus, 0, tmp_path / "b")
        assert read["digest"] == made["digest"]

    def test_gen_corpus_counts_and_labels(self, tmp_path):
        cfg = CorpusConfig(n_per_class=3, content_size=(200, 400))
        _, blobs = gen_corpus(cfg, 0, tmp_path / "c")
        labels = [r["label"] for r in blobs.records.values()]
        assert labels.count("benign") == 3
        assert labels.count("malicious") == 3
        assert list(blobs) == sorted(p.name for p in (tmp_path / "c").iterdir())
        for data in blobs.values():
            petk.parse(data, strict=True)

    def test_same_seed_identical_bytes(self, tmp_path):
        cfg = CorpusConfig(n_per_class=2, content_size=(200, 300))
        assert gen_corpus(cfg, 5, tmp_path / "a") \
            == gen_corpus(cfg, 5, tmp_path / "b")

    def test_saved_corpus_loads_back_under_its_key(self, tmp_path):
        corpus = gen_corpus(CorpusConfig(n_per_class=2,
                                         content_size=(200, 300)), 5,
                            tmp_path / "c")
        save_corpus(tmp_path / "c", corpus, "k1")
        assert load_corpus(tmp_path / "c", "k1") == corpus
        assert load_corpus(tmp_path / "c") == corpus
        with pytest.raises(ValueError):
            load_corpus(tmp_path / "c", "k2")

    @pytest.mark.parametrize("manifest", [
        [], {"files": {}}, {"files": [{"label": "benign"}]},
        {"files": [{"name": "a.exe"}]}, {"files": [{"name": 3, "label": "b"}]}])
    def test_malformed_manifest_rejected(self, tmp_path, manifest):
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        (tmp_path / "a.exe").write_bytes(b"MZ")
        with pytest.raises(ValueError):
            load_corpus(tmp_path)

    def test_save_corpus_replaces_the_directory(self, tmp_path):
        (tmp_path / "c").mkdir()
        (tmp_path / "c" / "stale.exe").write_bytes(b"MZ")
        save_corpus(tmp_path / "c", ({"seed": 0},
                                     harness.FileSet(tmp_path / "c")), "k")
        assert sorted(p.name for p in (tmp_path / "c").iterdir()) \
            == ["manifest.json"]

    def test_gen_corpus_writes_files_as_they_are_made(self, tmp_path,
                                                      monkeypatch):
        # when a file is made, the files of every batch before its own are
        # on disk
        on_disk = []
        synth_pe = petk.synth_pe

        def recording_synth_pe(spec, seed=0):
            on_disk.append(len(list((tmp_path / "c").glob("*.exe"))))
            return synth_pe(spec, seed=seed)
        monkeypatch.setattr(petk, "synth_pe", recording_synth_pe)
        batch = harness.CORPUS_WRITE_BATCH
        n = batch + 10
        gen_corpus(CorpusConfig(n_per_class=n, content_size=(200, 300)), 0,
                   tmp_path / "c")
        assert on_disk == [i - i % batch for i in range(2 * n)]

    def test_class_profiles_separate_histograms(self, tmp_path):
        cfg = CorpusConfig(n_per_class=5, content_size=(2000, 3000))
        _, blobs = gen_corpus(cfg, 1, tmp_path)
        from ganevade.features import byte_histogram
        high = {name: byte_histogram(b)[0x80:].sum()
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
        _, blobs = ingest_dirs(bdir, mdir)
        labels = sorted(r["label"] for r in blobs.records.values())
        assert labels == ["benign", "malicious"]
        assert list(blobs.values()) == [data, data]
        assert not (tmp_path / "out").exists()

    def test_dirs_corpus_with_an_empty_file_runs(self, tmp_path):
        _, blobs = gen_corpus(
            CorpusConfig(n_per_class=20, content_size=(400, 800)), 3,
            tmp_path / "gen")
        dirs = {label: tmp_path / label for label in ("benign", "malicious")}
        for path in dirs.values():
            path.mkdir()
        for name, data in blobs.items():
            (dirs[name.split("_")[0]] / name).write_bytes(data)
        empty = dirs["malicious"] / "zz_empty.exe"
        empty.write_bytes(b"")
        cfg = tiny_config().to_dict()
        cfg["corpus"] = {"kind": "dirs", "benign_dir": str(dirs["benign"]),
                         "malicious_dir": str(dirs["malicious"])}
        cfg["gans"] = {"byte_histogram": {"max_steps": 3}}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert cli.main(["pipeline", "--config", str(tmp_path / "cfg.json"),
                         "--workdir", str(tmp_path / "w")]) == 0
        manifest = json.loads(
            (tmp_path / "w" / "corpus" / "manifest.json").read_text())
        assert manifest["skipped"] == [{"source": str(empty),
                                        "reason": "empty file"}]
        assert len(manifest["files"]) == 40


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
        p = pipeline_preset("byte_histogram", 256)
        assert p == gan.byte_preset()

    def test_scaled_variant_otherwise(self):
        p = pipeline_preset("api", 150)
        assert p.input_dim == 150
        assert p.noise_dim == gan.api_preset().noise_dim
        assert p.output_activation == "sigmoid"


class TestPipeline:
    def test_report_structure(self, tiny_run):
        cfg, workdir, report = tiny_run
        assert report["config_hash"] == cfg.config_hash()
        assert set(report["original_rates"]) == {d.name for d in cfg.detectors}
        assert set(report["attack_rates"]) == set(cfg.attacks)
        assert (workdir / "report.json").exists()
        assert (workdir / "corpus" / "manifest.json").exists()
        matrix, _, vocab = features.load_matrix(
            workdir / "features" / "api_topk.gevf")
        assert vocab and len(vocab) == matrix.shape[1]
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

    def test_gan_metrics_csv_has_a_row_per_step(self, tiny_run):
        cfg, workdir, _ = tiny_run
        model = gan.load_gan(workdir / "models" / "gan_byte_histogram.gevd")
        lines = (workdir / "models" / "gan_byte_histogram_metrics.csv") \
            .read_text().splitlines()
        assert lines[0] == ("step,loss_critic,loss_generator,"
                            "gradient_penalty,step_ms")
        steps = cfg.gans["byte_histogram"].max_steps
        assert model.training_meta["steps"] == steps
        rows = [line.split(",") for line in lines[1:]]
        assert [int(r[0]) for r in rows] == list(range(1, steps + 1))
        assert all(len(r) == 5 and float(r[4]) > 0.0 for r in rows)

    def test_attack_files_strict_parseable(self, tiny_run):
        _, workdir, _ = tiny_run
        files = sorted((workdir / "attacks" / "gan_byte").glob("*.exe"))
        assert files
        for f in files:
            petk.parse(f.read_bytes(), strict=True)

    def test_padded_files_carry_their_certificates(self, tiny_run):
        cfg, workdir, _ = tiny_run
        for attack in cfg.attacks:
            manifest = json.loads(
                (workdir / "attacks" / attack / "manifest.json").read_text())
            for rec in manifest["files"]:
                if attack == "benign_injection":
                    assert "certificate" not in rec
                    continue
                cert = rec["certificate"]
                # the certified total is the padded file's byte count
                assert cert["total"] == rec["size"]
                assert cert["gap"] == cfg.gap
                assert cert["max_lower_violation"] == 0.0
                assert cert["max_upper_violation"] == 0.0

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

    @pytest.mark.parametrize("attacks", [[], ["gan_byte", "malgan_byte"]])
    def test_markdown_rows_have_a_cell_per_header_cell(self, attacks):
        report = {"original_rates": {"d1": 0.9, "d2": 0.8},
                  "attack_rates": {a: {"d1": 0.1, "d2": 0.2} for a in attacks},
                  "gap_sweep": [{"gap": "exact", "mean_size_mb": 0.1,
                                 "mean_appended_bytes": 10.0,
                                 "detection_rate": 0.5}]}
        detector_table, sweep_table = \
            render_report(report, "markdown").strip().split("\n\n")
        for table, width in ((detector_table, len(attacks) + 2),
                             (sweep_table, 3)):
            rows = table.splitlines()
            assert rows[1] == "|---" * width + "|"
            assert [row.count("|") - 1 for row in rows] == [width] * len(rows)

    def test_render_formats(self, tiny_run):
        _, _, report = tiny_run
        as_json = render_report(report, "json")
        assert json.loads(as_json) == json.loads(
            json.dumps(report, sort_keys=True))
        csv_text = render_report(report, "csv")
        assert csv_text.startswith("detector,attack,detection_rate")
        gap_lines = csv_text.split("\n\n")[1].splitlines()
        assert gap_lines[0] == ("gap,mean_size_mb,mean_appended_bytes,"
                                "detection_rate")
        assert [line.split(",")[0] for line in gap_lines[1:]] == [
            str(row["gap"]) for row in report["gap_sweep"]]
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

    def test_stage_error_names_stage(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "stage_corpus", lambda state: None)
        state = PipelineState(cfg=tiny_config(), workdir=tmp_path)
        with pytest.raises(StageError) as exc:
            harness.run_stages(state, "extract")   # corpus never loaded
        assert exc.value.stage == "extract"

    @pytest.mark.parametrize("name, attr", harness.STAGES)
    def test_each_stage_failure_is_named_by_its_row(self, tmp_path,
                                                    monkeypatch, name, attr):
        # the other stages do nothing; this one fails as a stage's code may
        for _, other in harness.STAGES:
            monkeypatch.setattr(harness, other, lambda state: None)

        def boom(state):
            raise RuntimeError("boom")
        monkeypatch.setattr(harness, attr, boom)
        state = PipelineState(cfg=tiny_config(), workdir=tmp_path)
        with pytest.raises(StageError) as exc:
            harness.run_stages(state)
        assert exc.value.stage == name
        assert str(exc.value) == f"stage {name!r} failed: RuntimeError: boom"
        assert isinstance(exc.value.__cause__, RuntimeError)

    def test_dirs_kind_requires_paths(self):
        for corpus in ({"kind": "dirs"}, {"kind": "dirs", "benign_dir": "b"},
                       {"kind": "dirs", "malicious_dir": "m"}):
            with pytest.raises(ConfigError, match="benign_dir and malicious_dir"):
                ExperimentConfig.from_dict({"corpus": corpus})

    @pytest.mark.parametrize("n_per_class", [2, 6, 7])
    def test_split_without_test_files_is_a_config_error(self, tmp_path,
                                                        n_per_class):
        cfg = tiny_config()
        cfg.corpus.n_per_class = n_per_class
        state = PipelineState(cfg=cfg, workdir=tmp_path / "w")
        harness.run_stages(state, "corpus")
        with pytest.raises(ConfigError, match="a class of this .* no test file"):
            harness.stage_extract(state)
        assert not (tmp_path / "w" / "features").exists()

    def test_split_without_test_files_exit_2(self, tmp_path):
        cfg = tiny_config().to_dict()
        cfg["corpus"]["n_per_class"] = 2
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert cli.main(["pipeline", "--config", str(p),
                         "--workdir", str(tmp_path / "w")]) == 2
        assert not (tmp_path / "w").exists()


class TestStreaming:
    """Extract, ``gan_all`` and evaluate build each file's rows from one
    ``FileFeatures`` and drop it before the next file's is made."""

    @staticmethod
    def count_extractions(monkeypatch):
        """``made``, how often each bytes object was extracted, and
        ``most_alive``, the most ``FileFeatures`` alive at once."""
        seen = {"made": collections.Counter(), "alive": 0, "most_alive": 0}

        def dropped():
            seen["alive"] -= 1

        class FileFeatures(harness.FileFeatures):
            def __init__(self, data):
                super().__init__(data)
                weakref.finalize(self, dropped)
                seen["made"][data] += 1
                seen["alive"] += 1
                seen["most_alive"] = max(seen["most_alive"], seen["alive"])

        monkeypatch.setattr(harness, "FileFeatures", FileFeatures)
        return seen

    def test_cold_extract_holds_one_file_at_a_time(self, tmp_path,
                                                   monkeypatch):
        # every family, both Top-K matrices computed: the vocabulary pass
        # too holds token references, not FileFeatures
        state = PipelineState(cfg=tiny_config(), workdir=tmp_path / "w")
        harness.run_stages(state, "corpus")
        assert {fam for spec in state.cfg.detectors
                for fam in spec.families} == set(harness.FAMILIES)
        seen = self.count_extractions(monkeypatch)
        harness.stage_extract(state)
        assert seen["most_alive"] == 1
        assert seen["made"] == collections.Counter(state.blobs.values())
        assert {("features", fam) for fam in harness.TOPK} <= state.computed

    def test_gan_all_and_evaluate_hold_one_file_at_a_time(self, tmp_path,
                                                          monkeypatch):
        state = PipelineState(cfg=tiny_config(attacks=("gan_all",)),
                              workdir=tmp_path / "w")
        harness.run_stages(state, "train-gan")
        n = len(harness._rows(state, "test", "malicious"))
        seen = self.count_extractions(monkeypatch)
        harness.stage_attacks(state)
        # the rows of gan_strings and of gan_byte, each from the files the
        # step before rewrote
        assert sum(seen["made"].values()) == 2 * n
        harness.stage_evaluate(state)
        assert sum(seen["made"].values()) == 3 * n
        assert seen["most_alive"] == 1


class TestCorpusOnDisk:
    """The corpus is read from disk file by file when a stage visits it,
    and each attack writes its rewritten files as it makes them."""

    @staticmethod
    def count_reads(monkeypatch):
        """How often each file (resolved path) is opened for reading through
        ``open`` or ``Path.open`` (``read_bytes``, ``read_text``)."""
        reads = collections.Counter()
        real_open, real_path_open = open, Path.open

        def opened(file, mode="r", *args, **kwargs):
            if isinstance(file, (str, Path)) and "r" in mode:
                reads[Path(file).resolve()] += 1

        def counting_open(file, mode="r", *args, **kwargs):
            opened(file, mode)
            return real_open(file, mode, *args, **kwargs)

        def counting_path_open(self, mode="r", *args, **kwargs):
            opened(self, mode)
            return real_path_open(self, mode, *args, **kwargs)

        monkeypatch.setattr("builtins.open", counting_open)
        monkeypatch.setattr(Path, "open", counting_path_open)
        return reads

    @staticmethod
    def exe_reads(reads, directory: Path) -> collections.Counter:
        """The reads of ``.exe`` files in ``directory``, by name."""
        return collections.Counter({
            path.name: n for path, n in reads.items()
            if path.parent == directory.resolve() and path.suffix == ".exe"})

    def test_warm_corpus_stage_reads_each_stored_file_once(self, tmp_path,
                                                           monkeypatch):
        # to check its SHA-256, so an edit that keeps the size is seen
        harness.run_stages(PipelineState(cfg=tiny_config(),
                                         workdir=tmp_path / "w"), "corpus")
        reads = self.count_reads(monkeypatch)
        state = PipelineState(cfg=tiny_config(), workdir=tmp_path / "w")
        harness.stage_corpus(state)
        assert not state.computed and len(state.blobs) == 20
        assert self.exe_reads(reads, tmp_path / "w" / "corpus") == \
            collections.Counter(dict.fromkeys(state.blobs, 1))

    def test_cold_corpus_is_read_back_from_disk(self, tmp_path):
        state = PipelineState(cfg=tiny_config(), workdir=tmp_path / "w")
        harness.stage_corpus(state)
        assert isinstance(state.blobs, harness.FileSet)
        assert state.blobs == gen_corpus(state.cfg.corpus, state.cfg.seed,
                                         tmp_path / "again")[1]

    def test_resumed_byte_run_reads_each_corpus_file_once(
            self, tmp_path, monkeypatch):
        cfg = tiny_config(attacks=("gan_byte",))
        run_pipeline(cfg, tmp_path / "w")
        reads = self.count_reads(monkeypatch)
        state = PipelineState(cfg=cfg, workdir=tmp_path / "w")
        harness.run_stages(state)
        assert not state.computed
        # the corpus load checks each file; the attack and the gap sweep
        # resume and read none
        assert self.exe_reads(reads, tmp_path / "w" / "corpus") == \
            collections.Counter(dict.fromkeys(state.blobs, 1))

    def test_dirs_corpus_reads_each_source_once(self, tmp_path, monkeypatch):
        _, blobs = gen_corpus(
            CorpusConfig(n_per_class=10, content_size=(400, 800)), 3,
            tmp_path / "gen")
        dirs = {label: tmp_path / label for label in ("benign", "malicious")}
        for path in dirs.values():
            path.mkdir()
        for name, data in blobs.items():
            (dirs[name.split("_")[0]] / name).write_bytes(data)
        cfg = tiny_config()
        cfg.corpus = CorpusConfig(kind="dirs", benign_dir=str(dirs["benign"]),
                                  malicious_dir=str(dirs["malicious"]))
        corpus_dir = tmp_path / "w" / "corpus"
        for run in ("cold", "warm"):
            reads = self.count_reads(monkeypatch)
            state = PipelineState(cfg=cfg, workdir=tmp_path / "w")
            harness.stage_corpus(state)
            assert (("corpus", "dirs") in state.computed) == (run == "cold")
            for label, path in dirs.items():
                assert self.exe_reads(reads, path) == collections.Counter(
                    {name: 1 for name in blobs if name.startswith(label)})
            monkeypatch.undo()
            # no stored copy: the corpus directory holds the manifest alone
            assert [p.name for p in corpus_dir.iterdir()] == ["manifest.json"]
            assert state.blobs == blobs

    def test_corpus_file_edited_in_place_is_named(self, tmp_path, capsys,
                                                  tiny_config_file):
        argv = ["pipeline", "--config", str(tiny_config_file),
                "--workdir", str(tmp_path / "w")]
        assert cli.main(argv) == 0
        manifest = json.loads(
            (tmp_path / "w" / "corpus" / "manifest.json").read_text())
        edited = []
        for path in sorted((tmp_path / "w" / "corpus").glob("malicious_*")):
            data = bytearray(path.read_bytes())
            data[200:208] = bytes(255 - b for b in data[200:208])
            path.write_bytes(data)
            edited.append(path.name)
        capsys.readouterr()
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert "CorpusError" in err
        assert any(name in err for name in edited)
        # the stat check at load passed: the corpus was not made again
        assert json.loads((tmp_path / "w" / "corpus" / "manifest.json")
                          .read_text()) == manifest

    def test_corpus_file_edited_in_place_fails_a_fully_resumed_run(
            self, tmp_path, capsys):
        # no stage of this run reads a corpus file once every artifact loads
        cfg = tiny_config(attacks=("gan_api", "gan_strings",
                                   "benign_injection"))
        config_file = tmp_path / "cfg.json"
        config_file.write_text(json.dumps(cfg.to_dict()))
        argv = ["pipeline", "--config", str(config_file),
                "--workdir", str(tmp_path / "w")]
        assert cli.main(argv) == 0
        assert cli.main(argv) == 0
        path = tmp_path / "w" / "corpus" / "malicious_00003.exe"
        data = bytearray(path.read_bytes())
        data[200:208] = bytes(255 - b for b in data[200:208])
        path.write_bytes(data)
        capsys.readouterr()
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert "stage 'corpus' failed: CorpusError" in err
        assert str(path) in err

    def test_attack_outputs_carry_no_bytes(self, tmp_path):
        state = PipelineState(cfg=tiny_config(attacks=(
            "gan_byte", "gan_all", "benign_injection", "malgan_byte")),
            workdir=tmp_path / "w")
        harness.run_stages(state, "attack")

        def values(v):
            if isinstance(v, dict):
                v = list(v.values())
            if isinstance(v, (list, tuple)):
                return [x for item in v for x in values(item)]
            return [v]

        for attack, out in state.attack_outputs.items():
            assert not any(isinstance(v, (bytes, bytearray, memoryview))
                           for v in values([dataclasses.asdict(out),
                                            out.files.records]))
            assert out.files.directory == tmp_path / "w" / "attacks" / attack
            assert sorted(out.files) == sorted(
                p.name for p in out.files.directory.glob("*.exe"))


    @pytest.mark.parametrize("attack,stage", [("gan_api", "evaluate")])
    def test_output_edited_before_it_is_read_back_is_named(
            self, tmp_path, monkeypatch, attack, stage):
        run_attack = harness.run_attack
        edited = []

        def run_then_edit(state, spec, out):
            run_attack(state, spec, out)
            path = out.files.path(next(iter(out.files)))
            data = bytearray(path.read_bytes())
            data[200:208] = bytes(255 - b for b in data[200:208])
            path.write_bytes(data)
            edited.append(path)
        monkeypatch.setattr(harness, "run_attack", run_then_edit)
        with pytest.raises(StageError) as exc:
            run_pipeline(tiny_config(attacks=(attack,)), tmp_path / "w")
        assert exc.value.stage == stage
        assert f"CorpusError: attack output file {edited[0]} differs" \
            in str(exc.value)


@pytest.fixture(scope="module")
def gan_byte_run(tmp_path_factory):
    """A finished ``gan_byte`` run: (config, workdir, report)."""
    workdir = tmp_path_factory.mktemp("gan_byte")
    cfg = tiny_config(attacks=("gan_byte",))
    return cfg, workdir, run_pipeline(cfg, workdir)


class TestManifests:
    """The corpus and each attack list their files in one record layout,
    checked the same way when they load."""

    @pytest.mark.parametrize("manifest,what,fields,record", [
        ("corpus/manifest.json", ("corpus", "synthetic"),
         ["digest", "files", "key", "seed"],
         ["label", "name", "sha256", "size"]),
        ("attacks/gan_byte/manifest.json", ("attack", "gan_byte"),
         ["files", "key", "query_count", "stats", "warnings"],
         ["certificate", "name", "sha256", "size"])])
    @pytest.mark.parametrize("damage", ["size_mistyped", "sha256_missing",
                                        "files_not_a_list"])
    def test_malformed_manifest_is_recomputed(self, gan_byte_run, tmp_path,
                                              manifest, what, fields, record,
                                              damage):
        cfg, finished, cold = gan_byte_run
        workdir = tmp_path / "w"
        shutil.copytree(finished, workdir)
        path = workdir / manifest
        intact = path.read_text()
        stored = json.loads(intact)
        # the layout perfbench/checks.py and the README rely on
        assert sorted(stored) == fields
        assert all(sorted(rec) == record for rec in stored["files"])
        if damage == "size_mistyped":
            stored["files"][0]["size"] = str(stored["files"][0]["size"])
        elif damage == "sha256_missing":
            del stored["files"][-1]["sha256"]
        else:
            stored["files"] = {rec["name"]: rec for rec in stored["files"]}
        path.write_text(json.dumps(stored))
        state = PipelineState(cfg=cfg, workdir=workdir)
        evaluation = harness.run_stages(state)
        # a corpus made again is the same, so nothing downstream of it is
        computed = {what} | ({("rates", "gan_byte")} if what[0] == "attack"
                             else set())
        assert state.computed == computed
        assert path.read_text() == intact
        assert evaluation == {k: cold[k] for k in evaluation}


class TestResume:
    """Stages up to train-gan load what a run in the same workdir stored,
    when the inputs that determine it are unchanged."""

    ATTACKS = ("gan_byte", "gan_api", "gan_strings", "benign_injection")

    @staticmethod
    def record_training(monkeypatch, workdir, fail=False):
        """Record (or refuse) every extraction (``FileFeatures``) of a file
        of the corpus in ``workdir`` and every detector and GAN fit."""
        done = {"extract": 0, "detectors": [], "gans": []}
        corpus = set(load_corpus(workdir / "corpus")[1].values())
        real_train = gan.train
        real_detector = detectors.train_detector

        class FileFeatures(harness.FileFeatures):
            def __init__(self, data):
                if data in corpus:
                    assert not fail, "a corpus file extracted again"
                    done["extract"] += 1
                super().__init__(data)

        def train_detector(kind, x_benign, *args, **kwargs):
            assert not fail, "detector trained again"
            done["detectors"].append((kind, x_benign.shape[1]))
            return real_detector(kind, x_benign, *args, **kwargs)

        def train(x, benign_rows, malicious_rows, preset, *args, **kwargs):
            assert not fail, "GAN trained again"
            done["gans"].append(preset.feature_kind)
            return real_train(x, benign_rows, malicious_rows, preset, *args,
                              **kwargs)

        monkeypatch.setattr(harness, "FileFeatures", FileFeatures)
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
        gans = dict(cfg.gans, api=gan.TrainingConfig(max_steps=11))
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

    def damaged_detector_is_recomputed(self, tmp_path, monkeypatch,
                                       config_file, damage):
        argv = ["pipeline", "--config", str(config_file),
                "--workdir", str(tmp_path / "w")]
        assert cli.main(argv) == 0
        path = tmp_path / "w" / "models" / "detector_byte_logreg.gevd"
        intact = path.read_bytes()
        path.write_bytes(damage(intact))
        done = self.record_training(monkeypatch, tmp_path / "w")
        assert cli.main(argv) == 0
        assert done["detectors"] == [("logreg", 256)] and done["gans"] == []
        assert path.read_bytes() == intact

    def test_truncated_checkpoint_is_recomputed(self, tmp_path, monkeypatch,
                                                tiny_config_file):
        self.damaged_detector_is_recomputed(
            tmp_path, monkeypatch, tiny_config_file,
            lambda data: data[:len(data) // 2])

    def test_checkpoint_with_bytes_appended_is_recomputed(
            self, tmp_path, monkeypatch, tiny_config_file):
        self.damaged_detector_is_recomputed(
            tmp_path, monkeypatch, tiny_config_file,
            lambda data: data + b"\x00" * 22)

    def test_old_logreg_layout_is_retrained(self, tmp_path, monkeypatch,
                                            tiny_config_file):
        def old_layout(data):
            # the layout logregs were stored in before they were networks,
            # under the key of the same inputs
            path = tmp_path / "intact.gevd"
            path.write_bytes(data)
            meta, _ = ckpt.load_container(path)
            layer = detectors.load_detector(path).net.layers[0]
            ckpt.save_container(path, {
                "kind": "detector", "detector_kind": "logreg",
                "families": ["byte"], "threshold": 0.5,
                "training_meta": {"seed": 7, "steps": 400}, "key": meta["key"]},
                {"w": layer.weights[0], "b": layer.biases})
            return path.read_bytes()
        self.damaged_detector_is_recomputed(
            tmp_path, monkeypatch, tiny_config_file, old_layout)

    def damaged_artifact_is_recomputed(self, monkeypatch, workdir,
                                       config_file, artifact, damage):
        """Damage ``artifact`` of a finished run in ``workdir``: the next run
        exits 0, writes it back as it was and reproduces the report. Returns
        what that run extracted and trained (``record_training``)."""
        argv = ["pipeline", "--config", str(config_file),
                "--workdir", str(workdir)]
        assert cli.main(argv) == 0
        cold = json.loads((workdir / "report.json").read_text())
        path = workdir / artifact
        intact = path.read_bytes()
        done = self.record_training(monkeypatch, workdir)
        damage(path)
        assert cli.main(argv) == 0
        warm = json.loads((workdir / "report.json").read_text())
        assert report_without_runtime(warm) == report_without_runtime(cold)
        assert path.read_bytes() == intact
        return done

    def test_feature_matrix_with_malformed_header_is_recomputed(
            self, tmp_path, monkeypatch, tiny_config_file):
        self.damaged_artifact_is_recomputed(
            monkeypatch, tmp_path / "w", tiny_config_file, "features/byte.gevf",
            lambda path: path.write_bytes(
                ckpt.MAGIC + struct.pack("<I", 2) + b"{}"))

    def test_feature_matrix_without_arrays_is_recomputed(
            self, tmp_path, monkeypatch, tiny_config_file):
        # the key matches, but the container holds no matrix
        def no_arrays(path):
            meta, _ = ckpt.load_container(path)
            ckpt.save_container(path, {"key": meta["key"]}, {})
        done = self.damaged_artifact_is_recomputed(
            monkeypatch, tmp_path / "w", tiny_config_file, "features/byte.gevf",
            no_arrays)
        assert done["detectors"] == [] and done["gans"] == []

    def test_gevd1_feature_matrix_is_recomputed(self, tmp_path, monkeypatch,
                                                tiny_config_file):
        # the container layout before per-array dtypes, same key and values
        def gevd1(path):
            meta, arrays = ckpt.load_container(path)
            raw = json.dumps({"meta": meta, "arrays": [
                {"name": "matrix", "shape": list(arrays["matrix"].shape)}]},
                sort_keys=True).encode("utf-8")
            path.write_bytes(b"GEVD1" + struct.pack("<I", len(raw)) + raw
                             + arrays["matrix"].astype("<f8").tobytes())
        done = self.damaged_artifact_is_recomputed(
            monkeypatch, tmp_path / "w", tiny_config_file,
            "features/api_topk.gevf", gevd1)
        assert done["extract"] > 0
        assert done["detectors"] == [] and done["gans"] == []

    def test_cold_and_resumed_runs_hold_the_same_matrices(self, tmp_path):
        cfg = tiny_config()
        cold = PipelineState(cfg=cfg, workdir=tmp_path / "w")
        harness.run_stages(cold, "extract")
        warm = PipelineState(cfg=cfg, workdir=tmp_path / "w")
        harness.run_stages(warm, "extract")
        assert not warm.computed
        assert set(cold.table.matrices) == set(harness.FAMILIES)
        for fam, matrix in cold.table.matrices.items():
            loaded = warm.table.matrices[fam]
            assert loaded.dtype == matrix.dtype
            np.testing.assert_array_equal(loaded, matrix)
        # indicators in one byte, signed hashed counts in a signed integer
        # type, the byte histogram's frequencies in float64
        dtypes = {fam: m.dtype.str for fam, m in cold.table.matrices.items()}
        assert dtypes["api_topk"] == dtypes["strings_topk"] == "|u1"
        assert dtypes["api_hashed"] in ("|i1", "<i2")
        assert dtypes["strings_hashed"] in ("|i1", "<i2")
        assert dtypes["byte"] == "<f8"

    def test_gan_checkpoint_without_preset_is_retrained(self, tmp_path,
                                                        monkeypatch):
        cfg = tiny_config(attacks=("gan_api",)).to_dict()
        cfg["gans"] = {"api": {"max_steps": 3}}
        config_file = tmp_path / "cfg.json"
        config_file.write_text(json.dumps(cfg))

        def no_preset(path):
            meta, arrays = ckpt.load_container(path)
            del meta["preset"]
            ckpt.save_container(path, meta, arrays)
        done = self.damaged_artifact_is_recomputed(
            monkeypatch, tmp_path / "w", config_file, "models/gan_api.gevd",
            no_preset)
        assert done["gans"] == ["api"] and done["detectors"] == []

    def test_deleted_corpus_file_is_regenerated(self, tmp_path, monkeypatch,
                                                 tiny_config_file):
        done = self.damaged_artifact_is_recomputed(
            monkeypatch, tmp_path / "w", tiny_config_file,
            "corpus/benign_00002.exe", lambda path: path.unlink())
        assert done["extract"] == 0
        assert done["detectors"] == [] and done["gans"] == []

    def test_truncated_vocabulary_is_recomputed(self, tmp_path, monkeypatch,
                                                tiny_config_file):
        done = self.damaged_artifact_is_recomputed(
            monkeypatch, tmp_path / "w", tiny_config_file,
            "features/api_topk.gevf",
            lambda path: path.write_bytes(path.read_bytes()[:-5]))
        assert done["detectors"] == [] and done["gans"] == []

    @pytest.mark.parametrize("vocab", [
        lambda entries: entries[:1] * len(entries),     # an entry repeats
        lambda entries: entries[:-1],                   # one column unnamed
        lambda entries: [*entries, "extra!token"],      # one name too many
        lambda entries: None])      # the layout of a separate vocabulary file
    def test_topk_matrix_with_a_bad_vocabulary_is_recomputed(
            self, tmp_path, monkeypatch, tiny_config_file, vocab):
        def damage(path):
            meta, arrays = ckpt.load_container(path)
            meta["vocab"] = vocab(meta["vocab"])
            if meta["vocab"] is None:
                del meta["vocab"]
            ckpt.save_container(path, meta, arrays)
        done = self.damaged_artifact_is_recomputed(
            monkeypatch, tmp_path / "w", tiny_config_file,
            "features/strings_topk.gevf", damage)
        assert done["extract"] > 0
        assert done["detectors"] == [] and done["gans"] == []

    def test_state_records_each_computed_artifact(self, tmp_path,
                                                  tiny_config_file):
        cfg = harness.load_config(tiny_config_file)
        cold = PipelineState(cfg=cfg, workdir=tmp_path / "w")
        harness.run_stages(cold, "train-gan")
        assert cold.computed == {
            ("corpus", "synthetic"),
            *(("features", fam) for fam in harness.FAMILIES),
            *(("detector", spec.name) for spec in cfg.detectors),
            ("gan", "byte_histogram")}
        warm = PipelineState(cfg=cfg, workdir=tmp_path / "w")
        harness.run_stages(warm, "train-gan")
        assert warm.computed == set()

    @staticmethod
    def byte_only_config():
        return dataclasses.replace(
            tiny_config(attacks=("gan_byte",)),
            detectors=[harness.DetectorSpec("byte_logreg", "logreg", ("byte",))])

    def test_byte_only_extract_parses_nothing(self, tmp_path, monkeypatch):
        state = PipelineState(cfg=self.byte_only_config(),
                              workdir=tmp_path / "w")
        harness.run_stages(state, "corpus")

        def refuse(*args, **kwargs):
            raise AssertionError("a byte-only extract read more than bytes")
        monkeypatch.setattr(features, "extract_strings", refuse)
        monkeypatch.setattr(petk, "parse", refuse)
        harness.run_stages(state, "extract")
        assert [p.name for p in (tmp_path / "w" / "features").iterdir()] \
            == ["byte.gevf"]

    def test_added_family_is_computed_alone(self, tmp_path, monkeypatch):
        first = self.byte_only_config()
        run_pipeline(first, tmp_path / "w")
        second = dataclasses.replace(first, detectors=[
            *first.detectors,
            harness.DetectorSpec("api_hashed_logreg", "logreg", ("api_hashed",))])
        cold = run_pipeline(second, tmp_path / "cold")
        done = self.record_training(monkeypatch, tmp_path / "w")
        saved = []
        save_matrix = features.save_matrix

        def recording_save_matrix(path, value, key=""):
            saved.append(Path(path).name)
            save_matrix(path, value, key)
        monkeypatch.setattr(features, "save_matrix", recording_save_matrix)
        warm = run_pipeline(second, tmp_path / "w")
        assert saved == ["api_hashed.gevf"]
        assert done["extract"] == 2 * second.corpus.n_per_class
        assert done["detectors"] == [("logreg", 64)] and done["gans"] == []
        assert report_without_runtime(warm) == report_without_runtime(cold)

    def test_cli_attack_after_train_gan_trains_nothing(self, tmp_path,
                                                       monkeypatch,
                                                       tiny_config_file):
        common = ["--config", str(tiny_config_file),
                  "--workdir", str(tmp_path / "w")]
        assert cli.main(["train-gan", *common]) == 0
        self.record_training(monkeypatch, tmp_path / "w", fail=True)
        assert cli.main(["attack", *common]) == 0

    def test_cli_attack_says_rewritten_then_loaded(self, tmp_path, capsys,
                                                   tiny_config_file):
        argv = ["attack", "--attack", "gan_byte",
                "--config", str(tiny_config_file),
                "--workdir", str(tmp_path / "w")]
        assert cli.main(argv) == 0
        assert "attack gan_byte: 1 files rewritten" in capsys.readouterr().out
        assert cli.main(argv) == 0
        assert "attack gan_byte: 1 files loaded" in capsys.readouterr().out

    def test_cli_says_loaded_when_nothing_was_trained(self, tmp_path, capsys,
                                                      tiny_config_file):
        argv = ["train-gan", "--kind", "byte_histogram",
                "--config", str(tiny_config_file),
                "--workdir", str(tmp_path / "w")]
        assert cli.main(argv) == 0
        assert "trained byte_histogram model" in capsys.readouterr().out
        assert cli.main(argv) == 0
        assert "loaded byte_histogram model" in capsys.readouterr().out

    def test_edited_dirs_corpus_file_ingested_again(self, tmp_path):
        dirs = {}
        for label, seed in (("benign", 1), ("malicious", 2)):
            dirs[label] = tmp_path / label
            dirs[label].mkdir()
            (dirs[label] / "a.exe").write_bytes(petk.synth_pe(petk.SynthSpec(
                sections=[petk.SectionSpec(".t", size=100)]), seed=seed))
        cfg = tiny_config()
        cfg.corpus = CorpusConfig(kind="dirs", benign_dir=str(dirs["benign"]),
                                  malicious_dir=str(dirs["malicious"]))
        harness.run_stages(PipelineState(cfg=cfg, workdir=tmp_path / "w"),
                           "corpus")
        edited = petk.synth_pe(petk.SynthSpec(
            sections=[petk.SectionSpec(".t", size=100)]), seed=3)
        (dirs["benign"] / "a.exe").write_bytes(edited)
        state = PipelineState(cfg=cfg, workdir=tmp_path / "w")
        harness.run_stages(state, "corpus")
        assert ("corpus", "dirs") in state.computed
        assert state.blobs["benign_00000.exe"] == edited
        # read in place: the corpus directory holds the manifest alone
        assert [p.name for p in (tmp_path / "w" / "corpus").iterdir()] \
            == ["manifest.json"]

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
        assert len(state.blobs) == 8
        fresh = PipelineState(cfg=bigger, workdir=tmp_path / "fresh")
        harness.run_stages(fresh, "corpus")
        assert state.manifest == fresh.manifest
        assert state.blobs == fresh.blobs

    @pytest.mark.parametrize("constant", ["BYTE_ALPHA", "API_POOLS",
                                          "STRING_POOLS"])
    def test_corpus_regenerated_when_its_distributions_change(
            self, tmp_path, monkeypatch, constant):
        cfg = tiny_config()
        harness.run_stages(PipelineState(cfg=cfg, workdir=tmp_path / "w"),
                           "corpus")
        value = getattr(harness, constant)
        if constant == "BYTE_ALPHA":
            changed = {**value, "benign": value["malicious"]}
        else:
            changed = (value[1], value[0], *value[2:])
        monkeypatch.setattr(harness, constant, changed)
        state = PipelineState(cfg=cfg, workdir=tmp_path / "w")
        harness.run_stages(state, "corpus")
        assert state.computed == {("corpus", "synthetic")}
        fresh = PipelineState(cfg=cfg, workdir=tmp_path / "fresh")
        harness.run_stages(fresh, "corpus")
        assert state.manifest == fresh.manifest

    def test_attack_outputs_replace_an_earlier_run(self, tmp_path):
        # 4 test files per class at the first split, 1 at the second
        cfg = tiny_config(attacks=("gan_byte",))
        run_pipeline(dataclasses.replace(cfg, split=(0.5, 0.1, 0.4)),
                     tmp_path / "w")
        run_pipeline(cfg, tmp_path / "w")
        attack_dir = tmp_path / "w" / "attacks" / "gan_byte"
        listed = json.loads((attack_dir / "manifest.json").read_text())["files"]
        assert sorted(p.name for p in attack_dir.glob("*.exe")) \
            == sorted(rec["name"] for rec in listed)


ALL_ATTACKS = tuple(harness.ATTACKS)


@pytest.fixture(scope="module")
def trained_for_every_attack(tmp_path_factory):
    """A state run up to train-gan for every attack of ``ATTACKS``."""
    state = PipelineState(cfg=tiny_config(attacks=ALL_ATTACKS),
                          workdir=tmp_path_factory.mktemp("every_attack"))
    harness.run_stages(state, "train-gan")
    return state


class ReadRecorder:
    """``cfg`` whose every attribute read adds the attribute's name to
    ``read``."""

    def __init__(self, cfg, read: set):
        self.__dict__.update(cfg=cfg, read=read)

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self.cfg, name)


def undeclared_reads(state, attack: str, directory: Path) -> set:
    """The config fields ``attack`` reads, run on ``state``, that its key
    slice (its ``fields`` and ``seed``) leaves out."""
    read = set()
    recorded = dataclasses.replace(state, cfg=ReadRecorder(state.cfg, read))
    harness.run_attack(recorded, harness.ATTACKS[attack],
                       harness.AttackOutput(harness.FileSet(directory)))
    return read - set(harness.ATTACKS[attack].fields) - {"seed"}


class TestAttackResume:
    """Each attack's outputs resume under the key of the config fields it
    reads, and each attack's detection rates under that key and the
    detectors' keys."""

    @pytest.mark.parametrize("attack", ALL_ATTACKS)
    def test_key_slice_holds_every_field_read(self, trained_for_every_attack,
                                              tmp_path, attack):
        assert undeclared_reads(trained_for_every_attack, attack,
                                tmp_path) == set()

    @pytest.mark.parametrize("attack,name", [
        (attack, name) for attack in ALL_ATTACKS
        for name in harness.ATTACKS[attack].fields])
    def test_a_field_left_out_of_a_slice_is_found(
            self, trained_for_every_attack, tmp_path, monkeypatch, attack,
            name):
        # so no declared field is one the attack does not read either
        spec = harness.ATTACKS[attack]
        monkeypatch.setitem(harness.ATTACKS, attack, spec._replace(
            fields=tuple(f for f in spec.fields if f != name)))
        assert undeclared_reads(trained_for_every_attack, attack,
                                tmp_path) == {name}

    def test_sweep_key_holds_every_field_read(self, trained_for_every_attack):
        read = set()
        state = trained_for_every_attack
        recorded = dataclasses.replace(state, cfg=ReadRecorder(state.cfg, read))
        harness._gap_sweep(recorded, harness._rows(state, "test", "malicious"))
        # "detectors" picks the primary byte detector, whose key is in the
        # sweep's
        assert read <= {"gap_sweep", "sweep_subsample", "seed", "detectors"}

    def test_fully_resumed_gan_byte_run_plans_no_padding(self, tmp_path,
                                                         monkeypatch):
        cfg = tiny_config(attacks=("gan_byte",))
        cold = run_pipeline(cfg, tmp_path / "w")

        def refuse(req):
            raise AssertionError("padding planned on a resumed run")
        monkeypatch.setattr(padopt, "plan_for", refuse)
        state = PipelineState(cfg=cfg, workdir=tmp_path / "w")
        harness.run_stages(state)
        assert not state.computed
        warm = run_pipeline(cfg, tmp_path / "w")
        assert report_without_runtime(warm) == report_without_runtime(cold)
        assert warm["gap_sweep"]

    @pytest.mark.parametrize("field,value,computed", [
        ("gap_sweep", (0.005,), {"gap_sweep"}),
        ("sweep_subsample", 2, {"gap_sweep"}),
        # the attack reads gap, the sweep does not
        ("gap", 0.002, {"attack", "rates"})])
    def test_sweep_recomputed_when_a_field_it_reads_changes(
            self, tmp_path, field, value, computed):
        cfg = tiny_config(attacks=("gan_byte",))
        run_pipeline(cfg, tmp_path / "w")
        changed = dataclasses.replace(cfg, **{field: value})
        state = PipelineState(cfg=changed, workdir=tmp_path / "w")
        evaluation = harness.run_stages(state)
        assert state.computed == {(kind, "gan_byte") for kind in computed}
        cold = run_pipeline(changed, tmp_path / "cold")
        assert evaluation == {k: cold[k] for k in evaluation}

    @staticmethod
    def attack_files(workdir: Path) -> dict:
        return {path: (path.stat().st_ino, path.stat().st_mtime_ns)
                for path in (workdir / "attacks").rglob("*") if path.is_file()}

    def test_changed_field_reruns_only_the_attacks_that_read_it(self,
                                                                tmp_path):
        cfg = tiny_config(attacks=ALL_ATTACKS)
        run_pipeline(cfg, tmp_path / "w")
        before = self.attack_files(tmp_path / "w")
        changed = dataclasses.replace(cfg, max_new_imports=1)
        state = PipelineState(cfg=changed, workdir=tmp_path / "w")
        evaluation = harness.run_stages(state)
        rerun = {"gan_api", "gan_all"}
        assert state.computed == {(kind, attack) for attack in rerun
                                  for kind in ("attack", "rates")}
        after = self.attack_files(tmp_path / "w")
        kept = {path for path in before if path.parent.name not in rerun}
        assert {path: after[path] for path in kept} == \
            {path: before[path] for path in kept}
        cold = run_pipeline(changed, tmp_path / "cold")
        assert evaluation == {k: cold[k] for k in evaluation}

    def test_malgan_resumes_across_a_gan_change(self, tmp_path):
        # MalGAN trains its own generator: a GAN setting retrains that GAN
        # and re-runs its attack, but spends no MalGAN query again
        cfg = tiny_config(attacks=("gan_api", "malgan_byte"))
        run_pipeline(cfg, tmp_path / "w")
        gans = dict(cfg.gans, api=gan.TrainingConfig(max_steps=11))
        changed = dataclasses.replace(cfg, gans=gans)
        state = PipelineState(cfg=changed, workdir=tmp_path / "w")
        evaluation = harness.run_stages(state)
        assert state.computed == {("gan", "api"), ("attack", "gan_api"),
                                  ("rates", "gan_api")}
        cold = run_pipeline(changed, tmp_path / "cold")
        assert evaluation == {k: cold[k] for k in evaluation}

    def test_changed_detector_rescores_every_attack(self, tmp_path):
        cfg = tiny_config(attacks=ALL_ATTACKS)
        run_pipeline(cfg, tmp_path / "w")
        detectors = [dataclasses.replace(spec, hyperparams={"steps": 20})
                     if spec.name == "api_topk_logreg" else spec
                     for spec in cfg.detectors]
        changed = dataclasses.replace(cfg, detectors=detectors)
        state = PipelineState(cfg=changed, workdir=tmp_path / "w")
        evaluation = harness.run_stages(state)
        # MalGAN reads the detector list; the other attacks load
        assert state.computed == {
            ("detector", "api_topk_logreg"), ("attack", "malgan_byte"),
            *(("rates", attack) for attack in ALL_ATTACKS)}
        cold = run_pipeline(changed, tmp_path / "cold")
        assert evaluation == {k: cold[k] for k in evaluation}

    def test_output_edited_in_place_is_recomputed(self, tmp_path):
        cfg = tiny_config(attacks=("gan_api", "gan_strings"))
        cold = run_pipeline(cfg, tmp_path / "w")
        path = next((tmp_path / "w" / "attacks" / "gan_strings").glob("*.exe"))
        intact = path.read_bytes()
        data = bytearray(intact)
        data[200:208] = bytes(255 - b for b in data[200:208])
        path.write_bytes(data)
        state = PipelineState(cfg=cfg, workdir=tmp_path / "w")
        evaluation = harness.run_stages(state)
        assert state.computed == {("attack", "gan_strings"),
                                  ("rates", "gan_strings")}
        assert path.read_bytes() == intact
        assert evaluation == {k: cold[k] for k in evaluation}

    @pytest.mark.parametrize("damage", [
        lambda path: path.unlink(),
        lambda path: path.write_text("{}"),
        lambda path: path.write_text(path.read_text().replace(
            '"key": "', '"key": "0'))])
    def test_damaged_manifest_is_recomputed(self, tmp_path, damage):
        cfg = tiny_config(attacks=("gan_byte",))
        cold = run_pipeline(cfg, tmp_path / "w")
        for name in ("manifest.json", "rates.json"):
            damage(tmp_path / "w" / "attacks" / "gan_byte" / name)
            state = PipelineState(cfg=cfg, workdir=tmp_path / "w")
            evaluation = harness.run_stages(state)
            assert state.computed >= {("rates", "gan_byte")}
            assert (("attack", "gan_byte") in state.computed) \
                == (name == "manifest.json")
            assert evaluation == {k: cold[k] for k in evaluation}

    def test_attack_failed_halfway_leaves_no_manifest(self, tmp_path,
                                                       monkeypatch):
        # 4 test files per class: the second rewrite fails
        cfg = dataclasses.replace(tiny_config(attacks=("gan_api",)),
                                  split=(0.5, 0.1, 0.4))
        run_pipeline(cfg, tmp_path / "w")
        extend_imports = petk.extend_imports
        calls = []

        def second_fails(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise petk.PeEditError("refused")
            return extend_imports(*args, **kwargs)
        monkeypatch.setattr(petk, "extend_imports", second_fails)
        changed = dataclasses.replace(cfg, max_new_imports=1)
        with pytest.raises(StageError):
            run_pipeline(changed, tmp_path / "w")
        attack_dir = tmp_path / "w" / "attacks" / "gan_api"
        # the first file written, and no manifest
        assert [p.suffix for p in attack_dir.iterdir()] == [".exe"]
        monkeypatch.undo()
        state = PipelineState(cfg=cfg, workdir=tmp_path / "w")
        harness.run_stages(state, "attack")
        assert ("attack", "gan_api") in state.computed


@pytest.fixture(scope="module")
def gan_all_run(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("gan_all")
    cfg = tiny_config(attacks=("gan_api", "gan_strings", "gan_byte", "gan_all"))
    return workdir, run_pipeline(cfg, workdir)


class TestGanAll:
    """gan_all stacks the API, the string and the byte rewrite on each file."""

    def test_rewritten_files(self, gan_all_run):
        from ganevade.features import extract_imports, extract_strings
        workdir, _ = gan_all_run
        files = sorted((workdir / "attacks" / "gan_all").glob("*.exe"))
        assert files
        for path in files:
            data = path.read_bytes()
            pe = petk.parse(data, strict=True)
            api_only = (workdir / "attacks" / "gan_api" / path.name).read_bytes()
            assert extract_imports(pe) >= extract_imports(petk.parse(api_only))
            sdat2 = [s for s in pe.sections if s.name == ".sdat2"]
            assert len(sdat2) == 1
            raw = data[sdat2[0].raw_offset:sdat2[0].raw_end]
            tokens = {t.decode("latin-1") for t in raw.split(b"\x00") if t}
            assert tokens <= set(extract_strings(data, 5))

    def test_certificates_are_the_byte_steps(self, gan_all_run):
        workdir, _ = gan_all_run
        for attack in ("gan_all", "gan_byte"):
            manifest = json.loads(
                (workdir / "attacks" / attack / "manifest.json").read_text())
            for rec in manifest["files"]:
                assert rec["certificate"]["total"] == rec["size"]
                assert (workdir / "attacks" / attack / rec["name"]).stat() \
                    .st_size == rec["size"]

    def test_stats_keys(self, gan_all_run):
        _, report = gan_all_run
        assert set(report["attack_stats"]["gan_all"]) == {
            "mean_size_mb", "capacity_warnings", "mean_new_imports",
            "mean_new_strings", "mean_appended_bytes"}
        assert report["query_counts"]["gan_all"] == 0


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
            harness._certified_plan(blob, target, 0.0)

    def test_uncertified_plan_fails_the_attack(self, tmp_path, monkeypatch):
        # two counts moved between bins put an exact-mode plan past its
        # certified bound: the stage fails rather than write the file
        plan_for = padopt.plan_for

        def two_counts_moved(req):
            plan = plan_for(req)
            p = plan.p.copy()
            i = int(np.argmax(p))
            p[i] -= 2
            p[(i + 1) % len(p)] += 2
            return dataclasses.replace(plan, p=p)

        monkeypatch.setattr(padopt, "plan_for", two_counts_moved)
        cfg = dataclasses.replace(tiny_config(attacks=("gan_byte",)), gap=0.0)
        with pytest.raises(StageError, match="InfeasiblePaddingError"):
            run_pipeline(cfg, tmp_path)
        assert not (tmp_path / "attacks").exists()


class TestCapacityCap:
    def test_cap_zero_warns_and_truncates(self, tmp_path):
        # 4 test files per class
        cfg = dataclasses.replace(tiny_config(attacks=("gan_api",)),
                                  split=(0.5, 0.1, 0.4), max_new_imports=0)
        state = PipelineState(cfg=cfg, workdir=tmp_path)
        harness.run_stages(state, "extract")
        vocab = state.table.vocabs["api_topk"]
        state.gan_models["api"] = gan.build_gan(
            pipeline_preset("api", len(vocab)), seed=0)
        names = [state.table.names[i]
                 for i in harness._rows(state, "test", "malicious")]
        out = harness.AttackOutput(harness.FileSet(tmp_path / "out"))
        harness.run_attack(state, harness.ATTACKS["gan_api"], out)
        assert out.warnings
        assert list(out.files) == names
        assert out.stats == {"mean_new_imports": 0.0}
        from ganevade.features import extract_imports
        for name, data in zip(names, out.files.files(names)):
            before = extract_imports(petk.parse(state.blobs[name]))
            assert extract_imports(petk.parse(data)) == before


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

    @pytest.mark.parametrize("bad", [
        {"gans": {"byte_histogram": {"lambda_gp": 0}}},
        {"gans": {"api": {"batch_size": 0}}},
        {"feature_cfg": {"hash_dim": 0}},
        {"detectors": [{"name": "d", "kind": "svm", "families": ["byte"]}]},
        {"corpus": {"n_per_class": 3, "content_size": [400]}},
        {"corpus": {"n_per_class": 3, "content_size": [800, 400]}},
        {"corpus": {"n_per_class": 3, "content_size": [0, 400]}},
        *({"detectors": [{"name": "d", "kind": "mlp", "families": ["byte"],
                          "hyperparams": hp}]}
          for hp in ({"steps": "many"}, {"hidden": 0}, {"steps": -3},
                     {"lr": -1})),
        {"attacks": ["gan_byte"],
         "detectors": [{"name": "d", "families": ["byte", "api_hashed"]}]},
        {"corpus": {"kind": "dirs"}},
        {"corpus": {"kind": "zip"}},
        {"corpus": {"n_per_class": 2}},
        {"gans": {"byte_histogram": {"max_steps": 20.5}}},
        {"gans": {"byte_histogram": {"batch_size": 8.0}}},
        {"gans": {"byte_histogram": {"n_generator": 2.5}}},
        {"gans": {"byte_histogram": {"max_steps": True}}},
        {"detectors": {"x": 1}},
        {"gans": [1]},
        {"seed": 1.5},
        {"seed": "x"},
        {"corpus": {"n_per_class": 10.5}},
        {"feature_cfg": {"k_api": 1.5}},
        {"max_new_imports": 2.5},
        {"malgan_max_queries": "x"},
        {"sweep_seed": 1.5},
        {"sweep_subsample": 2.5},
        {"feature_cfg": {"min_string_len": 4.5}},
        {"corpus": {"byte_alpha_benign": [-1.0] * 256}},
        {"corpus": {"byte_alpha_benign": [1.0]}},
        {"seed": -1},
        {"sweep_seed": True},
        {"split": [1.0]},
        {"gans": {"api": 1}},
        {"detectors": [1]},
        {"attacks": {"gan_byte": 1}},
        {"gap_sweep": 0.01},
        [1],
        {"detectors": [{"name": "../../escaped", "families": ["byte"]}],
         "attacks": ["gan_byte"]},
        {"detectors": [{"name": 5, "families": ["byte"]}]},
        {"corpus": {"n_per_class": 10, "content_size": [400, 800],
                    "api_pools": 1}},
        {"corpus": {"kind": "dirs", "benign_dir": 5, "malicious_dir": 6}},
        {"corpus": {"kind": "dirs", "benign_dir": "no-such-benign-dir",
                    "malicious_dir": "no-such-malicious-dir"}},
        {"feature_cfg": {"min_string_len": 10**10}},
        {"gap_sweep": {}},
        {"detectors": [{"name": "d", "families": {"byte": 1}}]},
    ])
    def test_setting_error_exit_2_writes_nothing(self, tmp_path, bad):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(bad))
        rc = cli.main(["pipeline", "--config", str(p),
                       "--workdir", str(tmp_path / "w")])
        assert rc == 2
        assert not (tmp_path / "w").exists()

    @pytest.mark.parametrize("name,old", [
        ("sweep_seed", {"sweep_seed": 8}),
        *((name, {"corpus": {name: value}}) for name, value in (
            ("byte_alpha_benign", [1.0] * 256),
            ("byte_alpha_malicious", [1.0] * 256),
            ("api_pools", {}), ("string_pools", {}))),
        *((name, {"gans": {"api": {name: [16]}}})
          for name in ("generator_hidden", "critic_hidden")),
        # the WGAN-GP recipe, the string floor and the logreg's step are
        # constants, each refused at the value it had
        *((name, {"gans": {"api": {"max_steps": 3, name: value}}})
          for name, value in (("batch_size", 64), ("lambda_gp", 10.0),
                              ("n_generator", 5), ("learning_rate", 1e-4))),
        ("min_string_len", {"feature_cfg": {"min_string_len": 5}}),
        *((name, {"detectors": [{"name": "d", "hyperparams": {name: value}}]})
          for name, value in (("lr", 0.5), ("l2", 1e-4)))])
    def test_removed_field_exits_2_and_is_named(self, tmp_path, capsys, name,
                                                old):
        p = tmp_path / "old.json"
        p.write_text(json.dumps(old))
        rc = cli.main(["pipeline", "--config", str(p),
                       "--workdir", str(tmp_path / "w")])
        assert rc == 2
        assert not (tmp_path / "w").exists()
        assert repr(name) in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["pipeline", "extract", "attack"])
    def test_invalid_config_writes_nothing(self, tmp_path, command):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"gap": 1.5}))
        rc = cli.main([command, "--config", str(p),
                       "--workdir", str(tmp_path / "w")])
        assert rc == 2
        assert not (tmp_path / "w").exists()

    @pytest.mark.parametrize("argv,summary", [
        (["extract"], "extracted 20 files: byte, api_topk (vocab 40), "
                      "api_hashed, strings_topk (vocab 40), strings_hashed"),
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

    def test_train_detector_name_trains_that_detector_alone(
            self, tmp_path, tiny_config_file, capsys):
        # the tiny config's byte attacks need a byte-only detector, which
        # this roster lacks: the command narrows it past that rule
        workdir = tmp_path / "w"
        assert cli.main(["train-detector", "--name", "api_topk_logreg",
                         "--config", str(tiny_config_file),
                         "--workdir", str(workdir)]) == 0
        assert capsys.readouterr().out == "trained detector api_topk_logreg\n"
        assert [p.name for p in (workdir / "models").iterdir()] == [
            "detector_api_topk_logreg.gevd"]

    def test_train_gan_kind_trains_that_gan_alone(self, tmp_path, capsys):
        # gan_byte, the attack the command runs the stages for, needs a
        # byte-only detector, and the config's one detector is not
        cfg = tiny_config(attacks=("gan_api",)).to_dict()
        cfg.update(detectors=[{"name": "mm", "families": ["byte", "api_hashed"]}],
                   gans={"byte_histogram": {"max_steps": 3}})
        path, workdir = tmp_path / "cfg.json", tmp_path / "w"
        path.write_text(json.dumps(cfg))
        assert cli.main(["train-gan", "--kind", "byte_histogram",
                         "--config", str(path), "--workdir", str(workdir)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 1 and out[0].startswith(
            "trained byte_histogram model: {'steps': 3,")
        assert sorted(p.name for p in (workdir / "models").glob("gan_*")) == [
            "gan_byte_histogram.gevd", "gan_byte_histogram_metrics.csv"]

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

    @pytest.mark.parametrize("stored, out", [
        ("not json", None), ("[1, 2]", None), ("[]", None),
        ('{"original_rates": {"d": 0.5}}', "missing/report.md")])
    @pytest.mark.parametrize("fmt", ["json", "csv", "markdown"])
    def test_unreadable_report_or_out_exit_3(self, tmp_path, capsys, stored,
                                             out, fmt):
        # a report that is not a JSON object, or an --out that cannot be
        # written, fails the command as a stage does, naming the path
        path = tmp_path / "w" / "report.json"
        path.parent.mkdir()
        path.write_text(stored)
        args = ["report", "--workdir", str(path.parent), "--format", fmt]
        if out is not None:
            args += ["--out", str(tmp_path / out)]
        assert cli.main(args) == 3
        err = capsys.readouterr().err
        assert f"stage 'report' failed: {path}: " in err
        if out is not None:
            assert "FileNotFoundError" in err and str(tmp_path / out) in err

    def test_gen_corpus_exit_0(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        # a split that leaves each of the 2 files per class a part
        p.write_text(json.dumps({"corpus": {"n_per_class": 2,
                                            "content_size": [200, 300]},
                                 "split": [0.5, 0.0, 0.5]}))
        rc = cli.main(["gen-corpus", "--config", str(p),
                       "--workdir", str(tmp_path / "w")])
        assert rc == 0
        assert (tmp_path / "w" / "corpus" / "manifest.json").exists()
        assert "4 files" in capsys.readouterr().out

    def test_seed_override_is_checked(self, tmp_path, tiny_config_file):
        rc = cli.main(["pipeline", "--seed", "-1", "--config",
                       str(tiny_config_file), "--workdir", str(tmp_path / "w")])
        assert rc == 2
        assert not (tmp_path / "w").exists()

    def test_seed_override_changes_hash(self, tmp_path):
        cfg = tiny_config()
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg.to_dict()))

        class Args:
            config = str(p)
            seed = 1234

        loaded = cli._load_cfg(Args)
        assert loaded.seed == 1234


def test_full_run_config_is_the_old_scripts_default():
    # scripts/full_run.json replaced a script whose default path built this
    path = Path(__file__).resolve().parent.parent / "scripts" / "full_run.json"
    old_default = ExperimentConfig(
        corpus=CorpusConfig(n_per_class=500),
        gans={"byte_histogram": gan.TrainingConfig(max_steps=3000),
              "api": gan.TrainingConfig(max_steps=300),
              "strings": gan.TrainingConfig(max_steps=300)},
        seed=0)
    assert harness.load_config(path).config_hash() == old_default.config_hash()


def test_gap_sweep_config_is_the_old_scripts_default():
    # scripts/gap_sweep.json replaced a script whose default run built this
    path = Path(__file__).resolve().parent.parent / "scripts" / "gap_sweep.json"
    old_default = ExperimentConfig(
        corpus=CorpusConfig(n_per_class=300),
        gans={"byte_histogram": gan.TrainingConfig(max_steps=3000)},
        detectors=[harness.DetectorSpec("byte_logreg", "logreg", ("byte",))],
        attacks=["gan_byte"],
        gap_sweep=harness.DEFAULT_GAP_SWEEP,
        seed=0)
    assert harness.load_config(path).config_hash() == old_default.config_hash()
