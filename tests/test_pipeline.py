import json
import subprocess
import sys

import pytest

from nof.cli import main
from nof.errors import ConfigError, MissingInputError
from nof.pipeline import (
    STAGES,
    artifact_checksums,
    artifact_paths,
    load_config,
    run_pipeline,
    run_stage,
)


def small_overrides(out):
    return {
        "out": str(out),
        "seed": 5,
        "synth": {"n_trials": 24},
        "decompose": {"n_components": 2},
        "cluster": {"k": 2},
    }


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    config = load_config(overrides=small_overrides(out))
    entries = run_pipeline(config)
    return out, config, entries


class TestConfig:
    def test_defaults_load(self):
        config = load_config()
        assert config["seed"] == 0
        assert config["mine"]["beta_sup"] == 0.2

    def test_file_overlays_defaults(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"seed": 9, "mine": {"beta_sup": 0.4}}))
        config = load_config(path)
        assert config["seed"] == 9
        assert config["mine"]["beta_sup"] == 0.4
        assert config["mine"]["beta_conf"] == 0.8  # untouched default

    def test_overrides_beat_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"seed": 9, "out": "from_file"}))
        config = load_config(path, overrides={"out": "from_flag"})
        assert config["out"] == "from_flag"
        assert config["seed"] == 9

    def test_unknown_top_level_key_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"nope": 1}))
        with pytest.raises(ConfigError, match="nope"):
            load_config(path)

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(MissingInputError):
            load_config(tmp_path / "absent.json")

    def test_non_dict_section_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"mine": 3}))
        with pytest.raises(ConfigError, match="object"):
            load_config(path)

    def test_unknown_section_key_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"mine": {"bogus": 1}}))
        with pytest.raises(ConfigError, match="bogus"):
            load_config(path)

    def test_config_round_trips_through_json(self, tmp_path):
        config = load_config(overrides=small_overrides(tmp_path))
        path = tmp_path / "dump.json"
        path.write_text(json.dumps(config, sort_keys=True))
        again = load_config(path)
        assert again == config


class TestStages:
    def test_pipeline_manifest_lists_all_stages(self, finished_run):
        out, _, entries = finished_run
        assert [e["stage"] for e in entries] == list(STAGES)
        manifest = json.loads((out / "run.json").read_text())
        assert [s["stage"] for s in manifest["stages"]] == list(STAGES)
        for s in manifest["stages"]:
            assert s["outputs"], f"stage {s['stage']} recorded no outputs"
            for digest in s["outputs"].values():
                assert len(digest) == 64
            assert s["wall_time_s"] >= 0
            if s["stage"] != "synth":
                assert s["inputs"], f"stage {s['stage']} recorded no inputs"

    def test_all_artifacts_exist(self, finished_run):
        out, _, _ = finished_run
        paths = artifact_paths(out)
        for key in ("montage", "epochs_meta", "epochs_data", "decomposition",
                    "summary", "summary_clustered", "cluster_model", "taxonomy",
                    "classes", "tree", "class_rules_txt", "mined_rules",
                    "report_json", "report_txt"):
            assert paths[key].exists(), key

    def test_partition_without_mined_rules_is_missing_input(self, tmp_path):
        config = load_config(overrides={"out": str(tmp_path / "fresh")})
        with pytest.raises(MissingInputError, match="mined_rules.csv"):
            run_stage("partition", config)

    def test_unknown_stage_rejected(self, tmp_path):
        config = load_config(overrides={"out": str(tmp_path)})
        with pytest.raises(ConfigError):
            run_stage("transmogrify", config)

    def test_pipeline_errors_carry_stage_name(self, tmp_path):
        overrides = small_overrides(tmp_path / "prefixed")
        overrides["decompose"] = {"n_components": 40}
        with pytest.raises(Exception, match="^decompose:"):
            run_pipeline(load_config(overrides=overrides))

    def test_rerun_is_byte_identical(self, tmp_path, finished_run):
        out_a, config_a, _ = finished_run
        out_b = tmp_path / "again"
        config_b = load_config(overrides={**small_overrides(out_b)})
        run_pipeline(config_b)
        sums_a = artifact_checksums(out_a)
        sums_b = artifact_checksums(out_b)
        assert sums_a == sums_b
        assert len(sums_a) >= 14

    def test_stage_isolation_reproduces_downstream(self, finished_run):
        out, config, _ = finished_run
        before = artifact_checksums(out)
        paths = artifact_paths(out)
        for key in ("summary", "summary_clustered", "cluster_model", "taxonomy",
                    "classes", "tree", "class_rules_json", "class_rules_txt",
                    "mined_rules", "report_json", "report_txt"):
            paths[key].unlink()
        for stage in ("extract", "cluster", "classify", "mine", "partition"):
            run_stage(stage, config)
        assert artifact_checksums(out) == before

    def test_extract_rejects_epochs_resynthesized_after_decompose(self, tmp_path):
        overrides = small_overrides(tmp_path / "resynth")
        run_stage("synth", load_config(overrides=overrides))
        run_stage("decompose", load_config(overrides=overrides))
        overrides["synth"] = {"n_trials": 30}
        config = load_config(overrides=overrides)
        run_stage("synth", config)
        with pytest.raises(ConfigError, match="epoch tensor shape"):
            run_stage("extract", config)

    def test_bic_and_agglomerative_config_branch(self, tmp_path):
        out = tmp_path / "bic_branch"
        config = load_config(overrides={
            "out": str(out), "seed": 6,
            "synth": {"n_trials": 24},
            "decompose": {"n_components": 2},
            "cluster": {"k": None, "k_max": 3,
                        "hierarchy": "agglomerative:complete",
                        "classes_leaf_count": 2},
        })
        run_pipeline(config)
        model = json.loads((out / "cluster_model.json").read_text())
        assert 1 <= model["k"] <= 3
        taxonomy = json.loads((out / "taxonomy.json").read_text())
        assert taxonomy["method"] == "agglomerative:complete"
        classes = json.loads((out / "classes.json").read_text())
        assert sum(1 for c in classes if c["parent"]) == 2

    def test_variance_threshold_components(self, tmp_path):
        out = tmp_path / "var_frac"
        config = load_config(overrides={
            "out": str(out), "seed": 6,
            "synth": {"n_trials": 24, "noise_std": 0.2},
            "decompose": {"n_components": 0.9},
        })
        run_stage("synth", config)
        run_stage("decompose", config)
        doc = json.loads((out / "decomposition.json").read_text())
        assert 1 <= len(doc["factor_ids"]) <= 32

    def test_p300_only_preset(self, tmp_path):
        out = tmp_path / "p300"
        config = load_config(overrides={
            "out": str(out), "seed": 3,
            "synth": {"preset": "p300_only", "n_trials": 20},
        })
        run_stage("synth", config)
        assert artifact_paths(out)["epochs_data"].exists()

    def test_unknown_preset_rejected(self, tmp_path):
        config = load_config(overrides={
            "out": str(tmp_path), "synth": {"preset": "mystery"},
        })
        with pytest.raises(ConfigError, match="preset"):
            run_stage("synth", config)

    def test_explicit_stage_seed_changes_decomposition(self, tmp_path, finished_run):
        out_a, _, _ = finished_run
        out_b = tmp_path / "reseeded"
        overrides = small_overrides(out_b)
        overrides["decompose"] = {"n_components": 2, "seed": 1234}
        run_pipeline(load_config(overrides=overrides))
        a = artifact_checksums(out_a)["decomposition.json"]
        b = artifact_checksums(out_b)["decomposition.json"]
        assert a != b


class TestCli:
    def test_cli_stage_and_exit_codes(self, tmp_path):
        out = tmp_path / "cli_run"
        base = ["--out", str(out), "--seed", "5",
                "--set", "synth.n_trials=24",
                "--set", "decompose.n_components=2",
                "--set", "cluster.k=2"]
        assert main(["synth", *base]) == 0
        assert main(["decompose", *base]) == 0
        # partition before mine: missing input -> 2
        assert main(["partition", *base]) == 2
        # invalid config (unknown section key) -> 3
        assert main(["synth", "--set", "synth.bogus=1", *base]) == 3
        # invalid config (bad seed type) -> 3
        assert main(["synth", "--set", "seed=abc", "--out", str(out)]) == 3
        # numerical failure (components beyond data rank) -> 4
        assert main(["decompose", *base, "--set", "decompose.n_components=40"]) == 4

    def test_cli_pipeline_runs_everything(self, tmp_path, capsys):
        out = tmp_path / "cli_pipe"
        code = main(["pipeline", "--out", str(out), "--seed", "5",
                     "--set", "synth.n_trials=24",
                     "--set", "decompose.n_components=2",
                     "--set", "cluster.k=2"])
        assert code == 0
        printed = capsys.readouterr().out
        for stage in STAGES:
            assert f"[{stage}] ok" in printed
        assert (out / "report.json").exists()

    def test_cli_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "out": str(tmp_path / "from_cfg"), "seed": 5,
            "synth": {"n_trials": 24}, "decompose": {"n_components": 2},
            "cluster": {"k": 2},
        }))
        assert main(["synth", "--config", str(cfg)]) == 0
        assert (tmp_path / "from_cfg" / "montage.csv").exists()

    def test_import_leaves_scipy_stats_unloaded(self):
        code = "import sys, nof; print('scipy.stats' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_console_script_help(self):
        proc = subprocess.run([sys.executable, "-m", "nof.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "pipeline" in proc.stdout
