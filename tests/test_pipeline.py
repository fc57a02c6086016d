import csv
import json
import os
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from nof import classification, clustering, decomposition, pipeline, rulemining, testbed
from nof.cli import main
from nof.errors import ConfigError, MissingInputError, NumericalError
from nof.pipeline import (
    DEFAULT_CONFIG,
    STAGES,
    _STAGES,
    artifact_checksums,
    artifact_paths,
    load_config,
    run_pipeline,
    run_stage,
    sha256_file,
)

from helpers import traced_peak

ROOT = Path(__file__).resolve().parents[1]
EXPERT_EXAMPLE = ROOT / "docs" / "expert.example.json"

# Stage parameters the pipeline leaves at the library's defaults
# (FastIcaConfig, EMConfig, EncodingConfig but for the categorical columns
# cluster encodes, TreeConfig, summarize_dataset,
# generate_rules, the testbed presets); none of them is a config key. Every
# stage seed derives from the top-level `seed`. The support, confidence and
# reliability gates are the expert rule base's thresholds, and classes.json
# holds the EM clusters.
NOT_CONFIG_KEYS = [
    ("synth", "seed"), ("decompose", "seed"), ("cluster", "seed"),
    ("synth", "fs"), ("synth", "t0"), ("synth", "n_timepoints"), ("synth", "jitter"),
    ("decompose", "contrast"), ("decompose", "tol"), ("decompose", "max_iter"),
    ("extract", "mean_channels"), ("extract", "group_by"),
    ("cluster", "covariance"), ("cluster", "n_restarts"), ("cluster", "tol"),
    ("cluster", "max_iter"), ("cluster", "cov_floor"), ("cluster", "pca_components"),
    ("cluster", "scale"),
    ("classify", "min_leaf"), ("classify", "max_depth"), ("classify", "prune_cf"),
    ("mine", "include_cluster"), ("mine", "single_consequent"),
    ("partition", "align_clusters"),
    ("cluster", "classes_leaf_count"), ("mine", "beta_sup"), ("mine", "beta_conf"),
    ("partition", "beta_sup"), ("partition", "beta_conf"), ("partition", "pi_min"),
]


def small_overrides(out):
    return {
        "out": str(out),
        "seed": 5,
        "synth": {"n_trials": 24},
        "decompose": {"n_components": 2},
        "cluster": {"k": 2},
    }


def write_template(path):
    """A channel,weight template CSV weighting every other channel; returns `path`."""
    path.write_text("channel,weight\n" + "".join(
        f"{c},{1.0 if i % 2 else 0.0}\n"
        for i, c in enumerate(testbed.default_montage().channels)))
    return path


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
        assert config["cluster"]["k_max"] == 6

    def test_file_overlays_defaults(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"seed": 9, "cluster": {"k_max": 4}}))
        config = load_config(path)
        assert config["seed"] == 9
        assert config["cluster"]["k_max"] == 4
        assert config["cluster"]["hierarchy"] == "divisive"  # untouched default

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

    @pytest.mark.parametrize("section,key", NOT_CONFIG_KEYS)
    def test_library_default_is_not_a_config_key(self, section, key):
        with pytest.raises(ConfigError, match=key):
            load_config(overrides={section: {key: 1}})

    def test_readme_names_only_config_keys(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        pattern = rf"\b({'|'.join(STAGES)})\.(\w+(?:/\w+)*)"
        named = {(section, key) for section, keys in re.findall(pattern, readme)
                 for key in keys.split("/")}
        assert ("partition", "expert_rules") in named
        unknown = sorted(f"{s}.{k}" for s, k in named if k not in DEFAULT_CONFIG[s])
        assert not unknown, f"README names config keys that do not exist: {unknown}"

    @pytest.mark.parametrize("overrides,key", [
        ({"seed": True}, "seed"),
    ])
    def test_seed_must_be_an_integer(self, overrides, key):
        with pytest.raises(ConfigError, match=rf"^{re.escape(key)} must be an integer"):
            load_config(overrides=overrides)

    def test_numeric_keys_accept_ints_floats_and_null_where_allowed(self):
        config = load_config(overrides={
            "synth": {"noise_std": 2},
            "decompose": {"n_components": 0.9},
            "mine": {"max_len": None},
            "cluster": {"k": None, "k_max": 3},
            "extract": {"template": {"kind": "roi", "roi": "frontal", "value": 2}},
        })
        assert config["mine"]["max_len"] is None
        assert load_config(overrides={"decompose": {"n_components": None}})

    def test_variance_fraction_lies_in_the_open_unit_interval(self):
        # 1.0 is a count of one component, not all of the variance
        assert load_config(overrides={"decompose": {"n_components": 1.0}})
        with pytest.raises(ConfigError, match=r"variance fraction in \(0, 1\), got 1\.5$"):
            load_config(overrides={"decompose": {"n_components": 1.5}})

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
        # every artifact_paths key but the epochs directory and run.json is
        # the output of exactly one stage, and a run writes those files only
        out, _, _ = finished_run
        paths = artifact_paths(out)
        outputs = [key for _, _, keys in _STAGES.values() for key in keys]
        assert sorted(outputs) == sorted(set(paths) - {"epochs", "manifest"})
        assert {p for p in out.rglob("*") if p.is_file()} \
            == {paths[key] for key in outputs} | {paths["manifest"]}

    def test_partition_without_mined_rules_is_missing_input(self, tmp_path):
        config = load_config(overrides={"out": str(tmp_path / "fresh")})
        with pytest.raises(MissingInputError, match="mined_rules.csv"):
            run_stage("partition", config)

    def test_classify_without_clustered_summary_names_cluster_stage(self, tmp_path,
                                                                      finished_run):
        out = tmp_path / "fresh"
        out.mkdir()
        (out / "summary.csv").write_bytes((finished_run[0] / "summary.csv").read_bytes())
        config = load_config(overrides={"out": str(out)})
        with pytest.raises(MissingInputError,
                           match=r"^cluster_model\.json missing: .*\(run cluster first\)$"):
            run_stage("classify", config)

    def test_manifest_records_template_csv_for_extract(self, tmp_path):
        template = write_template(tmp_path / "template.csv")
        overrides = small_overrides(tmp_path / "run")
        overrides["extract"] = {"template": {"kind": "csv", "path": str(template)}}
        config = load_config(overrides=overrides)
        for stage in ("synth", "decompose", "extract"):
            run_stage(stage, config)
        manifest = json.loads((tmp_path / "run" / "run.json").read_text())
        inputs = {s["stage"]: s["inputs"] for s in manifest["stages"]}
        assert inputs["extract"]["template.csv"] == sha256_file(template)
        template.unlink()
        with pytest.raises(MissingInputError, match="extract.template"):
            run_stage("extract", config)

    def test_pipeline_hashes_each_file_once(self, tmp_path, monkeypatch):
        hashed = Counter()

        def counting(path):
            hashed[Path(path)] += 1
            return sha256_file(path)

        monkeypatch.setattr(pipeline, "sha256_file", counting)
        template = write_template(tmp_path / "template.csv")
        overrides = small_overrides(tmp_path / "run")
        overrides["extract"] = {"template": {"kind": "csv", "path": str(template)}}
        overrides["partition"] = {"expert_rules": str(EXPERT_EXAMPLE)}
        run_pipeline(load_config(overrides=overrides))
        artifacts = {p for p in (tmp_path / "run").rglob("*")
                     if p.is_file() and p.name != "run.json"}
        assert len(artifacts) >= 14
        assert hashed == Counter(artifacts | {template, EXPERT_EXAMPLE})

    def test_stage_alone_rehashes_data_rewritten_with_its_stat_key(self, tmp_path):
        # same inode, size and mtime: only the bytes tell the epochs changed
        config = load_config(overrides=small_overrides(tmp_path))
        run_pipeline(config)
        data = artifact_paths(tmp_path)["epochs_data"]
        st = data.stat()
        with open(data, "r+b") as fh:
            fh.seek(-8, os.SEEK_END)
            last = fh.read()
            fh.seek(-8, os.SEEK_END)
            fh.write(bytes(b ^ 0xFF for b in last))
        os.utime(data, ns=(st.st_atime_ns, st.st_mtime_ns))
        key = lambda s: (s.st_dev, s.st_ino, s.st_size, s.st_mtime_ns)  # noqa: E731
        assert key(data.stat()) == key(st)
        before = snapshot(tmp_path)
        with pytest.raises(MissingInputError, match=(
                r"^decomposition\.json is stale: data\.npy changed since decompose ran")):
            run_stage("extract", config)
        assert snapshot(tmp_path) == before

    @pytest.mark.parametrize("via", ["run_stage", "main"])
    def test_stage_alone_hashes_only_its_outputs(self, tmp_path, monkeypatch, via):
        # run.json's digest record holds every input's digest under its stat
        # key, the template CSV's and the expert file's too
        template = write_template(tmp_path / "template.csv")
        out = tmp_path / "run"
        overrides = small_overrides(out)
        overrides["extract"] = {"template": {"kind": "csv", "path": str(template)}}
        overrides["partition"] = {"expert_rules": str(EXPERT_EXAMPLE)}
        config = load_config(overrides=overrides)
        run_pipeline(config)
        argv = ["--out", str(out), "--seed", "5", "--set", "synth.n_trials=24",
                "--set", "decompose.n_components=2", "--set", "cluster.k=2",
                "--set", "extract.template=" + json.dumps(overrides["extract"]["template"]),
                "--set", f"partition.expert_rules={EXPERT_EXAMPLE}"]
        hashed = Counter()

        def counting(path):
            hashed[Path(path)] += 1
            return sha256_file(path)

        monkeypatch.setattr(pipeline, "sha256_file", counting)
        paths = artifact_paths(out)
        for stage in ("extract", "cluster", "classify", "mine", "partition"):
            hashed.clear()
            if via == "main":
                assert main([stage, *argv]) == 0
            else:
                run_stage(stage, config)
            assert hashed == Counter(paths[key] for key in _STAGES[stage][2]), stage

    def test_stage_alone_rehashes_data_replaced_with_same_size(self, tmp_path):
        # a new inode, mtime and ctime, whatever the bytes
        config = load_config(overrides=small_overrides(tmp_path))
        run_pipeline(config)
        data = artifact_paths(tmp_path)["epochs_data"]
        other = tmp_path / "other.npy"
        other.write_bytes(data.read_bytes()[:-8] + bytes(8))
        os.replace(other, data)
        before = snapshot(tmp_path)
        with pytest.raises(MissingInputError, match=(
                r"^decomposition\.json is stale: data\.npy changed since decompose ran")):
            run_stage("extract", config)
        assert snapshot(tmp_path) == before

    def test_stage_alone_runs_on_run_json_without_digest_record(self, tmp_path):
        # run.json as written before the record: every file is hashed anew
        config = load_config(overrides=small_overrides(tmp_path))
        run_pipeline(config)
        manifest = tmp_path / "run.json"
        doc = json.loads(manifest.read_text())
        del doc["digests"]
        manifest.write_text(json.dumps(doc, indent=2, sort_keys=True))
        before = artifact_checksums(tmp_path)
        run_stage("extract", config)
        assert artifact_checksums(tmp_path) == before
        record = json.loads(manifest.read_text())["digests"]
        assert sorted(record) == ["decomposition.json", "epochs/data.npy", "epochs/meta.json",
                                  "summary.csv"]
        assert record["epochs/data.npy"]["sha256"] == sha256_file(tmp_path / "epochs" / "data.npy")

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
        for key in ("summary", "cluster_model", "taxonomy",
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

    def test_extract_rejects_epochs_resynthesized_at_another_seed(self, tmp_path):
        # same shape, new data: only run.json shows the unmixing is stale
        out = tmp_path / "reseeded"
        overrides = small_overrides(out)
        for stage in ("synth", "decompose"):
            run_stage(stage, load_config(overrides=overrides))
        run_stage("synth", load_config(overrides={**overrides, "seed": 6}))
        before = snapshot(out)
        with pytest.raises(MissingInputError, match=(
                r"^decomposition\.json is stale: data\.npy changed since decompose ran "
                r"\(run decompose first\)$")):
            run_stage("extract", load_config(overrides=overrides))
        assert snapshot(out) == before
        assert main(["extract", "--out", str(out), "--seed", "5"]) == 2

    def test_cluster_rejects_summary_extracted_before_synth_reran(self, tmp_path, capsys):
        # cluster reads none of the files extract read: only the walk up
        # run.json, through extract to decompose, finds the new epochs
        out = tmp_path / "reseeded"
        base = ["--out", str(out), "--set", "synth.n_trials=24",
                "--set", "decompose.n_components=2", "--set", "cluster.k=2"]
        assert main(["pipeline", "--seed", "5", *base]) == 0
        assert main(["synth", "--seed", "6", *base]) == 0
        before = snapshot(out)
        capsys.readouterr()
        assert main(["cluster", "--seed", "5", *base]) == 2
        assert capsys.readouterr().err == (
            "error: summary.csv is stale: data.npy changed since decompose ran "
            "(run decompose first)\n")
        assert snapshot(out) == before

    def test_classify_rejects_summary_with_other_row_count_than_cluster_model(
            self, tmp_path, capsys):
        # the stage's own row-count check fails before the run.json walk runs
        out = tmp_path / "refactored"
        base = ["--out", str(out), "--seed", "3", "--set", "synth.n_trials=24",
                "--set", "cluster.k=2"]
        assert main(["pipeline", *base, "--set", "decompose.n_components=2"]) == 0
        assert main(["decompose", *base, "--set", "decompose.n_components=1"]) == 0
        assert main(["extract", *base]) == 0
        before = snapshot(out)
        capsys.readouterr()
        for stage in ("classify", "mine"):
            assert main([stage, *base]) == 2
            assert capsys.readouterr().err == (
                "error: cluster_model.json is stale: it labels 4 rows, summary.csv holds 2 "
                "(run cluster first)\n")
        assert snapshot(out) == before

    def test_cluster_after_same_seed_synth_runs(self, tmp_path):
        out = tmp_path / "same_seed"
        base = ["--out", str(out), "--seed", "5", "--set", "synth.n_trials=24",
                "--set", "decompose.n_components=2", "--set", "cluster.k=2"]
        assert main(["pipeline", *base]) == 0
        before = artifact_checksums(out)
        assert main(["synth", *base]) == 0
        assert main(["cluster", *base]) == 0
        assert artifact_checksums(out) == before

    def test_mine_rejects_tree_grown_before_cluster_reran(self, tmp_path):
        overrides = small_overrides(tmp_path)
        run_pipeline(load_config(overrides=overrides))
        overrides["cluster"] = {"k": 3}
        run_stage("cluster", load_config(overrides=overrides))
        with pytest.raises(MissingInputError, match=(
                r"^tree\.json is stale: cluster_model\.json changed since classify ran")):
            run_stage("mine", load_config(overrides=overrides))
        run_stage("classify", load_config(overrides=overrides))
        run_stage("mine", load_config(overrides=overrides))

    def test_bic_and_agglomerative_config_branch(self, tmp_path):
        out = tmp_path / "bic_branch"
        config = load_config(overrides={
            "out": str(out), "seed": 6,
            "synth": {"n_trials": 24},
            "decompose": {"n_components": 2},
            "cluster": {"k": None, "k_max": 3,
                        "hierarchy": "agglomerative:complete"},
        })
        run_pipeline(config)
        model = json.loads((out / "cluster_model.json").read_text())
        assert 1 <= model["k"] <= 3
        taxonomy = json.loads((out / "taxonomy.json").read_text())
        assert taxonomy["method"] == "agglomerative:complete"

        def leaves(node):
            return sum(map(leaves, node["children"])) if "children" in node else 1

        classes = json.loads((out / "classes.json").read_text())
        assert sum(1 for c in classes if c["parent"]) == leaves(taxonomy["root"]) == model["k"]

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
        with pytest.raises(ConfigError, match="preset"):
            load_config(overrides={"out": str(tmp_path), "synth": {"preset": "mystery"}})


def snapshot(out):
    """Every artifact's checksum, run.json's bytes and the entries of `out`."""
    return (artifact_checksums(out), (out / "run.json").read_bytes(),
            sorted(p.name for p in out.iterdir()))


@pytest.fixture(scope="module")
def published_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("published")
    run_pipeline(load_config(overrides=small_overrides(out)))
    return out


class TestPeakMemory:
    def test_decompose_holds_one_tensor_copy(self, tmp_path):
        # the channels-major tensor is whitened in its own buffer and freed
        # before FastICA allocates its work arrays
        config = load_config(overrides={"out": str(tmp_path)})
        run_stage("synth", config)
        size = (tmp_path / "epochs" / "data.npy").stat().st_size
        _, peak = traced_peak(run_stage, "decompose", config)
        assert peak < 1.5 * size


@pytest.fixture
def blas_threads():
    """OpenBLAS's get-thread-count function, with the count set to 2 for the
    test and put back after it."""
    threads = pipeline._openblas_threads()
    if threads is None:
        pytest.skip("no OpenBLAS thread control found in this process")
    get, set_ = threads
    before = get()
    set_(2)
    yield get
    set_(before)


class TestBlasThreads:
    """decompose runs its BLAS on the calling thread and puts the thread
    count back, also when it fails; its output does not depend on it."""

    def test_decompose_runs_on_one_thread_and_restores(self, tmp_path, blas_threads,
                                                       monkeypatch):
        seen = []
        fastica = decomposition.fastica

        def recorded(*args, **kwargs):
            seen.append(blas_threads())
            return fastica(*args, **kwargs)

        monkeypatch.setattr(decomposition, "fastica", recorded)
        config = load_config(overrides=small_overrides(tmp_path))
        run_stage("synth", config)
        run_stage("decompose", config)
        assert seen == [1]
        assert blas_threads() == 2

    def test_restores_when_decompose_raises(self, tmp_path, blas_threads):
        config = load_config(overrides=small_overrides(tmp_path))
        run_stage("synth", config)
        path = tmp_path / "epochs" / "data.npy"
        data = np.load(path)
        data[:, 5, :] = 7.5
        np.save(path, data)
        with pytest.raises(NumericalError, match="is constant"):
            run_stage("decompose", config)
        assert blas_threads() == 2

    def test_decomposition_does_not_depend_on_the_thread_count(self, tmp_path, blas_threads,
                                                               monkeypatch):
        def decompose(out):
            config = load_config(overrides={"out": str(out)})
            run_stage("synth", config)
            run_stage("decompose", config)
            return (out / "decomposition.json").read_bytes()

        one_thread = decompose(tmp_path / "one_thread")
        monkeypatch.setattr(pipeline, "_openblas_threads", lambda: None)
        assert decompose(tmp_path / "two_threads") == one_thread


class TestPublication:
    """A stage publishes its outputs and its run.json entry together, and
    only when it succeeds."""

    def test_only_artifacts_are_left_in_out(self, published_run):
        out = published_run
        expected = {p.relative_to(out).parts[0] for p in artifact_paths(out).values()}
        assert {p.name for p in out.iterdir()} == expected

    def test_failed_cluster_changes_nothing(self, published_run, monkeypatch):
        # the stage fails at its last write, after writing cluster_model.json
        # and taxonomy.json
        def fail(*args, **kwargs):
            raise ConfigError("cannot write classes.json")

        monkeypatch.setattr(clustering, "classes_to_json", fail)
        out = published_run
        before = snapshot(out)
        overrides = small_overrides(out)
        overrides["seed"] = 6
        with pytest.raises(ConfigError, match="cannot write classes.json"):
            run_stage("cluster", load_config(overrides=overrides))
        assert snapshot(out) == before

    @pytest.mark.parametrize("hierarchy", ["agglomerative-average", "agglomerative",
                                           "agglomerative:ward", 3])
    def test_unknown_hierarchy_rejected_before_em(self, published_run, monkeypatch,
                                                  hierarchy):
        def fail(*args, **kwargs):
            raise AssertionError("EM ran")

        monkeypatch.setattr(clustering, "em_fit", fail)
        monkeypatch.setattr(clustering, "select_k", fail)
        out = published_run
        before = snapshot(out)
        overrides = small_overrides(out)
        overrides["cluster"] = {"k": 2, "hierarchy": hierarchy}
        with pytest.raises(ConfigError, match="cluster.hierarchy"):
            run_stage("cluster", load_config(overrides=overrides))
        assert snapshot(out) == before

    def test_rerun_replaces_outputs_and_manifest_entry(self, tmp_path):
        overrides = small_overrides(tmp_path)
        config = load_config(overrides=overrides)
        for stage in ("synth", "decompose", "extract"):
            run_stage(stage, config)
        overrides["synth"] = {"n_trials": 30}
        entry = run_stage("synth", load_config(overrides=overrides))
        manifest = json.loads((tmp_path / "run.json").read_text())
        assert [s["stage"] for s in manifest["stages"]] == ["synth", "decompose", "extract"]
        assert manifest["stages"][0] == entry
        paths = artifact_paths(tmp_path)
        assert entry["outputs"]["data.npy"] == sha256_file(paths["epochs_data"])
        assert testbed.EpochTensor.load(paths["epochs"]).data.shape[0] == 30
        assert {p.name for p in tmp_path.iterdir()} == {
            "montage.csv", "epochs", "decomposition.json", "summary.csv", "run.json"}


@pytest.fixture(scope="module")
def expert_run(tmp_path_factory):
    """`nof pipeline` with the default config and the shipped expert base."""
    out = tmp_path_factory.mktemp("expert_run")
    assert main(["pipeline", "--out", str(out),
                 "--set", f"partition.expert_rules={EXPERT_EXAMPLE}"]) == 0
    return out


def mined_items(out):
    with open(out / "mined_rules.csv", encoding="utf-8") as fh:
        next(fh)
        return {item for line in fh for side in line.split(";")[:2]
                for item in side.split("&")}


def test_no_summary_column_copies_another(expert_run):
    with open(expert_run / "summary.csv", newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    values = dict(zip(header, zip(*rows)))
    copies = [(a, b) for i, a in enumerate(header) for b in header[i + 1:]
              if values[a] == values[b]]
    assert not copies


class TestArtifactEncoding:
    def test_json_artifacts_are_compact_with_sorted_keys(self, expert_run):
        artifacts = {str(p.relative_to(expert_run)): p for p in expert_run.rglob("*.json")
                     if p.name != "run.json"}
        assert sorted(artifacts) == [
            "class_rules.json", "classes.json", "cluster_model.json", "decomposition.json",
            "epochs/meta.json", "report.json", "taxonomy.json", "tree.json"]
        for name, path in artifacts.items():
            text = path.read_text(encoding="utf-8")
            assert text == json.dumps(json.loads(text), sort_keys=True, ensure_ascii=False), name


# a many_rows-style table: 8 conditions x 4 factors = 32 summary rows
EIGHT_CONDITIONS = [{"EVENT": event, "STIM": stim, "MOD": mod}
                    for event in ("stimon", "respon") for stim in ("s0", "s1")
                    for mod in ("visual", "auditory")]


def taxonomy_leaves(node):
    if "children" not in node:
        return [node["indices"]]
    return [leaf for child in node["children"] for leaf in taxonomy_leaves(child)]


class TestOntologyClasses:
    @pytest.mark.parametrize("hierarchy", ["divisive", "agglomerative:average"])
    @pytest.mark.parametrize("synth", [{}, {"n_trials": 80, "conditions": EIGHT_CONDITIONS}],
                             ids=["default", "eight_conditions"])
    def test_classes_are_the_em_clusters(self, tmp_path, hierarchy, synth):
        run_pipeline(load_config(overrides={
            "out": str(tmp_path), "seed": 7, "synth": synth,
            "cluster": {"hierarchy": hierarchy},
            "partition": {"expert_rules": str(EXPERT_EXAMPLE)}}))
        model = json.loads((tmp_path / "cluster_model.json").read_text())
        k, assignments = model["k"], model["assignments"]
        assert k > 1
        # class C{j+1} holds the rows of CLUSTER=C{j+1}, the label the rules name
        classes = json.loads((tmp_path / "classes.json").read_text())
        assert classes == [{"name": "ROOT", "parent": None,
                            "members": list(range(len(assignments)))}] + [
            {"name": f"C{j + 1}", "parent": "ROOT",
             "members": [i for i, a in enumerate(assignments) if a == j]}
            for j in range(k)]
        # the taxonomy is a hierarchy over the components, one leaf each
        taxonomy = json.loads((tmp_path / "taxonomy.json").read_text())
        assert taxonomy["method"] == hierarchy
        assert taxonomy["n"] == k
        assert sorted(taxonomy_leaves(taxonomy["root"])) == [[j] for j in range(k)]


class TestExpertAwareMining:
    def test_default_run_mines_no_catch_all_item(self, expert_run):
        items = mined_items(expert_run)
        assert items
        assert not [i for i in items if i.endswith("=ANY")]
        assert "MOD=visual" not in items and "EVENT=stimon" not in items

    def test_mine_records_its_gate_in_the_manifest(self, expert_run):
        manifest = json.loads((expert_run / "run.json").read_text())
        gates = {s["stage"]: s.get("gate") for s in manifest["stages"]}
        assert gates.pop("mine") == {"beta_sup": 0.2, "beta_conf": 0.8,
                                     "cuts": {"TI_max": [300.0, 500.0]},
                                     "kept": ["SP_max_ROI", "TI_max"]}
        assert set(gates.values()) == {None}

    @pytest.mark.parametrize("expert,accepted", [
        ({"thresholds": {"pi_min": 0.9}}, True),
        ({"rules": [{"id": "r", "if": ["TI_max∈(300,500]"], "then": "P300"}]}, True),
        ({"rules": [{"id": "r", "if": ["TI_max∈(-inf,300]"], "then": "P300"}]}, True),
        ({"rules": [{"id": "r", "if": ["TI_max∈(300,450]"], "then": "P300"}]}, False),
        ({"rules": [{"id": "r", "if": ["IN_max∈(0,1]"], "then": "P300"}]}, False),
        ({"thresholds": {"beta_sup": 0.3}}, False),
        ({"thresholds": {"beta_conf": 0.9}}, False),
        # mine dropped the universal MOD=visual, which this rule needs
        ({"rules": [{"id": "r", "if": ["SP_max_ROI=frontal", "MOD=visual"], "then": "P300"}]},
         False),
    ])
    def test_partition_alone_checks_the_gate_mine_recorded(self, expert_run, tmp_path,
                                                           expert, accepted):
        out = tmp_path / "run"
        shutil.copytree(expert_run, out)
        path = tmp_path / "expert.json"
        path.write_text(json.dumps(expert, ensure_ascii=False), encoding="utf-8")
        config = load_config(overrides={"out": str(out), "partition": {"expert_rules": str(path)}})
        if accepted:
            run_stage("partition", config)
            return
        before = snapshot(out)
        with pytest.raises(MissingInputError, match=r"\(run mine first\)$"):
            run_stage("partition", config)
        assert snapshot(out) == before

    def test_partition_refuses_a_mine_entry_without_a_gate(self, expert_run, tmp_path):
        out = tmp_path / "run"
        shutil.copytree(expert_run, out)
        manifest = json.loads((out / "run.json").read_text())
        for stage in manifest["stages"]:
            stage.pop("gate", None)
        (out / "run.json").write_text(json.dumps(manifest))
        before = snapshot(out)
        with pytest.raises(MissingInputError, match="run mine first"):
            run_stage("partition", load_config(overrides={
                "out": str(out), "partition": {"expert_rules": str(EXPERT_EXAMPLE)}}))
        assert snapshot(out) == before

    def test_manifest_records_expert_file_for_mine_and_partition(self, expert_run):
        manifest = json.loads((expert_run / "run.json").read_text())
        inputs = {s["stage"]: s["inputs"] for s in manifest["stages"]}
        digest = sha256_file(EXPERT_EXAMPLE)
        for stage in ("mine", "partition"):
            assert inputs[stage][EXPERT_EXAMPLE.name] == digest
        assert EXPERT_EXAMPLE.name not in inputs["classify"]

    def test_expert_named_universal_item_kept_and_matched(self, tmp_path):
        expert = tmp_path / "expert.json"
        expert.write_text(json.dumps({
            "thresholds": {"beta_sup": 0.2, "beta_conf": 0.8, "pi_min": 0.3},
            "rules": [{"id": "p300_visual",
                       "if": ["TI_max∈(300,500]", "SP_max_ROI=frontal", "MOD=visual"],
                       "then": "P300"}],
        }, ensure_ascii=False), encoding="utf-8")
        out = tmp_path / "run"
        run_pipeline(load_config(overrides={
            "out": str(out), "partition": {"expert_rules": str(expert)}}))
        assert "MOD=visual" in mined_items(out)
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        known = [r for r in report["known_high_strength"]
                 if r["matched_expert"] == "p300_visual"]
        assert known and known[0]["consequent"] == ["P300"]
        assert "MOD=visual" in known[0]["antecedent"]

    def test_unsplit_attribute_cut_at_expert_endpoints(self, tmp_path):
        # one cluster: the tree is a single leaf and splits nothing
        overrides = {"out": str(tmp_path), "cluster": {"k": 1},
                     "partition": {"expert_rules": str(EXPERT_EXAMPLE)}}
        run_pipeline(load_config(overrides=overrides))
        tree = classification.tree_from_json(tmp_path / "tree.json")
        assert classification.all_split_points(tree)["TI_max"] == []
        items = mined_items(tmp_path)
        assert "TI_max∈(300,500]" in items
        assert "CLUSTER=C1" in items

        # without the expert base nothing cuts TI_max, and its catch-all
        # item is dropped
        overrides["partition"] = {"expert_rules": None}
        run_stage("mine", load_config(overrides=overrides))
        items = mined_items(tmp_path)
        assert not [i for i in items if i.startswith("TI_max")]
        assert "CLUSTER=C1" in items

    def test_expert_thresholds_gate_mining(self, tmp_path):
        # one gate: a file's beta_sup above the default drops the rules below
        # it from mined_rules.csv, not only from the report
        expert = tmp_path / "expert.json"
        expert.write_text(json.dumps({"thresholds": {"beta_sup": 0.5}}), encoding="utf-8")
        out = tmp_path / "run"
        overrides = small_overrides(out)
        overrides["partition"] = {"expert_rules": str(expert)}
        run_pipeline(load_config(overrides=overrides))
        mined = rulemining.read_rules_csv(out / "mined_rules.csv")
        assert mined and min(r.support for r in mined) >= 0.5
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["thresholds"] == {"beta_sup": 0.5, "beta_conf": 0.8, "pi_min": 0.5}
        assert report["counts"]["qualified"] == len(set(mined))

    def test_default_thresholds_are_the_mining_gate(self, finished_run):
        out, _, _ = finished_run
        mined = rulemining.read_rules_csv(out / "mined_rules.csv")
        assert min(r.support for r in mined) >= 0.2
        assert min(r.confidence for r in mined) >= 0.8
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["thresholds"] == {"beta_sup": 0.2, "beta_conf": 0.8, "pi_min": 0.5}


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

    @pytest.mark.parametrize("corrupt", [
        lambda path, data: path.write_bytes(path.read_bytes()[:-100]),
        lambda path, data: np.save(path, data[:-1]),
        lambda path, data: np.save(path, np.asfortranarray(data)),
        lambda path, data: np.save(path, data.astype(object), allow_pickle=True),
    ], ids=["truncated", "shape", "fortran", "object"])
    def test_cli_decompose_rejects_malformed_data_and_publishes_nothing(
            self, tmp_path, capsys, corrupt):
        argv = ["--out", str(tmp_path), "--seed", "5", "--set", "synth.n_trials=24",
                "--set", "decompose.n_components=2"]
        assert main(["synth", *argv]) == 0
        path = tmp_path / "epochs" / "data.npy"
        corrupt(path, np.load(path))
        before = snapshot(tmp_path)
        assert main(["decompose", *argv]) == 3
        assert f"error: {path}: " in capsys.readouterr().err
        assert snapshot(tmp_path) == before
        assert not (tmp_path / "decomposition.json").exists()

    def test_cli_extract_rejects_truncated_data(self, tmp_path, capsys):
        argv = ["--out", str(tmp_path), "--seed", "5", "--set", "synth.n_trials=24",
                "--set", "decompose.n_components=2"]
        assert main(["synth", *argv]) == 0
        assert main(["decompose", *argv]) == 0
        path = tmp_path / "epochs" / "data.npy"
        path.write_bytes(path.read_bytes()[:-100])
        before = snapshot(tmp_path)
        assert main(["extract", *argv]) == 3
        assert capsys.readouterr().err.startswith("error: ")
        assert snapshot(tmp_path) == before

    @pytest.mark.parametrize("setting", [
        "synth.n_trials=true", "synth.n_trials=2.7", "synth.noise_std=true",
        "decompose.n_components=true", "decompose.n_components=four", "cluster.k=true",
        "cluster.k_max=2.5", "cluster.k_max=false", "synth.noise_std=null",
        "cluster.k_max=null", "mine.max_len=true", "mine.max_len=2.5",
        'extract.template={"kind":"roi","roi":"frontal","value":true}',
    ])
    def test_cli_rejects_a_numeric_key_of_the_wrong_type(self, tmp_path, capsys, setting):
        key = setting.partition("=")[0]
        if key == "extract.template":
            key += ".value"
        assert main(["synth", "--out", str(tmp_path), "--set", setting]) == 3
        assert f"{key} must be" in capsys.readouterr().err
        assert not (tmp_path / "epochs").exists()

    @pytest.mark.parametrize("text", [
        "{", '{"stages": 5}', "[]", '{"stages": [{"stage": "cluster"}]}',
        '{"stages": [{"stage": "mine", "inputs": {}, "outputs": {}, "gate": {"kept": 1}}]}',
        '{"stages": [], "digests": []}', '{"stages": [], "digests": {"summary.csv": "0f"}}',
        '{"stages": [], "digests": {"summary.csv": {"sha256": "0f", "stat": [1, 2, 3]}}}',
    ], ids=["truncated", "stages-int", "list", "entry", "gate", "digests-list", "digest-str",
            "stat-short"])
    @pytest.mark.parametrize("stage", ["cluster", "partition"])
    def test_cli_rejects_malformed_run_json_and_publishes_nothing(
            self, tmp_path, capsys, published_run, text, stage):
        out = tmp_path / "run"
        shutil.copytree(published_run, out)
        (out / "run.json").write_text(text)
        before = snapshot(out)
        capsys.readouterr()
        assert main([stage, "--out", str(out), "--seed", "5", "--set", "synth.n_trials=24",
                     "--set", "decompose.n_components=2", "--set", "cluster.k=2"]) == 3
        assert capsys.readouterr().err.startswith(f"error: {out / 'run.json'}: ")
        assert snapshot(out) == before

    @pytest.mark.parametrize("max_len", ["0", "-2"])
    def test_cli_pipeline_rejects_max_len_below_one(self, tmp_path, capsys, max_len):
        # before, mine returned the 1-itemsets and the report read "qualified rules: 0"
        out = tmp_path / "max_len"
        assert main(["pipeline", "--out", str(out), "--seed", "5", "--set", "synth.n_trials=24",
                     "--set", "decompose.n_components=2", "--set", "cluster.k=2",
                     "--set", f"mine.max_len={max_len}"]) == 3
        assert f"error: mine.max_len must be >= 1, got {max_len}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("setting", [
        "seed=-1", "synth.n_trials=0", "synth.noise_std=-0.5", "synth.preset=bogus",
        "decompose.n_components=0", "decompose.n_components=1.5", "cluster.k=0",
        "cluster.k_max=0", "cluster.k=-1", "cluster.hierarchy=bogus",
        "decompose.n_components=0.0", "decompose.n_components=-0.5", "mine.max_len=0",
        "cluster.k_max=-3", "synth.n_trials=-5", "synth.noise_std=-1e-9", "mine.max_len=-1",
    ])
    def test_cli_pipeline_rejects_an_out_of_range_value_before_any_stage(
            self, tmp_path, capsys, setting):
        out = tmp_path / "out"
        assert main(["pipeline", "--out", str(out), "--set", setting]) == 3
        assert setting.partition("=")[0] in capsys.readouterr().err
        assert not out.exists()

    def test_cli_csv_template_without_path_is_config_error(self, published_run, capsys):
        before = snapshot(published_run)
        code = main(["extract", "--out", str(published_run),
                     "--set", 'extract.template={"kind":"csv"}'])
        assert code == 3
        assert "extract.template" in capsys.readouterr().err
        assert snapshot(published_run) == before

    def test_cli_csv_template_short_row_names_its_line(self, published_run, tmp_path, capsys):
        template = tmp_path / "template.csv"
        channels = testbed.default_montage().channels
        template.write_text("channel,weight\n" + f"{channels[0]},1.0\n{channels[1]}\n")
        before = snapshot(published_run)
        code = main(["extract", "--out", str(published_run), "--set",
                     f'extract.template={{"kind":"csv","path":"{template}"}}'])
        assert code == 3
        assert "line 3" in capsys.readouterr().err
        assert snapshot(published_run) == before

    def test_cli_non_number_in_summary_names_its_column_and_line(self, published_run,
                                                                 tmp_path, capsys):
        out = tmp_path / "edited"
        shutil.copytree(published_run, out)
        summary = out / "summary.csv"
        lines = summary.read_text().splitlines()
        fields = lines[1].split(",")
        fields[4] = "abc"
        lines[1] = ",".join(fields)
        summary.write_text("\n".join(lines) + "\n")
        before = snapshot(out)
        capsys.readouterr()
        assert main(["cluster", "--out", str(out), "--seed", "5", "--set", "synth.n_trials=24",
                     "--set", "decompose.n_components=2", "--set", "cluster.k=2"]) == 3
        assert capsys.readouterr().err == "error: line 2: IN_min 'abc' is not a number\n"
        assert snapshot(out) == before

    def test_cli_partition_refuses_a_base_that_mine_did_not_use(self, tmp_path, capsys):
        # mined at beta_sup 0.5 and cut at no expert endpoint, the rules would
        # be reported under the shipped base's 0.2, its rules all missing
        expert = tmp_path / "expert.json"
        expert.write_text(json.dumps({"thresholds": {"beta_sup": 0.5}}))
        out = tmp_path / "run"
        assert main(["pipeline", "--out", str(out),
                     "--set", f"partition.expert_rules={expert}"]) == 0
        before = snapshot(out)
        capsys.readouterr()
        assert main(["partition", "--out", str(out),
                     "--set", f"partition.expert_rules={EXPERT_EXAMPLE}"]) == 2
        assert capsys.readouterr().err == (
            "error: mined_rules.csv was not mined under this expert base's thresholds, "
            "interval endpoints and attributes (run mine first)\n")
        assert snapshot(out) == before

    def test_cli_partition_rejects_a_typo_in_the_expert_file(self, published_run, tmp_path,
                                                             capsys):
        # before, "pi_mn" loaded with pi_min at its default
        expert = tmp_path / "expert.json"
        expert.write_text('{\n  "thresholds": {"beta_sup": 0.2,\n    "pi_mn": 0.3}\n}\n')
        before = snapshot(published_run)
        capsys.readouterr()
        assert main(["partition", "--out", str(published_run),
                     "--set", f"partition.expert_rules={expert}"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: line 3: unknown key 'pi_mn' in thresholds")
        assert snapshot(published_run) == before

    def test_cli_cluster_refuses_a_summary_extracted_with_an_old_template(self, tmp_path,
                                                                         capsys):
        def write_roi_template(roi):
            montage = testbed.default_montage()
            template.write_text("channel,weight\n" + "".join(
                f"{c},{1.0 if montage.roi_of[c] == roi else 0.0}\n" for c in montage.channels))

        template = tmp_path / "weights.csv"
        write_roi_template("frontal")
        out = tmp_path / "run"
        base = ["--out", str(out), "--seed", "3", "--set", "synth.n_trials=24",
                "--set", "decompose.n_components=2", "--set", "cluster.k=2",
                "--set", f'extract.template={{"kind":"csv","path":"{template}"}}']
        assert main(["pipeline", *base]) == 0
        write_roi_template("occipital")
        before = snapshot(out)
        capsys.readouterr()
        assert main(["cluster", *base]) == 2
        assert capsys.readouterr().err == (
            "error: summary.csv is stale: weights.csv changed since extract ran "
            "(run extract first)\n")
        assert snapshot(out) == before
        assert main(["extract", *base]) == 0
        assert main(["cluster", *base]) == 0

    def test_cli_set_value_then_nested_key_conflicts(self, tmp_path, capsys):
        code = main(["mine", "--out", str(tmp_path),
                     "--set", "mine=1", "--set", "mine.max_len=3"])
        assert code == 3
        assert "conflicts" in capsys.readouterr().err

    def test_cli_set_nested_key_then_value_conflicts(self, tmp_path, capsys):
        code = main(["mine", "--out", str(tmp_path),
                     "--set", "mine.max_len=3", "--set", "mine=1"])
        assert code == 3
        assert "conflicts" in capsys.readouterr().err

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

    def test_import_leaves_scipy_stats_unloaded(self, tmp_path):
        config = load_config(overrides={"out": str(tmp_path)})
        code = ("import json, sys, nof; loaded = [m for m in sys.modules if m.split('.')[0] "
                "== 'scipy']; from nof.pipeline import run_pipeline; "
                "run_pipeline(json.loads(sys.argv[1])); "
                "print(loaded, [m for m in sys.modules if m.split('.')[0] == 'scipy'])")
        proc = subprocess.run([sys.executable, "-c", code, json.dumps(config)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[] []"

    def test_import_and_load_config_leave_openblas_unlooked_up(self):
        # the lookup reads /proc/self/maps and loads the library with ctypes
        # only when decompose first runs; numpy imports ctypes itself, so a
        # ctypes module that nof adds would show as new after `import numpy`
        code = ("import sys, numpy; before = set(sys.modules); import nof; "
                "from nof.pipeline import _openblas_threads, load_config; load_config(); "
                "print(_openblas_threads.cache_info().currsize, "
                "sorted(m for m in set(sys.modules) - before if 'ctypes' in m))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0 []"

    @pytest.mark.parametrize("hierarchy", ["divisive", "agglomerative:average"])
    def test_pipeline_runs_where_scipy_cannot_be_imported(self, tmp_path, hierarchy):
        # a None entry in sys.modules makes every `import scipy...` raise
        config = load_config(overrides={"out": str(tmp_path),
                                        "cluster": {"hierarchy": hierarchy}})
        code = ("import json, sys; sys.modules['scipy'] = None; "
                "from nof.pipeline import run_pipeline; run_pipeline(json.loads(sys.argv[1]))")
        proc = subprocess.run([sys.executable, "-c", code, json.dumps(config)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads((tmp_path / "taxonomy.json").read_text())["method"] == hierarchy
        assert (tmp_path / "report.json").exists()

    def test_cluster_stage_leaves_scipy_special_unloaded(self, tmp_path):
        config = load_config(overrides={
            "out": str(tmp_path), "synth": {"n_trials": 24}, "decompose": {"n_components": 2}})
        assert config["cluster"]["hierarchy"] == "divisive"
        for stage in ("synth", "decompose", "extract"):
            run_stage(stage, config)
        code = ("import json, sys; from nof.pipeline import run_stage; "
                "run_stage('cluster', json.loads(sys.argv[1])); "
                "print('scipy.special' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code, json.dumps(config)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"
        assert (tmp_path / "cluster_model.json").exists()

    def test_agglomerative_cluster_stage_leaves_scipy_cluster_unloaded(self, tmp_path):
        config = load_config(overrides={
            "out": str(tmp_path), "synth": {"n_trials": 24}, "decompose": {"n_components": 2},
            "cluster": {"hierarchy": "agglomerative:average"}})
        for stage in ("synth", "decompose", "extract"):
            run_stage(stage, config)
        code = ("import json, sys; from nof.pipeline import run_stage; "
                "run_stage('cluster', json.loads(sys.argv[1])); "
                "print(sorted(m for m in ('scipy.cluster', 'scipy.spatial', 'scipy.sparse')"
                " if m in sys.modules))")
        proc = subprocess.run([sys.executable, "-c", code, json.dumps(config)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
        assert json.loads((tmp_path / "taxonomy.json").read_text())["method"] == (
            "agglomerative:average")

    def test_console_script_help(self):
        proc = subprocess.run([sys.executable, "-m", "nof.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "pipeline" in proc.stdout
