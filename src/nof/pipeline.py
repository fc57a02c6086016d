"""Stage orchestration, configuration, and the run manifest.

Seven stages (synth, decompose, extract, cluster, classify, mine, partition)
communicate only through documented files under the output directory, so any
stage can be re-run in isolation as long as its inputs are on disk. Artifacts
are written atomically (temp file + rename) and their checksums recorded in
run.json; identical config and seed reproduce artifacts byte for byte.
"""
from __future__ import annotations

import copy
import csv
import hashlib
import json
import os
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

from . import classification, clustering, decomposition, features, ontology, rulemining, testbed
from .errors import ConfigError, MissingInputError, NofError

STAGES = ("synth", "decompose", "extract", "cluster", "classify", "mine", "partition")

DEFAULT_CONFIG: dict = {
    "seed": 0,
    "out": "nof_out",
    "synth": {
        "preset": "two_pattern",
        "n_trials": 100,
        "noise_std": 1.0,
        "seed": None,
        "conditions": [
            {"EVENT": "stimon", "STIM": "s1", "MOD": "visual"},
            {"EVENT": "stimon", "STIM": "s2", "MOD": "visual"},
        ],
    },
    "decompose": {
        "n_components": 4,
        "seed": None,
    },
    "extract": {
        "template": {"kind": "roi", "roi": "frontal", "value": 1.0},
    },
    "cluster": {
        "k": None,
        "k_max": 6,
        "seed": None,
        "hierarchy": "divisive",
        "classes_leaf_count": None,
    },
    "classify": {},
    "mine": {
        "beta_sup": 0.2,
        "beta_conf": 0.8,
        # itemset-size cap: near-identical transactions make the complete
        # lattice combinatorial; null mines it anyway
        "max_len": 4,
    },
    "partition": {
        "expert_rules": None,
        "beta_sup": None,
        "beta_conf": None,
        "pi_min": None,
    },
}


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if key in out and isinstance(out[key], dict) and isinstance(value, dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def load_config(path: str | Path | None = None, overrides: dict | None = None) -> dict:
    """Defaults, overlaid by the config file, overlaid by CLI overrides."""
    config = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        path = Path(path)
        if not path.exists():
            raise MissingInputError(f"config file not found: {path}")
        try:
            with open(path) as fh:
                loaded = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        config = _deep_merge(config, loaded)
    if overrides:
        config = _deep_merge(config, overrides)
    unknown = set(config) - set(DEFAULT_CONFIG)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for section in STAGES:
        if not isinstance(config[section], dict):
            raise ConfigError(f"config section {section!r} must be an object")
        extra = set(config[section]) - set(DEFAULT_CONFIG[section])
        if extra:
            raise ConfigError(f"unknown keys in config section {section!r}: {sorted(extra)}")
    if not isinstance(config["seed"], int):
        raise ConfigError("seed must be an integer")
    return config


def _stage_seed(config: dict, stage: str, offset: int) -> int:
    explicit = config.get(stage, {}).get("seed")
    return int(explicit) if explicit is not None else int(config["seed"]) + offset


# ---------------------------------------------------------------------------
# atomic writes and checksums
# ---------------------------------------------------------------------------

def _atomic_write(path: Path, writer) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    os.close(fd)
    try:
        writer(Path(tmp))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def write_text_atomic(path: Path, text: str) -> None:
    _atomic_write(path, lambda p: p.write_text(text, encoding="utf-8"))


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _checksums(paths: list[Path]) -> dict[str, str]:
    return {str(p.name): sha256_file(p) for p in sorted(paths)}


# ---------------------------------------------------------------------------
# artifact paths
# ---------------------------------------------------------------------------

def artifact_paths(out: Path) -> dict[str, Path]:
    return {
        "montage": out / "montage.csv",
        "epochs": out / "epochs",
        "epochs_meta": out / "epochs" / "meta.json",
        "epochs_data": out / "epochs" / "data.npy",
        "decomposition": out / "decomposition.json",
        "summary": out / "summary.csv",
        "summary_clustered": out / "summary_clustered.csv",
        "cluster_model": out / "cluster_model.json",
        "taxonomy": out / "taxonomy.json",
        "classes": out / "classes.json",
        "tree": out / "tree.json",
        "class_rules_json": out / "class_rules.json",
        "class_rules_txt": out / "class_rules.txt",
        "mined_rules": out / "mined_rules.csv",
        "report_json": out / "report.json",
        "report_txt": out / "report.txt",
        "manifest": out / "run.json",
    }


# ---------------------------------------------------------------------------
# stage implementations (each returns a list of output paths)
# ---------------------------------------------------------------------------

def _stage_synth(config: dict, paths: dict[str, Path]) -> list[Path]:
    cfg = config["synth"]
    montage = testbed.default_montage()
    if cfg["preset"] == "two_pattern":
        _, templates = testbed.two_pattern_preset(montage)
    elif cfg["preset"] == "p300_only":
        templates = [testbed.p300_template(montage)]
    else:
        raise ConfigError(f"unknown synth preset {cfg['preset']!r}")
    epochs = testbed.generate_dataset(
        templates=templates,
        mixing_noise=0.1,
        noise_std=float(cfg["noise_std"]),
        n_trials=int(cfg["n_trials"]),
        seed=_stage_seed(config, "synth", 0),
        montage=montage,
        conditions=[dict(c) for c in cfg["conditions"]],
    )
    _atomic_write(paths["montage"], lambda p: montage.save_csv(p))
    # the epoch container is a directory; its two member files are staged in a
    # throwaway directory and moved into place one by one
    paths["epochs"].mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(dir=paths["epochs"].parent, prefix=".epochs."))
    try:
        epochs.save(staging)
        os.replace(staging / "meta.json", paths["epochs_meta"])
        os.replace(staging / "data.npy", paths["epochs_data"])
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return [paths["montage"], paths["epochs_meta"], paths["epochs_data"]]


def _stage_decompose(config: dict, paths: dict[str, Path]) -> list[Path]:
    epochs = testbed.EpochTensor.load(paths["epochs"])
    white = decomposition.center_and_whiten(epochs, config["decompose"]["n_components"])
    dec = decomposition.fastica(
        white, decomposition.FastIcaConfig(seed=_stage_seed(config, "decompose", 1))
    )
    _atomic_write(paths["decomposition"], lambda p: dec.to_json(p))
    return [paths["decomposition"]]


def _resolve_template(montage: testbed.ChannelMontage, cfg) -> np.ndarray:
    if isinstance(cfg, dict) and cfg.get("kind") == "roi":
        roi = cfg.get("roi", "frontal")
        if roi not in montage.rois():
            raise ConfigError(f"template ROI {roi!r} not present in the montage")
        value = float(cfg.get("value", 1.0))
        return np.array(
            [value if montage.roi_of[c] == roi else 0.0 for c in montage.channels]
        )
    if isinstance(cfg, dict) and cfg.get("kind") == "csv":
        weights: dict[str, float] = {}
        with open(cfg["path"], newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != ["channel", "weight"]:
                raise ConfigError("template CSV header must be 'channel,weight'")
            for row in reader:
                weights[row[0]] = float(row[1])
        missing = [c for c in montage.channels if c not in weights]
        if missing:
            raise ConfigError(f"template CSV lacks channels: {missing}")
        return np.array([weights[c] for c in montage.channels])
    raise ConfigError(f"unsupported template spec: {cfg!r}")


def _stage_extract(config: dict, paths: dict[str, Path]) -> list[Path]:
    epochs = testbed.EpochTensor.load(paths["epochs"])
    dec = decomposition.FactorDecomposition.from_json(paths["decomposition"])
    template = _resolve_template(epochs.montage, config["extract"]["template"])
    rows = features.summarize_dataset(dec, epochs, template)
    _atomic_write(paths["summary"], lambda p: features.write_summary_csv(rows, p))
    return [paths["summary"]]


def _stage_cluster(config: dict, paths: dict[str, Path]) -> list[Path]:
    cfg = config["cluster"]
    rows, _ = features.read_summary_csv(paths["summary"])
    om = clustering.encode_observations(rows)
    em_config = clustering.EMConfig(seed=_stage_seed(config, "cluster", 2))
    if cfg["k"] is not None:
        model = clustering.em_fit(om, int(cfg["k"]), em_config)
    else:
        model = clustering.select_k(om, int(cfg["k_max"]), em_config)
    _atomic_write(paths["cluster_model"], lambda p: model.to_json(p))
    _atomic_write(
        paths["summary_clustered"],
        lambda p: features.write_summary_csv(rows, p, clusters=model.labels()),
    )
    hierarchy = cfg["hierarchy"]
    if hierarchy == "divisive":
        taxonomy = clustering.divisive_hierarchy(
            om, clustering.DivisiveConfig(seed=_stage_seed(config, "cluster", 2))
        )
    elif hierarchy.startswith("agglomerative"):
        linkage = hierarchy.split(":", 1)[1] if ":" in hierarchy else "single"
        taxonomy = clustering.agglomerative_hierarchy(om, linkage)
    else:
        raise ConfigError(f"unknown hierarchy {hierarchy!r}")
    _atomic_write(paths["taxonomy"], lambda p: taxonomy.to_json(p))
    leaf_count = cfg["classes_leaf_count"]
    if leaf_count is None:
        leaf_count = min(model.k, len(taxonomy.leaves()))
    classes = clustering.taxonomy_to_classes(taxonomy, leaf_count=int(leaf_count))
    _atomic_write(paths["classes"], lambda p: clustering.classes_to_json(classes, p))
    return [
        paths["cluster_model"],
        paths["summary_clustered"],
        paths["taxonomy"],
        paths["classes"],
    ]


def _stage_classify(config: dict, paths: dict[str, Path]) -> list[Path]:
    rows, clusters = features.read_summary_csv(paths["summary_clustered"])
    if clusters is None:
        raise MissingInputError(
            f"{paths['summary_clustered']} lacks a CLUSTER column (run cluster first)"
        )
    tree = classification.build_tree([r.as_row() for r in rows], clusters)
    rules = classification.extract_rules(tree)
    _atomic_write(paths["tree"], lambda p: classification.tree_to_json(tree, p))
    _atomic_write(paths["class_rules_json"], lambda p: classification.rules_to_json(rules, p))
    write_text_atomic(paths["class_rules_txt"], classification.rules_to_text(rules))
    return [paths["tree"], paths["class_rules_json"], paths["class_rules_txt"]]


def _expert_base(config: dict) -> ontology.OntologyRuleBase:
    """The expert rule base named by partition.expert_rules, or an empty one."""
    path = config["partition"]["expert_rules"]
    if path is None:
        return ontology.OntologyRuleBase()
    return ontology.ingest_expert_rules(Path(path))


def _stage_mine(config: dict, paths: dict[str, Path]) -> list[Path]:
    cfg = config["mine"]
    rows, clusters = features.read_summary_csv(paths["summary_clustered"])
    if clusters is None:
        raise MissingInputError(f"{paths['summary_clustered']} lacks a CLUSTER column")
    tree = classification.tree_from_json(paths["tree"])
    split_points = classification.all_split_points(tree)
    # Cut each numeric attribute at the expert intervals' finite endpoints
    # too, so an expert interval is a union of mined intervals rather than
    # lying inside a wider one (or inside the catch-all attr=ANY).
    expert_rules = _expert_base(config).rules
    for item in (i for e in expert_rules for i in e.antecedent):
        if item.kind == "interval" and item.attribute in split_points:
            cuts = {v for v in (item.lo, item.hi) if np.isfinite(v)}
            split_points[item.attribute] = sorted(cuts.union(split_points[item.attribute]))
    records = [{**row.as_row(), "CLUSTER": cluster} for row, cluster in zip(rows, clusters)]
    # Items the expert rules name stay even when every row holds them, so
    # matching against those rules stays exact; CLUSTER stays so a one-cluster
    # run still reports its cluster rules.
    named = {i.attribute for e in expert_rules for i in (*e.antecedent, e.consequent)}
    transactions = rulemining.drop_universal_items(
        rulemining.discretize(records, split_points), named | {"CLUSTER"}
    )
    itemsets = rulemining.apriori(
        transactions, float(cfg["beta_sup"]), max_len=cfg["max_len"]
    )
    rules = rulemining.generate_rules(itemsets, float(cfg["beta_conf"]), transactions)
    _atomic_write(paths["mined_rules"], lambda p: rulemining.write_rules_csv(rules, p))
    return [paths["mined_rules"]]


def _stage_partition(config: dict, paths: dict[str, Path]) -> list[Path]:
    cfg = config["partition"]
    mined = rulemining.read_rules_csv(paths["mined_rules"])
    base = _expert_base(config)
    for key in ("beta_sup", "beta_conf", "pi_min"):
        if cfg[key] is not None:
            setattr(base, key, float(cfg[key]))
    mined, alignment = ontology.align_cluster_labels(mined, base.rules)
    report = ontology.partition(mined, base)
    report.alignment = alignment
    _atomic_write(paths["report_json"], lambda p: ontology.report_to_json(report, p))
    write_text_atomic(paths["report_txt"], ontology.report_to_text(report))
    return [paths["report_json"], paths["report_txt"]]


_STAGE_FN = {
    "synth": _stage_synth,
    "decompose": _stage_decompose,
    "extract": _stage_extract,
    "cluster": _stage_cluster,
    "classify": _stage_classify,
    "mine": _stage_mine,
    "partition": _stage_partition,
}

# Each stage's input files, checked before the stage runs and checksummed in
# run.json: an artifact key with the stage that writes it, or a config key
# (producer None) naming a file the user supplies, an input only when set.
_STAGE_INPUTS: dict[str, tuple[tuple[str, str | None], ...]] = {
    "synth": (),
    "decompose": (("epochs_meta", "synth"), ("epochs_data", "synth")),
    "extract": (
        ("epochs_meta", "synth"),
        ("epochs_data", "synth"),
        ("decomposition", "decompose"),
        ("extract.template", None),
    ),
    "cluster": (("summary", "extract"),),
    "classify": (("summary_clustered", "cluster"),),
    "mine": (
        ("summary_clustered", "cluster"),
        ("tree", "classify"),
        ("partition.expert_rules", None),
    ),
    "partition": (("mined_rules", "mine"), ("partition.expert_rules", None)),
}


def _config_file(config: dict, key: str) -> Path | None:
    """The file a `section.key` config value names, or None when unset. A
    template spec names a file only when its kind is csv."""
    section, name = key.split(".")
    value = config[section][name]
    if isinstance(value, dict):
        value = value.get("path") if value.get("kind") == "csv" else None
    return None if value is None else Path(value)


def _stage_inputs(stage: str, config: dict, paths: dict[str, Path]) -> list[Path]:
    """The stage's input files; raises MissingInputError naming an absent one."""
    inputs = []
    for key, producer in _STAGE_INPUTS[stage]:
        if producer is None:
            path = _config_file(config, key)
            if path is None:
                continue
            if not path.exists():
                raise MissingInputError(f"file named by {key} not found: {path}")
        else:
            path = paths[key]
            if not path.exists():
                raise MissingInputError(f"{path.name} missing: {path} (run {producer} first)")
        inputs.append(path)
    return inputs


def run_stage(stage: str, config: dict) -> dict:
    """Execute one stage, update run.json, and return its manifest entry."""
    if stage not in _STAGE_FN:
        raise ConfigError(f"unknown stage {stage!r}; valid stages: {', '.join(STAGES)}")
    out = Path(config["out"])
    out.mkdir(parents=True, exist_ok=True)
    paths = artifact_paths(out)
    inputs = _stage_inputs(stage, config, paths)
    started = time.perf_counter()
    outputs = _STAGE_FN[stage](config, paths)
    entry = {
        "stage": stage,
        "inputs": _checksums(inputs),
        "outputs": _checksums(outputs),
        "wall_time_s": round(time.perf_counter() - started, 6),
    }
    _update_manifest(paths["manifest"], entry)
    return entry


def _update_manifest(path: Path, entry: dict) -> None:
    stages: list[dict] = []
    if path.exists():
        with open(path) as fh:
            stages = json.load(fh).get("stages", [])
    stages = [s for s in stages if s["stage"] != entry["stage"]]
    stages.append(entry)
    order = {name: i for i, name in enumerate(STAGES)}
    stages.sort(key=lambda s: order.get(s["stage"], 99))
    write_text_atomic(path, json.dumps({"stages": stages}, indent=2, sort_keys=True))


def run_pipeline(config: dict) -> list[dict]:
    """Run all seven stages in order; returns the manifest entries.

    Errors propagate with the failing stage's name prefixed.
    """
    entries = []
    for stage in STAGES:
        try:
            entries.append(run_stage(stage, config))
        except NofError as exc:
            raise type(exc)(f"{stage}: {exc}") from exc
    return entries


def artifact_checksums(out: str | Path) -> dict[str, str]:
    """Checksums of every artifact under the output directory, manifest excluded
    (the manifest records wall times, which legitimately differ across runs)."""
    out = Path(out)
    sums: dict[str, str] = {}
    for p in sorted(out.rglob("*")):
        if p.is_file() and p.name != "run.json":
            sums[str(p.relative_to(out))] = sha256_file(p)
    return sums
