"""Stage orchestration, configuration, and the run manifest.

Seven stages (synth, decompose, extract, cluster, classify, mine, partition)
communicate only through documented files under the output directory, so any
stage can be re-run in isolation as long as its inputs are on disk. A stage
writes into a staging directory; only after it succeeds are its outputs moved
into place and its run.json entry, with their checksums, written, so a stage
that fails leaves the previous files unchanged. Identical config and seed
reproduce artifacts byte for byte.
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

# Numeric config keys: the types each accepts, and whether null is allowed.
# No key accepts a boolean: bool is a subclass of int, and `true` would run as 1.
_INT, _REAL = (int,), (int, float)
_NUMERIC_KEYS = {
    "seed": (_INT, False),
    "synth.seed": (_INT, True),
    "synth.n_trials": (_INT, False),
    "synth.noise_std": (_REAL, False),
    "decompose.seed": (_INT, True),
    "decompose.n_components": (_REAL, True),
    "cluster.seed": (_INT, True),
    "cluster.k": (_INT, True),
    "cluster.k_max": (_INT, False),
    "cluster.classes_leaf_count": (_INT, True),
    "mine.beta_sup": (_REAL, False),
    "mine.beta_conf": (_REAL, False),
    "mine.max_len": (_INT, True),
    "partition.beta_sup": (_REAL, True),
    "partition.beta_conf": (_REAL, True),
    "partition.pi_min": (_REAL, True),
}


def _check_number(key: str, value, types: tuple[type, ...], nullable: bool) -> None:
    if value is None and nullable:
        return
    if not isinstance(value, types) or isinstance(value, bool):
        kind = "an integer" if types is _INT else "a number"
        raise ConfigError(f"{key} must be {kind}{' or null' if nullable else ''}, got {value!r}")


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
    for key, (types, nullable) in _NUMERIC_KEYS.items():
        node = config
        for part in key.split("."):
            node = node[part]
        _check_number(key, node, types, nullable)
    template = config["extract"]["template"]
    if isinstance(template, dict) and template.get("kind") == "roi":
        _check_number("extract.template.value", template.get("value", 1.0), _REAL, False)
    return config


def _stage_seed(config: dict, stage: str, offset: int) -> int:
    explicit = config[stage]["seed"]
    return explicit if explicit is not None else config["seed"] + offset


# ---------------------------------------------------------------------------
# checksums and artifact paths
# ---------------------------------------------------------------------------

def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _checksums(paths: list[Path]) -> dict[str, str]:
    return {str(p.name): sha256_file(p) for p in sorted(paths)}


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
# stage implementations: each reads its inputs from `paths` and writes its
# outputs to the same keys of `staged`, which run_stage then publishes
# ---------------------------------------------------------------------------

def _stage_synth(config: dict, paths: dict[str, Path], staged: dict[str, Path]) -> None:
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
        n_trials=cfg["n_trials"],
        seed=_stage_seed(config, "synth", 0),
        montage=montage,
        conditions=[dict(c) for c in cfg["conditions"]],
    )
    montage.save_csv(staged["montage"])
    epochs.save(staged["epochs"])


def _stage_decompose(config: dict, paths: dict[str, Path], staged: dict[str, Path]) -> None:
    epochs = testbed.EpochTensor.load(paths["epochs"])
    white = decomposition.center_and_whiten(epochs, config["decompose"]["n_components"])
    dec = decomposition.fastica(
        white, decomposition.FastIcaConfig(seed=_stage_seed(config, "decompose", 1))
    )
    dec.to_json(staged["decomposition"])


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
            for lineno, row in enumerate(reader, start=2):
                try:
                    channel, weight = row
                    weights[channel] = float(weight)
                except ValueError as exc:
                    raise ConfigError(
                        f"template CSV line {lineno}: expected channel,weight, got {row}"
                    ) from exc
        missing = [c for c in montage.channels if c not in weights]
        if missing:
            raise ConfigError(f"template CSV lacks channels: {missing}")
        return np.array([weights[c] for c in montage.channels])
    raise ConfigError(f"unsupported template spec: {cfg!r}")


def _stage_extract(config: dict, paths: dict[str, Path], staged: dict[str, Path]) -> None:
    epochs = testbed.EpochTensor.load(paths["epochs"])
    dec = decomposition.FactorDecomposition.from_json(paths["decomposition"])
    template = _resolve_template(epochs.montage, config["extract"]["template"])
    rows = features.summarize_dataset(dec, epochs, template)
    features.write_summary_csv(rows, staged["summary"])


_HIERARCHIES = ("divisive", "agglomerative:single", "agglomerative:complete",
                "agglomerative:average")


def _stage_cluster(config: dict, paths: dict[str, Path], staged: dict[str, Path]) -> None:
    cfg = config["cluster"]
    hierarchy = cfg["hierarchy"]
    if hierarchy not in _HIERARCHIES:
        raise ConfigError(
            f"unknown cluster.hierarchy {hierarchy!r}; pick one of {', '.join(_HIERARCHIES)}"
        )
    rows, _ = features.read_summary_csv(paths["summary"])
    X = clustering.encode_observations(rows).X
    em_config = clustering.EMConfig(seed=_stage_seed(config, "cluster", 2))
    if cfg["k"] is not None:
        model = clustering.em_fit(X, cfg["k"], em_config)
    else:
        model = clustering.select_k(X, cfg["k_max"], em_config)
    model.to_json(staged["cluster_model"])
    features.write_summary_csv(rows, staged["summary_clustered"], clusters=model.labels())
    if hierarchy == "divisive":
        taxonomy = clustering.divisive_hierarchy(
            X, clustering.DivisiveConfig(seed=_stage_seed(config, "cluster", 2))
        )
    else:
        taxonomy = clustering.agglomerative_hierarchy(X, hierarchy.split(":")[1])
    taxonomy.to_json(staged["taxonomy"])
    leaf_count = cfg["classes_leaf_count"]
    if leaf_count is None:
        leaf_count = min(model.k, len(taxonomy.leaves()))
    classes = clustering.taxonomy_to_classes(taxonomy, leaf_count=leaf_count)
    clustering.classes_to_json(classes, staged["classes"])


def _stage_classify(config: dict, paths: dict[str, Path], staged: dict[str, Path]) -> None:
    rows, clusters = features.read_summary_csv(paths["summary_clustered"])
    if clusters is None:
        raise MissingInputError(
            f"{paths['summary_clustered']} lacks a CLUSTER column (run cluster first)"
        )
    tree = classification.build_tree([r.as_row() for r in rows], clusters)
    rules = classification.extract_rules(tree)
    classification.tree_to_json(tree, staged["tree"])
    classification.rules_to_json(rules, staged["class_rules_json"])
    staged["class_rules_txt"].write_text(classification.rules_to_text(rules), encoding="utf-8")


def _expert_base(config: dict) -> ontology.OntologyRuleBase:
    """The expert rule base named by partition.expert_rules, or an empty one."""
    path = config["partition"]["expert_rules"]
    if path is None:
        return ontology.OntologyRuleBase()
    return ontology.ingest_expert_rules(Path(path))


def _stage_mine(config: dict, paths: dict[str, Path], staged: dict[str, Path]) -> None:
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
    rulemining.write_rules_csv(rules, staged["mined_rules"])


def _stage_partition(config: dict, paths: dict[str, Path], staged: dict[str, Path]) -> None:
    cfg = config["partition"]
    mined = rulemining.read_rules_csv(paths["mined_rules"])
    base = _expert_base(config)
    for key in ("beta_sup", "beta_conf", "pi_min"):
        if cfg[key] is not None:
            setattr(base, key, float(cfg[key]))
    mined, alignment = ontology.align_cluster_labels(mined, base.rules)
    report = ontology.partition(mined, base)
    report.alignment = alignment
    ontology.report_to_json(report, staged["report_json"])
    staged["report_txt"].write_text(ontology.report_to_text(report), encoding="utf-8")


# Every stage once, in run order: its function, its input files and its
# output artifacts. An input is either an artifact key, written by the stage
# that lists it as an output, or a `section.key` config value naming a file
# the user supplies, an input only when set. Inputs are checked before the
# stage runs, and inputs and outputs are checksummed in run.json.
_STAGES = {
    "synth": (_stage_synth, (), ("montage", "epochs_meta", "epochs_data")),
    "decompose": (_stage_decompose, ("epochs_meta", "epochs_data"), ("decomposition",)),
    "extract": (_stage_extract, ("epochs_meta", "epochs_data", "decomposition",
                                 "extract.template"), ("summary",)),
    "cluster": (_stage_cluster, ("summary",),
                ("cluster_model", "summary_clustered", "taxonomy", "classes")),
    "classify": (_stage_classify, ("summary_clustered",),
                 ("tree", "class_rules_json", "class_rules_txt")),
    "mine": (_stage_mine, ("summary_clustered", "tree", "partition.expert_rules"),
             ("mined_rules",)),
    "partition": (_stage_partition, ("mined_rules", "partition.expert_rules"),
                  ("report_json", "report_txt")),
}
STAGES = tuple(_STAGES)
_PRODUCER = {key: stage for stage, (_, _, outputs) in _STAGES.items() for key in outputs}


def _config_file(config: dict, key: str) -> Path | None:
    """The file a `section.key` config value names, or None when unset. A
    template spec names a file only when its kind is csv."""
    section, name = key.split(".")
    value = config[section][name]
    if isinstance(value, dict):
        if value.get("kind") != "csv":
            return None
        value = value.get("path")
    elif value is None:
        return None
    if not isinstance(value, str):
        raise ConfigError(f"{key} must name a file, got {value!r}")
    return Path(value)


def _stage_inputs(keys: tuple[str, ...], config: dict, paths: dict[str, Path]) -> list[Path]:
    """The stage's input files; raises MissingInputError naming an absent one."""
    inputs = []
    for key in keys:
        if key not in _PRODUCER:
            path = _config_file(config, key)
            if path is None:
                continue
            if not path.exists():
                raise MissingInputError(f"file named by {key} not found: {path}")
        else:
            path = paths[key]
            if not path.exists():
                raise MissingInputError(
                    f"{path.name} missing: {path} (run {_PRODUCER[key]} first)"
                )
        inputs.append(path)
    return inputs


def _upstream(keys: tuple[str, ...]) -> set[str]:
    """The stages that wrote the artifacts `keys`, and every stage upstream."""
    found: set[str] = set()
    todo = [_PRODUCER[key] for key in keys if key in _PRODUCER]
    while todo:
        stage = todo.pop()
        if stage not in found:
            found.add(stage)
            todo.extend(_PRODUCER[key] for key in _STAGES[stage][1] if key in _PRODUCER)
    return found


def _check_fresh(input_keys: tuple[str, ...], paths: dict[str, Path],
                 sums: dict[str, str], stages: list[dict]) -> None:
    """Raise MissingInputError when an input artifact is stale: some stage
    upstream of it read an artifact that has changed since. An artifact this
    stage reads is current as `sums` hashed it; any other as its producer last
    recorded it in run.json. The error names the earliest such stage, the one
    to run again. Files the config names are not compared: swapping one, say
    the expert base before re-running partition alone, is the user's call."""
    producer = {paths[key].name: stage for key, stage in _PRODUCER.items()}
    recorded = {s["stage"]: s for s in stages}
    current = {name: digest for s in stages for name, digest in s["outputs"].items()}
    current.update(sums)
    upstream = _upstream(input_keys)
    for stage in (s for s in STAGES if s in upstream and s in recorded):
        for name, digest in recorded[stage]["inputs"].items():
            if name in producer and current.get(name, digest) != digest:
                key = next(k for k in input_keys if stage in _upstream((k,)))
                raise MissingInputError(
                    f"{paths[key].name} is stale: {name} changed since {stage} ran "
                    f"(run {stage} first)"
                )


def run_stage(stage: str, config: dict) -> dict:
    """Execute one stage, update run.json, and return its manifest entry.

    The stage writes into a staging directory under the output directory.
    Only when it returns, and its inputs are not stale (see _check_fresh),
    are its outputs moved into place, followed by run.json, so a stage that
    fails leaves every file as it was. The stage's own checks on its inputs
    come first, so a mismatch it can name, such as a changed epoch shape,
    is reported as that.
    """
    if stage not in _STAGES:
        raise ConfigError(f"unknown stage {stage!r}; valid stages: {', '.join(STAGES)}")
    fn, input_keys, output_keys = _STAGES[stage]
    out = Path(config["out"])
    out.mkdir(parents=True, exist_ok=True)
    paths = artifact_paths(out)
    inputs = _stage_inputs(input_keys, config, paths)
    started = time.perf_counter()
    input_sums = _checksums(inputs)
    manifest = paths["manifest"]
    stages = json.loads(manifest.read_text()).get("stages", []) if manifest.exists() else []
    staging = Path(tempfile.mkdtemp(dir=out, prefix=f".{stage}."))
    try:
        staged = artifact_paths(staging)
        fn(config, paths, staged)
        _check_fresh(input_keys, paths, input_sums, stages)
        outputs = [paths[key] for key in output_keys]
        for key, path in zip(output_keys, outputs):
            if path.parent != out:  # epochs/, absent before the first synth
                path.parent.mkdir(exist_ok=True)
            os.replace(staged[key], path)
        entry = {
            "stage": stage,
            "inputs": input_sums,
            "outputs": _checksums(outputs),
            "wall_time_s": round(time.perf_counter() - started, 6),
        }
        order = {name: i for i, name in enumerate(STAGES)}
        stages = [s for s in stages if s["stage"] != stage] + [entry]
        stages.sort(key=lambda s: order.get(s["stage"], 99))
        staged["manifest"].write_text(json.dumps({"stages": stages}, indent=2, sort_keys=True))
        os.replace(staged["manifest"], manifest)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return entry


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
