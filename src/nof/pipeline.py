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

import contextlib
import copy
import csv
import functools
import hashlib
import json
import math
import os
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

from . import classification, clustering, decomposition, features, ontology, rulemining, testbed
from .errors import ConfigError, MissingInputError, NofError, ParseError

DEFAULT_CONFIG: dict = {
    "seed": 0,
    "out": "nof_out",
    "synth": {
        "preset": "two_pattern",
        "n_trials": 100,
        "noise_std": 1.0,
        "conditions": [
            {"EVENT": "stimon", "STIM": "s1", "MOD": "visual"},
            {"EVENT": "stimon", "STIM": "s2", "MOD": "visual"},
        ],
    },
    "decompose": {
        "n_components": 4,
    },
    "extract": {
        "template": {"kind": "roi", "roi": "frontal", "value": 1.0},
    },
    "cluster": {
        "k": None,
        "k_max": 6,
        "hierarchy": "divisive",
    },
    "classify": {},
    "mine": {
        # itemset-size cap: near-identical transactions make the complete
        # lattice combinatorial; null mines it anyway
        "max_len": 4,
    },
    "partition": {
        "expert_rules": None,
    },
}


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

# Numeric config keys: the types each accepts, whether null is allowed, and
# the range a number must lie in, as a test and its wording. No key accepts a
# boolean: bool is a subclass of int, and `true` would run as 1. No key
# accepts NaN or an infinity, which --set parses from `NaN` and `Infinity`.
_INT, _REAL = (int,), (int, float)
_NON_NEGATIVE = (lambda v: v >= 0, ">= 0")
_COUNT = (lambda v: v >= 1, ">= 1")
_NUMERIC_KEYS = {
    "seed": (_INT, False, _NON_NEGATIVE),
    "synth.n_trials": (_INT, False, _COUNT),
    "synth.noise_std": (_REAL, False, _NON_NEGATIVE),
    "decompose.n_components": (_INT, False, _COUNT),
    "cluster.k": (_INT, True, _COUNT),
    "cluster.k_max": (_INT, False, _COUNT),
    "mine.max_len": (_INT, True, _COUNT),
}

# The synth presets, each giving the montage's source templates
_PRESETS = {
    "two_pattern": lambda montage: testbed.two_pattern_preset(montage)[1],
    "p300_only": lambda montage: [testbed.p300_template(montage)],
}
_HIERARCHIES = ("divisive", "agglomerative:single", "agglomerative:complete",
                "agglomerative:average")
# Config keys that name one of a fixed set of choices
_CHOICES = {"synth.preset": tuple(_PRESETS), "cluster.hierarchy": _HIERARCHIES}
# The keys an extract.template may hold, and the kinds it may name. Both
# kinds carry the default's roi and value, merged in under a csv spec.
_TEMPLATE_KEYS = ("kind", "roi", "value", "path")
_TEMPLATE_KINDS = ("roi", "csv")


def _check_number(key: str, value, types: tuple[type, ...], nullable: bool) -> None:
    if value is None and nullable:
        return
    if not isinstance(value, types) or isinstance(value, bool):
        kind = "an integer" if types is _INT else "a number"
        raise ConfigError(f"{key} must be {kind}{' or null' if nullable else ''}, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {value!r}")


def _check_template(template) -> None:
    """Raise ConfigError naming the extract.template key that is not a
    template spec: an object of _TEMPLATE_KEYS with a known kind, a string
    roi, a finite value, and for csv a string path."""
    if not isinstance(template, dict):
        raise ConfigError(f"extract.template must be an object, got {template!r}")
    unknown = sorted(set(template) - set(_TEMPLATE_KEYS))
    if unknown:
        raise ConfigError(f"unknown keys in extract.template: {unknown}; "
                          f"expected {', '.join(_TEMPLATE_KEYS)}")
    kind = template.get("kind")
    if kind not in _TEMPLATE_KINDS:
        raise ConfigError(f"unknown extract.template.kind {kind!r}; "
                          f"pick one of {', '.join(_TEMPLATE_KINDS)}")
    if not isinstance(template.get("roi", ""), str):
        raise ConfigError(f"extract.template.roi must be a string, got {template['roi']!r}")
    _check_number("extract.template.value", template.get("value", 1.0), _REAL, False)
    if kind == "csv" and not isinstance(template.get("path"), str):
        raise ConfigError(
            f"extract.template.path must name a file, got {template.get('path')!r}")


def _check_conditions(conditions) -> None:
    """Raise ConfigError naming the synth.conditions entry that a trial cannot carry."""
    if not isinstance(conditions, list) or not conditions:
        raise ConfigError(f"synth.conditions must be a nonempty list, got {conditions!r}")
    for i, condition in enumerate(conditions):
        if not (isinstance(condition, dict) and set(condition) == set(testbed.METADATA_KEYS)
                and all(isinstance(v, str) for v in condition.values())):
            raise ConfigError(f"synth.conditions[{i}] must map "
                              f"{', '.join(testbed.METADATA_KEYS)} to strings, got {condition!r}")
        for key, value in condition.items():
            try:
                rulemining.eq_item(key, value)
            except ConfigError as exc:
                raise ConfigError(f"synth.conditions[{i}].{key}: {exc}") from exc


def _lookup(config: dict, key: str):
    """The value of a `seed` or `section.key` config key."""
    section, _, name = key.rpartition(".")
    return config[section][name] if section else config[name]


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
    for key, (types, nullable, (in_range, wording)) in _NUMERIC_KEYS.items():
        value = _lookup(config, key)
        _check_number(key, value, types, nullable)
        if value is not None and not in_range(value):
            raise ConfigError(f"{key} must be {wording}, got {value!r}")
    for key, choices in _CHOICES.items():
        value = _lookup(config, key)
        if value not in choices:
            raise ConfigError(f"unknown {key} {value!r}; pick one of {', '.join(choices)}")
    for key, nullable in (("out", False), ("partition.expert_rules", True)):
        value = _lookup(config, key)
        if not (isinstance(value, str) or nullable and value is None):
            raise ConfigError(f"{key} must be a path{' or null' if nullable else ''}, got {value!r}")
    _check_template(config["extract"]["template"])
    _check_conditions(config["synth"]["conditions"])
    return config


# ---------------------------------------------------------------------------
# checksums and artifact paths
# ---------------------------------------------------------------------------

def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _digest(path: Path, out: Path, record: dict) -> str:
    """The file's sha256 as run.json's digest record holds it while the stat
    key taken before reading is unchanged; otherwise hashed anew and recorded.
    Artifacts are recorded by their path relative to `out`, files the config
    names by their resolved path. The key holds ctime because os.utime cannot
    set it back after an in-place rewrite."""
    try:
        name = path.relative_to(out).as_posix()
    except ValueError:
        name = str(path.resolve())
    st = path.stat()
    key = [st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns]
    if record.get(name, {}).get("stat") != key:
        record[name] = {"sha256": sha256_file(path), "stat": key}
    return record[name]["sha256"]


def _checksums(paths: list[Path], digest_of) -> dict[str, str]:
    return {p.name: digest_of(p) for p in sorted(paths)}


def _strings(values) -> bool:
    return all(isinstance(v, str) for v in values)


def _is_entry(entry) -> bool:
    """Whether `entry` has the shape of a stage entry, mine's gate included."""
    if not (isinstance(entry, dict) and isinstance(entry.get("stage"), str) and all(
            isinstance(entry.get(side), dict) and _strings(entry[side].values())
            for side in ("inputs", "outputs"))):
        return False
    gate = entry.get("gate")
    return gate is None or isinstance(gate, dict) and {"beta_sup", "beta_conf"} <= gate.keys() \
        and isinstance(gate.get("kept"), list) and _strings(gate["kept"]) \
        and isinstance(gate.get("cuts"), dict) and all(
            isinstance(points, list) and all(isinstance(v, (int, float)) for v in points)
            for points in gate["cuts"].values())


def _is_digest(digest) -> bool:
    """Whether `digest` has the shape of a digest record's value."""
    return isinstance(digest, dict) and isinstance(digest.get("sha256"), str) \
        and isinstance(digest.get("stat"), list) and len(digest["stat"]) == 5 \
        and all(type(v) is int for v in digest["stat"])


def _read_manifest(path: Path) -> tuple[list[dict], dict]:
    """run.json's stage entries and its digest record (file -> sha256 and the
    stat key it was hashed under); both empty without run.json, and the
    record empty in a run.json written before it. Anything else that is not
    what run_stage writes raises ParseError naming the file: treating it as
    absent would drop the staleness history."""
    if not path.exists():
        return [], {}
    try:
        doc = json.loads(path.read_bytes())
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ParseError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    stages, record = doc.get("stages", []), doc.get("digests", {})
    if not (isinstance(stages, list) and all(map(_is_entry, stages))):
        raise ParseError(f"{path}: \"stages\" must be a list of stage entries")
    if not (isinstance(record, dict) and all(map(_is_digest, record.values()))):
        raise ParseError(f"{path}: \"digests\" must map each file to its sha256 and stat key")
    return stages, record


def artifact_paths(out: Path) -> dict[str, Path]:
    return {
        "montage": out / "montage.csv",
        "epochs": out / "epochs",
        "epochs_meta": out / "epochs" / "meta.json",
        "epochs_data": out / "epochs" / "data.npy",
        "decomposition": out / "decomposition.json",
        "summary": out / "summary.csv",
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
# outputs to the same keys of `staged`, which run_stage then publishes; a
# stage may return fields to add to its run.json entry
# ---------------------------------------------------------------------------

def _stage_synth(config: dict, paths: dict[str, Path], staged: dict[str, Path]) -> None:
    cfg = config["synth"]
    montage = testbed.default_montage()
    epochs = testbed.generate_dataset(
        templates=_PRESETS[cfg["preset"]](montage),
        mixing_noise=0.1,
        noise_std=float(cfg["noise_std"]),
        n_trials=cfg["n_trials"],
        seed=config["seed"],
        montage=montage,
        conditions=[dict(c) for c in cfg["conditions"]],
    )
    montage.save_csv(staged["montage"])
    epochs.save(staged["epochs"])


@functools.cache
def _openblas_threads():
    """The (get, set) thread-count functions of the OpenBLAS numpy loaded,
    found once per process, or None where there is no /proc, no OpenBLAS
    mapped, or none of its known symbol names."""
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="surrogateescape") as maps:
            paths = dict.fromkeys(line.split(maxsplit=5)[5].strip()
                                  for line in maps if "openblas" in line)
    except OSError:
        return None
    import ctypes
    # numpy's first: scipy, where it is loaded, maps an OpenBLAS of its own
    for path in sorted(paths, key=lambda p: "numpy" not in p):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_", "64_"), ("scipy_", ""), ("", "")):
            get, set_ = (getattr(lib, f"{prefix}openblas_{op}_num_threads{suffix}", None)
                         for op in ("get", "set"))
            if get and set_:
                get.argtypes, get.restype = (), ctypes.c_int
                set_.argtypes, set_.restype = (ctypes.c_int,), None
                return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body's BLAS calls on the calling thread, then restore the
    thread count. decompose's products run over every sample but are only
    as wide as the channels or components, so a second thread gains nothing
    on them, and the woken workers would spin on the other CPUs into the
    stages after it."""
    threads = _openblas_threads()
    if threads is None:
        yield
        return
    get, set_ = threads
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def _stage_decompose(config: dict, paths: dict[str, Path], staged: dict[str, Path]) -> None:
    # whitening centers the channels-major tensor in place and no name keeps
    # it, so it is freed before FastICA allocates its work arrays
    with _one_blas_thread():
        white = decomposition.center_and_whiten(
            testbed.EpochTensor.load(paths["epochs"], channels_major=True),
            config["decompose"]["n_components"],
            overwrite=True,
        )
        dec = decomposition.fastica(
            white, decomposition.FastIcaConfig(seed=config["seed"] + 1)
        )
    dec.to_json(staged["decomposition"])


def _resolve_template(montage: testbed.ChannelMontage, cfg: dict) -> np.ndarray:
    """Per-channel weights of a template spec that load_config has checked."""
    if cfg["kind"] == "roi":
        roi = cfg.get("roi", "frontal")
        if roi not in montage.rois():
            raise ConfigError(f"template ROI {roi!r} not present in the montage")
        value = float(cfg.get("value", 1.0))
        return np.array(
            [value if montage.roi_of[c] == roi else 0.0 for c in montage.channels]
        )
    weights: dict[str, float] = {}
    with open(cfg["path"], newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["channel", "weight"]:
            raise ConfigError("template CSV header must be 'channel,weight'")
        for lineno, row in enumerate(reader, start=2):
            try:
                channel, weight = row
                value = float(weight)
            except ValueError as exc:
                raise ConfigError(
                    f"template CSV line {lineno}: expected channel,weight, got {row}"
                ) from exc
            if not math.isfinite(value):
                raise ConfigError(f"template CSV line {lineno}: weight {weight!r} is not finite")
            if channel in weights:
                raise ConfigError(f"template CSV line {lineno}: channel {channel!r} is repeated")
            if channel not in montage.roi_of:
                raise ConfigError(
                    f"template CSV line {lineno}: channel {channel!r} is not in the montage")
            weights[channel] = value
    missing = [c for c in montage.channels if c not in weights]
    if missing:
        raise ConfigError(f"template CSV lacks channels: {missing}")
    return np.array([weights[c] for c in montage.channels])


def _stage_extract(config: dict, paths: dict[str, Path], staged: dict[str, Path]) -> None:
    epochs = testbed.EpochTensor.load(paths["epochs"])
    dec = decomposition.FactorDecomposition.from_json(paths["decomposition"])
    template = _resolve_template(epochs.montage, config["extract"]["template"])
    rows = features.summarize_dataset(dec, epochs, template)
    features.write_summary_csv(rows, staged["summary"])


def _stage_cluster(config: dict, paths: dict[str, Path], staged: dict[str, Path]) -> None:
    """The ontology is the EM partition: classes.json holds the model's
    classes, and the taxonomy is built over the k component means, so its
    leaf j is component j, which is class C{j+1}."""
    cfg = config["cluster"]
    # EM groups the rows by their pattern attributes, not by the condition
    X = clustering.encode_observations(
        features.read_summary_csv(paths["summary"]),
        tuple(c for c in features.CATEGORICAL_COLUMNS if c not in testbed.METADATA_KEYS),
    )
    em_config = clustering.EMConfig(seed=config["seed"] + 2)
    if cfg["k"] is not None:
        model = clustering.em_fit(X, cfg["k"], em_config)
    else:
        model = clustering.select_k(X, cfg["k_max"], em_config)
    model.to_json(staged["cluster_model"])
    if cfg["hierarchy"] == "divisive":
        taxonomy = clustering.divisive_hierarchy(
            model.means, clustering.DivisiveConfig(seed=config["seed"] + 2)
        )
    else:
        taxonomy = clustering.agglomerative_hierarchy(model.means, cfg["hierarchy"].split(":")[1])
    taxonomy.to_json(staged["taxonomy"])
    clustering.classes_to_json(model.classes(), staged["classes"])


def _clustered_rows(paths: dict[str, Path]) -> tuple[list[classification.Row], list[str]]:
    """summary.csv's rows and the cluster label cluster_model.json gives each.
    Differing row counts mean summary.csv changed since cluster ran; the
    run.json walk would say so only after the stage, which cannot run."""
    rows = features.read_summary_csv(paths["summary"])
    labels = clustering.ClusterModel.from_json(paths["cluster_model"]).labels()
    if len(labels) != len(rows):
        raise MissingInputError(
            f"{paths['cluster_model'].name} is stale: it labels {len(labels)} rows, "
            f"{paths['summary'].name} holds {len(rows)} (run cluster first)"
        )
    return rows, labels


def _stage_classify(config: dict, paths: dict[str, Path], staged: dict[str, Path]) -> None:
    tree = classification.build_tree(*_clustered_rows(paths))
    rules = classification.extract_rules(tree)
    classification.tree_to_json(tree, staged["tree"])
    classification.rules_to_json(rules, staged["class_rules_json"])
    staged["class_rules_txt"].write_text(classification.rules_to_text(rules), encoding="utf-8")


def _expert_base(config: dict) -> ontology.OntologyRuleBase:
    """The expert rule base named by partition.expert_rules, or an empty one;
    its thresholds gate both mining and partitioning."""
    path = config["partition"]["expert_rules"]
    if path is None:
        return ontology.OntologyRuleBase()
    return ontology.ingest_expert_rules(Path(path))


def _mining_gate(base: ontology.OntologyRuleBase) -> dict:
    """What mine takes from the expert base: its support and confidence
    thresholds, the finite endpoints of its intervals per attribute, and the
    attributes its rules name, whose items mine keeps even where universal."""
    cuts: dict[str, set[float]] = {}
    for item in (i for e in base.rules for i in e.antecedent if i.kind == "interval"):
        cuts.setdefault(item.attribute, set()).update(
            v for v in (item.lo, item.hi) if np.isfinite(v))
    named = {i.attribute for e in base.rules for i in (*e.antecedent, e.consequent)}
    return {"beta_sup": base.beta_sup, "beta_conf": base.beta_conf,
            "cuts": {attr: sorted(points) for attr, points in sorted(cuts.items())},
            "kept": sorted(a for a in named if a)}


def _stage_mine(config: dict, paths: dict[str, Path], staged: dict[str, Path]) -> dict:
    rows, clusters = _clustered_rows(paths)
    tree = classification.tree_from_json(paths["tree"])
    split_points = classification.all_split_points(tree)
    # Cut each numeric attribute at the expert intervals' finite endpoints
    # too, so an expert interval is a union of mined intervals rather than
    # lying inside a wider one (or inside the catch-all attr=ANY).
    base = _expert_base(config)
    gate = _mining_gate(base)
    for attr, cuts in gate["cuts"].items():
        if attr in split_points:
            split_points[attr] = sorted(set(cuts).union(split_points[attr]))
    records = [{**row, "CLUSTER": cluster} for row, cluster in zip(rows, clusters)]
    # Items the expert rules name stay even when every row holds them, so
    # matching against those rules stays exact; CLUSTER stays so a one-cluster
    # run still reports its cluster rules.
    transactions = rulemining.drop_universal_items(
        rulemining.discretize(records, split_points), {*gate["kept"], "CLUSTER"}
    )
    itemsets = rulemining.apriori(
        transactions, base.beta_sup, max_len=config["mine"]["max_len"]
    )
    rules = rulemining.generate_rules(itemsets, base.beta_conf, transactions)
    rulemining.write_rules_csv(rules, staged["mined_rules"])
    return {"gate": gate}


def _check_gate(base: ontology.OntologyRuleBase, paths: dict[str, Path]) -> None:
    """Raise MissingInputError unless mined_rules.csv was mined under `base`,
    as the gate in mine's run.json entry records: at its thresholds, cut at
    every finite endpoint of its intervals, and keeping the items of every
    attribute it names. pi_min acts only in partition, so it may differ."""
    stages, _ = _read_manifest(paths["manifest"])
    recorded = next((s.get("gate") for s in stages if s["stage"] == "mine"), None)
    gate = _mining_gate(base)
    if recorded is None or any(recorded[t] != gate[t] for t in ("beta_sup", "beta_conf")) \
            or not set(gate["kept"]) <= set(recorded["kept"]) \
            or any(not set(points) <= set(recorded["cuts"].get(attr, ()))
                   for attr, points in gate["cuts"].items()):
        raise MissingInputError(
            f"{paths['mined_rules'].name} was not mined under this expert base's "
            f"thresholds, interval endpoints and attributes (run mine first)"
        )


def _stage_partition(config: dict, paths: dict[str, Path], staged: dict[str, Path]) -> None:
    base = _expert_base(config)
    _check_gate(base, paths)
    mined = rulemining.read_rules_csv(paths["mined_rules"])
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
    "cluster": (_stage_cluster, ("summary",), ("cluster_model", "taxonomy", "classes")),
    "classify": (_stage_classify, ("summary", "cluster_model"),
                 ("tree", "class_rules_json", "class_rules_txt")),
    "mine": (_stage_mine, ("summary", "cluster_model", "tree", "partition.expert_rules"),
             ("mined_rules",)),
    "partition": (_stage_partition, ("mined_rules", "partition.expert_rules"),
                  ("report_json", "report_txt")),
}
STAGES = tuple(_STAGES)
_PRODUCER = {key: stage for stage, (_, _, outputs) in _STAGES.items() for key in outputs}


def _config_file(config: dict, key: str) -> Path | None:
    """The file a `section.key` config value names, or None when unset. A
    template spec names a file only when its kind is csv."""
    value = _lookup(config, key)
    if isinstance(value, dict):
        value = value["path"] if value["kind"] == "csv" else None
    return None if value is None else Path(value)


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


def _check_fresh(input_keys: tuple[str, ...], config: dict, paths: dict[str, Path],
                 sums: dict[str, str], stages: list[dict], digest_of) -> None:
    """Raise MissingInputError when an input artifact is stale: some stage
    upstream of it read an artifact, or the template CSV that the config
    still names, that has changed since. An artifact this stage reads is
    current as `sums` hashed it; any other as its producer last recorded it
    in run.json. The error names the earliest such stage, the one to run
    again. The expert file is not compared: partition may re-run alone on a
    new expert base, checked against the gate mine recorded (_check_gate)."""
    producer = {paths[key].name: stage for key, stage in _PRODUCER.items()}
    recorded = {s["stage"]: s for s in stages}
    current = {name: digest for s in stages for name, digest in s["outputs"].items()}
    current.update((name, digest) for name, digest in sums.items() if name in producer)
    upstream = _upstream(input_keys)
    template = _config_file(config, "extract.template") if "extract" in upstream else None
    if template is not None and "extract" in recorded and template.exists() \
            and template.name in recorded["extract"]["inputs"]:
        current[template.name] = digest_of(template)
    for stage in (s for s in STAGES if s in upstream and s in recorded):
        for name, digest in recorded[stage]["inputs"].items():
            if current.get(name, digest) != digest:
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

    A file is hashed only when run.json's digest record holds no digest for
    it under its current stat key (see _digest); the record is updated with
    the digests hashed here when run.json is written.
    """
    if stage not in _STAGES:
        raise ConfigError(f"unknown stage {stage!r}; valid stages: {', '.join(STAGES)}")
    fn, input_keys, output_keys = _STAGES[stage]
    out = Path(config["out"])
    out.mkdir(parents=True, exist_ok=True)
    paths = artifact_paths(out)
    inputs = _stage_inputs(input_keys, config, paths)
    started = time.perf_counter()
    manifest = paths["manifest"]
    stages, record = _read_manifest(manifest)
    digest_of = functools.partial(_digest, out=out, record=record)
    input_sums = _checksums(inputs, digest_of)
    staging = Path(tempfile.mkdtemp(dir=out, prefix=f".{stage}."))
    try:
        staged = artifact_paths(staging)
        extra = fn(config, paths, staged)
        _check_fresh(input_keys, config, paths, input_sums, stages, digest_of)
        outputs = [paths[key] for key in output_keys]
        for key, path in zip(output_keys, outputs):
            if path.parent != out:  # epochs/, absent before the first synth
                path.parent.mkdir(exist_ok=True)
            os.replace(staged[key], path)
        entry = {
            "stage": stage,
            "inputs": input_sums,
            "outputs": _checksums(outputs, digest_of),
            "wall_time_s": round(time.perf_counter() - started, 6),
            **(extra or {}),
        }
        order = {name: i for i, name in enumerate(STAGES)}
        stages = [s for s in stages if s["stage"] != stage] + [entry]
        stages.sort(key=lambda s: order.get(s["stage"], 99))
        # compact: json.dumps encodes in C only without indent
        staged["manifest"].write_text(json.dumps({"digests": record, "stages": stages},
                                                 sort_keys=True))
        os.replace(staged["manifest"], manifest)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return entry


def run_pipeline(config: dict) -> list[dict]:
    """Run all seven stages in order; returns the manifest entries. Errors
    propagate with the failing stage's name prefixed. The expert rule base
    is read first, so a file that mine would reject stops the run before any
    stage publishes."""
    try:
        _expert_base(config)
    except NofError as exc:
        raise type(exc)(f"partition.expert_rules: {exc}") from exc
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
