"""Span recorder and per-layer metrics for the nof benchmark.

`nof.pipeline` reaches every other module through a module or class attribute
looked up at call time (``decomposition.fastica``, ``testbed.EpochTensor.load``,
``dec.to_json``), so replacing those attributes with timing wrappers turns each
call into a span without touching the library. Wrappers read the clock and keep
references to what they were given and returned; they never alter either.
`Recorder.install` patches, `Recorder.uninstall` puts the originals back.

Spans stay in memory; the caller writes them out when the run ends. A span's
self time is its duration minus that of its direct children (calls nest
strictly in one thread, so the children never overlap).
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

LAYERS = ("testbed", "decomposition", "features", "clustering", "classification",
          "rulemining", "ontology")

# (module, attribute path, keep arguments and result for the counters)
TARGETS = (
    ("pipeline", "run_stage", True),
    ("pipeline", "sha256_file", True),
    ("testbed", "default_montage", False),
    ("testbed", "two_pattern_preset", False),
    ("testbed", "p300_template", False),
    ("testbed", "generate_dataset", False),
    ("testbed", "ChannelMontage.save_csv", False),
    ("testbed", "EpochTensor.save", False),
    ("testbed", "EpochTensor.load", False),
    ("decomposition", "center_and_whiten", False),
    ("decomposition", "fastica", True),
    ("decomposition", "FactorDecomposition.to_json", False),
    ("decomposition", "FactorDecomposition.from_json", False),
    ("features", "summarize_dataset", True),
    ("features", "write_summary_csv", False),
    ("features", "read_summary_csv", False),
    ("clustering", "encode_observations", False),
    ("clustering", "select_k", True),
    ("clustering", "em_fit", True),
    ("clustering", "ClusterModel.to_json", False),
    ("clustering", "divisive_hierarchy", False),
    ("clustering", "agglomerative_hierarchy", False),
    ("clustering", "Taxonomy.to_json", False),
    ("clustering", "taxonomy_to_classes", False),
    ("clustering", "classes_to_json", False),
    ("classification", "build_tree", True),
    ("classification", "extract_rules", False),
    ("classification", "all_split_points", False),
    ("classification", "tree_to_json", False),
    ("classification", "rules_to_json", False),
    ("classification", "rules_to_text", False),
    ("classification", "tree_from_json", False),
    ("rulemining", "discretize", False),
    ("rulemining", "apriori", True),
    ("rulemining", "generate_rules", True),
    ("rulemining", "write_rules_csv", False),
    ("rulemining", "read_rules_csv", False),
    ("ontology", "ingest_expert_rules", False),
    ("ontology", "align_cluster_labels", False),
    ("ontology", "partition", True),
    ("ontology", "report_to_json", False),
    ("ontology", "report_to_text", False),
)

# per-layer timings: metric -> span names whose durations it sums
TIMERS = {
    "testbed.generate_s": ("testbed.default_montage", "testbed.two_pattern_preset",
                           "testbed.p300_template", "testbed.generate_dataset"),
    "testbed.save_s": ("testbed.ChannelMontage.save_csv", "testbed.EpochTensor.save"),
    "testbed.load_s": ("testbed.EpochTensor.load",),
    "decomposition.whiten_s": ("decomposition.center_and_whiten",),
    "decomposition.fastica_s": ("decomposition.fastica",),
    "decomposition.write_s": ("decomposition.FactorDecomposition.to_json",),
    "decomposition.read_s": ("decomposition.FactorDecomposition.from_json",),
    "features.summarize_s": ("features.summarize_dataset",),
    "features.csv_s": ("features.write_summary_csv", "features.read_summary_csv"),
    "clustering.encode_s": ("clustering.encode_observations",),
    "clustering.hierarchy_s": ("clustering.divisive_hierarchy",
                               "clustering.agglomerative_hierarchy",
                               "clustering.taxonomy_to_classes"),
    "clustering.write_s": ("clustering.ClusterModel.to_json", "clustering.Taxonomy.to_json",
                           "clustering.classes_to_json"),
    "classification.tree_s": ("classification.build_tree", "classification.extract_rules",
                              "classification.all_split_points"),
    "classification.io_s": ("classification.tree_to_json", "classification.rules_to_json",
                            "classification.rules_to_text", "classification.tree_from_json"),
    "rulemining.discretize_s": ("rulemining.discretize",),
    "rulemining.apriori_s": ("rulemining.apriori",),
    "rulemining.rules_s": ("rulemining.generate_rules",),
    "rulemining.csv_write_s": ("rulemining.write_rules_csv",),
    "rulemining.csv_read_s": ("rulemining.read_rules_csv",),
    "ontology.ingest_s": ("ontology.ingest_expert_rules",),
    "ontology.align_s": ("ontology.align_cluster_labels",),
    "ontology.partition_s": ("ontology.partition",),
    "ontology.report_write_s": ("ontology.report_to_json", "ontology.report_to_text"),
}

# artifact sizes: metric -> files under the output directory
SIZES = {
    "testbed.epochs_mb": ("epochs/meta.json", "epochs/data.npy"),
    "decomposition.json_mb": ("decomposition.json",),
    "rulemining.csv_mb": ("mined_rules.csv",),
    "ontology.report_mb": ("report.json", "report.txt"),
}

REPORT_CATEGORIES = ("known_high_strength", "known_low_strength", "novel_high_strength",
                     "contradictory", "missing", "low_strength_residue")
ITEMSET_LEVELS = 4


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    rep: int
    phase: str
    args: tuple = ()
    kwargs: dict | None = None
    result: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans from the patched nof functions; `rep` and `phase` tag
    every span opened until they are changed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.rep = 0
        self.phase = ""
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, keep: bool):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None, self.rep, self.phase)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if keep:
                span.args, span.kwargs, span.result = args, kwargs, result
            return result

        return traced

    def install(self) -> None:
        for module_name, path, keep in TARGETS:
            owner = importlib.import_module(f"nof.{module_name}")
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr]
            name = f"{module_name}.{path}"
            if isinstance(raw, classmethod):
                patched = classmethod(self._wrap(raw.__func__, name, keep))
            else:
                patched = self._wrap(raw, name, keep)
            self._originals.append((owner, attr, raw))
            setattr(owner, attr, patched)

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, raw = self._originals.pop()
            setattr(owner, attr, raw)

    @contextlib.contextmanager
    def recording(self, rep: int, phase: str):
        """Spans of the calls made inside the block, tagged (rep, phase)."""
        self.rep, self.phase = rep, phase
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def release(self, rep: int) -> None:
        """Drop the arguments and results kept for one repetition's counters."""
        for span in self.spans:
            if span.rep == rep:
                span.args, span.kwargs, span.result = (), None, None

    def to_json(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "rep": s.rep, "phase": s.phase}
            for s in self.spans
        ]


def self_times(spans: list[Span], indices: list[int]) -> dict[int, float]:
    """Self time of each listed span (indices into `spans`)."""
    wanted = set(indices)
    own = {i: spans[i].duration for i in indices}
    for span in spans:
        if span.parent in wanted:
            own[span.parent] -= span.duration
    return own


def stage_breakdown(spans: list[Span], rep: int, phase: str) -> dict[str, dict[str, float]]:
    """Per stage: run_stage wall time, time in child spans, and the rest."""
    stage_idx = [i for i, s in enumerate(spans)
                 if s.rep == rep and s.phase == phase and s.name == "pipeline.run_stage"]
    own = self_times(spans, stage_idx)
    out = {}
    for i in stage_idx:
        stage = spans[i].args[0] if spans[i].args else spans[i].kwargs["stage"]
        total = spans[i].duration
        out[stage] = {"stage_s": total, "children_s": total - own[i], "self_s": own[i]}
    return out


def _mb(out: Path, names) -> float:
    return sum(os.path.getsize(out / n) for n in names) / 1e6


def layer_metrics(spans: list[Span], rep: int, phase: str, out: Path) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline run whose artifacts are in `out`."""
    from nof import classification

    idx = [i for i, s in enumerate(spans) if s.rep == rep and s.phase == phase]
    by_name: dict[str, list[Span]] = {}
    for i in idx:
        by_name.setdefault(spans[i].name, []).append(spans[i])

    def total(*names: str) -> float:
        """Time in the calls a stage makes directly (nested calls, such as
        select_k's em_fit or tree_to_json's all_split_points, are inside)."""
        return sum(s.duration for n in names for s in by_name.get(n, ())
                   if s.parent is not None and spans[s.parent].name == "pipeline.run_stage")

    def results(name: str) -> list:
        return [s.result for s in by_name.get(name, ())]

    m: dict[str, float] = {}
    stages = stage_breakdown(spans, rep, phase)
    for stage, b in stages.items():
        m[f"pipeline.stage_s.{stage}"] = b["stage_s"]
    m["pipeline.self_s"] = sum(b["self_s"] for b in stages.values())
    hashed = by_name.get("pipeline.sha256_file", [])
    m["pipeline.checksum_s"] = total("pipeline.sha256_file")
    m["pipeline.checksum_mb"] = sum(os.path.getsize(s.args[0]) for s in hashed) / 1e6

    for metric, names in TIMERS.items():
        m[metric] = total(*names)
    for metric, names in SIZES.items():
        m[metric] = _mb(out, names)

    m["testbed.loads"] = len(by_name.get("testbed.EpochTensor.load", ()))
    (dec,) = results("decomposition.fastica")
    m["decomposition.ica_iter"] = dec.n_iter
    m["decomposition.ica_converged"] = float(dec.converged)
    (rows,) = results("features.summarize_dataset")
    m["features.rows"] = len(rows)

    m["clustering.em_s"] = total("clustering.select_k", "clustering.em_fit")
    m["clustering.em_fits"] = len(by_name.get("clustering.em_fit", ()))
    (model,) = results("clustering.select_k") or results("clustering.em_fit")
    m["clustering.k"] = model.k
    (tree,) = results("classification.build_tree")
    m["classification.leaves"] = classification.leaf_count(tree)
    m["classification.split_points"] = sum(
        len(v) for v in classification.all_split_points(tree).values())

    (itemsets,) = results("rulemining.apriori")
    levels = Counter(len(s) for s in itemsets)
    m["rulemining.itemsets"] = len(itemsets)
    m["rulemining.max_level"] = max(levels, default=0)
    for level in range(1, ITEMSET_LEVELS + 1):
        m[f"rulemining.itemsets.l{level}"] = levels.get(level, 0)
    (gen,) = by_name["rulemining.generate_rules"]
    transactions = gen.args[2] if len(gen.args) > 2 else gen.kwargs["transactions"]
    universal = frozenset.intersection(*transactions)
    rules = gen.result
    m["rulemining.rules"] = len(rules)
    m["rulemining.tautology_share"] = (
        sum(1 for r in rules if (r.antecedent | r.consequent) & universal) / len(rules)
        if rules else 0.0
    )

    (report,) = results("ontology.partition")
    m["ontology.qualified"] = len(report.arec)
    for category in REPORT_CATEGORIES:
        m[f"ontology.{category}"] = len(getattr(report, category))

    busy = self_times(spans, idx)
    for layer in LAYERS:
        m[f"{layer}.busy_s"] = sum(t for i, t in busy.items()
                                   if spans[i].name.startswith(layer + "."))
    return m
