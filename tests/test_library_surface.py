"""The library's settable parameters, the cluster model's stored fields, and
imports that nothing uses."""
import ast
import dataclasses
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from nof import classification, clustering, decomposition

SRC = Path(__file__).resolve().parents[1] / "src" / "nof"

# Each kept field has a caller: a pipeline stage, an acceptance criterion, or
# a test that uses it as its reference path.
CONFIG_FIELDS = [
    (clustering.EMConfig, ("seed", "n_restarts")),
    (clustering.EncodingConfig, ("numeric", "categorical", "scale")),
    (clustering.DivisiveConfig, ("seed",)),
    (classification.TreeConfig, ("prune_cf",)),
    (decomposition.FastIcaConfig, ("max_iter", "seed")),
]


@pytest.mark.parametrize("cls,names", CONFIG_FIELDS, ids=[c.__name__ for c, _ in CONFIG_FIELDS])
def test_config_fields_are_the_kept_set(cls, names):
    assert tuple(f.name for f in dataclasses.fields(cls)) == names


# A diagonal mixture: what was fitted, and the BIC curve select_k computed.
CLUSTER_MODEL_FIELDS = ("k", "weights", "means", "variances", "assignments", "log_likelihood",
                        "n_iter", "loglik_history", "converged", "bic_by_k")


def test_cluster_model_fields_and_json_keys(tmp_path):
    assert tuple(f.name for f in dataclasses.fields(clustering.ClusterModel)) \
        == CLUSTER_MODEL_FIELDS
    model = clustering.em_fit(np.arange(12.0).reshape(6, 2), 2)
    model.to_json(tmp_path / "cluster_model.json")
    doc = json.loads((tmp_path / "cluster_model.json").read_text())
    assert sorted(doc) == sorted(CLUSTER_MODEL_FIELDS)


def test_taxonomy_cut_takes_no_root_name():
    params = inspect.signature(clustering.taxonomy_to_classes).parameters
    assert tuple(params) == ("taxonomy", "height", "leaf_count")


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_import_check_flags_a_stray_import():
    assert unused_imports("from dataclasses import dataclass, field\n@dataclass\nclass A: pass\n") \
        == ["field (line 1)"]


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_module_imports_only_names_it_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
