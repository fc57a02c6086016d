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


def unread_private_names(source: str, readers: list[str]) -> list[str]:
    """Single-underscore names `source` defines at module level (function,
    class or assignment) that neither it nor any of `readers` reads."""
    defined: dict[str, int] = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        defined.update((name, node.lineno) for name in names
                       if name.startswith("_") and not name.startswith("__"))
    read: set[str] = set()
    for text in (source, *readers):
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return [f"{name} (line {line})" for name, line in defined.items() if name not in read]


def test_private_name_check_flags_an_orphan():
    source = "_A, _B = 1, 2\n__all__ = []\ndef _used(): return _A\ndef _orphan(): pass\n" \
             "class _Kept: pass\nprint(_used())\n"
    assert unread_private_names(source, ["from m import _Kept\n"]) \
        == ["_B (line 1)", "_orphan (line 4)"]


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_module_private_names_are_read(path):
    readers = [p.read_text(encoding="utf-8") for p in SRC.glob("*.py") if p != path]
    assert unread_private_names(path.read_text(encoding="utf-8"), readers) == []
