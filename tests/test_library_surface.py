"""The library's settable parameters, the cluster model's stored fields,
imports that nothing uses, and names that nothing calls."""
import ast
import dataclasses
import functools
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from nof import classification, clustering, decomposition, testbed

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "nof"

# The algorithms' parameters, with their defaults. The settable values are
# the FastICA, EM and divisive seeds, which the stages derive from the
# config's seed, and prune_cf, which criterion 05 sets to None; iteration
# caps, tolerances and restart counts are module constants.
PARAMETERS = [
    (decomposition.fastica, ("white", "seed=0")),
    (clustering.em_fit, ("X", "k", "seed=0")),
    (clustering.select_k, ("X", "k_max", "seed=0")),
    (clustering.divisive_hierarchy, ("X", "seed=0")),
    (clustering.agglomerative_hierarchy, ("X",)),
    (classification.build_tree, ("rows", "labels", "prune_cf=0.25")),
]
# The testbed builders take no epoch window: every epoch is 250 samples at
# 250 Hz from 0 ms, so a template is a name, a topography and a waveform.
PARAMETERS += [
    (testbed.gaussian_source, ("name", "topography", "peak_ms", "width_ms", "amplitude")),
    (testbed.roi_topography, ("montage", "roi_weights", "peak_channel")),
    (testbed.p300_template, ("montage", "amplitude=5.0")),
    (testbed.occipital_template, ("montage",)),
    (testbed.two_pattern_preset, ("montage=None",)),
]


@pytest.mark.parametrize("fn,params", PARAMETERS, ids=[fn.__name__ for fn, _ in PARAMETERS])
def test_parameters_are_the_kept_set(fn, params):
    assert tuple(p.name if p.default is p.empty else f"{p.name}={p.default!r}"
                 for p in inspect.signature(fn).parameters.values()) == params


def test_source_template_fields():
    assert tuple(f.name for f in dataclasses.fields(testbed.SourceTemplate)) \
        == ("name", "topography", "waveform")


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_config_class(path):
    classes = [node.name for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.ClassDef)]
    assert [name for name in classes if name.endswith("Config")] == []


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


def _reads(tree: ast.AST, skip: set[int] = frozenset()) -> set[str]:
    """Every name `tree` reads: loaded names, attribute names and names
    imported from a module, outside the nodes whose id() is in `skip`."""
    read: set[str] = set()
    todo = [tree]
    while todo:
        node = todo.pop()
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
        todo.extend(ast.iter_child_nodes(node))
    return read


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
    read = set().union(*(_reads(ast.parse(text)) for text in (source, *readers)))
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


def uncalled_public_names(source: str, read: set[str]) -> list[str]:
    """Public module-level functions and classes, and public methods, of
    `source` whose name is neither in `read` nor read by the module itself.
    A module's own reads count only outside the definition being checked and
    outside every definition already found uncalled, so a helper whose one
    caller is uncalled is found too."""
    tree = ast.parse(source)
    defined: dict[str, ast.AST] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            defined[node.name] = node
            defined.update((f"{node.name}.{m.name}", m) for m in node.body
                           if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"))
    uncalled: dict[str, int] = {}
    while True:
        dead = {id(defined[name]) for name in uncalled}
        found = {name: node.lineno for name, node in defined.items()
                 if name not in uncalled and name.rpartition(".")[2] not in read
                 and name.rpartition(".")[2] not in _reads(tree, dead | {id(node)})}
        if not found:
            return [f"{name} (line {line})" for name, line in uncalled.items()]
        uncalled.update(found)


def test_uncalled_name_check_flags_an_orphan_and_its_helper():
    source = ("def helper(): pass\ndef orphan(): return helper()\ndef kept(): return 1\n"
              "class Kept:\n    def used(self): pass\n    def unused(self): pass\n"
              "def recursive(n): return recursive(n - 1)\n")
    assert uncalled_public_names(source, {"kept", "Kept", "used"}) \
        == ["orphan (line 2)", "Kept.unused (line 6)", "recursive (line 7)", "helper (line 1)"]


def _target_names(text: str) -> set[str]:
    """The dotted names in the strings of a module's TARGETS assignment,
    split at the dots: the attributes bench/tracer.py patches."""
    names: set[str] = set()
    for node in ast.parse(text).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            names.update(part for c in ast.walk(node.value)
                         if isinstance(c, ast.Constant) and isinstance(c.value, str)
                         for part in c.value.split("."))
    return names


@functools.cache
def _file_reads(path: Path) -> frozenset[str]:
    text = path.read_text(encoding="utf-8")
    return frozenset(_reads(ast.parse(text)) | _target_names(text))


# Public names kept although only tests call them, each with its reason
UNCALLED_KEPT = {
    "features": {"extract_summary"},  # the one-row reference for summarize_dataset
}


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_public_names_have_a_caller(path):
    """A public function, class or method is read by another module of the
    package, by the benchmark (bench/*.py, the tracer's TARGETS included), or
    by the acceptance criteria; otherwise it is deleted."""
    readers = [p for p in SRC.glob("*.py") if p != path]
    readers += [*(ROOT / "bench").glob("*.py"), ROOT / "tests" / "test_acceptance.py"]
    read = set().union(*map(_file_reads, readers))
    uncalled = uncalled_public_names(path.read_text(encoding="utf-8"), read)
    kept = UNCALLED_KEPT.get(path.stem, set())
    assert [n for n in uncalled if n.partition(" ")[0] not in kept] == []


def _attribute_loads(tree: ast.AST) -> set[str]:
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def _loads_and_strings(tree: ast.AST) -> set[str]:
    """The attribute names `tree` loads, and its string constants other than
    docstrings, such as a getattr key."""
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                  and ast.get_docstring(node, clean=False) is not None}
    return _attribute_loads(tree) | {
        node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)
        and isinstance(node.value, str) and id(node) not in docstrings}


def _imported_modules(tree: ast.AST) -> set[str]:
    """The modules `tree` imports or imports a name from, package modules
    without their `nof.` prefix."""
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name.removeprefix("nof.") for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module in (None, "nof"):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            found.add(node.module.removeprefix("nof."))
    return found


def _is_dataclass(decorator: ast.expr) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return isinstance(target, ast.Name) and target.id == "dataclass"


def unread_dataclass_fields(module: str, package: dict[str, str], outside: list[str]) -> list[str]:
    """Fields of the dataclasses that package module `module` defines which
    are read nowhere. A field is read where `module` itself loads it as an
    attribute (its own strings, such as a JSON key of the same name, do not
    count), or where a package module that imports `module`, or one of the
    `outside` sources, loads it as an attribute or names it in a string."""
    tree = ast.parse(package[module])
    readers = [ast.parse(text) for name, text in package.items() if name != module]
    read = _attribute_loads(tree).union(
        *(_loads_and_strings(reader) for reader in readers if module in _imported_modules(reader)),
        *(_loads_and_strings(ast.parse(text)) for text in outside))
    return [f"{node.name}.{f.target.id} (line {f.lineno})" for node in tree.body
            if isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list))
            for f in node.body if isinstance(f, ast.AnnAssign) and f.target.id not in read]


def test_unread_field_check_flags_an_orphan():
    # `keyed` is read by a getattr key in a module that imports `a`; `named`
    # only by a's own JSON key and `shadowed` only by a module that does not
    # import `a`, as OntologyRuleBase.attributes once was beside
    # DecisionTree.attributes and ontology's "attributes" key
    source = ('"""A.lost"""\nfrom dataclasses import dataclass\n'
              '@dataclass(frozen=True)\nclass A:\n    """lost"""\n    kept: int\n'
              '    keyed: int\n    lost: int = 0\n    stored: int = 0\n'
              '    named: int = 0\n    shadowed: int = 0\n'
              'class B:\n    plain: int\n'
              'def dump(a):\n    return {"named": a.kept}\n')
    package = {"a": source,
               "user": "from .a import A\ngetattr(A(1, 2), 'keyed')\nA.stored = 1\n",
               "other": "from .user import f\ndef g(tree):\n    return tree.shadowed\n"}
    assert unread_dataclass_fields("a", package, ["a.kept\n"]) \
        == ["A.lost (line 8)", "A.stored (line 9)", "A.named (line 10)", "A.shadowed (line 11)"]


# Dataclasses whose writers emit every field through dataclasses.fields or
# asdict, so each field is read without being named
READ_WHOLE = {"clustering": {"ClusterModel", "TaxonomyClass"}}


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_dataclass_fields_are_read(path):
    """A dataclass field is read by its own module, by a package module that
    imports it, by the benchmark (bench/*.py) or by the acceptance criteria;
    otherwise it is deleted."""
    package = {p.stem: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    outside = [p.read_text(encoding="utf-8") for p in
               [*(ROOT / "bench").glob("*.py"), ROOT / "tests" / "test_acceptance.py"]]
    unread = unread_dataclass_fields(path.stem, package, outside)
    whole = READ_WHOLE.get(path.stem, set())
    assert [n for n in unread if n.partition(".")[0] not in whole] == []
