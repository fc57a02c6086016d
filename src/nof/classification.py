"""Gain-ratio decision-tree induction and rule derivation.

The split selection follows the classic convention: every attribute proposes
candidate splits (midpoint thresholds for numerics, one multiway split for
categoricals); attributes whose best information gain reaches the mean gain
across attributes stay eligible, and among their candidates the maximum gain
ratio wins, ties broken by attribute order then lower threshold. Pruning is
pessimistic-error pruning driven by a binomial upper confidence bound, C4.5's
U_CF(E, N), solved in floating point to within about 1e-15 of its exact value.

All arithmetic is pure Python (math.log2 over sorted label/branch orders) so
the chosen splits are reproducible operation for operation.
"""
from __future__ import annotations

import json
import math
import numbers
import warnings
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError, MissingInputError, parsing
from .rulemining import _fmt_num

Row = dict[str, float | str]


@dataclass
class Leaf:
    label: str
    n: int
    counts: dict[str, int]
    error_estimate: float = 0.0


@dataclass
class Split:
    attribute: str
    threshold: float | None          # None for categorical splits
    children: dict[str, "Leaf | Split"] = field(default_factory=dict)
    # numeric children use keys "le" / "gt"; categorical keys are the values
    majority_value: str | None = None  # categorical: branch for unseen values
    n: int = 0
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def is_numeric(self) -> bool:
        return self.threshold is not None


@dataclass
class DecisionTree:
    root: Leaf | Split
    attributes: tuple[str, ...]
    kinds: dict[str, str]            # attribute -> "numeric" | "categorical"
    n_rows: int
    class_labels: tuple[str, ...]
    prune_cf: float | None           # None grew the tree unpruned


def _entropy(counts: Counter) -> float:
    n = sum(counts.values())
    if n == 0:
        return 0.0
    h = 0.0
    for label in sorted(counts):
        p = counts[label] / n
        if p > 0:
            h -= p * math.log2(p)
    return h


def _branch_stats(
    parent_counts: Counter, branch_counts: list[Counter]
) -> tuple[float, float]:
    """(information gain, split info) for a branching, branches in fixed order."""
    n = sum(parent_counts.values())
    h_parent = _entropy(parent_counts)
    remainder = 0.0
    split_info = 0.0
    for bc in branch_counts:
        nb = sum(bc.values())
        if nb == 0:
            continue
        frac = nb / n
        remainder += frac * _entropy(bc)
        split_info -= frac * math.log2(frac)
    return h_parent - remainder, split_info


@dataclass
class _Candidate:
    attribute: str
    threshold: float | None
    gain: float
    ratio: float


def _numeric_candidates(attr: str, rows: list[Row], labels: list[str]) -> list[_Candidate]:
    """One candidate per midpoint between adjacent distinct values. As the
    thresholds rise, the rows with v <= thr move from `right` to `left` in one
    pass; a label left at count 0 adds nothing to _entropy."""
    pairs = sorted(zip((float(r[attr]) for r in rows), labels))
    values = sorted({v for v, _ in pairs})
    out: list[_Candidate] = []
    parent = Counter(labels)
    left, right = Counter(), Counter(labels)
    moved = 0
    for lo, hi in zip(values, values[1:]):
        thr = (lo + hi) / 2.0
        while moved < len(pairs) and pairs[moved][0] <= thr:
            left[pairs[moved][1]] += 1
            right[pairs[moved][1]] -= 1
            moved += 1
        gain, split_info = _branch_stats(parent, [left, right])
        if split_info <= 0:
            continue
        out.append(_Candidate(attr, thr, gain, gain / split_info))
    return out


def _categorical_candidate(attr: str, rows: list[Row], labels: list[str]) -> list[_Candidate]:
    values = sorted({str(r[attr]) for r in rows})
    if len(values) < 2:
        return []
    branches = [
        Counter(lab for r, lab in zip(rows, labels) if str(r[attr]) == v)
        for v in values
    ]
    gain, split_info = _branch_stats(Counter(labels), branches)
    if split_info <= 0:
        return []
    return [_Candidate(attr, None, gain, gain / split_info)]


# Candidates whose scores differ by no more than this are ties; ties resolve
# by attribute order then lower threshold, independent of float rounding.
_TIE_EPS = 1e-12


def _best_split(
    rows: list[Row],
    labels: list[str],
    attributes: tuple[str, ...],
    kinds: dict[str, str],
) -> _Candidate | None:
    per_attr: list[list[_Candidate]] = []
    for attr in attributes:
        if kinds[attr] == "numeric":
            cands = _numeric_candidates(attr, rows, labels)
        else:
            cands = _categorical_candidate(attr, rows, labels)
        if cands:
            per_attr.append(cands)
    if not per_attr:
        return None
    attr_gains = [max(c.gain for c in cands) for cands in per_attr]
    mean_gain = sum(attr_gains) / len(attr_gains)
    best: _Candidate | None = None
    for cands, g_a in zip(per_attr, attr_gains):
        if g_a < mean_gain - _TIE_EPS:
            continue
        for c in cands:
            if best is None or c.ratio > best.ratio + _TIE_EPS:
                best = c
    if best is None or best.gain <= _TIE_EPS:
        return None
    return best


def _majority(counts: Counter) -> str:
    top = max(counts.values())
    return min(label for label, c in counts.items() if c == top)


def _make_leaf(labels: list[str]) -> Leaf:
    counts = Counter(labels)
    return Leaf(label=_majority(counts), n=len(labels), counts=dict(sorted(counts.items())))


def _grow(
    rows: list[Row],
    labels: list[str],
    attributes: tuple[str, ...],
    kinds: dict[str, str],
) -> Leaf | Split:
    counts = Counter(labels)
    if len(counts) == 1:
        return _make_leaf(labels)
    cand = _best_split(rows, labels, attributes, kinds)
    if cand is None:
        return _make_leaf(labels)
    node = Split(
        attribute=cand.attribute,
        threshold=cand.threshold,
        n=len(rows),
        counts=dict(sorted(counts.items())),
    )
    if cand.threshold is not None:
        le = [i for i, r in enumerate(rows) if float(r[cand.attribute]) <= cand.threshold]
        gt = [i for i, r in enumerate(rows) if float(r[cand.attribute]) > cand.threshold]
        node.children["le"] = _grow([rows[i] for i in le], [labels[i] for i in le], attributes, kinds)
        node.children["gt"] = _grow([rows[i] for i in gt], [labels[i] for i in gt], attributes, kinds)
    else:
        values = sorted({str(r[cand.attribute]) for r in rows})
        sizes: dict[str, int] = {}
        for v in values:
            sel = [i for i, r in enumerate(rows) if str(r[cand.attribute]) == v]
            sizes[v] = len(sel)
            node.children[v] = _grow(
                [rows[i] for i in sel], [labels[i] for i in sel], attributes, kinds
            )
        top = max(sizes.values())
        node.majority_value = min(v for v, s in sizes.items() if s == top)
    return node


# Quinlan's pessimistic bound U_CF(E, N) (C4.5, 1993): the p at which
# P(X <= E) = CF for X ~ Binomial(N, p).
def _log_density(n: int, m: int, x: float) -> float:
    """log |d/dx P(Y <= m)| = log(n C(n-1, m) x^m (1-x)^(n-1-m)), Y ~ Binomial(n, x)."""
    return math.log(n * math.comb(n - 1, m)) + m * math.log(x) + (n - 1 - m) * math.log1p(-x)


def _log_lower_tail(n: int, m: int, x: float) -> float:
    """log P(Y <= m) for Y ~ Binomial(n, x), 0 < x < 1, in floating point. The
    terms are summed relative to the largest one, walking away from it while
    they matter, so none overflows or underflows."""
    j = min(m, int((n + 1) * x))                  # the mode, or m below it
    odds = x / (1.0 - x)
    total = term = 1.0
    for i in range(j, 0, -1):                     # t_{i-1} / t_i falls as i falls
        term *= i / ((n - i + 1) * odds)
        total += term
        if term < 1e-17 * total:
            break
    term = 1.0
    for i in range(j, m):                         # t_{i+1} / t_i falls as i rises
        term *= (n - i) * odds / (i + 1)
        total += term
        if term < 1e-17 * total:
            break
    return math.log(math.comb(n, j)) + j * math.log(x) + (n - j) * math.log1p(-x) + math.log(total)


def _upper_limit(n: int, e: int, cf: float) -> float:
    """U_CF(e, n) for 0 <= e < n, to within about 1e-15: the p in (0, 1] with
    P(X <= e) = 1 - y for X ~ Binomial(n, p) and y = fl(1 - cf), which is
    what scipy.special.betaincinv(e + 1, n - e, y) approximates.

    Newton steps run on the log of the tail whose target is at most 1/2: the
    log of a target near 1 is near 0, where the rounding of the tail's sum
    swamps the residual. The upper tail P(X > e) is solved as the lower tail
    at n - e - 1 of Binomial(n, 1 - p). The log of the lower tail is
    concave in x, so once a step lands above the root the steps fall toward
    it from above. A rising step that would pass the top of the bracket is
    taken in log(1 - x) instead, where the tail near x = 1 is about a power
    of 1 - x, so a root within 1e-11 of 1 costs a few steps, not fifty
    bisections. A step that still leaves the bracket bisects it, in
    log(1 - x) when rising. The solve stops after a step below 1e-9 of the
    distance to 0 or 1 (or two ulps), which leaves an error of about that
    step squared."""
    y = 1.0 - float(cf)
    if y == 1.0:                                  # the target 0 is reached at p = 1
        return 1.0
    lower = y >= 0.5
    m, log_target = (e, math.log1p(-y)) if lower else (n - e - 1, math.log(y))
    if m == 0:                                    # the tail is (1 - x)^n alone
        x = -math.expm1(log_target / n)
        return x if lower else 1.0 - x
    lo, hi, x = 0.0, 1.0, (m + 1) / (n + 1)
    while True:
        log_tail = _log_lower_tail(n, m, x)
        h = log_tail - log_target                 # falls as x rises
        if h > 0:
            lo = x
        elif h < 0:
            hi = x
        # -h / h' = h * exp(log_tail - log_density)
        step = h * math.exp(min(log_tail - _log_density(n, m, x), 700.0))
        if step > 0 and x + step >= hi:           # the Newton step in log(1 - x)
            step = -(1.0 - x) * math.expm1(-step / (1.0 - x))
        if lo < x + step < hi or x + step == x:
            x += step
            if abs(step) <= max(1e-9 * min(x, 1.0 - x), 2 * math.ulp(x)):
                break
        else:                                     # bisect; stop once no double is left between
            if step > 0:                          # in log(1 - x), where hi may be 1
                x = 1.0 - math.sqrt((1.0 - lo) * max(1.0 - hi, 2.0 ** -53))
            else:
                x = (lo + hi) / 2
            if not lo < x < hi:
                break
    return x if lower else 1.0 - x


def _pessimistic_errors(n: int, errors: int, cf: float) -> float:
    """n times U_CF(errors, n), the one-sided binomial upper confidence bound
    on the error rate."""
    if n == 0:
        return 0.0
    if errors >= n:
        return float(n)
    return float(n) * _upper_limit(n, errors, cf)


def _prune(node: Leaf | Split, cf: float) -> tuple[Leaf | Split, float]:
    """Returns (possibly collapsed node, its estimated error count)."""
    if isinstance(node, Leaf):
        errors = node.n - node.counts.get(node.label, 0)
        node.error_estimate = _pessimistic_errors(node.n, errors, cf)
        return node, node.error_estimate
    subtree_est = 0.0
    for key in list(node.children):
        child, est = _prune(node.children[key], cf)
        node.children[key] = child
        subtree_est += est
    counts = Counter(node.counts)
    as_leaf_errors = node.n - max(counts.values())
    as_leaf_est = _pessimistic_errors(node.n, as_leaf_errors, cf)
    if as_leaf_est <= subtree_est + 1e-9:
        leaf = Leaf(
            label=_majority(counts),
            n=node.n,
            counts=dict(sorted(counts.items())),
            error_estimate=as_leaf_est,
        )
        return leaf, as_leaf_est
    return node, subtree_est


def _check_prune_cf(cf) -> None:
    # 1.0 would collapse every tree and a cf outside (0, 1) gives NaN bounds
    if cf is not None and (isinstance(cf, bool) or not isinstance(cf, numbers.Real)
                           or not 0 < cf < 1):
        raise ConfigError(f"prune_cf must be null or a number in (0, 1), got {cf!r}")


def infer_kinds(rows: list[Row], attributes: tuple[str, ...]) -> dict[str, str]:
    kinds: dict[str, str] = {}
    for attr in attributes:
        v = rows[0][attr]
        kind = "numeric" if isinstance(v, (int, float)) and not isinstance(v, bool) else "categorical"
        for i, r in enumerate(rows):
            w = r[attr]
            ok = isinstance(w, (int, float)) and not isinstance(w, bool)
            if ok != (kind == "numeric"):
                raise ConfigError(f"attribute {attr!r} mixes numeric and categorical values (row {i})")
        kinds[attr] = kind
    return kinds


def build_tree(
    rows: list[Row], labels: list[str], prune_cf: float | None = 0.25
) -> DecisionTree:
    """Induce a tree mapping attribute rows to their labels, pruned at
    confidence prune_cf, or unpruned when it is None.

    Attribute order (used for tie-breaking) is the key order of the first row.
    """
    _check_prune_cf(prune_cf)
    if not rows:
        raise ConfigError("cannot build a tree from zero rows")
    if len(rows) != len(labels):
        raise ConfigError("rows and labels must have equal length")
    attributes = tuple(rows[0].keys())
    for i, r in enumerate(rows):
        if tuple(r.keys()) != attributes:
            raise ConfigError(f"row {i} attributes differ from row 0")
        for attr in attributes:
            if r[attr] is None:
                raise ConfigError(f"missing value for attribute {attr!r} in row {i}")
    kinds = infer_kinds(rows, attributes)
    root = _grow(rows, labels, attributes, kinds)
    if prune_cf is not None:
        root, _ = _prune(root, prune_cf)
    else:
        _prune_estimates_only(root)
    return DecisionTree(
        root=root,
        attributes=attributes,
        kinds=kinds,
        n_rows=len(rows),
        class_labels=tuple(sorted(set(labels))),
        prune_cf=prune_cf,
    )


def _prune_estimates_only(node: Leaf | Split) -> None:
    # keep leaf error estimates populated even when pruning is disabled
    if isinstance(node, Leaf):
        errors = node.n - node.counts.get(node.label, 0)
        node.error_estimate = float(errors)
        return
    for child in node.children.values():
        _prune_estimates_only(child)


def classify(tree: DecisionTree, row: Row) -> str:
    """Route one row to a leaf label."""
    node = tree.root
    while isinstance(node, Split):
        if node.attribute not in row or row[node.attribute] is None:
            raise ConfigError(f"row lacks a value for attribute {node.attribute!r}")
        if node.is_numeric:
            node = node.children["le" if float(row[node.attribute]) <= node.threshold else "gt"]
        else:
            value = str(row[node.attribute])
            if value in node.children:
                node = node.children[value]
            else:
                warnings.warn(
                    f"unseen value {value!r} for {node.attribute!r}; routing to majority child",
                    UserWarning,
                )
                node = node.children[node.majority_value]
    return node.label


@dataclass(frozen=True)
class Condition:
    attribute: str
    op: str          # "<=", ">", "="
    value: float | str

    def holds(self, row: Row) -> bool:
        v = row[self.attribute]
        if self.op == "=":
            return str(v) == self.value
        if self.op == "<=":
            return float(v) <= self.value
        return float(v) > self.value

    def render(self) -> str:
        if self.op == "=":
            return f"{self.attribute} = {self.value}"
        return f"{self.attribute} {self.op} {_fmt_num(self.value)}"


@dataclass(frozen=True)
class ClassificationRule:
    antecedent: tuple[Condition, ...]
    consequent: str
    coverage: int
    confidence: float

    def matches(self, row: Row) -> bool:
        return all(c.holds(row) for c in self.antecedent)

    def render(self) -> str:
        body = " AND ".join(c.render() for c in self.antecedent) or "ALWAYS"
        return (
            f"IF {body} THEN {self.consequent} "
            f"(cov={self.coverage}, conf={self.confidence:.2f})"
        )


def _simplify(path: list[Condition]) -> tuple[Condition, ...]:
    """Tighten per-attribute interval bounds, keeping first-seen attribute order."""
    order: list[str] = []
    lower: dict[str, float] = {}
    upper: dict[str, float] = {}
    equals: dict[str, str] = {}
    for cond in path:
        if cond.attribute not in order:
            order.append(cond.attribute)
        if cond.op == ">":
            lower[cond.attribute] = max(lower.get(cond.attribute, -math.inf), cond.value)
        elif cond.op == "<=":
            upper[cond.attribute] = min(upper.get(cond.attribute, math.inf), cond.value)
        else:
            equals[cond.attribute] = cond.value
    out: list[Condition] = []
    for attr in order:
        if attr in equals:
            out.append(Condition(attr, "=", equals[attr]))
        if attr in lower:
            out.append(Condition(attr, ">", lower[attr]))
        if attr in upper:
            out.append(Condition(attr, "<=", upper[attr]))
    return tuple(out)


def extract_rules(tree: DecisionTree) -> list[ClassificationRule]:
    """One rule per leaf: the conjunction of root-to-leaf conditions."""
    rules: list[ClassificationRule] = []

    def walk(node: Leaf | Split, path: list[Condition]) -> None:
        if isinstance(node, Leaf):
            conf = node.counts.get(node.label, 0) / node.n if node.n else 1.0
            rules.append(
                ClassificationRule(
                    antecedent=_simplify(path),
                    consequent=node.label,
                    coverage=node.n,
                    confidence=conf,
                )
            )
            return
        if node.is_numeric:
            walk(node.children["le"], path + [Condition(node.attribute, "<=", node.threshold)])
            walk(node.children["gt"], path + [Condition(node.attribute, ">", node.threshold)])
        else:
            for value in sorted(node.children):
                walk(node.children[value], path + [Condition(node.attribute, "=", value)])

    walk(tree.root, [])
    return rules


def all_split_points(tree: DecisionTree) -> dict[str, list[float]]:
    """Each numeric attribute the tree knows about, in attribute order, with
    the sorted distinct thresholds the tree tests it at (none if untested)."""
    found: dict[str, set[float]] = {a: set() for a in tree.attributes if tree.kinds[a] == "numeric"}

    def walk(node: Leaf | Split) -> None:
        if isinstance(node, Split):
            if node.is_numeric and node.attribute in found:
                found[node.attribute].add(node.threshold)
            for child in node.children.values():
                walk(child)

    walk(tree.root)
    return {attr: sorted(points) for attr, points in found.items()}


def leaf_count(tree: DecisionTree) -> int:
    def count(node: Leaf | Split) -> int:
        if isinstance(node, Leaf):
            return 1
        return sum(count(c) for c in node.children.values())

    return count(tree.root)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _node_doc(node: Leaf | Split) -> dict:
    if isinstance(node, Leaf):
        return {
            "type": "leaf",
            "label": node.label,
            "n": node.n,
            "counts": node.counts,
            "error_estimate": node.error_estimate,
        }
    doc = {
        "type": "split",
        "attribute": node.attribute,
        "threshold": node.threshold,
        "n": node.n,
        "counts": node.counts,
        "children": {k: _node_doc(v) for k, v in node.children.items()},
    }
    if node.majority_value is not None:
        doc["majority_value"] = node.majority_value
    return doc


def _node_undoc(doc: dict) -> Leaf | Split:
    if doc["type"] == "leaf":
        return Leaf(
            label=doc["label"],
            n=int(doc["n"]),
            counts={k: int(v) for k, v in doc["counts"].items()},
            error_estimate=float(doc["error_estimate"]),
        )
    return Split(
        attribute=doc["attribute"],
        threshold=doc["threshold"],
        children={k: _node_undoc(v) for k, v in doc["children"].items()},
        majority_value=doc.get("majority_value"),
        n=int(doc["n"]),
        counts={k: int(v) for k, v in doc["counts"].items()},
    )


def tree_to_json(tree: DecisionTree, path: str | Path) -> None:
    doc = {
        "root": _node_doc(tree.root),
        "attributes": list(tree.attributes),
        "kinds": tree.kinds,
        "n_rows": tree.n_rows,
        "class_labels": list(tree.class_labels),
        "config": {"prune_cf": tree.prune_cf},
    }
    # json.dumps encodes in C; json.dump always runs the pure-Python encoder
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, sort_keys=True))


def tree_from_json(path: str | Path) -> DecisionTree:
    path = Path(path)
    if not path.exists():
        raise MissingInputError(f"tree file not found: {path}")
    with parsing(path), open(path) as fh:
        doc = json.load(fh)
        _check_prune_cf(doc["config"]["prune_cf"])
        return DecisionTree(
            root=_node_undoc(doc["root"]),
            attributes=tuple(doc["attributes"]),
            kinds=dict(doc["kinds"]),
            n_rows=int(doc["n_rows"]),
            class_labels=tuple(doc["class_labels"]),
            # files written before the config held only prune_cf still load;
            # their other config keys are ignored
            prune_cf=doc["config"]["prune_cf"],
        )


def rules_to_text(rules: list[ClassificationRule]) -> str:
    return "\n".join(r.render() for r in rules) + "\n"


def rules_to_json(rules: list[ClassificationRule], path: str | Path) -> None:
    doc = [
        {
            "if": [
                {"attribute": c.attribute, "op": c.op, "value": c.value}
                for c in r.antecedent
            ],
            "then": r.consequent,
            "coverage": r.coverage,
            "confidence": r.confidence,
        }
        for r in rules
    ]
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, sort_keys=True))
