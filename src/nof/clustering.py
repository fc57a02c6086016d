"""Unsupervised grouping of summary rows.

Flat clustering is a diagonal Gaussian mixture fitted by EM, with each
component's density in closed form and its variances floored; the cluster
count can be fixed, or chosen by BIC with the BIC of every k tried kept.
Hierarchies come in a divisive flavour (recursive 2-means) and an
agglomerative flavour (single/complete/average linkage, read off scipy's
linkage matrix; exact distance ties merge in scipy's deterministic order),
both producing the same binary-tree taxonomy type, which can be cut into
ordered classes for the ontology export. Every clustering function takes a
plain observations x attributes array, such as `encode_observations(rows).X`.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError, MissingInputError, NumericalError
from .features import CATEGORICAL_COLUMNS, FactorSummary, NUMERIC_COLUMNS

_LOG_2PI = float(np.log(2.0 * np.pi))


# ---------------------------------------------------------------------------
# observation encoding
# ---------------------------------------------------------------------------

@dataclass
class EncodingConfig:
    numeric: tuple[str, ...] = NUMERIC_COLUMNS
    categorical: tuple[str, ...] = CATEGORICAL_COLUMNS
    scale: bool = True


@dataclass
class ObservationMatrix:
    """Numeric matrix over encoded summary attributes, with the scaling
    recorded so the encoding is auditable."""

    X: np.ndarray
    columns: tuple[str, ...]
    scale_mean: np.ndarray
    scale_std: np.ndarray        # 1.0 recorded for columns left unscaled
    scaled_columns: tuple[str, ...]


def encode_observations(
    rows: list[FactorSummary], config: EncodingConfig | None = None
) -> ObservationMatrix:
    """Numeric columns z-scored (std > 0 only), categoricals one-hot."""
    config = config or EncodingConfig()
    if not rows:
        raise ConfigError("cannot encode an empty summary table")
    dicts = [r.as_row() for r in rows]
    cols: list[np.ndarray] = []
    names: list[str] = []
    for c in config.numeric:
        cols.append(np.array([float(d[c]) for d in dicts]))
        names.append(c)
    for c in config.categorical:
        values = sorted({str(d[c]) for d in dicts})
        for v in values:
            cols.append(np.array([1.0 if str(d[c]) == v else 0.0 for d in dicts]))
            names.append(f"{c}={v}")
    X = np.column_stack(cols) if cols else np.zeros((len(rows), 0))
    n_num = len(config.numeric)
    mean = np.zeros(X.shape[1])
    std = np.ones(X.shape[1])
    scaled: list[str] = []
    if config.scale and n_num:
        mean[:n_num] = X[:, :n_num].mean(axis=0)
        sd = X[:, :n_num].std(axis=0)
        std[:n_num] = np.where(sd > 0, sd, 1.0)
        scaled = [c for c, v in zip(names, sd) if v > 0]
        X[:, :n_num] = (X[:, :n_num] - mean[:n_num]) / std[:n_num]
    return ObservationMatrix(
        X=X,
        columns=tuple(names),
        scale_mean=mean,
        scale_std=std,
        scaled_columns=tuple(scaled),
    )


# ---------------------------------------------------------------------------
# EM Gaussian mixture
# ---------------------------------------------------------------------------

# EM stops when the log-likelihood gains less than _EM_TOL, or after
# _EM_MAX_ITER iterations; variances are floored at _COV_FLOOR times the mean
# per-attribute variance of the data.
_EM_TOL = 1e-8
_EM_MAX_ITER = 300
_COV_FLOOR = 1e-6


@dataclass
class EMConfig:
    seed: int = 0
    n_restarts: int = 4


# ClusterModel fields stored as JSON lists, with their element types
_MODEL_ARRAYS = {"weights": float, "means": float, "variances": float, "assignments": int}


@dataclass
class ClusterModel:
    k: int
    weights: np.ndarray              # simplex vector, length k
    means: np.ndarray                # k x d
    variances: np.ndarray            # k x d, floored
    assignments: np.ndarray          # argmax responsibility per row
    log_likelihood: float
    n_iter: int
    loglik_history: list[float] = field(default_factory=list)
    converged: bool = True
    # BIC per k tried by select_k, None for a k skipped by the two-row floor;
    # empty for a fixed-k fit
    bic_by_k: dict[int, float | None] = field(default_factory=dict)

    def labels(self) -> list[str]:
        return [f"C{a + 1}" for a in self.assignments]

    def to_json(self, path: str | Path) -> None:
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc.update((name, doc[name].tolist()) for name in _MODEL_ARRAYS)
        # json.dumps encodes in C; json.dump always runs the pure-Python encoder
        with open(path, "w") as fh:
            fh.write(json.dumps(doc, sort_keys=True))

    @classmethod
    def from_json(cls, path: str | Path) -> "ClusterModel":
        path = Path(path)
        if not path.exists():
            raise MissingInputError(f"cluster model not found: {path}")
        with open(path) as fh:
            doc = json.load(fh)
        doc.update((name, np.asarray(doc[name], dtype=t)) for name, t in _MODEL_ARRAYS.items())
        doc["bic_by_k"] = {int(k): bic for k, bic in doc["bic_by_k"].items()}
        return cls(**doc)


def _log_gaussians(X: np.ndarray, means: np.ndarray, variances: np.ndarray) -> np.ndarray:
    """n x k matrix of log N(x | mu_j, diag(var_j)) in closed form,
    -1/2 (d log 2pi + 2 sum log sd + sum z^2) with z = (x - mu) * (1 / sd).

    z is a C-ordered d x n x k array, so its squares are summed attribute by
    attribute in order. With the reciprocal, this rounds as back-substitution
    against the triangular factor diag(sd) does, bit for bit."""
    bad = np.flatnonzero(~np.all(variances > 0, axis=1))
    if bad.size:
        raise NumericalError(
            f"cluster {bad[0]} covariance is singular: a variance is not positive")
    sd = np.sqrt(variances)
    z = np.subtract(X.T[:, :, None], means.T[:, None, :], order="C") * (1.0 / sd).T[:, None, :]
    maha = np.sum(z**2, axis=0)
    return -0.5 * (X.shape[1] * _LOG_2PI + 2.0 * np.sum(np.log(sd), axis=1) + maha)


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """Row-wise log(sum(exp(a))) by the arithmetic of scipy.special.logsumexp(a,
    axis=1): the tied maxima are counted and left out of the shifted sum."""
    a_max = a.max(axis=1, keepdims=True)
    is_max = a == a_max
    m = is_max.sum(axis=1, keepdims=True, dtype=a.dtype)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = np.sum(np.exp(np.where(is_max, -np.inf, a) - a_max), axis=1, keepdims=True)
        out = (np.log1p(np.where(s == 0, s, s / m)) + np.log(m) + a_max)[:, 0]
        bad = ~np.isfinite(out)     # e.g. an all -inf row: fall back to the direct sum
        out[bad] = np.log(np.sum(np.exp(a[bad]), axis=1))
    return out


def _e_step(
    X: np.ndarray, weights: np.ndarray, means: np.ndarray, variances: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row log-likelihood and n x k responsibilities."""
    log_joint = np.log(weights)[None, :] + _log_gaussians(X, means, variances)
    log_norm = _logsumexp(log_joint)
    return log_norm, np.exp(log_joint - log_norm[:, None])


def _floor_value(X: np.ndarray) -> float:
    total_var = float(np.sum(X.var(axis=0)))
    return _COV_FLOOR * (total_var / X.shape[1] if total_var > 0 else 1.0)


def _m_step(
    X: np.ndarray, resp: np.ndarray, floor: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weights, means and floored variances."""
    nk = resp.sum(axis=0)
    means = (resp.T @ X) / nk[:, None]
    diff = X[None, :, :] - means[:, None, :]           # k x n x d
    var = np.matmul(resp.T[:, None, :], diff**2)[:, 0, :] / nk[:, None]
    return nk / X.shape[0], means, np.maximum(var, floor)


def _em_single(X: np.ndarray, k: int, rng: np.random.Generator) -> ClusterModel:
    floor = _floor_value(X)
    means = X[rng.choice(len(X), size=k, replace=False)]
    variances = np.tile(np.maximum(X.var(axis=0), floor), (k, 1))
    weights = np.full(k, 1.0 / k)

    history: list[float] = []
    converged = False
    for _ in range(_EM_MAX_ITER):
        log_norm, step_resp = _e_step(X, weights, means, variances)
        ll = float(log_norm.sum())
        if history and ll < history[-1] - 1e-9:
            raise NumericalError(
                f"EM log-likelihood decreased at iteration {len(history)} (k={k}): "
                f"{history[-1]} -> {ll}"
            )
        history.append(ll)
        if len(history) > 1 and ll - history[-2] < _EM_TOL:
            converged = True
            break
        resp = step_resp
        weights, means, variances = _m_step(X, resp, floor)
    if not converged:
        # make assignments consistent with the final parameters
        log_norm, resp = _e_step(X, weights, means, variances)
        history.append(float(log_norm.sum()))
    return ClusterModel(
        k=k,
        weights=weights,
        means=means,
        variances=variances,
        assignments=np.argmax(resp, axis=1),
        log_likelihood=history[-1],
        n_iter=len(history),
        loglik_history=history,
        converged=converged,
    )


def em_fit(X: np.ndarray, k: int, config: EMConfig | None = None) -> ClusterModel:
    """Best-of-restarts EM fit; restarts are independently seeded and ties
    resolve to the lowest restart index."""
    config = config or EMConfig()
    data = np.asarray(X, dtype=float)
    if data.ndim != 2:
        raise ConfigError("observations must form a 2-D matrix")
    n = data.shape[0]
    if k < 1:
        raise ConfigError("k must be >= 1")
    if k > n:
        raise ConfigError(f"k={k} exceeds the number of observations ({n})")
    best: ClusterModel | None = None
    for r in range(max(config.n_restarts, 1)):
        model = _em_single(data, k, np.random.default_rng([config.seed, r]))
        if best is None or model.log_likelihood > best.log_likelihood:
            best = model
    return best


def em_predict(model: ClusterModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Assignments and responsibilities for new rows under a fitted model."""
    data = np.asarray(X, dtype=float)
    if data.ndim != 2 or data.shape[1] != model.means.shape[1]:
        raise ConfigError(f"dimension mismatch: model expects {model.means.shape[1]} columns")
    _, resp = _e_step(data, model.weights, model.means, model.variances)
    return np.argmax(resp, axis=1), resp


def bic(model: ClusterModel, n: int) -> float:
    """BIC with (k - 1) weights and k means and variances of d values each."""
    p = (model.k - 1) + 2 * model.k * model.means.shape[1]
    return -2.0 * model.log_likelihood + p * float(np.log(n))


def select_k(X: np.ndarray, k_max: int, config: EMConfig | None = None) -> ClusterModel:
    """Fit k = 1..k_max and keep the lowest-BIC model (ties to smaller k),
    with the BIC of every k tried in its `bic_by_k`.

    A k > 1 fit whose hard assignment leaves some component with fewer than
    two rows is skipped, its BIC recorded as None: a one-row component on
    the floored variances has unbounded likelihood, so BIC would drift
    towards k = n.
    """
    data = np.asarray(X, dtype=float)
    n = data.shape[0]
    if k_max < 1:
        raise ConfigError("k_max must be >= 1")
    curve: dict[int, float | None] = {}
    best: ClusterModel | None = None
    for k in range(1, min(k_max, n) + 1):
        model = em_fit(data, k, config)
        if k > 1 and np.bincount(model.assignments, minlength=k).min() < 2:
            curve[k] = None
            continue
        curve[k] = bic(model, n)
        if best is None or curve[k] < curve[best.k]:
            best = model
    best.bic_by_k = curve
    return best


# ---------------------------------------------------------------------------
# hierarchies
# ---------------------------------------------------------------------------

@dataclass
class TaxNode:
    indices: tuple[int, ...]
    height: float
    left: "TaxNode | None" = None
    right: "TaxNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None and self.right is None


@dataclass
class Taxonomy:
    root: TaxNode
    n: int
    method: str
    merges: list[tuple[tuple[int, ...], tuple[int, ...], float]] = field(
        default_factory=list
    )

    def leaves(self) -> list[TaxNode]:
        out: list[TaxNode] = []

        def walk(node: TaxNode) -> None:
            if node.is_leaf:
                out.append(node)
            else:
                walk(node.left)
                walk(node.right)

        walk(self.root)
        return out

    def to_json(self, path: str | Path) -> None:
        def doc(node: TaxNode) -> dict:
            d = {"indices": list(node.indices), "height": node.height}
            if not node.is_leaf:
                d["children"] = [doc(node.left), doc(node.right)]
            return d

        with open(path, "w") as fh:
            fh.write(json.dumps(
                {"method": self.method, "n": self.n, "root": doc(self.root)}, sort_keys=True
            ))


def _sse(X: np.ndarray) -> float:
    if X.shape[0] == 0:
        return 0.0
    return float(np.sum((X - X.mean(axis=0)) ** 2))


# A divisive split must cut a node's SSE by at least this fraction; each
# split keeps the best of _SPLIT_RESTARTS 2-means runs.
_MIN_IMPROVEMENT = 1e-3
_SPLIT_RESTARTS = 4


@dataclass
class DivisiveConfig:
    seed: int = 0


def _two_means(X: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Best 2-means labeling by total SSE; both sides are nonempty."""
    n = X.shape[0]
    best_labels = None
    best_sse = np.inf
    for _ in range(_SPLIT_RESTARTS):
        centers = X[rng.choice(n, size=2, replace=False)].copy()
        labels = np.zeros(n, dtype=int)
        for _ in range(100):
            dist = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            new_labels = np.argmin(dist, axis=1)
            for side in (0, 1):
                if not np.any(new_labels == side):
                    far = int(np.argmax(dist[:, 1 - side]))
                    new_labels[far] = side
            changed = not np.array_equal(new_labels, labels)
            labels = new_labels
            for side in (0, 1):
                centers[side] = X[labels == side].mean(axis=0)
            if not changed:
                break
        sse = _sse(X[labels == 0]) + _sse(X[labels == 1])
        if sse < best_sse:
            best_sse = sse
            best_labels = labels
    return best_labels


def divisive_hierarchy(X: np.ndarray, config: DivisiveConfig | None = None) -> Taxonomy:
    """Top-down taxonomy: recursively split by 2-means until the split stops
    paying for itself (fractional SSE reduction below _MIN_IMPROVEMENT) or a
    node has no scatter left. Node heights are the node SSEs, monotone from
    root to leaves."""
    config = config or DivisiveConfig()
    data = np.asarray(X, dtype=float)
    if data.ndim == 1:
        data = data[:, None]
    n = data.shape[0]
    if n < 1:
        raise ConfigError("need at least one observation")
    counter = [0]

    def build(indices: tuple[int, ...]) -> TaxNode:
        sub = data[list(indices)]
        height = _sse(sub)
        node = TaxNode(indices=indices, height=height)
        if len(indices) < 2 or height == 0.0:
            return node
        rng = np.random.default_rng([config.seed, counter[0]])
        counter[0] += 1
        labels = _two_means(sub, rng)
        child_sse = _sse(sub[labels == 0]) + _sse(sub[labels == 1])
        if (height - child_sse) < _MIN_IMPROVEMENT * height:
            return node
        left_idx = tuple(indices[i] for i in range(len(indices)) if labels[i] == 0)
        right_idx = tuple(indices[i] for i in range(len(indices)) if labels[i] == 1)
        if min(left_idx) > min(right_idx):
            left_idx, right_idx = right_idx, left_idx
        node.left = build(left_idx)
        node.right = build(right_idx)
        return node

    root = build(tuple(range(n)))
    return Taxonomy(root=root, n=n, method="divisive")


_LINKAGES = ("single", "complete", "average")


def agglomerative_hierarchy(X: np.ndarray, linkage: str = "single") -> Taxonomy:
    """Bottom-up taxonomy under single/complete/average linkage on Euclidean
    distances, built from scipy's linkage matrix: n-1 merges, heights
    non-decreasing, each merge's children ordered by smallest member index.
    The result is deterministic for a given input order; exactly tied
    distances merge in scipy's order."""
    from scipy.cluster.hierarchy import linkage as scipy_linkage

    if linkage not in _LINKAGES:
        raise ConfigError(f"unknown linkage {linkage!r}; pick one of {_LINKAGES}")
    data = np.asarray(X, dtype=float)
    if data.ndim == 1:
        data = data[:, None]
    n = data.shape[0]
    if n < 1:
        raise ConfigError("need at least one observation")
    nodes = [TaxNode(indices=(i,), height=0.0) for i in range(n)]
    merges: list[tuple[tuple[int, ...], tuple[int, ...], float]] = []
    links = scipy_linkage(data, linkage) if n > 1 else np.empty((0, 4))
    for i, j, d, _ in links:
        a, b = nodes[int(i)], nodes[int(j)]
        if min(a.indices) > min(b.indices):
            a, b = b, a
        height = float(d)
        nodes.append(
            TaxNode(indices=tuple(sorted(a.indices + b.indices)), height=height, left=a, right=b)
        )
        merges.append((a.indices, b.indices, height))
    return Taxonomy(root=nodes[-1], n=n, method=f"agglomerative:{linkage}", merges=merges)


# ---------------------------------------------------------------------------
# taxonomy -> ontology classes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TaxonomyClass:
    name: str
    parent: str | None
    members: tuple[int, ...]


def _cut_by_height(node: TaxNode, height: float) -> list[TaxNode]:
    if node.is_leaf or node.height <= height:
        return [node]
    return _cut_by_height(node.left, height) + _cut_by_height(node.right, height)


def _cut_by_count(root: TaxNode, m: int) -> list[TaxNode]:
    frontier = [root]
    while len(frontier) < m:
        expandable = [nd for nd in frontier if not nd.is_leaf]
        if not expandable:
            raise ConfigError(
                f"cannot cut into {m} classes: only {len(frontier)} leaves available"
            )
        node = max(expandable, key=lambda nd: (nd.height, -min(nd.indices)))
        frontier.remove(node)
        frontier.extend([node.left, node.right])
    return frontier


def taxonomy_to_classes(
    taxonomy: Taxonomy,
    height: float | None = None,
    leaf_count: int | None = None,
) -> list[TaxonomyClass]:
    """Cut the taxonomy and emit ordered class declarations.

    Exactly one of height / leaf_count selects the cut. The returned list
    starts with the root class (all observations) followed by C1..Cm, ordered
    by smallest member index; classes partition the observations.
    """
    if (height is None) == (leaf_count is None):
        raise ConfigError("specify exactly one of height or leaf_count")
    if height is not None:
        if height < 0:
            raise ConfigError("cut height must be >= 0")
        nodes = _cut_by_height(taxonomy.root, height)
    else:
        n_leaves = len(taxonomy.leaves())
        if not 1 <= leaf_count <= n_leaves:
            raise ConfigError(
                f"leaf_count must lie in [1, {n_leaves}], got {leaf_count}"
            )
        nodes = _cut_by_count(taxonomy.root, leaf_count)
    nodes.sort(key=lambda nd: min(nd.indices))
    classes = [TaxonomyClass(name="ROOT", parent=None, members=tuple(range(taxonomy.n)))]
    for i, nd in enumerate(nodes):
        classes.append(
            TaxonomyClass(name=f"C{i + 1}", parent="ROOT", members=tuple(sorted(nd.indices)))
        )
    return classes


def classes_to_json(classes: list[TaxonomyClass], path: str | Path) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps([asdict(c) for c in classes], sort_keys=True))
