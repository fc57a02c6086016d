"""Unsupervised grouping of summary rows.

Flat clustering is a diagonal Gaussian mixture fitted by EM, with each
component's density in closed form and its variances floored; the cluster
count can be fixed, or chosen by BIC with the BIC of every k tried kept.
Hierarchies come in a divisive flavour (recursive 2-means) and an
agglomerative flavour (single linkage by minimum spanning tree, complete and
average linkage by nearest-neighbour chain: numpy ports of scipy's linkage
algorithms, so exact distance ties merge in scipy's order), both producing
the same binary-tree taxonomy type, which can be cut into ordered classes.
Every clustering function takes a plain observations x attributes array,
such as `encode_observations(rows)`.

Work whose outcome is fixed in advance is skipped: BIC selection fits no
k > n/2, since such a k cannot give each component two rows; a one-component
fit runs one restart, since every restart reaches the same parameters; and
the divisive hierarchy splits a two-point node into its points without
2-means. Each cut leaves every result bit for bit as the full work gives it.

The pipeline's ontology is the mixture's own partition: `ClusterModel.classes`
puts component j's rows in class C{j+1}, the name `labels` gives them, and
the taxonomy is a hierarchy over the k component means, so its leaf j is
component j.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .classification import Row
from .errors import ConfigError, MissingInputError, NumericalError
from .features import CATEGORICAL_COLUMNS, NUMERIC_COLUMNS

_LOG_2PI = float(np.log(2.0 * np.pi))


# ---------------------------------------------------------------------------
# observation encoding
# ---------------------------------------------------------------------------

def encode_observations(
    rows: list[Row], categorical: tuple[str, ...] = CATEGORICAL_COLUMNS
) -> np.ndarray:
    """The NUMERIC_COLUMNS z-scored (std > 0 only), then for each
    `categorical` column a 0/1 column per value it takes, in sorted order."""
    if not rows:
        raise ConfigError("cannot encode an empty summary table")
    cols = [np.array([float(r[c]) for r in rows]) for c in NUMERIC_COLUMNS]
    for c in categorical:
        for v in sorted({str(r[c]) for r in rows}):
            cols.append(np.array([1.0 if str(r[c]) == v else 0.0 for r in rows]))
    X = np.column_stack(cols)
    num = X[:, :len(NUMERIC_COLUMNS)]
    sd = num.std(axis=0)
    num[...] = (num - num.mean(axis=0)) / np.where(sd > 0, sd, 1.0)
    return X


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
        """Each row's class name in classes(): row i is in C{assignments[i] + 1}."""
        names = [c.name for c in self.classes()[1:]]
        return [names[a] for a in self.assignments]

    def classes(self) -> list[TaxonomyClass]:
        """ROOT over every row, then for each component j the class C{j+1}
        holding the rows assigned to j (none, if j won no row)."""
        members = [tuple(np.flatnonzero(self.assignments == j).tolist()) for j in range(self.k)]
        return [TaxonomyClass("ROOT", None, tuple(range(len(self.assignments))))] + [
            TaxonomyClass(f"C{j + 1}", "ROOT", rows) for j, rows in enumerate(members)]

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
    """... x n x k array of log N(x | mu_j, diag(var_j)) in closed form, for
    means and variances of shape ... x k x d: -1/2 (d log 2pi + 2 sum log sd
    + sum z^2) with z = (x - mu) * (1 / sd).

    z is a C-ordered ... x d x k x n array, so the elementwise loops run
    over the n rows, and its squares are summed attribute by attribute in
    order. With the reciprocal, this rounds as back-substitution against the
    triangular factor diag(sd) does, bit for bit. The ... x k x n result is
    copied once into the ... x n x k layout."""
    positive = variances > 0
    if not positive.all():
        bad = np.argwhere(~positive.all(axis=-1))[0]
        raise NumericalError(
            f"cluster {bad[-1]} covariance is singular: a variance is not positive")
    sd = np.sqrt(variances)
    z = np.subtract(X.T[:, None, :], np.swapaxes(means, -1, -2)[..., None], order="C")
    z *= np.swapaxes(1.0 / sd, -1, -2)[..., None]
    maha = np.square(z, out=z).sum(axis=-3)
    log_dens = -0.5 * (X.shape[1] * _LOG_2PI + 2.0 * np.log(sd).sum(axis=-1)[..., None] + maha)
    return np.ascontiguousarray(np.swapaxes(log_dens, -1, -2))


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a))) over the last axis by the arithmetic of
    scipy.special.logsumexp(a, axis=-1): the tied maxima are counted and left
    out of the shifted sum."""
    a_max = a.max(axis=-1, keepdims=True)
    is_max = a == a_max
    m = is_max.sum(axis=-1, keepdims=True, dtype=a.dtype)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = np.exp(np.where(is_max, -np.inf, a) - a_max).sum(axis=-1, keepdims=True)
        out = (np.log1p(np.where(s == 0, s, s / m)) + np.log(m) + a_max)[..., 0]
        bad = ~np.isfinite(out)     # e.g. an all -inf row: fall back to the direct sum
        if bad.any():
            out[bad] = np.log(np.exp(a[bad]).sum(axis=-1))
    return out


def _e_step(
    X: np.ndarray, weights: np.ndarray, means: np.ndarray, variances: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row log-likelihood (... x n) and responsibilities (... x n x k)
    for weights of shape ... x k and means and variances of ... x k x d."""
    log_joint = np.log(weights)[..., None, :] + _log_gaussians(X, means, variances)
    log_norm = _logsumexp(log_joint)
    return log_norm, np.exp(log_joint - log_norm[..., None])


def _floor_value(X: np.ndarray) -> float:
    total_var = float(np.sum(X.var(axis=0)))
    return _COV_FLOOR * (total_var / X.shape[1] if total_var > 0 else 1.0)


def _m_step(
    X: np.ndarray, resp: np.ndarray, floor: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weights (... x k), means and floored variances (... x k x d) for
    responsibilities of shape ... x n x k. matmul makes the same BLAS call
    for each leading index as for a lone n x k array, so every restart gets
    the bits it would get alone."""
    nk = resp.sum(axis=-2)
    resp_t = np.swapaxes(resp, -1, -2)                 # ... x k x n
    means = (resp_t @ X) / nk[..., None]
    diff = X - means[..., None, :]                     # ... x k x n x d
    var = (resp_t[..., None, :] @ diff**2)[..., 0, :] / nk[..., None]
    return nk / X.shape[0], means, np.maximum(var, floor)


def em_fit(X: np.ndarray, k: int, config: EMConfig | None = None) -> ClusterModel:
    """Best-of-restarts EM fit; restarts are independently seeded and ties
    resolve to the lowest restart index. The restarts are stepped together,
    one stacked E-step and one stacked M-step per iteration over those still
    running, so each does the arithmetic it would do alone.

    At k = 1 restart 0 runs alone: after its first E-step every restart's
    responsibilities are exactly 1, so all restarts reach the same
    parameters and log-likelihood, and restart 0 wins the tie."""
    config = config or EMConfig()
    data = np.asarray(X, dtype=float)
    if data.ndim != 2:
        raise ConfigError("observations must form a 2-D matrix")
    n = data.shape[0]
    if k < 1:
        raise ConfigError("k must be >= 1")
    if k > n:
        raise ConfigError(f"k={k} exceeds the number of observations ({n})")
    n_restarts = max(config.n_restarts, 1) if k > 1 else 1
    floor = _floor_value(data)
    # the parameters of the running restarts, stacked in restart order
    running = list(range(n_restarts))
    means = data[np.stack([np.random.default_rng([config.seed, r]).choice(n, k, replace=False)
                           for r in running])]
    variances = np.tile(np.maximum(data.var(axis=0), floor), (n_restarts, k, 1))
    weights = np.full((n_restarts, k), 1.0 / k)
    histories: list[list[float]] = [[] for _ in running]
    resp = np.empty((n_restarts, n, k))        # each restart's last M-step input
    final: list = [None] * n_restarts          # (weights, means, variances, converged)
    for _ in range(_EM_MAX_ITER):
        # a restart stops once its log-likelihood gains less than _EM_TOL
        log_norm, step_resp = _e_step(data, weights, means, variances)
        lls = log_norm.sum(axis=-1)
        going = []
        for i, r in enumerate(running):
            history, ll = histories[r], float(lls[i])
            if history and ll < history[-1] - 1e-9:
                raise NumericalError(
                    f"EM log-likelihood decreased at iteration {len(history)} (k={k}): "
                    f"{history[-1]} -> {ll}"
                )
            history.append(ll)
            if len(history) > 1 and ll - history[-2] < _EM_TOL:
                final[r] = (weights[i], means[i], variances[i], True)
            else:
                going.append(i)
        running = [running[i] for i in going]
        if not running:
            break
        step_resp = step_resp[going]
        resp[running] = step_resp
        # new stacks, so the finished restarts' rows in `final` stay as they are
        weights, means, variances = _m_step(data, step_resp, floor)
    if running:
        # make assignments consistent with the final parameters
        log_norm, resp[running] = _e_step(data, weights, means, variances)
        lls = log_norm.sum(axis=-1)
        for i, r in enumerate(running):
            histories[r].append(float(lls[i]))
            final[r] = (weights[i], means[i], variances[i], False)
    best = 0
    for r in range(1, n_restarts):
        if histories[r][-1] > histories[best][-1]:
            best = r
    weights, means, variances, converged = final[best]
    history = histories[best]
    return ClusterModel(k=k, weights=weights, means=means, variances=variances,
                        assignments=np.argmax(resp[best], axis=1), log_likelihood=history[-1],
                        n_iter=len(history), loglik_history=history, converged=converged)


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
    towards k = n. A k > n/2 is not fitted at all, its BIC None: k
    components of two rows each need 2k rows.
    """
    data = np.asarray(X, dtype=float)
    n = data.shape[0]
    if k_max < 1:
        raise ConfigError("k_max must be >= 1")
    curve: dict[int, float | None] = {}
    best: ClusterModel | None = None
    for k in range(1, min(k_max, n) + 1):
        if k > 1 and 2 * k > n:
            curve[k] = None
            continue
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
    root to leaves.

    Each node split is seeded by a counter over the nodes in preorder. A
    two-point node with scatter is split into its two points without running
    2-means, whose split of it is always that one, and still takes its
    counter value."""
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
        rng_key = [config.seed, counter[0]]
        counter[0] += 1
        if len(indices) == 2:
            node.left, node.right = build(indices[:1]), build(indices[1:])
            return node
        labels = _two_means(sub, np.random.default_rng(rng_key))
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


def _euclidean_distances(data: np.ndarray) -> np.ndarray:
    """n x n Euclidean distances, each the sqrt of its squared differences
    summed coordinate by coordinate in order, as scipy's pdist sums them;
    `.sum(-1)` over the coordinates adds pairwise and moves last bits."""
    total = np.zeros((data.shape[0], data.shape[0]))
    with np.errstate(over="ignore"):        # the caller rejects an inf distance
        for column in data.T:
            diff = column[:, None] - column[None, :]
            total += diff * diff
    return np.sqrt(total)


def _mst_single_linkage(D: np.ndarray) -> list[tuple[int, int, float]]:
    """Single-linkage merges (x, y, height) by Prim's algorithm, in the
    order scipy's mst_single_linkage finds them: the tree grows from point
    0, and each step adds the first outside point at the strictly smallest
    distance to the tree."""
    n = D.shape[0]
    merged = np.zeros(n, dtype=bool)
    reach = np.full(n, np.inf)      # distance to the tree; inf once in it
    x, out = 0, []
    for _ in range(n - 1):
        merged[x], reach[x] = True, np.inf
        np.minimum(reach, D[x], out=reach, where=~merged)
        y = int(np.argmin(reach))
        out.append((x, y, float(reach[y])))
        x = y
    return out


def _nn_chain(D: np.ndarray, linkage: str) -> list[tuple[int, int, float]]:
    """Complete- or average-linkage merges (x, y, height) by the
    nearest-neighbour chain, in the order scipy's nn_chain finds them.

    D is an n x n distance matrix, updated in place; a cluster lives in the
    slot of one of its points, and a retired slot's row and column are inf.
    The chain's next element is its last element's nearest neighbour: the
    previous chain element if none is strictly nearer, else the first index
    at the smallest distance. Each merge updates the surviving slot's row by
    Lance-Williams: max(d_xi, d_yi), or (n_x d_xi + n_y d_yi) / (n_x + n_y)."""
    n = D.shape[0]
    np.fill_diagonal(D, np.inf)
    size = np.ones(n, dtype=int)
    chain: list[int] = []
    out = []
    for _ in range(n - 1):
        if not chain:
            chain.append(int(np.flatnonzero(size)[0]))
        while True:
            x = chain[-1]
            y = int(np.argmin(D[x]))
            if len(chain) > 1 and D[x, chain[-2]] <= D[x, y]:
                y = chain[-2]
                break
            chain.append(y)
        del chain[-2:]
        if x > y:
            x, y = y, x
        nx, ny = int(size[x]), int(size[y])
        out.append((x, y, float(D[x, y])))
        if linkage == "complete":
            row = np.maximum(D[x], D[y])
        else:
            row = (nx * D[x] + ny * D[y]) / (nx + ny)
        size[x], size[y] = 0, nx + ny
        row[x] = row[y] = np.inf
        D[y], D[:, y] = row, row
        D[x], D[:, x] = np.inf, np.inf
    return out


def agglomerative_hierarchy(X: np.ndarray, linkage: str = "single") -> Taxonomy:
    """Bottom-up taxonomy under single/complete/average linkage on Euclidean
    distances: n-1 merges, heights non-decreasing, each merge's children
    ordered by smallest member index. Single linkage grows a minimum
    spanning tree (Prim), complete and average linkage follow the
    nearest-neighbour chain (Müllner 2011), and the merges are then stably
    sorted by height: the algorithms of scipy's `linkage`, ported so that
    exactly tied distances merge in scipy's order and heights agree bit for
    bit. Non-finite observations raise ConfigError."""
    if linkage not in _LINKAGES:
        raise ConfigError(f"unknown linkage {linkage!r}; pick one of {_LINKAGES}")
    data = np.asarray(X, dtype=float)
    if data.ndim == 1:
        data = data[:, None]
    if data.ndim != 2:
        raise ConfigError("observations must form a 2-D matrix")
    n = data.shape[0]
    if n < 1:
        raise ConfigError("need at least one observation")
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        raise ConfigError(f"observation {int(np.argmin(finite))} is not finite (NaN or inf)")
    D = _euclidean_distances(data)
    if not np.isfinite(D).all():
        raise ConfigError("observations too far apart: a Euclidean distance overflows")
    found = _mst_single_linkage(D) if linkage == "single" else _nn_chain(D, linkage)
    found.sort(key=lambda merge: merge[2])      # stable, as scipy's mergesort
    # replay the sorted merges; node[p] is the cluster holding point p
    node = [TaxNode(indices=(i,), height=0.0) for i in range(n)]
    merges: list[tuple[tuple[int, ...], tuple[int, ...], float]] = []
    for x, y, height in found:
        a, b = node[x], node[y]
        if min(a.indices) > min(b.indices):
            a, b = b, a
        joined = TaxNode(indices=tuple(sorted(a.indices + b.indices)), height=height,
                         left=a, right=b)
        for p in joined.indices:
            node[p] = joined
        merges.append((a.indices, b.indices, height))
    return Taxonomy(root=node[0], n=n, method=f"agglomerative:{linkage}", merges=merges)


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
