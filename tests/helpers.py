"""Independent oracles used to check the library against first principles.

Everything here is deliberately written from scratch (plain Python loops,
Counter, itertools) rather than calling back into the package, so a test
failure localizes to the implementation, not to shared code.
"""
from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np

# ---------------------------------------------------------------------------
# adjusted Rand index
# ---------------------------------------------------------------------------


def adjusted_rand_index(a, b) -> float:
    a = list(a)
    b = list(b)
    n = len(a)
    pairs = Counter(zip(a, b))
    rows = Counter(a)
    cols = Counter(b)

    def c2(x):
        return x * (x - 1) / 2

    sum_pairs = sum(c2(v) for v in pairs.values())
    sum_rows = sum(c2(v) for v in rows.values())
    sum_cols = sum(c2(v) for v in cols.values())
    total = c2(n)
    expected = sum_rows * sum_cols / total if total else 0.0
    max_index = (sum_rows + sum_cols) / 2
    if max_index == expected:
        return 1.0
    return (sum_pairs - expected) / (max_index - expected)


# ---------------------------------------------------------------------------
# EM sanity
# ---------------------------------------------------------------------------


def assert_loglik_monotone(model, slack: float = 1e-9) -> None:
    hist = model.loglik_history
    for prev, curr in zip(hist, hist[1:]):
        assert curr >= prev - slack, f"log-likelihood decreased: {prev} -> {curr}"


# Reference EM steps: one component at a time, the density through a
# Cholesky factor, and scipy's logsumexp. Patched into nof.clustering in place
# of the closed-form `_log_gaussians`, `_m_step` and `_logsumexp`, they run the
# same EM, so the library can be held to bit-identical results.


def loop_log_gaussians(X, means, covs):
    """n x k matrix of log N(x | mu_j, Sigma_j), one component at a time."""
    from nof.errors import NumericalError

    n, d = X.shape
    k = means.shape[0]
    out = np.empty((n, k))
    for j in range(k):
        try:
            chol = np.linalg.cholesky(covs[j])
        except np.linalg.LinAlgError:
            raise NumericalError(f"cluster {j} covariance is singular despite the floor")
        diff = X - means[j]
        sol = np.linalg.solve(chol, diff.T)
        maha = np.sum(sol**2, axis=0)
        logdet = 2.0 * np.sum(np.log(np.diag(chol)))
        out[:, j] = -0.5 * (d * np.log(2.0 * np.pi) + logdet + maha)
    return out


def loop_log_gaussians_diag(X, means, variances):
    """`loop_log_gaussians` on the diagonal covariances the variances give,
    one restart at a time over any leading axis."""
    if means.ndim > 2:
        return np.stack([loop_log_gaussians_diag(X, m, v) for m, v in zip(means, variances)])
    return loop_log_gaussians(X, means, np.stack([np.diag(v) for v in variances]))


def loop_m_step(X, resp, floor):
    """M-step weights, means and floored variances, one component at a time
    and one restart at a time over any leading axis."""
    if resp.ndim > 2:
        return tuple(np.stack(part) for part in zip(*(loop_m_step(X, r, floor) for r in resp)))
    n, d = X.shape
    nk = resp.sum(axis=0)
    weights = nk / n
    means = (resp.T @ X) / nk[:, None]
    k = resp.shape[1]
    variances = np.empty((k, d))
    for j in range(k):
        diff = X - means[j]
        variances[j] = np.maximum((resp[:, j] @ (diff**2)) / nk[j], floor)
    return weights, means, variances


def scipy_logsumexp(a):
    from scipy.special import logsumexp

    return logsumexp(a, axis=-1)


def loop_em_restarts(X, k, config=None):
    """EM restarts one after another, each fitted alone: it runs
    nof.clustering's 2-D E- and M-steps until its log-likelihood gains less
    than the tolerance. The module's constants are read at call time, so a
    test may lower the iteration cap."""
    from nof import clustering
    from nof.errors import NumericalError

    config = config or clustering.EMConfig()
    X = np.asarray(X, dtype=float)
    floor = clustering._floor_value(X)
    models = []
    for r in range(max(config.n_restarts, 1)):
        rng = np.random.default_rng([config.seed, r])
        means = X[rng.choice(len(X), size=k, replace=False)]
        variances = np.tile(np.maximum(X.var(axis=0), floor), (k, 1))
        weights = np.full(k, 1.0 / k)
        history = []
        converged = False
        for _ in range(clustering._EM_MAX_ITER):
            log_norm, step_resp = clustering._e_step(X, weights, means, variances)
            ll = float(log_norm.sum())
            if history and ll < history[-1] - 1e-9:
                raise NumericalError(
                    f"EM log-likelihood decreased at iteration {len(history)} (k={k}): "
                    f"{history[-1]} -> {ll}")
            history.append(ll)
            if len(history) > 1 and ll - history[-2] < clustering._EM_TOL:
                converged = True
                break
            resp = step_resp
            weights, means, variances = clustering._m_step(X, resp, floor)
        if not converged:
            log_norm, resp = clustering._e_step(X, weights, means, variances)
            history.append(float(log_norm.sum()))
        models.append(clustering.ClusterModel(
            k=k, weights=weights, means=means, variances=variances,
            assignments=np.argmax(resp, axis=1), log_likelihood=history[-1],
            n_iter=len(history), loglik_history=history, converged=converged))
    return models


def loop_em_fit(X, k, config=None):
    """The best of `loop_em_restarts` by final log-likelihood, ties to the
    lowest restart index."""
    best = None
    for model in loop_em_restarts(X, k, config):
        if best is None or model.log_likelihood > best.log_likelihood:
            best = model
    return best


# ---------------------------------------------------------------------------
# condition average (masked-reduction oracle)
# ---------------------------------------------------------------------------


def masked_condition_average(dec, epochs, trials):
    """The centered condition average as a masked mean over every trial
    computes it: numpy adds the selected trials, in order, to 0.0."""
    in_condition = np.zeros(epochs.n_trials, dtype=bool)
    in_condition[trials] = True
    return epochs.data.mean(axis=0, where=in_condition[:, None, None]) - dec.mean[:, None]


# ---------------------------------------------------------------------------
# synth -> decompose with a full-size temporary at every step (allocating
# oracles)
# ---------------------------------------------------------------------------
# Reference forms of nof.testbed.generate_dataset, center_and_whiten,
# FactorDecomposition.activations and fastica that allocate a new array for
# each step and never write into one. The library works in place and must
# match them bit for bit.


def loop_generate_dataset(templates, mixing_noise, noise_std, n_trials, seed):
    """The trials x channels x timepoints data of generate_dataset: a zero
    array that each trial's gain-scaled patterns are added to in template
    order, plus the scaled noise draw."""
    rng = np.random.default_rng(seed)
    gains = 1.0 + mixing_noise * rng.standard_normal((n_trials, len(templates)))
    shape = (n_trials, templates[0].topography.size, templates[0].waveform.size)
    noise = rng.standard_normal(shape)
    data = np.zeros(shape)
    patterns = [np.outer(t.topography, t.waveform) for t in templates]
    for i in range(n_trials):
        for k, pat in enumerate(patterns):
            data[i] += gains[i, k] * pat
    data += noise_std * noise
    return data


def _copy_concatenated(epochs):
    return np.ascontiguousarray(epochs.data.transpose(1, 0, 2).reshape(epochs.n_channels, -1))


def var_center_and_whiten(epochs, n_components=None):
    """center_and_whiten with a zero-variance test for dead channels and a
    centered copy of the concatenated epochs."""
    from nof.decomposition import WhitenedData
    from nof.errors import NumericalError

    X = _copy_concatenated(epochs)
    n_samples = X.shape[1]
    dead = np.flatnonzero(X.var(axis=1) == 0.0)
    if dead.size:
        name = epochs.montage.channels[int(dead[0])]
        raise NumericalError(f"channel {name!r} has zero variance")
    mean = X.mean(axis=1)
    Xc = X - mean[:, None]
    eigvals, eigvecs = np.linalg.eigh((Xc @ Xc.T) / (n_samples - 1))
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    rank = int(np.sum(eigvals > eigvals[0] * 1e-10))
    m = rank if n_components is None else int(n_components)
    kept = eigvals[:m]
    whitening = (1.0 / np.sqrt(kept))[:, None] * eigvecs[:, :m].T
    return WhitenedData(
        whitened=whitening @ Xc,
        whitening=whitening,
        dewhitening=eigvecs[:, :m] * np.sqrt(kept)[None, :],
        mean=mean,
        channels=tuple(epochs.montage.channels),
        n_trials=epochs.n_trials,
        n_timepoints=epochs.n_timepoints,
    )


def allocating_activations(dec, epochs):
    """FactorDecomposition.activations on a centered copy of a copy."""
    return dec.unmixing @ (_copy_concatenated(epochs) - dec.mean[:, None])


def allocating_fastica(white, config):
    """fastica with fresh k x n arrays for W Z, tanh, its square and 1 minus
    that in every iteration; warns like the library when unconverged."""
    import warnings

    from nof.decomposition import FactorDecomposition

    def sym_decorrelate(W):
        s, u = np.linalg.eigh(W @ W.T)
        return (u * (1.0 / np.sqrt(s))) @ u.T @ W

    Z = white.whitened
    k, n_samples = Z.shape
    W = sym_decorrelate(np.random.default_rng(config.seed).standard_normal((k, k)))
    converged = False
    n_iter = config.max_iter
    for it in range(1, config.max_iter + 1):
        g = np.tanh(W @ Z)
        g_prime = (1.0 - g**2).mean(axis=1)
        W_new = sym_decorrelate((g @ Z.T) / n_samples - g_prime[:, None] * W)
        lim = float(np.max(np.abs(np.abs(np.einsum("ij,ij->i", W_new, W)) - 1.0)))
        W = W_new
        if lim < 1e-6:
            converged, n_iter = True, it
            break
    if not converged:
        warnings.warn("fastica did not converge", RuntimeWarning)
    scales = (W @ Z).std(axis=1)
    unmixing = W @ white.whitening / scales[:, None]
    mixing = white.dewhitening @ W.T * scales[None, :]
    for j in range(k):
        if mixing[int(np.argmax(np.abs(mixing[:, j]))), j] < 0:
            mixing[:, j] = -mixing[:, j]
            unmixing[j, :] = -unmixing[j, :]
    return FactorDecomposition(
        unmixing=unmixing,
        mixing=mixing,
        factor_ids=tuple(f"FA{i + 1}" for i in range(k)),
        channels=white.channels,
        mean=white.mean.copy(),
        converged=converged,
        n_iter=n_iter,
        n_trials=white.n_trials,
        n_timepoints=white.n_timepoints,
    )


# ---------------------------------------------------------------------------
# exhaustive 2-partition by SSE (divisive oracle)
# ---------------------------------------------------------------------------


def best_two_partition_by_sse(points: np.ndarray) -> tuple[frozenset, frozenset]:
    """The optimal 2-way split of row indices by total within-group SSE."""
    n = points.shape[0]

    def sse(idx):
        sub = points[list(idx)]
        return float(np.sum((sub - sub.mean(axis=0)) ** 2))

    best = None
    indices = list(range(n))
    for size in range(1, n // 2 + 1):
        for left in combinations(indices, size):
            right = tuple(i for i in indices if i not in left)
            cost = sse(left) + sse(right)
            if best is None or cost < best[0]:
                best = (cost, frozenset(left), frozenset(right))
    return best[1], best[2]


def loop_divisive_hierarchy(X, seed=0):
    """nof.clustering.divisive_hierarchy as a recursion that runs 2-means on
    every node with scatter, two-point nodes too, seeding node splits by a
    preorder counter. Returns the tree as nested (indices, height, children)
    tuples, children empty at a leaf."""
    from nof import clustering

    data = np.asarray(X, dtype=float)
    counter = 0

    def sse(rows):
        sub = data[list(rows)]
        return float(np.sum((sub - sub.mean(axis=0)) ** 2))

    def build(indices):
        nonlocal counter
        height = sse(indices)
        if len(indices) < 2 or height == 0.0:
            return (indices, height, ())
        rng = np.random.default_rng([seed, counter])
        counter += 1
        labels = clustering._two_means(data[list(indices)], rng)
        sides = [tuple(i for i, label in zip(indices, labels) if label == side)
                 for side in (0, 1)]
        if height - (sse(sides[0]) + sse(sides[1])) < clustering._MIN_IMPROVEMENT * height:
            return (indices, height, ())
        sides.sort(key=min)
        return (indices, height, tuple(build(side) for side in sides))

    return build(tuple(range(len(data))))


# ---------------------------------------------------------------------------
# agglomerative taxonomy read off scipy's linkage matrix
# ---------------------------------------------------------------------------


def scipy_agglomerative_hierarchy(X, linkage="single"):
    """nof.clustering.agglomerative_hierarchy as built from
    scipy.cluster.hierarchy.linkage; the library ports scipy's algorithms,
    so the two must agree merge for merge and bit for bit."""
    import warnings

    from scipy.cluster.hierarchy import ClusterWarning
    from scipy.cluster.hierarchy import linkage as scipy_linkage

    from nof.clustering import Taxonomy, TaxNode

    data = np.asarray(X, dtype=float)
    if data.ndim == 1:
        data = data[:, None]
    n = data.shape[0]
    nodes = [TaxNode(indices=(i,), height=0.0) for i in range(n)]
    merges = []
    with warnings.catch_warnings():
        # a square symmetric hollow input is still observations here
        warnings.simplefilter("ignore", ClusterWarning)
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
# brute-force gain-ratio split search (tree oracle)
# ---------------------------------------------------------------------------


def _entropy_of(labels) -> float:
    counts = Counter(labels)
    n = len(labels)
    h = 0.0
    for key in sorted(counts):
        p = counts[key] / n
        h -= p * math.log2(p)
    return h


def _gain_and_split_info(labels, branches) -> tuple[float, float]:
    n = len(labels)
    gain = _entropy_of(labels)
    split_info = 0.0
    for branch in branches:
        if not branch:
            continue
        frac = len(branch) / n
        gain -= frac * _entropy_of(branch)
        split_info -= frac * math.log2(frac)
    return gain, split_info


def brute_force_root_split(rows, labels, min_leaf=1):
    """Exhaustive (attribute, threshold) search by gain ratio.

    Candidates: midpoint thresholds for numeric attributes (each side needs
    min_leaf rows) and one multiway candidate per categorical attribute with
    at least two values and at least two branches of min_leaf rows. Only
    attributes whose best information gain reaches the mean across attributes
    stay eligible; the maximum gain ratio wins, with scores within 1e-12
    treated as tied and ties resolving to the earlier attribute then the
    lower threshold. Returns (attribute, threshold|None) or None when no
    admissible split has positive gain.
    """
    eps = 1e-12
    attributes = list(rows[0].keys())
    per_attr = []
    for attr in attributes:
        values = [r[attr] for r in rows]
        numeric = isinstance(values[0], (int, float)) and not isinstance(values[0], bool)
        cands = []
        if numeric:
            distinct = sorted(set(float(v) for v in values))
            for lo, hi in zip(distinct, distinct[1:]):
                thr = (lo + hi) / 2.0
                left = [lab for v, lab in zip(values, labels) if float(v) <= thr]
                right = [lab for v, lab in zip(values, labels) if float(v) > thr]
                if min(len(left), len(right)) < min_leaf:
                    continue
                gain, si = _gain_and_split_info(labels, [left, right])
                if si > 0:
                    cands.append((thr, gain, gain / si))
        else:
            distinct = sorted(set(str(v) for v in values))
            if len(distinct) >= 2:
                branches = [
                    [lab for v, lab in zip(values, labels) if str(v) == val]
                    for val in distinct
                ]
                if sum(1 for b in branches if len(b) >= min_leaf) >= 2:
                    gain, si = _gain_and_split_info(labels, branches)
                    if si > 0:
                        cands.append((None, gain, gain / si))
        if cands:
            per_attr.append((attr, cands))
    if not per_attr:
        return None
    attr_gains = [max(g for _, g, _ in cands) for _, cands in per_attr]
    mean_gain = sum(attr_gains) / len(attr_gains)
    best = None
    for (attr, cands), g_a in zip(per_attr, attr_gains):
        if g_a < mean_gain - eps:
            continue
        for thr, gain, ratio in cands:
            if best is None or ratio > best[2] + eps:
                best = (attr, thr, ratio, gain)
    if best is None or best[3] <= eps:
        return None
    return best[0], best[1]


# ---------------------------------------------------------------------------
# exact binomial CDF (oracle for the pruning bound)
# ---------------------------------------------------------------------------


def exact_binomial_cdf(n, e, p):
    """P(X <= e) for X ~ Binomial(n, p) as a Fraction, p a Fraction whose
    denominator is a power of 2: the integer sum of C(n, i) a^i b^(n-i) over
    the shorter tail, by Horner's rule in a, over 2^(kn)."""
    a, den = p.numerator, p.denominator
    b = den - a
    lo, hi = (0, e) if 2 * e < n else (e + 1, n)
    # sum_{lo <= i <= hi} C(n, i) a^i b^(n-i) = a^lo b^(n-hi) sum C(n, i) a^(i-lo) b^(hi-i)
    acc, b_pow = 0, 1
    for i in range(hi, lo - 1, -1):
        acc = acc * a + math.comb(n, i) * b_pow
        b_pow *= b
    tail = Fraction(acc * a**lo * b ** (n - hi), den**n)
    return tail if lo == 0 else 1 - tail


def exact_log(f):
    """log of a positive Fraction to about 1e-16 relative, also where the
    Fraction underflows a double: it is scaled by a power of 2 into [1/2, 2]
    first."""
    k = f.numerator.bit_length() - f.denominator.bit_length()
    return math.log(float(f / Fraction(2) ** k)) + k * math.log(2)


def assert_upper_limit_within(n, e, cf, p, delta):
    """p is within delta of the root of P(X <= e) = 1 - fl(1 - cf) in (0, 1],
    X ~ Binomial(n, p): the CDF, which falls as p rises, is at least the
    target at p - delta and at most the target at p + delta, both clamped
    to [0, 1]. delta must be a double, so that p -/+ delta is dyadic."""
    target = 1 - Fraction(1.0 - cf)
    if target == 0:
        assert p == 1.0, (n, e, cf, p)
        return
    assert 0.0 < p <= 1.0, (n, e, cf, p)
    below = max(Fraction(p) - Fraction(delta), Fraction(0))
    above = min(Fraction(p) + Fraction(delta), Fraction(1))
    assert exact_binomial_cdf(n, e, below) >= target, (n, e, cf, p, "root below")
    assert exact_binomial_cdf(n, e, above) <= target, (n, e, cf, p, "root above")


# ---------------------------------------------------------------------------
# brute-force frequent itemsets (apriori oracle)
# ---------------------------------------------------------------------------


def brute_force_itemsets(transactions, beta_sup):
    """Enumerate every nonempty itemset over the observed items."""
    universe = sorted({item for t in transactions for item in t})
    n = len(transactions)
    out = {}
    for size in range(1, len(universe) + 1):
        for combo in combinations(universe, size):
            cand = frozenset(combo)
            sup = sum(1 for t in transactions if cand <= t) / n
            if sup >= beta_sup:
                out[cand] = sup
    return out


# ---------------------------------------------------------------------------
# brute-force knowledge partitioning (set-algebra oracle)
# ---------------------------------------------------------------------------


def brute_force_partition(mined, expert, beta_sup, beta_conf, pi_min):
    """Direct evaluation of the knowledge-category definitions.

    mined:  list of (antecedent frozenset[str], consequent str, support,
            confidence, reliability)
    expert: list of (rule_id, antecedent frozenset[str], consequent str,
            negated bool)
    Matching here is plain syntactic equality, which is what the random
    universes in the property tests use. Returns dicts of canonical-string
    sets per category.
    """
    unique = {}
    for ante, cons, sup, conf, rel in mined:
        unique[(ante, cons)] = (ante, cons, sup, conf, rel)
    qualified = [
        r for r in unique.values() if r[2] >= beta_sup and r[3] >= beta_conf
    ]

    def matches(rule, e):
        return (not e[3]) and rule[0] == e[1] and rule[1] == e[2]

    def contra(rule, e):
        return e[3] and rule[0] == e[1] and rule[1] == e[2]

    def name(rule):
        return "&".join(sorted(rule[0])) + "->" + rule[1]

    known_hi, known_lw, novel_hi, contr, residue = set(), set(), set(), set(), set()
    for rule in qualified:
        is_matched = any(matches(rule, e) for e in expert)
        is_contra = any(contra(rule, e) for e in expert)
        strong = rule[4] >= pi_min
        if is_contra:
            contr.add(name(rule))
        elif is_matched:
            (known_hi if strong else known_lw).add(name(rule))
        elif strong:
            novel_hi.add(name(rule))
        else:
            residue.add(name(rule))
    missing = {
        e[0]
        for e in expert
        if not any(matches(rule, e) for rule in qualified)
    }
    return {
        "arec": {name(r) for r in qualified},
        "known_hi": known_hi,
        "known_lw": known_lw,
        "novel_hi": novel_hi,
        "contr": contr,
        "residue": residue,
        "missing": missing,
    }


# ---------------------------------------------------------------------------
# rules CSV reader and partition, one rule and one pair at a time
# ---------------------------------------------------------------------------
# Reference forms of nof.rulemining.read_rules_csv and nof.ontology.partition:
# every rule computes its own sort key from its frozensets, and every
# qualified rule is compared with every expert rule.


def loop_read_rules_csv(path):
    """The rules CSV as AssociationRules, each item token parsed on its own
    and each rule keyed by sorting its sides' canonical strings itself."""
    import csv

    from nof.errors import ConfigError, ParseError
    from nof.rulemining import AssociationRule, parse_item

    def items(text):
        return frozenset(parse_item(token) for token in text.split("&") if token)

    header = ["antecedent", "consequent", "support", "confidence", "reliability"]
    rules = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=";")
        if next(reader, None) != header:
            raise ParseError("bad rules header", line=1)
        for lineno, rec in enumerate(reader, start=2):
            if len(rec) != 5:
                raise ParseError(f"expected 5 fields, got {len(rec)}", line=lineno)
            try:
                rule = AssociationRule(
                    antecedent=items(rec[0]),
                    consequent=items(rec[1]),
                    support=float(rec[2]),
                    confidence=float(rec[3]),
                    reliability=float(rec[4]),
                )
            except (ValueError, ConfigError) as exc:
                raise ParseError(str(exc), line=lineno) from exc
            for name in header[2:]:
                if not 0.0 <= getattr(rule, name) <= 1.0:
                    raise ParseError(f"{name} is not a number in [0, 1]", line=lineno)
            rules.append(rule)
    return rules


def loop_partition(mined, base):
    """nof.ontology.partition with every qualified rule compared with every
    expert rule through nof.ontology._same_rule."""
    from nof import ontology
    from nof.rulemining import AssociationRule

    ontology._check_thresholds(base)
    qualified = sorted(
        {r for r in mined if r.support >= base.beta_sup and r.confidence >= base.beta_conf},
        key=AssociationRule.sort_key,
    )
    annotated = []
    found = set()
    for r in qualified:
        matched = contra = None
        for idx, e in enumerate(base.rules):
            if not ontology._same_rule(r, e):
                continue
            if e.negated:
                contra = contra if contra is not None else e.rule_id
            else:
                matched = matched if matched is not None else e.rule_id
                found.add(idx)
        annotated.append(ontology.AnnotatedRule(r, matched, contra))
    sections = {name: [] for name in ("known_high_strength", "known_low_strength",
                                      "novel_high_strength", "contradictory",
                                      "low_strength_residue")}
    for ar in annotated:
        strong = ar.rule.reliability >= base.pi_min
        if ar.contradicted_expert is not None:
            name = "contradictory"
        elif ar.matched_expert is not None:
            name = "known_high_strength" if strong else "known_low_strength"
        else:
            name = "novel_high_strength" if strong else "low_strength_residue"
        sections[name].append(ar)
    return ontology.PartitionReport(
        thresholds={name: getattr(base, name) for name in ontology.DEFAULT_THRESHOLDS},
        arec=annotated,
        missing=[e for idx, e in enumerate(base.rules) if idx not in found],
        **sections,
    )


def traced_peak(fn, *args, **kwargs):
    """fn's result and the peak of the memory traced while it ran, in bytes
    above what was traced when it started; numpy reports its array buffers
    to tracemalloc."""
    import tracemalloc

    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
