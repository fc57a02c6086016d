import json
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nof import classification
from nof.classification import (
    Condition,
    DecisionTree,
    Leaf,
    Split,
    TreeConfig,
    _branch_stats,
    _log_density,
    _log_lower_tail,
    _numeric_candidates,
    _pessimistic_errors,
    _upper_limit,
    all_split_points,
    build_tree,
    classify,
    extract_rules,
    leaf_count,
    rules_to_text,
    split_points,
    tree_from_json,
    tree_to_json,
)
from nof.errors import ConfigError

from helpers import (
    assert_upper_limit_within,
    brute_force_root_split,
    exact_binomial_cdf,
    exact_log,
)


def random_dataset(rng, max_rows=8):
    """Small mixed-type dataset for oracle comparisons."""
    n = int(rng.integers(2, max_rows + 1))
    n_num = int(rng.integers(1, 3))
    n_cat = int(rng.integers(0, 2))
    rows = []
    for _ in range(n):
        row = {}
        for a in range(n_num):
            row[f"x{a}"] = float(rng.integers(0, 6))
        for a in range(n_cat):
            row[f"c{a}"] = str(rng.choice(["red", "green", "blue"]))
        rows.append(row)
    labels = [str(rng.choice(["A", "B", "C"][: int(rng.integers(2, 4))])) for _ in range(n)]
    return rows, labels


def root_of(tree: DecisionTree):
    if isinstance(tree.root, Leaf):
        return None
    return tree.root.attribute, tree.root.threshold


def tree_shape(node: Leaf | Split):
    """Nodes, thresholds, labels and counts, without error estimates."""
    if isinstance(node, Leaf):
        return node.label, node.n, node.counts
    children = {key: tree_shape(child) for key, child in node.children.items()}
    return node.attribute, node.threshold, node.majority_value, node.n, node.counts, children


SEPARABLE_ROWS = [{"x": float(v)} for v in (1, 2, 3, 4, 6, 7, 8, 9)]
SEPARABLE_LABELS = ["A"] * 4 + ["B"] * 4


class TestBuildTree:
    def test_single_label_single_leaf(self):
        rows = [{"x": 1.0}, {"x": 2.0}]
        tree = build_tree(rows, ["A", "A"])
        assert isinstance(tree.root, Leaf)
        assert tree.root.label == "A" and tree.root.n == 2

    def test_separable_1d_threshold_between_groups(self):
        tree = build_tree(SEPARABLE_ROWS, SEPARABLE_LABELS, TreeConfig(prune_cf=None))
        attr, thr = root_of(tree)
        assert attr == "x" and 4.0 < thr < 6.0
        le, gt = tree.root.children["le"], tree.root.children["gt"]
        assert isinstance(le, Leaf) and le.label == "A" and le.counts == {"A": 4}
        assert isinstance(gt, Leaf) and gt.label == "B" and gt.counts == {"B": 4}

    def test_separable_matches_oracle(self):
        got = root_of(build_tree(SEPARABLE_ROWS, SEPARABLE_LABELS))
        assert got == brute_force_root_split(SEPARABLE_ROWS, SEPARABLE_LABELS)

    def test_root_split_matches_brute_force_on_small_datasets(self):
        rng = np.random.default_rng(0)
        checked = 0
        for _ in range(120):
            rows, labels = random_dataset(rng)
            tree = build_tree(rows, labels, TreeConfig(prune_cf=None))
            oracle = brute_force_root_split(rows, labels)
            got = root_of(tree)
            assert got == oracle, f"rows={rows} labels={labels}"
            checked += 1
        assert checked == 120

    def test_numeric_candidates_equal_a_recount_at_each_threshold(self):
        # the one-pass scan gives the gains and ratios of counting both sides
        # afresh at every threshold, bit for bit, also where the midpoint of
        # two adjacent floats rounds onto one of them
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(2, 30))
            values = rng.integers(0, 8, size=n).astype(float)
            values[values == 7] = np.nextafter(6.0, 7.0)
            labels = [str(v) for v in rng.choice(["A", "B", "C"], size=n)]
            rows = [{"x": v} for v in values]
            cands = _numeric_candidates("x", 0, rows, labels)
            want = []
            distinct = sorted(set(values))
            for lo, hi in zip(distinct, distinct[1:]):
                thr = (lo + hi) / 2.0
                gain, split_info = _branch_stats(Counter(labels), [
                    Counter(lab for v, lab in zip(values, labels) if v <= thr),
                    Counter(lab for v, lab in zip(values, labels) if v > thr)])
                if split_info > 0:
                    want.append((thr, gain, gain / split_info))
            assert [(c.threshold, c.gain, c.ratio) for c in cands] == want

    def test_conflicting_duplicates_majority_leaf(self):
        rows = [{"x": 1.0}] * 5
        labels = ["A", "A", "A", "B", "B"]
        tree = build_tree(rows, labels)
        assert isinstance(tree.root, Leaf)
        assert tree.root.label == "A"
        assert tree.root.error_estimate > 0

    def test_categorical_multiway_split(self):
        rows = [{"color": c} for c in ("red", "red", "green", "green", "blue", "blue")]
        labels = ["A", "A", "B", "B", "C", "C"]
        tree = build_tree(rows, labels, TreeConfig(prune_cf=None))
        assert isinstance(tree.root, Split) and not tree.root.is_numeric
        assert set(tree.root.children) == {"red", "green", "blue"}

    def test_empty_input_rejected(self):
        with pytest.raises(ConfigError):
            build_tree([], [])

    def test_missing_value_rejected(self):
        with pytest.raises(ConfigError):
            build_tree([{"x": None}], ["A"])

    def test_mixed_types_rejected(self):
        with pytest.raises(ConfigError):
            build_tree([{"x": 1.0}, {"x": "red"}], ["A", "B"])

    def test_narrowing_intervals_invariant(self):
        rng = np.random.default_rng(1)
        rows = [{"x": float(rng.integers(0, 20)), "y": float(rng.integers(0, 20))}
                for _ in range(40)]
        labels = [str(rng.choice(["A", "B", "C"])) for _ in range(40)]
        tree = build_tree(rows, labels, TreeConfig(prune_cf=None))

        def walk(node, bounds):
            if isinstance(node, Leaf):
                return
            if node.is_numeric:
                lo, hi = bounds.get(node.attribute, (-np.inf, np.inf))
                assert lo < node.threshold < hi
                walk(node.children["le"], {**bounds, node.attribute: (lo, node.threshold)})
                walk(node.children["gt"], {**bounds, node.attribute: (node.threshold, hi)})
            else:
                for child in node.children.values():
                    walk(child, bounds)

        walk(tree.root, {})

    def test_routing_partition_invariant(self):
        rng = np.random.default_rng(2)
        rows = [{"x": float(rng.integers(0, 10)), "c": str(rng.choice(["u", "v"]))}
                for _ in range(30)]
        labels = [str(rng.choice(["A", "B"])) for _ in range(30)]
        tree = build_tree(rows, labels, TreeConfig(prune_cf=None))
        leaves: list[Leaf] = []

        def collect(node):
            if isinstance(node, Leaf):
                leaves.append(node)
            else:
                for child in node.children.values():
                    collect(child)

        collect(tree.root)
        assert sum(leaf.n for leaf in leaves) == 30


class TestPruning:
    def test_pruned_leaf_count_not_larger(self):
        rng = np.random.default_rng(3)
        for seed in range(8):
            rng = np.random.default_rng(seed)
            rows = [{"x": float(rng.integers(0, 12)), "y": float(rng.integers(0, 12))}
                    for _ in range(25)]
            labels = [str(rng.choice(["A", "B"])) for _ in range(25)]
            unpruned = build_tree(rows, labels, TreeConfig(prune_cf=None))
            pruned = build_tree(rows, labels, TreeConfig(prune_cf=0.25))
            assert leaf_count(pruned) <= leaf_count(unpruned)

    def test_pure_tree_survives_pruning(self):
        tree = build_tree(SEPARABLE_ROWS, SEPARABLE_LABELS, TreeConfig(prune_cf=0.25))
        assert leaf_count(tree) == 2
        for row, label in zip(SEPARABLE_ROWS, SEPARABLE_LABELS):
            assert classify(tree, row) == label

    def test_heavy_pruning_collapses_noise(self):
        # labels independent of x: the pessimistic bound should collapse the tree
        rng = np.random.default_rng(4)
        rows = [{"x": float(i)} for i in range(20)]
        labels = [str(rng.choice(["A", "B"], p=[0.8, 0.2])) for _ in range(20)]
        pruned = build_tree(rows, labels, TreeConfig(prune_cf=0.01))
        assert leaf_count(pruned) <= leaf_count(
            build_tree(rows, labels, TreeConfig(prune_cf=None))
        )

    @pytest.mark.parametrize("signs", [(1,), (-1,), (-1, 1)], ids=["up", "down", "mixed"])
    def test_pruning_does_not_see_bound_noise(self, signs, monkeypatch):
        # pruning compares estimates with a 1e-9 slack, so a bound off by
        # 1e-12 relative changes no tree; at cf 0.5 many leaf and subtree
        # estimates are equal in exact arithmetic (each U(e, 2e + 1) is 1/2),
        # and noise of mixed sign would split them without the slack
        rng = np.random.default_rng(6)
        tables = [(SEPARABLE_ROWS, SEPARABLE_LABELS), (TestPruneCf.ROWS, TestPruneCf.LABELS)]
        for _ in range(30):
            n = int(rng.integers(2, 65))
            rows = [{"x": float(rng.integers(0, 6)), "y": float(rng.normal()),
                     "c": str(rng.choice(["red", "green", "blue"]))} for _ in range(n)]
            labels = [str(rng.choice(["A", "B", "C"][: int(rng.integers(2, 4))]))
                      for _ in range(n)]
            tables.append((rows, labels))

        def shapes():
            return [tree_shape(build_tree(rows, labels, TreeConfig(prune_cf=cf)).root)
                    for rows, labels in tables for cf in (0.25, 0.5)]

        want = shapes()
        exact = classification._upper_limit

        def noisy(n, e, cf):
            return exact(n, e, cf) * (1 + rng.choice(signs) * 1e-12)

        monkeypatch.setattr(classification, "_upper_limit", noisy)
        assert shapes() == want


# the confidence levels and table sizes the pruning bound is checked on
BOUND_CFS = (0.01, 0.05, 0.1, 0.25, 0.5)
BOUND_NS = (1, 2, 3, 7, 25, 100, 399)


def within_relative(n, e, cf):
    p = _upper_limit(n, e, cf)
    assert_upper_limit_within(n, e, cf, p, 1e-14 * p)


class TestPruningBound:
    """_upper_limit is U_CF(E, N) within 1e-14 relative on the grid and 1e-14
    absolute for any cf, held to an exact rational oracle. scipy's beta
    quantile is itself about 1e-14 off on this grid, so it is a cross-check
    within 1e-13."""

    def test_within_relative_delta_up_to_n_100(self):
        for cf in BOUND_CFS:
            for n in BOUND_NS[:-1]:
                for e in range(n):
                    within_relative(n, e, cf)

    def test_within_relative_delta_at_n_399(self):
        # exact sums over a long tail cost tens of ms at n = 399: both ends
        # of e, and every 25th e between them
        n = 399
        es = sorted({*range(10), *range(n - 10, n), *range(0, n, 25)})
        for cf in BOUND_CFS:
            for e in es:
                within_relative(n, e, cf)

    def test_underflow_corners(self):
        # q^n underflows a double here: p is near 1, and the shorter tail is
        # the single term p^n
        for n in (100, 399):
            p = _upper_limit(n, n - 1, 0.01)
            assert_upper_limit_within(n, n - 1, 0.01, p, 1e-14 * p)
            assert p == pytest.approx(0.99 ** (1 / n), rel=1e-15)
            assert _pessimistic_errors(n, n - 1, 0.01) == float(n) * p

    @settings(max_examples=80, deadline=None)
    @given(ne=st.integers(1, 100).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n - 1))),
           cf=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    # a tail picked by 2e < n has a target near 1 here, whose log is too
    # flat to solve for: the root moved by 1e-3
    @example(ne=(50, 30), cf=1.855530235431156e-15)
    @example(ne=(61, 30), cf=0.9999999999999989)
    # the root of the solved tail lies within 1e-11 of x = 1 here, where a
    # Newton step in x overshoots 1 and is taken in log(1 - x) instead
    @example(ne=(2, 1), cf=9e-12)
    @example(ne=(100, 99), cf=2e-16)
    @example(ne=(64, 0), cf=1 - 1e-13)
    @example(ne=(3, 0), cf=math.nextafter(1.0, 0.0))
    def test_within_absolute_delta_for_any_cf(self, ne, cf):
        # cf below 2**-54 makes the target 0, reached at p = 1
        n, e = ne
        assert_upper_limit_within(n, e, cf, _upper_limit(n, e, cf), 1e-14)

    @pytest.mark.parametrize("n,m,x", [(1, 0, 0.25), (8, 6, 0.5), (64, 48, 0.8), (399, 199, 0.5),
                                       (399, 3, 0.9), (400, 390, 0.01)])
    def test_log_tail_and_density_match_the_oracle(self, n, m, x):
        # the last two tails and densities underflow a double (1e-389 and
        # 1e-760); the density is the x-derivative of the tail through
        # P_n(Y <= m) = P_{n-1}(Y <= m) - x b(m; n - 1, x)
        p = Fraction(x)
        tail = exact_binomial_cdf(n, m, p)
        density = n * (exact_binomial_cdf(n - 1, m, p) - tail) / p
        assert math.isclose(_log_lower_tail(n, m, x), exact_log(tail), rel_tol=1e-15, abs_tol=1e-14)
        assert math.isclose(_log_density(n, m, x), exact_log(density), rel_tol=1e-15, abs_tol=1e-14)

    def test_few_tail_evaluations_at_pipeline_inputs(self, monkeypatch):
        # the solve has no iteration cap: at the pipeline's cf and table
        # sizes Newton settles it in about five steps, and a fall back to
        # bisection would take about fifty
        calls = []
        tail = classification._log_lower_tail

        def counted(n, m, x):
            calls[-1] += 1
            return tail(n, m, x)

        monkeypatch.setattr(classification, "_log_lower_tail", counted)
        for n in range(1, 65):
            for e in range(n):
                calls.append(0)
                _upper_limit(n, e, 0.25)
        assert max(calls) <= 12
        assert sum(calls) / len(calls) < 6

    def test_few_tail_evaluations_with_the_root_near_one(self, monkeypatch):
        # e = n - 1 at cf below 1e-11, and e = 0 at cf above 1 - 1e-11, put
        # the root of the solved tail within 1e-11 of x = 1: a Newton step in
        # x overshoots 1 there, and bisecting towards 1 took 40-53 evaluations
        calls = []
        tail = classification._log_lower_tail

        def counted(n, m, x):
            calls[-1] += 1
            return tail(n, m, x)

        monkeypatch.setattr(classification, "_log_lower_tail", counted)
        for n in range(2, 401):
            for cf in (9e-12, 1e-13, 1e-15, 2e-16,
                       1 - 9e-12, 1 - 1e-13, 1 - 1e-15, math.nextafter(1.0, 0.0)):
                calls.append(0)
                _upper_limit(n, n - 1 if cf < 0.5 else 0, cf)
        assert max(calls) <= 12

    def test_pessimistic_errors_match_scipy_beta_quantile(self):
        from scipy.stats import beta

        for cf in BOUND_CFS:
            for n in BOUND_NS:
                e = np.arange(n)
                expected = float(n) * beta.ppf(1.0 - cf, e + 1, n - e)
                got = [_pessimistic_errors(n, int(errors), cf) for errors in e]
                np.testing.assert_allclose(got, expected, rtol=1e-13, atol=0.0)
                assert _pessimistic_errors(n, n, cf) == float(n)
        assert _pessimistic_errors(0, 0, 0.25) == 0.0


class TestPruneCf:
    ROWS = [{"x": float(i)} for i in range(10)]
    LABELS = ["A", "A", "B", "A", "B", "B", "A", "B", "B", "B"]

    @pytest.mark.parametrize("cf", [1.5, -0.2, 1.0, 0, 0.0, True, float("nan"),
                                    float("inf"), "0.25"])
    def test_out_of_range_prune_cf_is_refused(self, cf, tmp_path):
        # 1.5 and -0.2 grew an unpruned tree with NaN error estimates, 1.0
        # collapsed it to one leaf with error 0, and 0 was a second "unpruned"
        with pytest.raises(ConfigError, match="prune_cf"):
            build_tree(self.ROWS, self.LABELS, TreeConfig(prune_cf=cf))
        path = tmp_path / "tree.json"
        tree_to_json(build_tree(self.ROWS, self.LABELS), path)
        doc = json.loads(path.read_text())
        doc["config"]["prune_cf"] = cf
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="prune_cf"):
            tree_from_json(path)

    @pytest.mark.parametrize("cf", [None, 0.25, 1e-300, np.float64(0.5), 0.999])
    def test_valid_prune_cf_round_trips(self, cf, tmp_path):
        tree = build_tree(self.ROWS, self.LABELS, TreeConfig(prune_cf=cf))
        path = tmp_path / "tree.json"
        tree_to_json(tree, path)
        assert tree_from_json(path).config.prune_cf == cf


class TestClassify:
    def test_training_rows_agree_on_separable_data(self):
        tree = build_tree(SEPARABLE_ROWS, SEPARABLE_LABELS)
        for row, label in zip(SEPARABLE_ROWS, SEPARABLE_LABELS):
            assert classify(tree, row) == label

    def test_single_leaf_classifies_everything(self):
        tree = build_tree([{"x": 1.0}, {"x": 9.0}], ["A", "A"])
        assert classify(tree, {"x": -100.0}) == "A"
        assert classify(tree, {"x": 42.0}) == "A"

    def test_held_out_planted_clusters(self):
        rng = np.random.default_rng(5)

        def blob(n, center, label):
            pts = rng.normal(size=(n, 2)) + center
            return ([{"x": float(p[0]), "y": float(p[1])} for p in pts], [label] * n)

        train_rows, train_labels = blob(50, (0, 0), "A")
        more_rows, more_labels = blob(50, (8, 8), "B")
        train_rows += more_rows
        train_labels += more_labels
        tree = build_tree(train_rows, train_labels)
        test_rows, test_labels = blob(40, (0, 0), "A")
        extra_rows, extra_labels = blob(40, (8, 8), "B")
        test_rows += extra_rows
        test_labels += extra_labels
        hits = sum(classify(tree, r) == l for r, l in zip(test_rows, test_labels))
        assert hits / len(test_rows) >= 0.95

    def test_unseen_categorical_routes_to_majority_child(self):
        rows = [{"c": "red"}, {"c": "red"}, {"c": "red"}, {"c": "blue"}, {"c": "blue"}]
        labels = ["A", "A", "A", "B", "B"]
        tree = build_tree(rows, labels, TreeConfig(prune_cf=None))
        with pytest.warns(UserWarning, match="unseen"):
            assert classify(tree, {"c": "green"}) == "A"

    def test_missing_attribute_errors_by_default(self):
        tree = build_tree(SEPARABLE_ROWS, SEPARABLE_LABELS)
        with pytest.raises(ConfigError):
            classify(tree, {})


class TestExtractRules:
    def test_single_leaf_rule(self):
        tree = build_tree([{"x": 1.0}], ["A"])
        rules = extract_rules(tree)
        assert len(rules) == 1
        assert rules[0].antecedent == ()
        assert rules[0].consequent == "A"
        assert rules[0].coverage == 1 and rules[0].confidence == 1.0
        assert rules[0].render() == "IF ALWAYS THEN A (cov=1, conf=1.00)"

    def test_depth_two_paths_enumerated(self):
        rows = [
            {"x": 1.0, "c": "u"}, {"x": 2.0, "c": "u"},
            {"x": 9.0, "c": "u"}, {"x": 10.0, "c": "u"},
            {"x": 9.0, "c": "v"}, {"x": 10.0, "c": "v"},
        ]
        labels = ["A", "A", "B", "B", "C", "C"]
        tree = build_tree(rows, labels, TreeConfig(prune_cf=None))
        rules = extract_rules(tree)
        assert len(rules) == leaf_count(tree) == 3
        consequents = {r.consequent for r in rules}
        assert consequents == {"A", "B", "C"}
        # manual path walk: each training row satisfied by exactly one rule
        for row, label in zip(rows, labels):
            matching = [r for r in rules if r.matches(row)]
            assert len(matching) == 1 and matching[0].consequent == label

    def test_rule_count_equals_leaf_count_random(self):
        rng = np.random.default_rng(6)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            rows = [{"x": float(rng.integers(0, 8)), "c": str(rng.choice(["u", "v", "w"]))}
                    for _ in range(20)]
            labels = [str(rng.choice(["A", "B"])) for _ in range(20)]
            tree = build_tree(rows, labels)
            assert len(extract_rules(tree)) == leaf_count(tree)

    def test_rule_fidelity_on_training_rows(self):
        rng = np.random.default_rng(7)
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            rows = [{"x": float(rng.integers(0, 8)), "y": float(rng.integers(0, 8))}
                    for _ in range(25)]
            labels = [str(rng.choice(["A", "B", "C"])) for _ in range(25)]
            tree = build_tree(rows, labels)
            rules = extract_rules(tree)
            for row in rows:
                matching = [r for r in rules if r.matches(row)]
                assert len(matching) == 1
                assert matching[0].consequent == classify(tree, row)

    def test_redundant_bounds_simplified(self):
        # force two splits on the same attribute along one path
        rows = [{"x": float(v)} for v in (1, 2, 3, 4, 5, 6, 7, 8)]
        labels = ["A", "A", "B", "B", "B", "B", "C", "C"]
        tree = build_tree(rows, labels, TreeConfig(prune_cf=None))
        rules = extract_rules(tree)
        for rule in rules:
            per_attr_ops = {}
            for cond in rule.antecedent:
                key = (cond.attribute, cond.op)
                assert key not in per_attr_ops, "duplicate bound survived simplification"
                per_attr_ops[key] = cond.value

    def test_render_format(self):
        rule_text = rules_to_text(extract_rules(build_tree(
            [{"TI_max": 300.0, "SP_max_ROI": "frontal"},
             {"TI_max": 400.0, "SP_max_ROI": "frontal"}],
            ["C1", "C2"], TreeConfig(prune_cf=None))))
        assert "IF TI_max" in rule_text and "THEN" in rule_text


class TestSplitPoints:
    def _manual_tree(self):
        # x <= 350 -> leaf A; x > 350 -> (x <= 450 -> B, x > 450 -> C)
        inner = Split(attribute="TI_max", threshold=450.0, n=4,
                      counts={"B": 2, "C": 2})
        inner.children["le"] = Leaf("B", 2, {"B": 2})
        inner.children["gt"] = Leaf("C", 2, {"C": 2})
        root = Split(attribute="TI_max", threshold=350.0, n=6,
                     counts={"A": 2, "B": 2, "C": 2})
        root.children["le"] = Leaf("A", 2, {"A": 2})
        root.children["gt"] = inner
        return DecisionTree(
            root=root,
            attributes=("TI_max", "ROI"),
            kinds={"TI_max": "numeric", "ROI": "categorical"},
            n_rows=6,
            class_labels=("A", "B", "C"),
            config=TreeConfig(),
        )

    def test_direct_read_off(self):
        assert split_points(self._manual_tree(), "TI_max") == [350.0, 450.0]

    def test_unused_numeric_attribute_empty(self):
        rows = [{"x": 1.0, "TI_max": 5.0}, {"x": 9.0, "TI_max": 5.0}]
        tree = build_tree(rows, ["A", "B"], TreeConfig(prune_cf=None))
        assert split_points(tree, "TI_max") == []

    def test_categorical_attribute_rejected(self):
        with pytest.raises(ConfigError, match="categorical"):
            split_points(self._manual_tree(), "ROI")

    def test_unknown_attribute_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            split_points(self._manual_tree(), "nope")

    def test_separable_split_point_in_gap(self):
        tree = build_tree(SEPARABLE_ROWS, SEPARABLE_LABELS)
        pts = split_points(tree, "x")
        assert len(pts) == 1 and 4.0 < pts[0] < 6.0
        oracle_attr, oracle_thr = brute_force_root_split(SEPARABLE_ROWS, SEPARABLE_LABELS)
        assert pts[0] == oracle_thr

    def test_all_split_points(self):
        tree = self._manual_tree()
        assert all_split_points(tree) == {"TI_max": [350.0, 450.0]}


class TestSerialization:
    def test_json_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        rows = [{"x": float(rng.integers(0, 8)), "c": str(rng.choice(["u", "v"]))}
                for _ in range(20)]
        labels = [str(rng.choice(["A", "B"])) for _ in range(20)]
        tree = build_tree(rows, labels)
        path = tmp_path / "tree.json"
        tree_to_json(tree, path)
        again = tree_from_json(path)
        assert again.root == tree.root
        assert again.attributes == tree.attributes
        assert again.kinds == tree.kinds
        for row in rows:
            assert classify(again, row) == classify(tree, row)

    def test_file_without_split_points_and_legacy_file_load(self, tmp_path):
        tree = build_tree(SEPARABLE_ROWS, SEPARABLE_LABELS)
        path = tmp_path / "tree.json"
        tree_to_json(tree, path)
        doc = json.loads(path.read_text())
        assert "split_points" not in doc
        # files written before the key was dropped still load
        doc["split_points"] = all_split_points(tree)
        path.write_text(json.dumps(doc))
        again = tree_from_json(path)
        assert again.root == tree.root
        assert all_split_points(again) == all_split_points(tree)

    def test_config_holds_only_prune_cf_and_old_config_keys_are_ignored(self, tmp_path):
        rows = [{"x": float(i % 5), "c": "uv"[i % 2]} for i in range(12)]
        labels = ["A" if i % 5 < 2 or i % 2 else "B" for i in range(12)]
        tree = build_tree(rows, labels, TreeConfig(prune_cf=None))
        path = tmp_path / "tree.json"
        tree_to_json(tree, path)
        doc = json.loads(path.read_text())
        assert doc["config"] == {"prune_cf": None}
        # files written while the tree config had more keys still load
        doc["config"].update(min_leaf=1, max_depth=None, missing="error")
        path.write_text(json.dumps(doc))
        again = tree_from_json(path)
        assert again.config == TreeConfig(prune_cf=None)
        assert all_split_points(tree)["x"]
        assert all_split_points(again) == all_split_points(tree)
        assert [classify(again, r) for r in rows] == [classify(tree, r) for r in rows]

    def test_condition_render(self):
        assert Condition("TI_max", ">", 350.0).render() == "TI_max > 350"
        assert Condition("TI_max", "<=", 350.5).render() == "TI_max <= 350.5"
        assert Condition("ROI", "=", "frontal").render() == "ROI = frontal"
