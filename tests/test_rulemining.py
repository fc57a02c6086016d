import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nof.errors import ConfigError, MissingInputError, ParseError
from nof.features import COLUMNS
from nof.rulemining import (
    AssociationRule,
    apriori,
    discretize,
    drop_universal_items,
    eq_item,
    generate_rules,
    interval_item,
    label_item,
    parse_item,
    read_rules_csv,
    reliability,
    write_rules_csv,
)

from helpers import brute_force_itemsets, loop_read_rules_csv

ROOT = Path(__file__).resolve().parents[1]


def tx(*names):
    return frozenset(eq_item("I", n) for n in names)


A, B, C = "a", "b", "c"


class TestItems:
    def test_interval_rendering(self):
        assert interval_item("TI_max", -math.inf, 350.0).canonical == "TI_max≤350"
        assert interval_item("TI_max", 350.0, math.inf).canonical == "TI_max>350"
        assert interval_item("TI_max", 300.0, 500.0).canonical == "TI_max∈(300,500]"
        assert interval_item("TI_max", -math.inf, math.inf).canonical == "TI_max=ANY"
        assert interval_item("x", 0.5, 1.25).canonical == "x∈(0.5,1.25]"

    def test_parse_round_trip(self):
        for text in ("TI_max≤350", "TI_max>350", "TI_max∈(300,500]",
                     "TI_max=ANY", "SP_max_ROI=frontal", "P300"):
            assert parse_item(text).canonical == text

    def test_ascii_le_accepted(self):
        assert parse_item("TI_max<=350") == interval_item("TI_max", -math.inf, 350.0)

    def test_label_item(self):
        item = parse_item("P300")
        assert item.kind == "label" and item.value == "P300"

    def test_reserved_characters_rejected(self):
        with pytest.raises(ConfigError):
            eq_item("EVENT", "a;b")
        with pytest.raises(ConfigError):
            eq_item("EV=ENT", "x")
        with pytest.raises(ConfigError):
            eq_item("STIM", "ANY")

    def test_empty_interval_rejected(self):
        with pytest.raises(ConfigError):
            interval_item("x", 2.0, 2.0)

    def test_items_sort_by_canonical(self):
        items = [eq_item("b", "2"), eq_item("a", "1"), label_item("P300")]
        assert [i.canonical for i in sorted(items)] == ["P300", "a=1", "b=2"]


_tokens = st.text(alphabet="abAB_19", min_size=1, max_size=4)
_bounds = st.sampled_from([-math.inf, -2.5, 0.0, 1.0 / 3.0, 300.0, 512.25, math.inf])
_items = st.one_of(
    st.builds(eq_item, _tokens, _tokens.filter(lambda v: v != "ANY")),
    st.builds(label_item, _tokens),
    st.builds(
        lambda attr, pair: interval_item(attr, *sorted(pair)),
        _tokens,
        st.lists(_bounds, min_size=2, max_size=2, unique=True),
    ),
)


class TestRuleKey:
    @settings(max_examples=60, deadline=None)
    @given(ante=st.frozensets(_items, max_size=5), cons=st.frozensets(_items, min_size=1, max_size=3))
    def test_sort_key_is_canonical_strings_in_item_order(self, ante, cons):
        rule = AssociationRule(antecedent=ante, consequent=cons,
                               support=0.5, confidence=0.5, reliability=0.0)
        want = (tuple(i.canonical for i in sorted(ante)), tuple(i.canonical for i in sorted(cons)))
        assert rule.sort_key() == want
        assert rule.canonical() == f"{'&'.join(want[0])} -> {'&'.join(want[1])}"


class TestDiscretize:
    def test_threshold_arithmetic(self):
        rows = [{"TI_max": 300.0}, {"TI_max": 400.0}, {"TI_max": 350.0}]
        txs = discretize(rows, {"TI_max": [350.0]})
        assert txs[0] == frozenset([parse_item("TI_max≤350")])
        assert txs[1] == frozenset([parse_item("TI_max>350")])
        assert txs[2] == frozenset([parse_item("TI_max≤350")])  # boundary closed above

    def test_interior_interval(self):
        txs = discretize([{"x": 5.0}], {"x": [1.0, 10.0]})
        assert txs[0] == frozenset([parse_item("x∈(1,10]")])

    def test_no_split_points_catch_all(self):
        txs = discretize([{"IN_max": 3.0}], {})
        assert txs[0] == frozenset([parse_item("IN_max=ANY")])

    def test_categoricals_pass_through(self):
        txs = discretize([{"ROI": "frontal", "TI_max": 100.0}], {"TI_max": []})
        assert txs[0] == frozenset([parse_item("ROI=frontal"), parse_item("TI_max=ANY")])

    def test_summary_rows_have_twelve_items(self):
        row = dict(zip(COLUMNS, ("Fz", "frontal", "Oz", "occipital", -1.0, 2.0, 0.5,
                                 0.9, 400.0, "stimon", "s1", "visual")))
        txs = discretize([row], {"TI_max": [350.0], "IN_max": [1.0]})
        assert len(txs[0]) == len(COLUMNS) == 12
        attrs = {item.attribute for item in txs[0]}
        assert attrs == set(COLUMNS)

    def test_unsorted_split_points_rejected(self):
        with pytest.raises(ConfigError, match="ascending"):
            discretize([{"x": 1.0}], {"x": [5.0, 2.0]})

    def test_transaction_count_equals_row_count(self):
        rows = [{"x": float(i)} for i in range(7)]
        assert len(discretize(rows, {"x": [3.0]})) == 7

    @settings(max_examples=40, deadline=None)
    @given(
        values=st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=8),
        splits=st.lists(st.floats(-1e5, 1e5, allow_nan=False), max_size=4, unique=True),
    )
    def test_totality_property(self, values, splits):
        rows = [{"x": v, "tag": "t"} for v in values]
        points = sorted(splits)
        txs = discretize(rows, {"x": points})
        assert len(txs) == len(rows)
        for value, t in zip(values, txs):
            assert len(t) == 2  # one item per attribute
            (item,) = [i for i in t if i.attribute == "x"]
            assert item.lo < value <= item.hi
            for p in points:
                assert not (item.lo < p < item.hi)  # intervals never straddle a split


class TestApriori:
    def test_worked_example(self):
        txs = [tx(A, B), tx(A, B), tx(A, C)]
        out = apriori(txs, 2.0 / 3.0)
        expect = {
            frozenset([eq_item("I", A)]): 1.0,
            frozenset([eq_item("I", B)]): 2.0 / 3.0,
            frozenset([eq_item("I", A), eq_item("I", B)]): 2.0 / 3.0,
        }
        assert out == expect

    def test_no_common_item_at_full_support(self):
        txs = [tx(A), tx(B), tx(C)]
        assert apriori(txs, 1.0) == {}

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(0)
        for trial in range(6):
            n_items = int(rng.integers(4, 11))
            n_tx = int(rng.integers(5, 21))
            items = [eq_item("I", f"i{k}") for k in range(n_items)]
            txs = [
                frozenset(it for it in items if rng.random() < 0.45)
                for _ in range(n_tx)
            ]
            txs = [t if t else frozenset([items[0]]) for t in txs]
            got = apriori(txs, 0.25)
            want = brute_force_itemsets(txs, 0.25)
            assert got == want

    def test_matches_brute_force_beyond_one_machine_word(self):
        # more than 64 transactions, so every support mask spans several words
        rng = np.random.default_rng(7)
        items = [eq_item("I", f"i{k}") for k in range(9)]
        for n_tx in (65, 130, 257):
            txs = [frozenset(it for it in items if rng.random() < 0.45) or frozenset([items[0]])
                   for _ in range(n_tx)]
            got = apriori(txs, 0.1)
            assert got == brute_force_itemsets(txs, 0.1)
            for itemset, support in got.items():
                assert support == sum(itemset <= t for t in txs) / n_tx

    def test_downward_closure(self):
        rng = np.random.default_rng(1)
        items = [eq_item("I", f"i{k}") for k in range(8)]
        txs = [frozenset(it for it in items if rng.random() < 0.5) or frozenset([items[0]])
               for _ in range(15)]
        out = apriori(txs, 0.2)
        for itemset in out:
            for item in itemset:
                assert itemset - {item} in out or len(itemset) == 1

    def test_max_len_caps_size(self):
        txs = [tx(A, B, C)] * 4
        out = apriori(txs, 0.5, max_len=2)
        assert max(len(s) for s in out) == 2

    def test_bad_support_rejected(self):
        with pytest.raises(ConfigError):
            apriori([tx(A)], 0.0)
        with pytest.raises(ConfigError):
            apriori([tx(A)], 1.5)
        with pytest.raises(ConfigError):
            apriori([], 0.5)

    @pytest.mark.parametrize("max_len", [0, -2])
    def test_max_len_below_one_rejected(self, max_len):
        # before, the 1-itemsets came back as if max_len were 1
        with pytest.raises(ConfigError, match="max_len must be >= 1, got"):
            apriori([tx(A, B)] * 2, 0.5, max_len=max_len)

    @settings(max_examples=30, deadline=None)
    @given(
        picks=st.lists(
            st.lists(st.integers(0, 5), min_size=1, max_size=6), min_size=1, max_size=12
        ),
        beta=st.floats(0.1, 1.0),
    )
    def test_closure_and_support_bounds_property(self, picks, beta):
        txs = [frozenset(eq_item("I", f"i{k}") for k in p) for p in picks]
        out = apriori(txs, beta)
        n = len(txs)
        for itemset, support in out.items():
            assert support >= beta
            assert support == sum(1 for t in txs if itemset <= t) / n
            for item in itemset:
                assert len(itemset) == 1 or itemset - {item} in out


class TestDropUniversalItems:
    @staticmethod
    def rows(seed, n=12):
        rng = np.random.default_rng(seed)
        return [{"MOD": "visual", "ROI": str(rng.choice(["frontal", "occipital"])),
                 "STIM": str(rng.choice(["s1", "s2", "s3"])),
                 "TI_max": float(rng.uniform(0, 600)), "IN_max": float(rng.normal())}
                for _ in range(n)]

    def test_universal_items_dropped(self):
        txs = discretize(self.rows(0), {"TI_max": [300.0], "IN_max": []})
        out = drop_universal_items(txs)
        dropped = {parse_item("MOD=visual"), parse_item("IN_max=ANY")}
        assert frozenset.intersection(*txs) == dropped
        assert out == [t - dropped for t in txs]

    @pytest.mark.parametrize("seed", range(5))
    def test_rules_keep_metrics_of_full_transactions(self, seed):
        txs = discretize(self.rows(seed), {"TI_max": [300.0], "IN_max": []})
        universal = frozenset.intersection(*txs)
        full = generate_rules(apriori(txs, 0.2), 0.6, txs)
        reduced = drop_universal_items(txs)
        rules = generate_rules(apriori(reduced, 0.2), 0.6, reduced)
        assert rules
        # the same rules, support, confidence and reliability equal to the
        # last bit, minus those that mention a dropped item
        assert rules == [r for r in full
                         if universal.isdisjoint(r.antecedent | r.consequent)]

    def test_kept_attributes_survive(self):
        txs = discretize(self.rows(1), {"TI_max": [300.0], "IN_max": []})
        out = drop_universal_items(txs, keep_attributes={"MOD"})
        assert all(parse_item("MOD=visual") in t for t in out)
        assert all(parse_item("IN_max=ANY") not in t for t in out)

    def test_unchanged_when_nothing_to_drop(self):
        assert drop_universal_items([tx(A, B), tx(B, C)], {"I"}) == [tx(A, B), tx(B, C)]
        assert drop_universal_items([tx(A), tx(B)]) == [tx(A), tx(B)]
        assert drop_universal_items([]) == []


class TestGenerateRules:
    def test_confidence_filter(self):
        txs = [tx(A, B), tx(A, B), tx(A, C)]
        itemsets = apriori(txs, 2.0 / 3.0)
        rules = generate_rules(itemsets, 0.8, txs)
        assert len(rules) == 1
        rule = rules[0]
        assert rule.antecedent == frozenset([eq_item("I", B)])
        assert rule.consequent == frozenset([eq_item("I", A)])
        assert rule.confidence == 1.0
        assert rule.support == 2.0 / 3.0

    def test_ubiquitous_consequent_zero_reliability(self):
        txs = [tx(A, B), tx(A, B), tx(A, C)]
        itemsets = apriori(txs, 2.0 / 3.0)
        rule = generate_rules(itemsets, 0.8, txs)[0]
        assert rule.reliability == 0.0  # |1 - supp(a)| with supp(a) = 1

    def test_vanishing_confidence_emits_a_rule_per_member(self):
        txs = [tx(A, B, C)] * 5
        itemsets = apriori(txs, 0.5)
        rules = generate_rules(itemsets, 1e-9, txs)
        # per itemset of size k >= 2: k rules, each with a one-item consequent
        assert len(rules) == sum(len(s) for s in itemsets if len(s) >= 2)
        assert all(len(r.consequent) == 1 for r in rules)

    def test_emitted_rules_respect_thresholds(self):
        rng = np.random.default_rng(2)
        items = [eq_item("I", f"i{k}") for k in range(6)]
        txs = [frozenset(it for it in items if rng.random() < 0.5) or frozenset([items[0]])
               for _ in range(20)]
        itemsets = apriori(txs, 0.2)
        for rule in generate_rules(itemsets, 0.6, txs):
            assert rule.confidence >= 0.6
            assert rule.support >= 0.2
            assert not rule.antecedent & rule.consequent

    def test_bad_confidence_rejected(self):
        with pytest.raises(ConfigError):
            generate_rules({}, 0.0, [tx(A)])


class TestReliability:
    def test_arithmetic_example(self):
        # conf(A -> C) = 0.9, supp(C) = 0.3 -> 0.6
        txs = []
        txs += [tx(A, C)] * 9
        txs += [tx(A)] * 1
        txs += [tx(B)] * 7
        txs += [tx(B, C)] * 3
        rule = AssociationRule(frozenset([eq_item("I", A)]),
                               frozenset([eq_item("I", C)]), 0.0, 0.0, 0.0)
        assert reliability(rule, txs) == pytest.approx(0.9 - 12 / 20)

    def test_ubiquitous_consequent(self):
        txs = [tx(A, B), tx(B), tx(A, B)]
        rule = AssociationRule(frozenset([eq_item("I", A)]),
                               frozenset([eq_item("I", B)]), 0.0, 0.0, 0.0)
        assert reliability(rule, txs) == 0.0

    def test_independent_items_zero_reliability(self):
        # exact in-sample independence: P(C|A) = P(C)
        txs = [tx(A, C), tx(A), tx(C), tx()]
        txs = [t if t else frozenset([eq_item("I", "pad")]) for t in txs]
        rule = AssociationRule(frozenset([eq_item("I", A)]),
                               frozenset([eq_item("I", C)]), 0.0, 0.0, 0.0)
        assert reliability(rule, txs) == pytest.approx(0.0, abs=1e-15)

    def test_range_and_independence_property(self):
        rng = np.random.default_rng(3)
        items = [eq_item("I", f"i{k}") for k in range(6)]
        txs = [frozenset(it for it in items if rng.random() < 0.5) or frozenset([items[0]])
               for _ in range(25)]
        itemsets = apriori(txs, 0.2)
        for rule in generate_rules(itemsets, 0.3, txs):
            val = reliability(rule, txs)
            assert 0.0 <= val <= 1.0
            assert val == pytest.approx(rule.reliability)

    def test_zero_support_antecedent_rejected(self):
        rule = AssociationRule(frozenset([eq_item("I", "ghost")]),
                               frozenset([eq_item("I", A)]), 0.0, 0.0, 0.0)
        with pytest.raises(ConfigError, match="zero support"):
            reliability(rule, [tx(A)])


class TestRulesCsv:
    def _rules(self):
        txs = [tx(A, B), tx(A, B), tx(A, C)]
        itemsets = apriori(txs, 1.0 / 3.0)
        return generate_rules(itemsets, 0.5, txs)

    def test_round_trip(self, tmp_path):
        rules = self._rules()
        path = tmp_path / "rules.csv"
        write_rules_csv(rules, path)
        again = read_rules_csv(path)
        assert again == rules

    def test_header_and_format(self, tmp_path):
        path = tmp_path / "rules.csv"
        write_rules_csv(self._rules(), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "antecedent;consequent;support;confidence;reliability"
        assert all(line.count(";") == 4 for line in lines[1:])

    def test_interval_items_round_trip(self, tmp_path):
        rule = AssociationRule(
            antecedent=frozenset([interval_item("TI_max", 300.0, 500.0),
                                  eq_item("SP_max_ROI", "frontal")]),
            consequent=frozenset([eq_item("CLUSTER", "C1")]),
            support=0.5, confidence=1.0, reliability=0.5,
        )
        path = tmp_path / "rules.csv"
        write_rules_csv([rule], path)
        assert read_rules_csv(path) == [rule]

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(MissingInputError):
            read_rules_csv(tmp_path / "nope.csv")

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x;y\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            read_rules_csv(path)
        assert err.value.line == 1

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "antecedent;consequent;support;confidence;reliability\na=1;b=2;oops;1.0;0.0\n",
            encoding="utf-8",
        )
        with pytest.raises(ParseError) as err:
            read_rules_csv(path)
        assert err.value.line == 2

    def test_repeated_bad_token_names_first_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        row = "TI_max∈(300,x];P300;0.5;1.0;0.5\n"
        path.write_text(
            "antecedent;consequent;support;confidence;reliability\n" + row + row,
            encoding="utf-8",
        )
        with pytest.raises(ParseError) as err:
            read_rules_csv(path)
        assert err.value.line == 2

    def test_write_read_write_byte_identical(self, tmp_path):
        rng = np.random.default_rng(5)
        splits = {"x": [1.0 / 3.0, 0.5, 2.0], "y": [-1.25, 1e-3], "z": []}
        rows = [{"x": float(rng.normal()), "y": float(rng.normal()), "z": float(rng.normal()),
                 "M": str(rng.choice(["a", "b"])), "N": str(rng.choice(["u", "v", "w"])),
                 "O": str(rng.choice(["p", "q"]))} for _ in range(40)]
        txs = discretize(rows, splits)
        rules = generate_rules(apriori(txs, 0.05), 0.3, txs)
        assert len(rules) >= 1000
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        write_rules_csv(rules, first)
        again = read_rules_csv(first)
        assert again == rules
        write_rules_csv(again, second)
        assert second.read_bytes() == first.read_bytes()

    @pytest.mark.parametrize("metrics", [
        "nan;1.0;0.5",     # support nan
        "0.5;1.0;inf",     # reliability inf
        "1.7;1.0;0.5",     # support above 1
        "0.5;-3;0.5",      # confidence below 0
    ])
    def test_metric_outside_unit_interval_names_line(self, tmp_path, metrics):
        path = tmp_path / "bad.csv"
        path.write_text(
            "antecedent;consequent;support;confidence;reliability\n"
            "a=1;b=2;0.5;1.0;0.5\n"
            f"a=1;c=3;{metrics}\n",
            encoding="utf-8",
        )
        with pytest.raises(ParseError, match=r"not a number in \[0, 1\]") as err:
            read_rules_csv(path)
        assert err.value.line == 3

    def test_unit_interval_bounds_accepted(self, tmp_path):
        path = tmp_path / "edge.csv"
        path.write_text(
            "antecedent;consequent;support;confidence;reliability\na=1;b=2;0.0;1.0;-0.0\n",
            encoding="utf-8",
        )
        (rule,) = read_rules_csv(path)
        assert (rule.support, rule.confidence) == (0.0, 1.0)

    @pytest.mark.parametrize("row, why", [
        (";P300;0.5;1.0;0.5", "empty antecedent"),
        ("a=1;;0.5;1.0;0.5", "empty consequent"),
        ("a=1&&b=2;P300;0.5;1.0;0.5", "empty item in antecedent"),
        ("a=1&;P300;0.5;1.0;0.5", "empty item in antecedent"),
        ("a=1;P300&;0.5;1.0;0.5", "empty item in consequent"),
        ("b=2&a=1&a=1;P300;0.5;1.0;0.5", "names an item twice"),
        ("x<=1&x≤1;P300;0.5;1.0;0.5", "names an item twice"),
        ("a=1;P300&P300;0.5;1.0;0.5", "consequent 'P300&P300' holds more than one item"),
        ("a=1;P300&C1;0.5;1.0;0.5", "consequent 'P300&C1' holds more than one item"),
    ])
    def test_malformed_side_names_line(self, tmp_path, row, why):
        path = tmp_path / "bad.csv"
        path.write_text(
            "antecedent;consequent;support;confidence;reliability\n"
            "a=1;P300;0.5;1.0;0.5\n" + row + "\n",
            encoding="utf-8",
        )
        with pytest.raises(ParseError, match=why) as err:
            read_rules_csv(path)
        assert err.value.line == 3

    def test_two_item_consequent_rejected_after_the_same_antecedent(self, tmp_path):
        # a side read once as an antecedent is checked anew as a consequent
        path = tmp_path / "bad.csv"
        path.write_text(
            "antecedent;consequent;support;confidence;reliability\n"
            "P300&a=1;b=2;0.5;1.0;0.5\n"
            "b=2;P300&a=1;0.5;1.0;0.5\n",
            encoding="utf-8",
        )
        with pytest.raises(ParseError, match="holds more than one item") as err:
            read_rules_csv(path)
        assert err.value.line == 3


def assert_same_rules(got, want):
    """Equal rules with equal sort keys; the key is compare=False, so == alone
    would pass a rule carrying a wrong one."""
    assert got == want
    assert [r.sort_key() for r in got] == [r.sort_key() for r in want]


@pytest.fixture(scope="module")
def workload_rule_files(tmp_path_factory):
    """mined_rules.csv of seeds 0-3 of the benchmark workloads."""
    from nof.pipeline import load_config, run_stage

    spec = json.loads((ROOT / "bench" / "spec.json").read_text(encoding="utf-8"))
    files = []
    for name in ("paper_default", "many_rows"):
        for seed in range(4):
            out = tmp_path_factory.mktemp(f"{name}-{seed}")
            overrides = json.loads(json.dumps(spec["workloads"][name]["config"]))
            overrides.update(seed=seed, out=str(out))
            overrides.setdefault("partition", {})["expert_rules"] = str(
                ROOT / "docs" / "expert.example.json")
            config = load_config(overrides=overrides)
            for stage in ("synth", "decompose", "extract", "cluster", "classify", "mine"):
                run_stage(stage, config)
            files.append(out / "mined_rules.csv")
    return files


class TestReaderAgainstLoop:
    """read_rules_csv equals the one-rule-at-a-time reader in tests/helpers.py."""

    def test_workload_rule_files(self, workload_rule_files):
        for path in workload_rule_files:
            rules = read_rules_csv(path)
            assert len(rules) > 100
            assert_same_rules(rules, loop_read_rules_csv(path))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(),
           sides=st.lists(st.lists(_items, min_size=1, max_size=4,
                                   unique_by=lambda i: i.canonical),
                          min_size=2, max_size=6))
    def test_unsorted_sides(self, tmp_path_factory, data, sides):
        # each antecedent is written in the order drawn, a consequent is one
        # item, and both repeat across rows
        texts = ["&".join(i.canonical for i in side) for side in sides]
        items = [side[0].canonical for side in sides]
        unit = st.floats(0.0, 1.0)
        rows = data.draw(st.lists(
            st.tuples(st.sampled_from(texts), st.sampled_from(items), unit, unit, unit),
            min_size=1, max_size=12))
        path = tmp_path_factory.mktemp("csv") / "rules.csv"
        path.write_text(
            "antecedent;consequent;support;confidence;reliability\n"
            + "".join(f"{a};{c};{s!r};{f!r};{r!r}\n" for a, c, s, f, r in rows),
            encoding="utf-8",
        )
        assert_same_rules(read_rules_csv(path), loop_read_rules_csv(path))


class TestGenerateRulesKeys:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(),
           pool=st.lists(_items, min_size=2, max_size=7, unique_by=lambda i: i.canonical))
    def test_sort_key_is_sorted_canonicals_of_the_sides(self, data, pool):
        transactions = data.draw(st.lists(
            st.lists(st.sampled_from(pool), min_size=1).map(frozenset), min_size=1, max_size=8))
        rules = generate_rules(apriori(transactions, 0.25), 0.3, transactions)
        for r in rules:
            assert r.sort_key() == (tuple(sorted(i.canonical for i in r.antecedent)),
                                    tuple(sorted(i.canonical for i in r.consequent)))
        assert [r.sort_key() for r in rules] == sorted(r.sort_key() for r in rules)

    def test_mined_rules_of_a_summary_table(self):
        rng = np.random.default_rng(9)
        rows = [{"x": float(rng.normal()), "y": float(rng.normal()),
                 "M": str(rng.choice(["a", "b"])), "N": str(rng.choice(["u", "v", "w"]))}
                for _ in range(30)]
        txs = discretize(rows, {"x": [-0.5, 0.5], "y": [0.0]})
        rules = generate_rules(apriori(txs, 0.05), 0.3, txs)
        assert len(rules) > 50
        for r in rules:
            assert r.sort_key() == (tuple(sorted(i.canonical for i in r.antecedent)),
                                    tuple(sorted(i.canonical for i in r.consequent)))
