import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nof.errors import ConfigError, MissingInputError, ParseError
from nof import ontology
from nof.ontology import (
    AnnotatedRule,
    ExpertRule,
    OntologyRuleBase,
    PartitionReport,
    align_cluster_labels,
    ingest_expert_rules,
    partition,
    report_to_json,
    report_to_text,
)
from nof.pipeline import load_config, run_pipeline
from nof.rulemining import (
    AssociationRule,
    apriori,
    discretize,
    eq_item,
    generate_rules,
    interval_item,
    label_item,
    parse_item,
    read_rules_csv,
)

from helpers import brute_force_partition, loop_partition


def mined(ante, cons, support=0.9, confidence=0.9, rel=0.9):
    return AssociationRule(
        antecedent=frozenset(parse_item(t) for t in ante),
        consequent=frozenset([parse_item(cons)]),
        support=support,
        confidence=confidence,
        reliability=rel,
    )


def expert(rule_id, ante, cons, negated=False):
    return ExpertRule(
        rule_id=rule_id,
        antecedent=frozenset(parse_item(t) for t in ante),
        consequent=parse_item(cons),
        negated=negated,
    )


def contradicted(r, e):
    """Whether partition files the qualified rule r as contradicting e."""
    base = OntologyRuleBase(rules=[e], beta_sup=0.1, beta_conf=0.1)
    return [a.contradicted_expert for a in partition([r], base).contradictory] == [e.rule_id]


class TestSameRule:
    """ontology._same_rule, the comparison partition runs for each pair of a
    qualified rule and an expert rule of the same consequent key."""

    def test_identical_rules_match(self):
        r = mined(["SP_max_ROI=frontal", "TI_max>350"], "P300")
        e = expert("e1", ["SP_max_ROI=frontal", "TI_max>350"], "P300")
        assert ontology._same_rule(r, e)

    def test_different_consequent_label(self):
        r = mined(["SP_max_ROI=frontal"], "P300")
        e = expert("e1", ["SP_max_ROI=frontal"], "N400")
        assert not ontology._same_rule(r, e)

    def test_interval_alignment_example(self):
        r = mined(["TI_max>350", "SP_max_ROI=frontal"], "P300")
        e = expert("e1", ["TI_max>350", "SP_max_ROI=frontal"], "P300")
        assert ontology._same_rule(r, e)

    def test_catch_all_snaps_to_expert_interval(self):
        r = mined(["TI_max=ANY", "SP_max_ROI=frontal"], "P300")
        e = expert("e1", ["TI_max∈(300,500]", "SP_max_ROI=frontal"], "P300")
        assert ontology._same_rule(r, e)

    def test_coarse_mined_interval_snaps(self):
        r = mined(["TI_max>250", "SP_max_ROI=frontal"], "P300")
        e = expert("e1", ["TI_max∈(300,500]", "SP_max_ROI=frontal"], "P300")
        assert ontology._same_rule(r, e)

    def test_disjoint_interval_does_not_snap(self):
        r = mined(["TI_max∈(377,523]", "SP_max_ROI=frontal"], "P300")
        e = expert("e1", ["TI_max∈(300,500]", "SP_max_ROI=frontal"], "P300")
        assert not ontology._same_rule(r, e)

    def test_partially_contained_interval_does_not_match(self):
        r = mined(["TI_max≤461.5"], "P300")
        e = expert("e1", ["TI_max∈(300,500]"], "P300")
        assert not ontology._same_rule(r, e)

    def test_antecedent_attribute_sets_must_agree(self):
        r = mined(["SP_max_ROI=frontal", "EVENT=stimon"], "P300")
        e = expert("e1", ["SP_max_ROI=frontal"], "P300")
        assert not ontology._same_rule(r, e)

    def test_negated_expert_rule_contradicts_and_never_matches(self):
        r = mined(["SP_max_ROI=frontal"], "P300")
        e = expert("e1", ["SP_max_ROI=frontal"], "P300", negated=True)
        assert ontology._same_rule(r, e)  # negation is not compared
        base = OntologyRuleBase(rules=[e], beta_sup=0.1, beta_conf=0.1)
        (annotated,) = partition([r], base).arec
        assert (annotated.matched_expert, annotated.contradicted_expert) == (None, "e1")


class TestContradicts:
    def test_direct_negation(self):
        r = mined(["SP_max_ROI=frontal", "TI_max>350"], "P300")
        e = expert("e1", ["SP_max_ROI=frontal", "TI_max>350"], "P300", negated=True)
        assert contradicted(r, e)

    def test_disjoint_antecedents_no_contradiction(self):
        r = mined(["SP_max_ROI=occipital"], "P300")
        e = expert("e1", ["SP_max_ROI=frontal"], "P300", negated=True)
        assert not contradicted(r, e)

    def test_difference_is_not_contradiction(self):
        r = mined(["SP_max_ROI=frontal"], "N400")
        e = expert("e1", ["SP_max_ROI=frontal"], "P300")
        assert not contradicted(r, e)

    def test_negation_of_other_label_no_contradiction(self):
        r = mined(["SP_max_ROI=frontal"], "N400")
        e = expert("e1", ["SP_max_ROI=frontal"], "P300", negated=True)
        assert not contradicted(r, e)

    def test_interval_snapping_applies_to_contradictions(self):
        r = mined(["TI_max=ANY"], "P300")
        e = expert("e1", ["TI_max∈(300,500]"], "P300", negated=True)
        assert contradicted(r, e)


class TestPartitionWorkedExample:
    def _base(self, rules, pi_min=0.5):
        return OntologyRuleBase(rules=rules, beta_sup=0.1, beta_conf=0.1, pi_min=pi_min)

    def test_worked_example(self):
        r1 = mined(["a=1"], "L1", rel=0.8)
        r2 = mined(["b=2"], "L2", rel=0.9)
        r3 = mined(["c=3"], "L3", rel=0.1)
        base = self._base([
            expert("e2", ["b=2"], "L2"),
            expert("e3", ["c=3"], "L3"),
            expert("e4", ["d=4"], "L4"),
        ])
        report = partition([r1, r2, r3], base)
        assert [a.rule for a in report.novel_high_strength] == [r1]
        assert [a.rule for a in report.known_high_strength] == [r2]
        assert [a.rule for a in report.known_low_strength] == [r3]
        assert [e.rule_id for e in report.missing] == ["e4"]
        assert report.contradictory == []
        assert report.known_high_strength[0].matched_expert == "e2"

    def test_empty_ontology(self):
        r1 = mined(["a=1"], "L1", rel=0.8)
        r2 = mined(["b=2"], "L2", rel=0.2)
        report = partition([r1, r2], self._base([]))
        assert [a.rule for a in report.novel_high_strength] == [r1]
        assert report.known_high_strength == [] and report.known_low_strength == []
        assert report.missing == [] and report.contradictory == []
        assert [a.rule for a in report.low_strength_residue] == [r2]

    def test_contradiction_excluded_from_novel(self):
        r = mined(["a=1"], "P300", rel=0.9)
        base = self._base([expert("e1", ["a=1"], "P300", negated=True)])
        report = partition([r], base)
        assert [a.rule for a in report.contradictory] == [r]
        assert report.novel_high_strength == []
        assert report.contradictory[0].contradicted_expert == "e1"

    def test_rule_matching_two_expert_rules(self):
        r = mined(["TI_max∈(200,600]"], "P300", rel=0.9)
        base = self._base([
            expert("e1", ["TI_max∈(300,500]"], "P300"),
            expert("e2", ["TI_max∈(250,550]"], "P300"),
        ])
        report = partition([r], base)
        assert [a.rule for a in report.known_high_strength] == [r]
        assert report.known_high_strength[0].matched_expert == "e1"
        assert report.missing == []

    def test_support_confidence_gates(self):
        weak = mined(["a=1"], "L1", support=0.05, confidence=0.9, rel=0.9)
        shaky = mined(["b=1"], "L2", support=0.9, confidence=0.05, rel=0.9)
        base = OntologyRuleBase(beta_sup=0.1, beta_conf=0.1, pi_min=0.5)
        report = partition([weak, shaky], base)
        assert report.arec == []

    def test_threshold_validation(self):
        with pytest.raises(ConfigError):
            OntologyRuleBase(beta_sup=0.0)
        with pytest.raises(ConfigError):
            OntologyRuleBase(pi_min=1.5)


def random_universe(rng):
    """Random mined/expert rules over a small abstract item vocabulary."""
    attrs = ["a", "b", "c", "d"]
    labels = ["L1", "L2", "L3"]

    def random_ante():
        chosen = [a for a in attrs if rng.random() < 0.5] or [attrs[0]]
        return frozenset(f"{a}={int(rng.integers(0, 2))}" for a in chosen)

    n_mined = int(rng.integers(1, 21))
    unique: dict = {}
    for _ in range(n_mined):
        ante, cons = random_ante(), str(rng.choice(labels))
        # one metric triple per distinct rule, as a real mining run produces
        unique.setdefault(
            (ante, cons),
            (
                float(rng.uniform(0, 1)),
                float(rng.uniform(0.01, 1)),
                float(rng.uniform(0, 1)),
            ),
        )
    mined_rules = [(a, c, s, cf, r) for (a, c), (s, cf, r) in unique.items()]
    n_expert = int(rng.integers(0, 8))
    expert_rules = []
    for i in range(n_expert):
        if mined_rules and rng.random() < 0.5:
            src = mined_rules[int(rng.integers(0, len(mined_rules)))]
            ante, cons = src[0], src[1]
        else:
            ante, cons = random_ante(), str(rng.choice(labels))
        expert_rules.append((f"e{i}", ante, cons, bool(rng.random() < 0.3)))
    beta_sup = float(rng.uniform(0.05, 0.8))
    beta_conf = float(rng.uniform(0.05, 0.8))
    pi_min = float(rng.uniform(0.0, 1.0))
    return mined_rules, expert_rules, beta_sup, beta_conf, pi_min


def to_library_forms(mined_rules, expert_rules):
    lib_mined = [
        AssociationRule(
            antecedent=frozenset(parse_item(t) for t in ante),
            consequent=frozenset([label_item(cons)]),
            support=sup,
            confidence=conf,
            reliability=rel,
        )
        for ante, cons, sup, conf, rel in mined_rules
    ]
    lib_expert = [
        ExpertRule(
            rule_id=rid,
            antecedent=frozenset(parse_item(t) for t in ante),
            consequent=label_item(cons),
            negated=neg,
        )
        for rid, ante, cons, neg in expert_rules
    ]
    return lib_mined, lib_expert


def names_of(annotated):
    return {
        "&".join(sorted(i.canonical for i in a.rule.antecedent))
        + "->"
        + next(iter(a.rule.consequent)).canonical
        for a in annotated
    }


class TestPartitionAgainstBruteForce:
    def test_random_universes(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            mined_rules, expert_rules, bs, bc, pm = random_universe(rng)
            lib_mined, lib_expert = to_library_forms(mined_rules, expert_rules)
            base = OntologyRuleBase(rules=lib_expert, beta_sup=bs, beta_conf=bc, pi_min=pm)
            report = partition(lib_mined, base)
            oracle = brute_force_partition(mined_rules, expert_rules, bs, bc, pm)
            assert names_of(report.arec) == oracle["arec"]
            assert names_of(report.known_high_strength) == oracle["known_hi"]
            assert names_of(report.known_low_strength) == oracle["known_lw"]
            assert names_of(report.novel_high_strength) == oracle["novel_hi"]
            assert names_of(report.contradictory) == oracle["contr"]
            assert names_of(report.low_strength_residue) == oracle["residue"]
            assert {e.rule_id for e in report.missing} == oracle["missing"]

    def test_partition_set_identities(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            mined_rules, expert_rules, bs, bc, pm = random_universe(rng)
            lib_mined, lib_expert = to_library_forms(mined_rules, expert_rules)
            base = OntologyRuleBase(rules=lib_expert, beta_sup=bs, beta_conf=bc, pi_min=pm)
            report = partition(lib_mined, base)
            sections = [
                report.known_high_strength,
                report.known_low_strength,
                report.novel_high_strength,
                report.contradictory,
                report.low_strength_residue,
            ]
            total = sum(len(s) for s in sections)
            assert total == len(report.arec)
            seen = set()
            for s in sections:
                chunk = names_of(s)
                assert not (chunk & seen)
                seen |= chunk
            # recount: matched mined rules cannot outnumber matched expert rules
            matched_experts = {
                e.rule_id for e in lib_expert
                if not e.negated and any(ontology._same_rule(a.rule, e) for a in report.arec)
            }
            matched_contr = sum(
                1 for a in report.contradictory if a.matched_expert is not None
            )
            lhs = (len(report.known_high_strength) + len(report.known_low_strength)
                   + matched_contr)
            assert lhs <= len(matched_experts)

    def test_pi_min_monotonicity(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            mined_rules, expert_rules, bs, bc, _ = random_universe(rng)
            lib_mined, lib_expert = to_library_forms(mined_rules, expert_rules)
            lo, hi = sorted(rng.uniform(0, 1, size=2))
            base_lo = OntologyRuleBase(rules=lib_expert, beta_sup=bs, beta_conf=bc, pi_min=lo)
            base_hi = OntologyRuleBase(rules=lib_expert, beta_sup=bs, beta_conf=bc, pi_min=hi)
            rep_lo, rep_hi = partition(lib_mined, base_lo), partition(lib_mined, base_hi)
            assert names_of(rep_hi.known_high_strength) <= names_of(rep_lo.known_high_strength)
            assert names_of(rep_hi.novel_high_strength) <= names_of(rep_lo.novel_high_strength)
            assert names_of(rep_lo.known_low_strength) <= names_of(rep_hi.known_low_strength)

    def test_beta_monotonicity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            mined_rules, expert_rules, _, _, pm = random_universe(rng)
            lib_mined, lib_expert = to_library_forms(mined_rules, expert_rules)
            lo_s, hi_s = sorted(rng.uniform(0.05, 0.9, size=2))
            lo_c, hi_c = sorted(rng.uniform(0.05, 0.9, size=2))
            rep_lo = partition(lib_mined, OntologyRuleBase(
                rules=lib_expert, beta_sup=lo_s, beta_conf=lo_c, pi_min=pm))
            rep_hi = partition(lib_mined, OntologyRuleBase(
                rules=lib_expert, beta_sup=hi_s, beta_conf=hi_c, pi_min=pm))
            assert names_of(rep_hi.arec) <= names_of(rep_lo.arec)
            assert {e.rule_id for e in rep_lo.missing} <= {e.rule_id for e in rep_hi.missing}

    def test_determinism_and_canonical_order(self):
        rng = np.random.default_rng(4)
        mined_rules, expert_rules, bs, bc, pm = random_universe(rng)
        lib_mined, lib_expert = to_library_forms(mined_rules, expert_rules)
        base = OntologyRuleBase(rules=lib_expert, beta_sup=bs, beta_conf=bc, pi_min=pm)
        a = partition(lib_mined, base)
        b = partition(list(reversed(lib_mined)), base)
        assert [x.rule for x in a.arec] == [x.rule for x in b.arec]
        keys = [x.rule.sort_key() for x in a.arec]
        assert keys == sorted(keys)


def _narrowed(item):
    """An interval item with one infinite end made finite, which snaps to the
    item it came from; any other item as it is."""
    if item.kind != "interval" or (item.lo == -math.inf) == (item.hi == math.inf):
        return item
    if item.lo == -math.inf:
        return interval_item(item.attribute, item.hi - 1.0, item.hi)
    return interval_item(item.attribute, item.lo, item.lo + 1.0)


def random_mined_base(rng):
    """Rules mined from a random table and an expert base drawn from them:
    eq, interval and label consequents, negated rules, narrowed intervals
    that snap, and experts sharing a consequent. Returns the aligned mined
    rules and the base."""
    rows = [{"x": float(rng.normal()), "y": float(rng.normal()),
             "M": str(rng.choice(["a", "b"])), "CLUSTER": str(rng.choice(["C1", "C2", "C3"]))}
            for _ in range(int(rng.integers(6, 16)))]
    txs = discretize(rows, {"x": [-0.5, 0.5], "y": [0.0]})
    rules = generate_rules(apriori(txs, 0.15), 0.3, txs)
    universe = sorted({i for t in txs for i in t})
    experts = []
    for idx in range(int(rng.integers(1, 9))):
        src = rules[int(rng.integers(len(rules)))]
        ante = frozenset(_narrowed(i) if rng.random() < 0.3 else i for i in src.antecedent)
        roll = rng.random()
        if roll < 0.4:
            cons = sorted(src.consequent)[int(rng.integers(len(src.consequent)))]
        elif roll < 0.6:
            cons = _narrowed(universe[int(rng.integers(len(universe)))])
        else:
            cons = label_item(str(rng.choice(["P1", "P2"])))
        experts.append(ExpertRule(f"e{idx}", ante, cons, bool(rng.random() < 0.3)))
        if rng.random() < 0.3:
            twin = experts[-1]
            experts.append(ExpertRule(f"e{idx}b", twin.antecedent, twin.consequent,
                                      not twin.negated))
    mined_rules, _ = align_cluster_labels(rules, experts)
    base = OntologyRuleBase(rules=experts, beta_sup=float(rng.uniform(0.1, 0.4)),
                            beta_conf=float(rng.uniform(0.3, 0.9)),
                            pi_min=float(rng.uniform(0.0, 0.6)))
    return mined_rules, base


def _compatible(rule, e):
    """A mined consequent item with the expert consequent's item key."""
    (c,) = rule.consequent
    return ontology._item_key(c) == ontology._item_key(e.consequent)


class TestPartitionAgainstLoop:
    """partition equals the all-pairs loop in tests/helpers.py."""

    def test_random_bases(self):
        rng = np.random.default_rng(7)
        seen = dict.fromkeys(("label", "label_antecedent", "interval", "known", "contradictory",
                              "missing", "shared"), 0)
        for _ in range(80):
            mined_rules, base = random_mined_base(rng)
            report = partition(mined_rules, base)
            want = loop_partition(mined_rules, base)
            for f in dataclasses.fields(PartitionReport):
                assert getattr(report, f.name) == getattr(want, f.name), f.name
            cons = [c for a in report.arec for c in a.rule.consequent]
            seen["label"] += any(c.kind == "label" for c in cons)
            # alignment renames a cluster item in antecedents too
            seen["label_antecedent"] += any(
                i.kind == "label" for a in report.arec for i in a.rule.antecedent)
            seen["interval"] += any(c.kind == "interval" for c in cons)
            seen["known"] += bool(report.known_high_strength or report.known_low_strength)
            seen["contradictory"] += bool(report.contradictory)
            seen["missing"] += bool(report.missing)
            seen["shared"] += len({e.consequent for e in base.rules}) < len(base.rules)
        # every kind of case occurs in a good share of the bases
        assert min(seen.values()) >= 8, seen

    def test_same_rule_runs_only_on_compatible_consequents(self, monkeypatch):
        calls = []
        same_rule = ontology._same_rule

        def counted(rule, e):
            calls.append((rule, e))
            return same_rule(rule, e)

        monkeypatch.setattr(ontology, "_same_rule", counted)
        rng = np.random.default_rng(8)
        incompatible = 0
        for _ in range(30):
            mined_rules, base = random_mined_base(rng)
            calls.clear()
            report = partition(mined_rules, base)
            pairs = [(a.rule, e) for a in report.arec for e in base.rules]
            assert all(_compatible(r, e) for r, e in calls)
            assert len(calls) == sum(_compatible(r, e) for r, e in pairs)
            incompatible += sum(not _compatible(r, e) for r, e in pairs)
        assert incompatible > 0


class TestAlignment:
    def test_basic_alignment_and_rename(self):
        r = mined(["TI_max=ANY", "SP_max_ROI=frontal"], "CLUSTER=C1", support=0.5)
        e = expert("e1", ["TI_max∈(300,500]", "SP_max_ROI=frontal"], "P300")
        renamed, mapping = align_cluster_labels([r], [e])
        assert mapping == {"C1": "P300"}
        assert renamed[0].consequent == frozenset([label_item("P300")])

    def test_negated_expert_rules_vote_too(self):
        r = mined(["SP_max_ROI=frontal"], "CLUSTER=C2", support=0.4)
        e = expert("e1", ["SP_max_ROI=frontal"], "P300", negated=True)
        renamed, mapping = align_cluster_labels([r], [e])
        assert mapping == {"C2": "P300"}
        base = OntologyRuleBase(rules=[e], beta_sup=0.1, beta_conf=0.1, pi_min=0.1)
        report = partition(renamed, base)
        assert len(report.contradictory) == 1

    def test_veto_does_not_vote_beside_a_positive_rule_for_its_pattern(self):
        # the shipped base: a positive P300 rule and a veto on late occipital
        # activity. The veto must not name the late occipital cluster "P300"
        # and then contradict it.
        rules = [
            expert("p300_frontal_late", ["TI_max∈(300,500]", "SP_max_ROI=frontal"], "P300"),
            expert("no_late_occipital_p300", ["TI_max∈(300,500]", "SP_max_ROI=occipital"],
                   "P300", negated=True),
        ]
        frontal = mined(["TI_max∈(300,500]", "SP_max_ROI=frontal"], "CLUSTER=C1", support=0.3)
        occipital = mined(["TI_max∈(300,500]", "SP_max_ROI=occipital"], "CLUSTER=C3",
                          support=0.4)
        renamed, mapping = align_cluster_labels([frontal, occipital], rules)
        assert mapping == {"C1": "P300"}
        assert renamed[1] == occipital
        base = OntologyRuleBase(rules=rules, beta_sup=0.1, beta_conf=0.1, pi_min=0.1)
        report = partition(renamed, base)
        assert report.contradictory == []
        assert [ar.rule for ar in report.known_high_strength] == [renamed[0]]

    def test_injective_mapping_prefers_heavier_support(self):
        r1 = mined(["a=1"], "CLUSTER=C1", support=0.9)
        r2 = mined(["a=1"], "CLUSTER=C2", support=0.2)
        e = expert("e1", ["a=1"], "P300")
        _, mapping = align_cluster_labels([r1, r2], [e])
        assert mapping == {"C1": "P300"}

    def test_no_votes_no_rename(self):
        r = mined(["a=1"], "CLUSTER=C1")
        e = expert("e1", ["b=2"], "P300")
        renamed, mapping = align_cluster_labels([r], [e])
        assert mapping == {} and renamed == [r]

    def test_antecedent_cluster_items_renamed_consistently(self):
        r1 = mined(["a=1"], "CLUSTER=C1", support=0.9)
        r2 = mined(["CLUSTER=C1"], "b=2", support=0.5)
        e = expert("e1", ["a=1"], "P300")
        renamed, mapping = align_cluster_labels([r1, r2], [e])
        assert mapping == {"C1": "P300"}
        assert label_item("P300") in renamed[1].antecedent


class TestExpertRuleFile:
    def _doc(self):
        return {
            "thresholds": {"beta_sup": 0.25, "beta_conf": 0.8, "pi_min": 0.3},
            "rules": [
                {"id": "p300_rule",
                 "if": ["TI_max∈(300,500]", "SP_max_ROI=frontal"],
                 "then": "P300"},
                {"id": "veto",
                 "if": ["SP_max_ROI=occipital"],
                 "then": {"not": "P300"}},
            ],
        }

    def test_ingest(self, tmp_path):
        path = tmp_path / "expert.json"
        path.write_text(json.dumps(self._doc(), ensure_ascii=False), encoding="utf-8")
        base = ingest_expert_rules(path)
        assert base.beta_sup == 0.25 and base.pi_min == 0.3
        assert len(base.rules) == 2
        assert base.rules[0].rule_id == "p300_rule" and not base.rules[0].negated
        assert base.rules[1].negated
        assert base.rules[0].consequent == label_item("P300")

    def test_unknown_attribute_names_line_and_attribute(self, tmp_path):
        doc = self._doc()
        doc["rules"][0]["if"] = ["TI_maxx>350"]
        path = tmp_path / "expert.json"
        path.write_text(json.dumps(doc, indent=1, ensure_ascii=False), encoding="utf-8")
        with pytest.raises(ParseError) as err:
            ingest_expert_rules(path)
        assert "TI_maxx" in str(err.value)
        assert err.value.line is not None
        assert f"line {err.value.line}" in str(err.value)

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n "rules": [\n', encoding="utf-8")
        with pytest.raises(ParseError) as err:
            ingest_expert_rules(path)
        assert err.value.line is not None

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingInputError):
            ingest_expert_rules(tmp_path / "none.json")

    def test_unparsable_item_value_reported(self, tmp_path):
        doc = self._doc()
        doc["rules"][0]["if"] = ["TI_max>abc"]
        path = tmp_path / "expert.json"
        path.write_text(json.dumps(doc, indent=1, ensure_ascii=False), encoding="utf-8")
        with pytest.raises(ParseError, match="TI_max>abc"):
            ingest_expert_rules(path)

    def test_bare_label_in_antecedent_rejected(self, tmp_path):
        doc = self._doc()
        doc["rules"][0]["if"] = ["P300"]
        path = tmp_path / "expert.json"
        path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
        with pytest.raises(ParseError, match="attribute"):
            ingest_expert_rules(path)

    @pytest.mark.parametrize("change,key", [
        ({"rules": ["x"]}, "rules"),
        ({"rules": {"a": 1}}, "rules"),
        ({"thresholds": [1, 2]}, "thresholds"),
        ({"thresholds": {"beta_sup": True}}, "thresholds"),
    ])
    def test_wrong_shape_names_its_key(self, tmp_path, change, key):
        path = tmp_path / "expert.json"
        path.write_text(json.dumps({**self._doc(), **change}, indent=1), encoding="utf-8")
        with pytest.raises(ParseError, match=rf"\b{key} must be"):
            ingest_expert_rules(path)

    @pytest.mark.parametrize("items", ["SP_max=Fz", [["SP_max=Fz"]]])
    def test_antecedent_must_be_a_list_of_strings(self, tmp_path, items):
        doc = self._doc()
        doc["rules"][0]["if"] = items
        path = tmp_path / "expert.json"
        path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
        with pytest.raises(ParseError, match="if of rule 'p300_rule' must be") as err:
            ingest_expert_rules(path)
        assert '"p300_rule"' in path.read_text().splitlines()[err.value.line - 1]

    def _rejected(self, tmp_path, doc, message, token):
        """The ParseError `doc` raises, checked to name `message` and the
        line that holds `token`."""
        path = tmp_path / "expert.json"
        path.write_text(json.dumps(doc, indent=1, ensure_ascii=False), encoding="utf-8")
        with pytest.raises(ParseError, match=message) as err:
            ingest_expert_rules(path)
        assert token in path.read_text(encoding="utf-8").splitlines()[err.value.line - 1]
        return err.value

    @pytest.mark.parametrize("key,value,wording", [
        ("beta_sup", 2.0, "(0, 1]"), ("beta_conf", 0, "(0, 1]"), ("pi_min", -0.1, "[0, 1]"),
    ])
    def test_threshold_out_of_range_names_its_key_and_line(self, tmp_path, key, value,
                                                           wording):
        doc = self._doc()
        doc["thresholds"][key] = value
        self._rejected(tmp_path, doc,
                       rf"^line \d+: thresholds\.{key} must lie in {re.escape(wording)}",
                       f'"{key}"')

    def test_unknown_top_level_key_rejected(self, tmp_path):
        # before, "rule" loaded no rules and every mined rule reported as novel
        doc = self._doc()
        doc["rule"] = doc.pop("rules")
        self._rejected(tmp_path, doc, "unknown key 'rule' at the top level", '"rule"')

    def test_unknown_threshold_key_rejected(self, tmp_path):
        # before, "pi_mn" loaded with pi_min at its default 0.5
        doc = self._doc()
        doc["thresholds"]["pi_mn"] = doc["thresholds"].pop("pi_min")
        self._rejected(tmp_path, doc, "unknown key 'pi_mn' in thresholds", '"pi_mn"')

    def test_unknown_rule_key_rejected(self, tmp_path):
        # before, a rule with "iff" loaded as ALWAYS -> P300
        doc = self._doc()
        doc["rules"][0]["iff"] = doc["rules"][0].pop("if")
        self._rejected(tmp_path, doc, "unknown key 'iff' in rule 'p300_rule'", '"iff"')

    @pytest.mark.parametrize("attributes", ["TI_max", ["TI_max", 3], ["ROI", "TI_max"]])
    def test_attributes_key_rejected(self, tmp_path, attributes):
        # before, ["ROI", "TI_max"] let a rule name ROI, which no summary row
        # holds, and the rule was reported missing whatever was mined
        doc = self._doc()
        doc["attributes"] = attributes
        self._rejected(tmp_path, doc, "unknown key 'attributes' at the top level",
                       '"attributes"')

    def test_classes_key_rejected(self, tmp_path):
        # the pipeline's classes are the EM clusters; an expert file holds none
        doc = self._doc()
        doc["classes"] = [{"name": "ROOT", "parent": None, "members": [0]}]
        self._rejected(tmp_path, doc, "unknown key 'classes' at the top level", '"classes"')

    def test_duplicate_rule_id_rejected(self, tmp_path):
        doc = self._doc()
        doc["rules"][1]["id"] = "p300_rule"
        err = self._rejected(tmp_path, doc, "duplicate rule id 'p300_rule'", '"p300_rule"')
        first = next(i for i, line in enumerate(json.dumps(doc, indent=1).splitlines(), 1)
                     if '"p300_rule"' in line)
        assert err.line > first

    def test_thresholds_alone_load(self, tmp_path):
        path = tmp_path / "expert.json"
        path.write_text(json.dumps({"thresholds": {"beta_sup": 0.4}}), encoding="utf-8")
        base = ingest_expert_rules(path)
        assert base.rules == []
        assert (base.beta_sup, base.beta_conf, base.pi_min) == (0.4, 0.8, 0.5)


class TestReportOutput:
    def _report(self):
        r1 = mined(["a=1"], "L1", rel=0.8)
        r2 = mined(["b=2"], "L2", rel=0.9)
        base = OntologyRuleBase(
            rules=[expert("e2", ["b=2"], "L2"), expert("e4", ["d=4"], "L4")],
            beta_sup=0.1, beta_conf=0.1, pi_min=0.5,
        )
        return partition([r1, r2], base)

    def test_json_export(self, tmp_path):
        report = self._report()
        path = tmp_path / "report.json"
        report_to_json(report, path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert doc["counts"]["novel_high_strength"] == 1
        assert doc["counts"]["known_high_strength"] == 1
        assert doc["counts"]["missing"] == 1
        assert doc["known_high_strength"][0]["matched_expert"] == "e2"

    def test_text_render_lists_every_set(self):
        text = report_to_text(self._report())
        for needle in ("novel, high strength", "known, high strength",
                       "known, low strength", "contradictory",
                       "missing expert rules", "residue"):
            assert needle in text


def _oracle_json(report) -> str:
    """report.json as json.dumps(sort_keys=True, ensure_ascii=False) writes
    it, from a document this test builds itself."""
    def annotated(ar):
        ante, cons = ar.rule.sort_key()
        return {
            "antecedent": list(ante),
            "consequent": list(cons),
            "support": ar.rule.support,
            "confidence": ar.rule.confidence,
            "reliability": ar.rule.reliability,
            "matched_expert": ar.matched_expert,
            "contradicted_expert": ar.contradicted_expert,
        }

    doc = {
        "thresholds": report.thresholds,
        "alignment": report.alignment,
        "counts": {
            "qualified": len(report.arec),
            "known_high_strength": len(report.known_high_strength),
            "known_low_strength": len(report.known_low_strength),
            "novel_high_strength": len(report.novel_high_strength),
            "contradictory": len(report.contradictory),
            "missing": len(report.missing),
            "low_strength_residue": len(report.low_strength_residue),
        },
        "missing": [{"id": e.rule_id, "rule": e.render()} for e in report.missing],
    }
    for name in ("known_high_strength", "known_low_strength", "novel_high_strength",
                 "contradictory", "low_strength_residue"):
        doc[name] = [annotated(ar) for ar in getattr(report, name)]
    return json.dumps(doc, sort_keys=True, ensure_ascii=False)


def _assert_matches_oracle(report, path):
    report_to_json(report, path)
    assert path.read_bytes() == _oracle_json(report).encode("utf-8")


def _report(rules, *, alignment=None, missing=(), thresholds=None):
    """A PartitionReport that puts each (category, AnnotatedRule) where it says."""
    lists = {name: [] for name in ("known_high_strength", "known_low_strength",
                                   "novel_high_strength", "contradictory",
                                   "low_strength_residue")}
    for name, ar in rules:
        lists[name].append(ar)
    return PartitionReport(
        thresholds=thresholds or {"beta_sup": 0.1, "beta_conf": 0.8, "pi_min": 0.5},
        arec=[ar for _, ar in rules],
        missing=list(missing),
        alignment=dict(alignment or {}),
        **lists,
    )


_CATEGORIES = ("known_high_strength", "known_low_strength", "novel_high_strength",
               "contradictory", "low_strength_residue")
_TOKENS = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters=";&\n=<>≤∈"),
    min_size=1, max_size=4,
).filter(lambda t: t != "ANY" and t.strip() == t)
_ITEMS = st.one_of(
    st.builds(eq_item, _TOKENS, _TOKENS),
    st.builds(label_item, _TOKENS),
    st.builds(lambda a, lo, w: interval_item(a, lo, lo + w), _TOKENS,
              st.floats(-1e3, 1e3), st.floats(0.5, 1e3)),
)
_NUMBERS = st.one_of(st.floats(), st.integers(-5, 5), st.booleans())
_TEXT = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=6)
_ANNOTATED = st.builds(
    lambda ante, cons, sup, conf, rel, m, c: AnnotatedRule(
        AssociationRule(frozenset(ante), frozenset(cons), sup, conf, rel), m, c),
    st.lists(_ITEMS, max_size=3), st.lists(_ITEMS, max_size=2),
    _NUMBERS, _NUMBERS, _NUMBERS, st.none() | _TEXT, st.none() | _TEXT,
)


class TestReportJsonOracle:
    def test_default_pipeline_report(self, tmp_path):
        # the complete itemset lattice, at a support gate of 1 row in 8, keeps
        # the report above 1,000 rules
        shipped = Path(__file__).resolve().parents[1] / "docs" / "expert.example.json"
        spec = json.loads(shipped.read_text(encoding="utf-8"))
        spec["thresholds"]["beta_sup"] = 0.125
        expert_file = tmp_path / "expert.json"
        expert_file.write_text(json.dumps(spec), encoding="utf-8")
        config = load_config(overrides={
            "out": str(tmp_path), "partition": {"expert_rules": str(expert_file)},
            "mine": {"max_len": None},
        })
        run_pipeline(config)
        base = ingest_expert_rules(expert_file)
        mined_rules, alignment = align_cluster_labels(
            read_rules_csv(tmp_path / "mined_rules.csv"), base.rules)
        report = partition(mined_rules, base)
        report.alignment = alignment
        assert len(report.arec) > 1000 and report.missing
        expected = _oracle_json(report).encode("utf-8")
        assert (tmp_path / "report.json").read_bytes() == expected
        _assert_matches_oracle(report, tmp_path / "again.json")

    def test_empty_rule_lists(self, tmp_path):
        report = partition([], OntologyRuleBase())
        assert report.arec == [] and report.missing == []
        _assert_matches_oracle(report, tmp_path / "report.json")

    def test_non_ascii_escapes_alignment_and_missing(self, tmp_path):
        r = mined(["TI_max∈(300,500]", "IN_max≤2.5", 'SP_max=F"z\\'], 'P\\3"00', rel=0.9)
        low = mined(["ROI=frontal"], "CLUSTER=C1", rel=0.1)
        report = _report(
            [("known_high_strength", AnnotatedRule(r, matched_expert='id "1" \\ é')),
             ("contradictory", AnnotatedRule(low, contradicted_expert="veto\t∈")),
             ("low_strength_residue", AnnotatedRule(low))],
            alignment={"C2": 'P\\3"00', "C1": "N1"},
            missing=[expert('m "1"', ["TI_max∈(300,500]"], "P300"),
                     expert("m2", [], "P300", negated=True)],
        )
        _assert_matches_oracle(report, tmp_path / "report.json")
        text = (tmp_path / "report.json").read_text(encoding="utf-8")
        assert "∈" in text and "≤" in text

    def test_nan_reliability_and_int_support(self, tmp_path):
        nan_rel = AssociationRule(frozenset([parse_item("a=1")]),
                                  frozenset([parse_item("L")]), 0.5, 1.0, float("nan"))
        int_sup = AssociationRule(frozenset([parse_item("b=2")]),
                                  frozenset([parse_item("L")]), 1, 1.0, 0.75)
        report = _report([("low_strength_residue", AnnotatedRule(nan_rel)),
                          ("novel_high_strength", AnnotatedRule(int_sup))])
        _assert_matches_oracle(report, tmp_path / "report.json")
        text = (tmp_path / "report.json").read_text(encoding="utf-8")
        assert '"reliability": NaN,' in text and '"support": 1}' in text

    @settings(max_examples=60, deadline=None)
    @given(rules=st.lists(st.tuples(st.sampled_from(_CATEGORIES), _ANNOTATED), max_size=6),
           alignment=st.dictionaries(_TEXT, _TEXT, max_size=3),
           beta=_NUMBERS)
    def test_random_reports(self, tmp_path_factory, rules, alignment, beta):
        report = _report(rules, alignment=alignment,
                         thresholds={"beta_sup": beta, "beta_conf": 0.8, "pi_min": 0.5})
        _assert_matches_oracle(report, tmp_path_factory.mktemp("r") / "report.json")
