import json

import numpy as np
import pytest

from nof.errors import ConfigError, MissingInputError, ParseError
from nof.ontology import (
    ExpertRule,
    OntologyClass,
    OntologyRuleBase,
    align_cluster_labels,
    contradicts,
    export_rule_base,
    ingest_expert_rules,
    partition,
    report_to_json,
    report_to_text,
    rule_match,
)
from nof.rulemining import AssociationRule, eq_item, label_item, parse_item

from helpers import brute_force_partition


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


class TestRuleMatch:
    def test_identical_rules_match(self):
        r = mined(["SP_max_ROI=frontal", "TI_max>350"], "P300")
        e = expert("e1", ["SP_max_ROI=frontal", "TI_max>350"], "P300")
        assert rule_match(r, e)

    def test_different_consequent_label(self):
        r = mined(["SP_max_ROI=frontal"], "P300")
        e = expert("e1", ["SP_max_ROI=frontal"], "N400")
        assert not rule_match(r, e)

    def test_interval_alignment_example(self):
        r = mined(["TI_max>350", "SP_max_ROI=frontal"], "P300")
        e = expert("e1", ["TI_max>350", "SP_max_ROI=frontal"], "P300")
        assert rule_match(r, e)

    def test_catch_all_snaps_to_expert_interval(self):
        r = mined(["TI_max=ANY", "SP_max_ROI=frontal"], "P300")
        e = expert("e1", ["TI_max∈(300,500]", "SP_max_ROI=frontal"], "P300")
        assert rule_match(r, e)

    def test_coarse_mined_interval_snaps(self):
        r = mined(["TI_max>250", "SP_max_ROI=frontal"], "P300")
        e = expert("e1", ["TI_max∈(300,500]", "SP_max_ROI=frontal"], "P300")
        assert rule_match(r, e)

    def test_disjoint_interval_does_not_snap(self):
        r = mined(["TI_max∈(377,523]", "SP_max_ROI=frontal"], "P300")
        e = expert("e1", ["TI_max∈(300,500]", "SP_max_ROI=frontal"], "P300")
        assert not rule_match(r, e)

    def test_partially_contained_interval_does_not_match(self):
        r = mined(["TI_max≤461.5"], "P300")
        e = expert("e1", ["TI_max∈(300,500]"], "P300")
        assert not rule_match(r, e)

    def test_antecedent_attribute_sets_must_agree(self):
        r = mined(["SP_max_ROI=frontal", "EVENT=stimon"], "P300")
        e = expert("e1", ["SP_max_ROI=frontal"], "P300")
        assert not rule_match(r, e)

    def test_negated_expert_rule_never_matches(self):
        r = mined(["SP_max_ROI=frontal"], "P300")
        e = expert("e1", ["SP_max_ROI=frontal"], "P300", negated=True)
        assert not rule_match(r, e)


class TestContradicts:
    def test_direct_negation(self):
        r = mined(["SP_max_ROI=frontal", "TI_max>350"], "P300")
        e = expert("e1", ["SP_max_ROI=frontal", "TI_max>350"], "P300", negated=True)
        assert contradicts(r, e)

    def test_disjoint_antecedents_no_contradiction(self):
        r = mined(["SP_max_ROI=occipital"], "P300")
        e = expert("e1", ["SP_max_ROI=frontal"], "P300", negated=True)
        assert not contradicts(r, e)

    def test_difference_is_not_contradiction(self):
        r = mined(["SP_max_ROI=frontal"], "N400")
        e = expert("e1", ["SP_max_ROI=frontal"], "P300")
        assert not contradicts(r, e)

    def test_negation_of_other_label_no_contradiction(self):
        r = mined(["SP_max_ROI=frontal"], "N400")
        e = expert("e1", ["SP_max_ROI=frontal"], "P300", negated=True)
        assert not contradicts(r, e)

    def test_interval_snapping_applies_to_contradictions(self):
        r = mined(["TI_max=ANY"], "P300")
        e = expert("e1", ["TI_max∈(300,500]"], "P300", negated=True)
        assert contradicts(r, e)


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
                if any(rule_match(a.rule, e) for a in report.arec)
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

    def test_round_trip(self, tmp_path):
        path = tmp_path / "expert.json"
        path.write_text(json.dumps(self._doc(), ensure_ascii=False), encoding="utf-8")
        base = ingest_expert_rules(path)
        base.classes = [OntologyClass("ROOT", None, (0, 1)), OntologyClass("C1", "ROOT", (0,))]
        out = tmp_path / "exported.json"
        export_rule_base(base, out)
        again = ingest_expert_rules(out)
        assert again.rules == base.rules
        assert again.classes == base.classes
        assert (again.beta_sup, again.beta_conf, again.pi_min) == (
            base.beta_sup, base.beta_conf, base.pi_min
        )
        assert again.attributes == base.attributes

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

    def test_threshold_range_validated(self, tmp_path):
        doc = self._doc()
        doc["thresholds"]["beta_sup"] = 2.0
        path = tmp_path / "expert.json"
        path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
        with pytest.raises(ConfigError):
            ingest_expert_rules(path)


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
