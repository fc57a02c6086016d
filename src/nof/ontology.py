"""Expert rule base and the partitioning of mined rules against it.

Mined association rules are filtered by support/confidence gates, compared
with the expert rules, and sorted into knowledge categories: novel rules with
high strength, known rules with high or low strength, expert rules missing
from the mined set, and contradictions (a mined rule whose antecedent matches
an expert rule carrying a negated consequent). Matching is syntactic equality
of canonical forms, with one liberal step: an expert threshold snaps a mined
interval endpoint whenever the expert threshold lies within the closure of
the mined interval, so refinements of a coarse mined interval still match.

Cluster labels are arbitrary, so before partitioning the pipeline can align
them to expert pattern names: every mined rule whose antecedent matches an
expert rule votes (with its support) for naming its consequent cluster after
that expert rule's pattern, and the heaviest consistent one-to-one naming is
adopted.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError, MissingInputError, ParseError
from .features import COLUMNS
from .rulemining import AssociationRule, Item, eq_item, label_item, parse_item

ATTRIBUTES = tuple(COLUMNS) + ("CLUSTER",)

DEFAULT_THRESHOLDS = {"beta_sup": 0.2, "beta_conf": 0.8, "pi_min": 0.5}
# Each threshold's range, as a test and its wording
_THRESHOLD_RANGES = {
    "beta_sup": (lambda v: 0 < v <= 1, "(0, 1]"),
    "beta_conf": (lambda v: 0 < v <= 1, "(0, 1]"),
    "pi_min": (lambda v: 0 <= v <= 1, "[0, 1]"),
}


@dataclass(frozen=True)
class ExpertRule:
    rule_id: str
    antecedent: frozenset[Item]
    consequent: Item
    negated: bool = False

    def render(self) -> str:
        ante = " & ".join(i.canonical for i in sorted(self.antecedent)) or "ALWAYS"
        cons = self.consequent.canonical
        if self.negated:
            cons = f"NOT {cons}"
        return f"{ante} -> {cons}"


@dataclass
class OntologyRuleBase:
    rules: list[ExpertRule] = field(default_factory=list)
    beta_sup: float = DEFAULT_THRESHOLDS["beta_sup"]
    beta_conf: float = DEFAULT_THRESHOLDS["beta_conf"]
    pi_min: float = DEFAULT_THRESHOLDS["pi_min"]

    def __post_init__(self):
        _check_thresholds(self)


def _check_thresholds(base: OntologyRuleBase) -> None:
    for name, (in_range, wording) in _THRESHOLD_RANGES.items():
        value = getattr(base, name)
        if not in_range(value):
            raise ConfigError(f"{name} must lie in {wording}, got {value}")


# ---------------------------------------------------------------------------
# matching
# ---------------------------------------------------------------------------

def _item_key(item: Item) -> str:
    return item.attribute if item.attribute else f"label:{item.value}"


def _items_align(mined: Item, expert: Item) -> bool:
    """Equality after snapping mined interval endpoints to expert thresholds
    that fall inside the mined interval's closure."""
    if mined.kind == "interval" and expert.kind == "interval":
        if mined.attribute != expert.attribute:
            return False
        lo = expert.lo if mined.lo <= expert.lo <= mined.hi else mined.lo
        hi = expert.hi if mined.lo <= expert.hi <= mined.hi else mined.hi
        return lo == expert.lo and hi == expert.hi
    return mined == expert


def _itemsets_match(mined: frozenset[Item], expert: frozenset[Item]) -> bool:
    if len(mined) != len(expert):
        return False
    mined_by_key = {_item_key(i): i for i in mined}
    if len(mined_by_key) != len(mined):
        return False
    for e in expert:
        m = mined_by_key.get(_item_key(e))
        if m is None or not _items_align(m, e):
            return False
    return True


def _same_rule(mined: AssociationRule, expert: ExpertRule) -> bool:
    """Antecedents and consequents equal after interval alignment, whether
    or not the expert consequent is negated."""
    (c,) = mined.consequent
    return _items_align(c, expert.consequent) and _itemsets_match(
        mined.antecedent, expert.antecedent)


# ---------------------------------------------------------------------------
# cluster-name alignment
# ---------------------------------------------------------------------------

def align_cluster_labels(
    mined: list[AssociationRule],
    expert_rules: list[ExpertRule],
) -> tuple[list[AssociationRule], dict[str, str]]:
    """Rename cluster-valued consequents to expert pattern names.

    Votes: a mined rule with consequent {CLUSTER=c} whose antecedent matches
    an expert rule about pattern p contributes its support to naming c as p.
    A negated rule (a veto) votes only when no positive rule names p, so that
    a veto does not name the cluster it then contradicts.
    The heaviest votes win one-to-one (ties resolve lexicographically); rules
    are then rewritten with every CLUSTER=c item replaced by the bare pattern
    label. Unmapped cluster labels stay as they are.
    """
    named = {e.consequent.value for e in expert_rules
             if e.consequent.kind == "label" and not e.negated}
    voters = [e for e in expert_rules if e.consequent.kind == "label"
              and (not e.negated or e.consequent.value not in named)]
    votes: dict[tuple[str, str], float] = {}
    for r in mined:
        (c,) = r.consequent
        if c.kind != "eq" or c.attribute != "CLUSTER":
            continue
        for e in voters:
            if _itemsets_match(r.antecedent, e.antecedent):
                key = (c.value, e.consequent.value)
                votes[key] = votes.get(key, 0.0) + r.support
    mapping: dict[str, str] = {}
    used_patterns: set[str] = set()
    for (cluster, pattern), _w in sorted(votes.items(), key=lambda kv: (-kv[1], kv[0])):
        if cluster in mapping or pattern in used_patterns:
            continue
        mapping[cluster] = pattern
        used_patterns.add(pattern)
    if not mapping:
        return list(mined), {}

    # Items are equal by canonical string, so these keys find the mapped
    # cluster items in consequents and antecedents alike
    labels = {eq_item("CLUSTER", c): label_item(p) for c, p in mapping.items()}
    renamed = []
    for r in mined:
        if labels.keys().isdisjoint(r.antecedent) and labels.keys().isdisjoint(r.consequent):
            renamed.append(r)
            continue
        renamed.append(
            AssociationRule(
                antecedent=frozenset(labels.get(i, i) for i in r.antecedent),
                consequent=frozenset(labels.get(i, i) for i in r.consequent),
                support=r.support,
                confidence=r.confidence,
                reliability=r.reliability,
            )
        )
    return renamed, mapping


# ---------------------------------------------------------------------------
# partitioning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnnotatedRule:
    rule: AssociationRule
    matched_expert: str | None = None
    contradicted_expert: str | None = None


@dataclass
class PartitionReport:
    thresholds: dict[str, float]
    arec: list[AnnotatedRule]
    known_high_strength: list[AnnotatedRule]
    known_low_strength: list[AnnotatedRule]
    novel_high_strength: list[AnnotatedRule]
    contradictory: list[AnnotatedRule]
    missing: list[ExpertRule]
    low_strength_residue: list[AnnotatedRule]
    alignment: dict[str, str] = field(default_factory=dict)


def partition(mined: list[AssociationRule], base: OntologyRuleBase) -> PartitionReport:
    """Sort support/confidence-qualified rules into the knowledge categories.

    Contradictory rules are excluded from the known/novel sets so that the
    categories (plus the low-strength residue) partition the qualified set
    cleanly. Qualified rules that neither match anything nor clear the
    reliability bar land in the residue, which is reported but belongs to no
    named category.
    """
    _check_thresholds(base)
    qualified = [
        r for r in mined if r.support >= base.beta_sup and r.confidence >= base.beta_conf
    ]
    qualified = sorted(set(qualified), key=AssociationRule.sort_key)
    # _same_rule holds only if the mined consequent's one item has the expert
    # consequent's _item_key, so each rule is compared with those experts alone
    by_consequent: dict[str, list[tuple[int, ExpertRule]]] = {}
    for idx, e in enumerate(base.rules):
        by_consequent.setdefault(_item_key(e.consequent), []).append((idx, e))
    annotated: list[AnnotatedRule] = []
    found: set[int] = set()  # indices of the expert rules some qualified rule matches
    for r in qualified:
        matched = contra = None
        (c,) = r.consequent
        for idx, e in by_consequent.get(_item_key(c), ()):
            if not _same_rule(r, e):
                continue
            if e.negated:
                if contra is None:
                    contra = e.rule_id
            else:
                if matched is None:
                    matched = e.rule_id
                found.add(idx)
        annotated.append(AnnotatedRule(rule=r, matched_expert=matched, contradicted_expert=contra))

    known_hi, known_lw, novel_hi, contra_set, residue = [], [], [], [], []
    for ar in annotated:
        strong = ar.rule.reliability >= base.pi_min
        if ar.contradicted_expert is not None:
            contra_set.append(ar)
        elif ar.matched_expert is not None:
            (known_hi if strong else known_lw).append(ar)
        elif strong:
            novel_hi.append(ar)
        else:
            residue.append(ar)
    missing = [e for idx, e in enumerate(base.rules) if idx not in found]
    return PartitionReport(
        thresholds={name: getattr(base, name) for name in DEFAULT_THRESHOLDS},
        arec=annotated,
        known_high_strength=known_hi,
        known_low_strength=known_lw,
        novel_high_strength=novel_hi,
        contradictory=contra_set,
        missing=missing,
        low_strength_residue=residue,
    )


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def _find_line(text: str, token: str, after: int = 0) -> int | None:
    """The first line below line `after` that holds `token`."""
    for i, line in enumerate(text.splitlines()[after:], start=after + 1):
        if token in line:
            return i
    return None


def _parse_consequent(raw, text: str) -> tuple[Item, bool]:
    negated = False
    if isinstance(raw, dict):
        if set(raw.keys()) != {"not"}:
            raise ParseError(
                f"consequent object must be {{'not': ...}}, got {raw}",
                line=_find_line(text, "not"),
            )
        raw = raw["not"]
        negated = True
    if not isinstance(raw, str):
        raise ParseError(f"consequent must be a string, got {raw!r}")
    try:
        item = parse_item(raw)
    except (ConfigError, ValueError) as exc:
        raise ParseError(
            f"bad consequent {raw!r}: {exc}", line=_find_line(text, raw)
        ) from exc
    return item, negated


def _list_of(value, kind) -> bool:
    return isinstance(value, list) and all(isinstance(v, kind) for v in value)


def _is_number(value) -> bool:
    # bool is a subclass of int, and `true` would read as 1.0
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def ingest_expert_rules(path: str | Path) -> OntologyRuleBase:
    """Read the expert rule base JSON, validating item vocabulary.

    Schema: {"thresholds": {"beta_sup", "beta_conf", "pi_min"},
             "rules": [{"id", "if": [items...], "then": "P300" | {"not": "P300"}}]}

    Every key is optional. An unknown key, a duplicate rule id, an
    out-of-range threshold or an item whose attribute is neither a summary
    column nor CLUSTER is a ParseError, not a silent default.
    """
    path = Path(path)
    if not path.exists():
        raise MissingInputError(f"expert rule file not found: {path}")
    text = path.read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno) from exc
    if not isinstance(doc, dict):
        raise ParseError("expert rule file must hold a JSON object", line=1)

    def expect(ok: bool, key: str, shape: str, rule_id: str | None = None) -> None:
        if not ok:
            name = key if rule_id is None else f"{key} of rule {rule_id!r}"
            raise ParseError(
                f"{name} must be {shape}", line=_find_line(text, f'"{rule_id or key}"')
            )

    def known_keys(obj: dict, allowed, where: str) -> None:
        for key in obj:
            if key not in allowed:
                raise ParseError(
                    f"unknown key {key!r} {where}; expected one of {', '.join(allowed)}",
                    line=_find_line(text, f'"{key}"'),
                )

    known_keys(doc, ("thresholds", "rules"), "at the top level")
    thresholds = doc.get("thresholds", {})
    expect(isinstance(thresholds, dict) and all(map(_is_number, thresholds.values())),
           "thresholds", "an object of numbers")
    known_keys(thresholds, _THRESHOLD_RANGES, "in thresholds")
    for key, value in thresholds.items():
        in_range, wording = _THRESHOLD_RANGES[key]
        if not in_range(value):
            raise ParseError(f"thresholds.{key} must lie in {wording}, got {value}",
                             line=_find_line(text, f'"{key}"'))

    raw_rules = doc.get("rules", [])
    expect(_list_of(raw_rules, dict), "rules", "a list of objects")
    rules: list[ExpertRule] = []
    for i, raw_rule in enumerate(raw_rules):
        rule_id = str(raw_rule.get("id", f"R{i + 1}"))
        known_keys(raw_rule, ("id", "if", "then"), f"in rule {rule_id!r}")
        if any(r.rule_id == rule_id for r in rules):
            token = f'"{rule_id}"'
            raise ParseError(f"duplicate rule id {rule_id!r}",
                             line=_find_line(text, token, after=_find_line(text, token) or 0))
        items = raw_rule.get("if", [])
        expect(_list_of(items, str), "if", "a list of strings", rule_id)
        antecedent: set[Item] = set()
        for raw in items:
            try:
                item = parse_item(raw)
            except (ConfigError, ValueError) as exc:
                raise ParseError(
                    f"bad item {raw!r}: {exc}", line=_find_line(text, str(raw))
                ) from exc
            if item.kind == "label":
                raise ParseError(
                    f"antecedent item {raw!r} does not reference an attribute",
                    line=_find_line(text, str(raw)),
                )
            if item.attribute not in ATTRIBUTES:
                raise ParseError(
                    f"unknown attribute {item.attribute!r} in rule {rule_id!r}",
                    line=_find_line(text, str(raw)),
                )
            antecedent.add(item)
        consequent, negated = _parse_consequent(raw_rule.get("then"), text)
        if consequent.kind != "label" and consequent.attribute not in ATTRIBUTES:
            raise ParseError(
                f"unknown attribute {consequent.attribute!r} in rule {rule_id!r}",
                line=_find_line(text, consequent.attribute),
            )
        rules.append(ExpertRule(rule_id, frozenset(antecedent), consequent, negated))
    # an absent threshold keeps its DEFAULT_THRESHOLDS value
    return OntologyRuleBase(rules, **{name: float(value) for name, value in thresholds.items()})


def _annotated_doc(ar: AnnotatedRule) -> dict:
    ante, cons = ar.rule.sort_key()
    return {
        "antecedent": ante,
        "consequent": cons,
        "support": ar.rule.support,
        "confidence": ar.rule.confidence,
        "reliability": ar.rule.reliability,
        "matched_expert": ar.matched_expert,
        "contradicted_expert": ar.contradicted_expert,
    }


def report_to_json(report: PartitionReport, path: str | Path) -> None:
    """Write the report as compact JSON with sorted keys."""
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
        "missing": [
            {"id": e.rule_id, "rule": e.render()} for e in report.missing
        ],
    }
    for name in ("known_high_strength", "known_low_strength", "novel_high_strength",
                 "contradictory", "low_strength_residue"):
        doc[name] = [_annotated_doc(ar) for ar in getattr(report, name)]
    # json.dumps encodes in C; json.dump always runs the pure-Python encoder
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, sort_keys=True, ensure_ascii=False))


def report_to_text(report: PartitionReport) -> str:
    lines: list[str] = []
    t = report.thresholds
    lines.append(
        f"thresholds: beta_sup={t['beta_sup']} beta_conf={t['beta_conf']} pi_min={t['pi_min']}"
    )
    if report.alignment:
        pairs = ", ".join(f"{c}->{p}" for c, p in sorted(report.alignment.items()))
        lines.append(f"cluster naming: {pairs}")
    lines.append(f"qualified rules: {len(report.arec)}")

    def section(title: str, rules: list[AnnotatedRule]) -> None:
        lines.append("")
        lines.append(f"== {title} ({len(rules)}) ==")
        for ar in rules:
            extra = ""
            if ar.matched_expert:
                extra = f"  [matches {ar.matched_expert}]"
            if ar.contradicted_expert:
                extra = f"  [contradicts {ar.contradicted_expert}]"
            lines.append(
                f"  {ar.rule.canonical()}  "
                f"(sup={ar.rule.support:.3f}, conf={ar.rule.confidence:.3f}, "
                f"rel={ar.rule.reliability:.3f}){extra}"
            )

    section("novel, high strength", report.novel_high_strength)
    section("known, high strength", report.known_high_strength)
    section("known, low strength", report.known_low_strength)
    section("contradictory", report.contradictory)
    lines.append("")
    lines.append(f"== missing expert rules ({len(report.missing)}) ==")
    for e in report.missing:
        lines.append(f"  {e.rule_id}: {e.render()}")
    section("residue: unmatched, low strength (no named category)", report.low_strength_residue)
    return "\n".join(lines) + "\n"
