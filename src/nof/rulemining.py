"""Transactions, frequent itemsets, and association rules.

Summary rows become transactions with exactly one item per attribute:
categorical values pass through as ``attr=value`` items and numeric values
fall into the half-open interval ``(lo, hi]`` between consecutive decision
tree split points (with infinite sentinels, rendered ``attr<=hi`` /
``attr>lo``; an attribute with no split points yields the catch-all
``attr=ANY``). Items that every transaction holds (such as ``attr=ANY``)
are dropped before mining, unless their attribute is kept on purpose: they
cannot change a support or a confidence, yet every frequent itemset would
be copied with and without each of them. Itemsets are mined with the
classic level-wise join/prune; support is counted on per-item transaction
bitmasks (bit t set when transaction t holds the item), so a candidate's
count is the popcount of the AND of its two parents' masks. Rules carry
support, confidence, and the reliability measure
``|confidence - support(consequent)|``.
"""
from __future__ import annotations

import bisect
import csv
import math
import re
from collections.abc import Collection
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path

from .errors import ConfigError, MissingInputError, ParseError

_INF = math.inf

_FORBIDDEN = re.compile(r"[;&\n=<>≤∈]")


def _check_token(token: str, what: str) -> str:
    if not token:
        raise ConfigError(f"{what} must be nonempty")
    if _FORBIDDEN.search(token):
        raise ConfigError(f"{what} {token!r} contains a reserved character")
    return token


def _fmt_num(v: float) -> str:
    f = float(v)
    return str(int(f)) if f.is_integer() else repr(f)


@dataclass(frozen=True, order=True)
class Item:
    """One transaction element in canonical form.

    kind "eq"      -> attribute = value
    kind "interval"-> attribute in (lo, hi]   (infinite bounds allowed)
    kind "label"   -> a bare pattern name (used for rule consequents once
                      cluster labels have been aligned to expert vocabulary)
    The canonical string is injective over constructible items (reserved
    characters are rejected in tokens), so equality, hashing, and ordering
    all run on it alone.
    """

    canonical: str
    attribute: str = field(compare=False, default="")
    kind: str = field(compare=False, default="eq")
    value: str = field(compare=False, default="")
    lo: float = field(compare=False, default=-_INF)
    hi: float = field(compare=False, default=_INF)


def eq_item(attribute: str, value: str) -> Item:
    _check_token(attribute, "attribute")
    _check_token(value, "value")
    if value == "ANY":
        raise ConfigError("the value 'ANY' is reserved for catch-all interval items")
    return Item(
        canonical=f"{attribute}={value}", attribute=attribute, kind="eq", value=value
    )


def label_item(name: str) -> Item:
    _check_token(name, "label")
    return Item(canonical=name, attribute="", kind="label", value=name)


def interval_item(attribute: str, lo: float, hi: float) -> Item:
    _check_token(attribute, "attribute")
    if not lo < hi:
        raise ConfigError(f"empty interval ({lo}, {hi}] for {attribute!r}")
    if lo == -_INF and hi == _INF:
        canonical = f"{attribute}=ANY"
    elif lo == -_INF:
        canonical = f"{attribute}≤{_fmt_num(hi)}"
    elif hi == _INF:
        canonical = f"{attribute}>{_fmt_num(lo)}"
    else:
        canonical = f"{attribute}∈({_fmt_num(lo)},{_fmt_num(hi)}]"
    return Item(
        canonical=canonical, attribute=attribute, kind="interval", lo=float(lo), hi=float(hi)
    )


_INTERVAL_RE = re.compile(r"^(?P<attr>[^=<>≤∈]+)∈\((?P<lo>[^,]+),(?P<hi>[^\]]+)\]$")


def parse_item(text: str) -> Item:
    """Parse a canonical item string; bare names become pattern labels."""
    text = text.strip()
    if not text:
        raise ConfigError("empty item")
    m = _INTERVAL_RE.match(text)
    if m:
        return interval_item(m.group("attr"), float(m.group("lo")), float(m.group("hi")))
    for sep in ("≤", "<="):
        if sep in text:
            attr, _, v = text.partition(sep)
            return interval_item(attr, -_INF, float(v))
    if ">" in text:
        attr, _, v = text.partition(">")
        return interval_item(attr, float(v), _INF)
    if "=" in text:
        attr, _, v = text.partition("=")
        if v == "ANY":
            return interval_item(attr, -_INF, _INF)
        return eq_item(attr, v)
    return label_item(text)


Transaction = frozenset[Item]


def discretize(
    rows: list[dict[str, float | str]], split_points: dict[str, list[float]]
) -> list[Transaction]:
    """Map each row to a transaction with exactly one item per attribute."""
    for attr, pts in split_points.items():
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise ConfigError(f"split points for {attr!r} must be strictly ascending")
    out: list[Transaction] = []
    for i, row in enumerate(rows):
        items: list[Item] = []
        for attr, value in row.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                pts = split_points.get(attr, [])
                v = float(value)
                j = bisect.bisect_left(pts, v)
                lo = pts[j - 1] if j > 0 else -_INF
                hi = pts[j] if j < len(pts) else _INF
                items.append(interval_item(attr, lo, hi))
            else:
                items.append(eq_item(attr, str(value)))
        tx = frozenset(items)
        if len(tx) != len(row):
            raise ConfigError(f"row {i} produced duplicate items")
        out.append(tx)
    return out


def drop_universal_items(
    transactions: list[Transaction], keep_attributes: Collection[str] = ()
) -> list[Transaction]:
    """Remove every item that all transactions hold, except items of the
    attributes in keep_attributes.

    Dropping an item held everywhere leaves the support of every itemset
    without it unchanged, so rules mined afterwards carry the supports and
    confidences computed over the full transactions.
    """
    if not transactions:
        return []
    universal = {i for i in frozenset.intersection(*transactions)
                 if i.attribute not in keep_attributes}
    return [tx - universal for tx in transactions]


def _support_count(candidate: frozenset[Item], transactions: list[Transaction]) -> int:
    return sum(1 for t in transactions if candidate <= t)


def apriori(
    transactions: list[Transaction], beta_sup: float, max_len: int | None = None
) -> dict[frozenset[Item], float]:
    """All itemsets with support >= beta_sup, by level-wise join and prune.

    max_len caps the itemset size when set; leave it None for the complete
    (downward-closed) collection.
    """
    if not 0 < beta_sup <= 1:
        raise ConfigError(f"beta_sup must lie in (0, 1], got {beta_sup}")
    if max_len is not None and max_len < 1:
        raise ConfigError(f"max_len must be >= 1, got {max_len}")
    if not transactions:
        raise ConfigError("transaction list must be nonempty")
    n = len(transactions)
    frequent: dict[frozenset[Item], float] = {}

    tidmask: dict[Item, int] = {}
    for t, tx in enumerate(transactions):
        for item in tx:
            tidmask[item] = tidmask.get(item, 0) | (1 << t)
    singles = sorted(tidmask, key=attrgetter("canonical"))
    # frequent itemsets of the current size as ascending indices into singles,
    # mapped to their masks; each level is generated in ascending order
    level: dict[tuple[int, ...], int] = {}
    for idx, item in enumerate(singles):
        mask = tidmask[item]
        sup = mask.bit_count() / n
        if sup >= beta_sup:
            frequent[frozenset([item])] = sup
            level[(idx,)] = mask
    k = 2
    while level and (max_len is None or k <= max_len):
        # join: combine k-1 sets sharing their first k-2 items
        buckets: dict[tuple[int, ...], list[int]] = {}
        for tup in level:
            buckets.setdefault(tup[:-1], []).append(tup[-1])
        next_level: dict[tuple[int, ...], int] = {}
        for prefix, tails in buckets.items():
            for a in range(len(tails)):
                mask_a = level[prefix + (tails[a],)]
                for b in range(a + 1, len(tails)):
                    cand = prefix + (tails[a], tails[b])
                    # prune: all (k-1)-subsets must be frequent (the two
                    # parents are, so only those dropping a prefix item remain)
                    if any(cand[:i] + cand[i + 1:] not in level for i in range(k - 2)):
                        continue
                    mask = mask_a & level[prefix + (tails[b],)]
                    sup = mask.bit_count() / n
                    if sup >= beta_sup:
                        frequent[frozenset(singles[i] for i in cand)] = sup
                        next_level[cand] = mask
        level = next_level
        k += 1
    return frequent


@dataclass(slots=True, unsafe_hash=True)
class AssociationRule:
    antecedent: frozenset[Item]
    consequent: frozenset[Item]  # exactly one item; read_rules_csv rejects more
    support: float
    confidence: float
    reliability: float
    # (antecedent, consequent) canonical strings, each sorted. A caller that
    # already holds them sorted passes them; otherwise they are computed here.
    _key: tuple[tuple[str, ...], tuple[str, ...]] | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self):
        # Items order by their canonical string alone, so sorting the strings
        # gives the items' order. Every writer and the partition sort read
        # this key, so it is computed once per rule.
        if self._key is None:
            self._key = (
                tuple(sorted(i.canonical for i in self.antecedent)),
                tuple(sorted(i.canonical for i in self.consequent)),
            )

    def canonical(self) -> str:
        ante, cons = self._key
        return f"{'&'.join(ante)} -> {'&'.join(cons)}"

    def sort_key(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """(antecedent, consequent) canonical strings, each in item order."""
        return self._key


def generate_rules(
    itemsets: dict[frozenset[Item], float],
    beta_conf: float,
    transactions: list[Transaction],
) -> list[AssociationRule]:
    """The rules A -> {c} of every frequent itemset A | {c} of two or more
    items, one per member c, at confidence >= beta_conf. Supports are read
    from `itemsets`, which must be downward closed, as apriori's is."""
    if not 0 < beta_conf <= 1:
        raise ConfigError(f"beta_conf must lie in (0, 1], got {beta_conf}")
    if not transactions:
        raise ConfigError("transaction list must be nonempty")
    rules: list[AssociationRule] = []
    # (consequent, antecedent) positions into an itemset's sorted members, per
    # itemset size; the antecedent's come out ascending, so its canonical
    # strings are sorted as they are picked
    splits: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
    for itemset, support in itemsets.items():
        size = len(itemset)
        if size < 2:
            continue
        if size not in splits:
            splits[size] = [(c, tuple(j for j in range(size) if j != c)) for c in range(size)]
        members = sorted(itemset, key=attrgetter("canonical"))
        names = [m.canonical for m in members]
        for cons_at, ante_at in splits[size]:
            cons = frozenset([members[cons_at]])
            ante = itemset - cons
            conf = support / itemsets[ante]
            if conf < beta_conf:
                continue
            key = (tuple([names[j] for j in ante_at]), (names[cons_at],))
            rules.append(
                AssociationRule(ante, cons, support, conf, abs(conf - itemsets[cons]), key)
            )
    rules.sort(key=AssociationRule.sort_key)
    return rules


def reliability(rule: AssociationRule, transactions: list[Transaction]) -> float:
    """|confidence(A -> C) - support(C)|, recomputed from the transactions."""
    n = len(transactions)
    if n == 0:
        raise ConfigError("transaction list must be nonempty")
    n_ante = _support_count(rule.antecedent, transactions)
    if n_ante == 0:
        raise ConfigError("rule antecedent has zero support in these transactions")
    n_both = _support_count(rule.antecedent | rule.consequent, transactions)
    sup_cons = _support_count(rule.consequent, transactions) / n
    return abs(n_both / n_ante - sup_cons)


# ---------------------------------------------------------------------------
# rules CSV (the hand-off format consumed by the ontology stage)
# ---------------------------------------------------------------------------

_CSV_HEADER = ["antecedent", "consequent", "support", "confidence", "reliability"]


def write_rules_csv(rules: list[AssociationRule], path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, delimiter=";")
        w.writerow(_CSV_HEADER)
        for r in rules:
            ante, cons = r.sort_key()
            w.writerow(
                [
                    "&".join(ante),
                    "&".join(cons),
                    repr(float(r.support)),
                    repr(float(r.confidence)),
                    repr(float(r.reliability)),
                ]
            )


def read_rules_csv(path: str | Path) -> list[AssociationRule]:
    """Read a rules CSV. An empty side or item, an item named twice, a consequent of
    more than one item or a bad number is a ParseError naming its line."""
    path = Path(path)
    if not path.exists():
        raise MissingInputError(f"rules file not found: {path}")
    rules: list[AssociationRule] = []
    # a rule file repeats a few hundred distinct sides, over a few dozen
    # distinct items, thousands of times: each distinct item and each
    # distinct side is parsed once per call and per column
    parsed: dict[str, Item] = {}
    sides: dict[str, dict] = {"antecedent": {}, "consequent": {}}

    def item(token: str) -> Item:
        got = parsed.get(token)
        if got is None:
            got = parsed[token] = parse_item(token)
        return got

    def side(text: str, name: str) -> tuple[frozenset[Item], tuple[str, ...]]:
        """A side not seen before: its items and their sorted canonical strings."""
        if not text:
            raise ConfigError(f"empty {name}")
        tokens = text.split("&")
        if not all(tokens):
            raise ConfigError(f"empty item in {name} {text!r}")
        if name == "consequent" and len(tokens) > 1:
            raise ConfigError(f"consequent {text!r} holds more than one item")
        items = frozenset(map(item, tokens))
        if len(items) != len(tokens):
            raise ConfigError(f"{name} {text!r} names an item twice")
        sides[name][text] = items, tuple(sorted(i.canonical for i in items))
        return sides[name][text]

    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=";")
        header = next(reader, None)
        if header != _CSV_HEADER:
            raise ParseError(f"rules header must be {';'.join(_CSV_HEADER)}", line=1)
        for lineno, rec in enumerate(reader, start=2):
            if len(rec) != 5:
                raise ParseError(f"expected 5 fields, got {len(rec)}", line=lineno)
            try:
                ante, ante_key = sides["antecedent"].get(rec[0]) or side(rec[0], "antecedent")
                cons, cons_key = sides["consequent"].get(rec[1]) or side(rec[1], "consequent")
                sup, conf, rel = float(rec[2]), float(rec[3]), float(rec[4])
            except (ValueError, ConfigError) as exc:
                raise ParseError(str(exc), line=lineno) from exc
            # NaN fails every comparison and inf the upper bound
            if not (0.0 <= sup <= 1.0 and 0.0 <= conf <= 1.0 and 0.0 <= rel <= 1.0):
                for name, text, value in zip(_CSV_HEADER[2:], rec[2:], (sup, conf, rel)):
                    if not 0.0 <= value <= 1.0:
                        raise ParseError(f"{name} {text!r} is not a number in [0, 1]",
                                         line=lineno)
            rules.append(AssociationRule(ante, cons, sup, conf, rel, (ante_key, cons_key)))
    return rules
