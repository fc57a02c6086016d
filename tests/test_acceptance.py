"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are pinned here and nowhere else.
"""
import json
import time
from pathlib import Path

import numpy as np
import pytest

from nof import classification, clustering, decomposition, ontology, rulemining, testbed
from nof.pipeline import STAGES, artifact_checksums, load_config, run_pipeline, run_stage

from helpers import (
    adjusted_rand_index,
    assert_loglik_monotone,
    best_two_partition_by_sse,
    brute_force_itemsets,
    brute_force_partition,
    brute_force_root_split,
)
from test_ontology import names_of, random_universe, to_library_forms


ROOT = Path(__file__).resolve().parents[1]
EXPERT_EXAMPLE = ROOT / "docs" / "expert.example.json"


def _ok(n, label):
    print(f"ACCEPTANCE {n:02d} {label}: PASS")


def test_criterion_01_ica_recovery():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    sources = rng.laplace(size=(3, 25_000))
    sources -= sources.mean(axis=1, keepdims=True)
    sources /= sources.std(axis=1, keepdims=True)
    mixing = rng.standard_normal((32, 3))
    data = mixing @ sources
    montage = testbed.ChannelMontage(
        tuple(f"ch{i}" for i in range(32)), {f"ch{i}": "roi" for i in range(32)}
    )
    epochs = testbed.EpochTensor(
        data=data.reshape(32, 100, 250).transpose(1, 0, 2),
        fs=250.0, t0=0.0, montage=montage,
        trial_info=[dict(testbed.DEFAULT_CONDITION)] * 100,
    )
    white = decomposition.center_and_whiten(epochs, 3)
    dec = decomposition.fastica(white, seed=7)

    corr = np.abs(np.corrcoef(np.vstack([dec.activations(epochs), sources]))[:3, 3:])
    used = set()
    for j in range(3):
        pick = max((i for i in range(3) if i not in used), key=lambda i: corr[i, j])
        used.add(pick)
        assert corr[pick, j] >= 0.95

    gain = dec.unmixing @ mixing
    gain = gain / np.max(np.abs(gain), axis=1, keepdims=True)
    dominants = set()
    for row in gain:
        j = int(np.argmax(np.abs(row)))
        assert j not in dominants
        dominants.add(j)
        assert np.max(np.delete(np.abs(row), j)) <= 0.2

    elapsed = time.perf_counter() - started
    assert elapsed <= 10.0, f"ICA recovery took {elapsed:.1f}s"
    _ok(1, "ICA recovery on 3-source super-Gaussian mixtures")


def test_criterion_02_whitening_identity_100_inputs():
    rng = np.random.default_rng(202)
    for trial in range(100):
        n_ch = int(rng.integers(2, 9))
        n_samples = int(rng.integers(200, 600))
        scale = rng.uniform(0.5, 3.0, size=(n_ch, 1))
        data = scale * rng.standard_normal((n_ch, n_samples))
        montage = testbed.ChannelMontage(
            tuple(f"c{i}" for i in range(n_ch)), {f"c{i}": "r" for i in range(n_ch)}
        )
        epochs = testbed.EpochTensor(
            data=data[None, :, :], fs=100.0, t0=0.0, montage=montage,
            trial_info=[dict(testbed.DEFAULT_CONDITION)],
        )
        white = decomposition.center_and_whiten(epochs)
        cov = np.cov(white.whitened)
        assert np.max(np.abs(cov - np.eye(white.n_components))) <= 1e-8
    _ok(2, "whitened covariance = identity on 100 random inputs")


def test_criterion_03_em_loglik_ari_closed_form():
    # closed form at k=1
    rng = np.random.default_rng(303)
    X = rng.normal(size=(60, 3)) * [1.0, 2.5, 0.3]
    model = clustering.em_fit(X, 1, seed=0)
    assert np.max(np.abs(model.means[0] - X.mean(axis=0))) <= 1e-10
    assert np.max(np.abs(model.variances[0] - X.var(axis=0))) <= 1e-10
    assert_loglik_monotone(model)

    # two-Gaussian benchmark
    a = rng.normal(size=(100, 2))
    b = rng.normal(size=(100, 2)) + 10.0
    data = np.vstack([a, b])
    truth = [0] * 100 + [1] * 100
    fitted = clustering.em_fit(data, 2, seed=0)
    assert adjusted_rand_index(fitted.assignments, truth) >= 0.99
    assert_loglik_monotone(fitted)

    # monotone log-likelihood on a battery of random fits
    for seed in range(10):
        rng_i = np.random.default_rng(1000 + seed)
        Xi = rng_i.normal(size=(int(rng_i.integers(8, 40)), int(rng_i.integers(1, 4))))
        for k in (1, 2, 3):
            if k > Xi.shape[0]:
                continue
            m = clustering.em_fit(Xi, k, seed)
            assert_loglik_monotone(m)
    _ok(3, "EM monotonicity, ARI >= 0.99, k=1 closed form")


def test_criterion_04_hierarchies():
    one_d = np.array([[0.0], [1.0], [10.0], [11.0]])
    tax = clustering.divisive_hierarchy(one_d, seed=0)
    got = {frozenset(tax.root.left.indices), frozenset(tax.root.right.indices)}
    assert got == set(best_two_partition_by_sse(one_d))
    assert got == {frozenset({0, 1}), frozenset({2, 3})}

    agg = clustering.agglomerative_hierarchy(one_d)
    merges = [(set(a), set(b), h) for a, b, h in agg.merges]
    assert merges == [({0}, {1}, 1.0), ({2}, {3}, 1.0), ({0, 1}, {2, 3}, 10.0)]

    rng = np.random.default_rng(404)
    for trial in range(50):
        n = int(rng.integers(1, 22))
        X = rng.normal(size=(n, int(rng.integers(1, 4))))
        if trial % 2:
            t = clustering.agglomerative_hierarchy(X)
        else:
            t = clustering.divisive_hierarchy(X, seed=trial)
        # every distinct node height (the full set of meaningful cuts),
        # plus midpoints between them and every admissible leaf count
        heights = set()

        def collect(node):
            heights.add(node.height)
            if not node.is_leaf:
                collect(node.left)
                collect(node.right)

        collect(t.root)
        levels = sorted(heights)
        cut_heights = levels + [
            (a + b) / 2 for a, b in zip(levels, levels[1:])
        ] + [t.root.height + 1.0]
        cuts = [dict(height=float(h)) for h in cut_heights]
        cuts += [dict(leaf_count=m) for m in range(1, len(t.leaves()) + 1)]
        for cut in cuts:
            classes = [c for c in clustering.taxonomy_to_classes(t, **cut) if c.parent]
            members = sorted(i for c in classes for i in c.members)
            assert members == list(range(n))
            assert len(members) == len({m for c in classes for m in c.members})
    _ok(4, "hierarchy partition laws and 1-D merge/split oracles")


def test_criterion_05_decision_tree_oracle():
    rng = np.random.default_rng(505)
    for _ in range(150):
        n = int(rng.integers(2, 9))
        rows = []
        for _ in range(n):
            row = {"x0": float(rng.integers(0, 5))}
            if rng.random() < 0.6:
                row["x1"] = float(rng.integers(0, 5))
            rows.append(row)
        keys = rows[0].keys()
        rows = [{k: r.get(k, 0.0) for k in keys} for r in rows]
        if rng.random() < 0.5:
            for r in rows:
                r["c0"] = str(rng.choice(["u", "v", "w"]))
        labels = [str(rng.choice(["A", "B", "C"][: int(rng.integers(2, 4))]))
                  for _ in range(n)]
        tree = classification.build_tree(rows, labels, prune_cf=None)
        oracle = brute_force_root_split(rows, labels)
        got = (None if isinstance(tree.root, classification.Leaf)
               else (tree.root.attribute, tree.root.threshold))
        assert got == oracle, f"rows={rows} labels={labels}"

    # rule fidelity and rule-count identity on larger noisy datasets
    for seed in range(10):
        rng_i = np.random.default_rng(5050 + seed)
        rows = [{"x": float(rng_i.integers(0, 10)), "y": float(rng_i.integers(0, 10)),
                 "c": str(rng_i.choice(["p", "q"]))} for _ in range(30)]
        labels = [str(rng_i.choice(["A", "B"])) for _ in range(30)]
        tree = classification.build_tree(rows, labels)
        rules = classification.extract_rules(tree)
        assert len(rules) == classification.leaf_count(tree)
        for row in rows:
            matching = [r for r in rules if r.matches(row)]
            assert len(matching) == 1
            assert matching[0].consequent == classification.classify(tree, row)
    _ok(5, "gain-ratio splits match brute force; rule fidelity holds")


def test_criterion_06_apriori_brute_force_equality():
    rng = np.random.default_rng(606)
    for _ in range(20):
        n_items = int(rng.integers(3, 13))
        n_tx = int(rng.integers(4, 31))
        items = [rulemining.eq_item("I", f"i{k}") for k in range(n_items)]
        txs = []
        for _ in range(n_tx):
            t = frozenset(it for it in items if rng.random() < 0.4)
            txs.append(t if t else frozenset([items[int(rng.integers(0, n_items))]]))
        beta = float(rng.uniform(0.1, 0.6))
        got = rulemining.apriori(txs, beta)
        want = brute_force_itemsets(txs, beta)
        assert got == want
        for itemset in got:
            for item in itemset:
                assert len(itemset) == 1 or itemset - {item} in got
    _ok(6, "apriori equals exhaustive enumeration; downward closure holds")


def test_criterion_07_partition_formulas():
    # the worked example
    def mined(ante, cons, rel):
        return rulemining.AssociationRule(
            antecedent=frozenset([rulemining.eq_item(*ante.split("="))]),
            consequent=frozenset([rulemining.label_item(cons)]),
            support=0.9, confidence=0.9, reliability=rel,
        )

    def expert(rid, ante, cons):
        return ontology.ExpertRule(
            rule_id=rid,
            antecedent=frozenset([rulemining.eq_item(*ante.split("="))]),
            consequent=rulemining.label_item(cons),
        )

    r1, r2, r3 = mined("a=1", "L1", 0.8), mined("b=2", "L2", 0.9), mined("c=3", "L3", 0.1)
    base = ontology.OntologyRuleBase(
        rules=[expert("r2", "b=2", "L2"), expert("r3", "c=3", "L3"),
               expert("r4", "d=4", "L4")],
        beta_sup=0.1, beta_conf=0.1, pi_min=0.5,
    )
    report = ontology.partition([r1, r2, r3], base)
    assert [a.rule for a in report.novel_high_strength] == [r1]
    assert [a.rule for a in report.known_high_strength] == [r2]
    assert [a.rule for a in report.known_low_strength] == [r3]
    assert [e.rule_id for e in report.missing] == ["r4"]
    assert report.contradictory == []

    # 200 random universes against set-algebra brute force
    rng = np.random.default_rng(707)
    for _ in range(200):
        mined_rules, expert_rules, bs, bc, pm = random_universe(rng)
        lib_mined, lib_expert = to_library_forms(mined_rules, expert_rules)
        base = ontology.OntologyRuleBase(rules=lib_expert, beta_sup=bs,
                                         beta_conf=bc, pi_min=pm)
        report = ontology.partition(lib_mined, base)
        oracle = brute_force_partition(mined_rules, expert_rules, bs, bc, pm)
        assert names_of(report.arec) == oracle["arec"]
        assert names_of(report.known_high_strength) == oracle["known_hi"]
        assert names_of(report.known_low_strength) == oracle["known_lw"]
        assert names_of(report.novel_high_strength) == oracle["novel_hi"]
        assert names_of(report.contradictory) == oracle["contr"]
        assert {e.rule_id for e in report.missing} == oracle["missing"]

    # monotonicity in pi_min and in the support/confidence gates
    rng = np.random.default_rng(708)
    for _ in range(25):
        mined_rules, expert_rules, bs, bc, _ = random_universe(rng)
        lib_mined, lib_expert = to_library_forms(mined_rules, expert_rules)
        lo, hi = sorted(rng.uniform(0, 1, size=2))
        rep_lo = ontology.partition(lib_mined, ontology.OntologyRuleBase(
            rules=lib_expert, beta_sup=bs, beta_conf=bc, pi_min=lo))
        rep_hi = ontology.partition(lib_mined, ontology.OntologyRuleBase(
            rules=lib_expert, beta_sup=bs, beta_conf=bc, pi_min=hi))
        assert names_of(rep_hi.known_high_strength) <= names_of(rep_lo.known_high_strength)
        assert names_of(rep_hi.novel_high_strength) <= names_of(rep_lo.novel_high_strength)
        assert names_of(rep_lo.known_low_strength) <= names_of(rep_hi.known_low_strength)
        lo_s, hi_s = sorted(rng.uniform(0.05, 0.9, size=2))
        rep_ls = ontology.partition(lib_mined, ontology.OntologyRuleBase(
            rules=lib_expert, beta_sup=lo_s, beta_conf=bc, pi_min=lo))
        rep_hs = ontology.partition(lib_mined, ontology.OntologyRuleBase(
            rules=lib_expert, beta_sup=hi_s, beta_conf=bc, pi_min=lo))
        assert names_of(rep_hs.arec) <= names_of(rep_ls.arec)
        assert {e.rule_id for e in rep_ls.missing} <= {e.rule_id for e in rep_hs.missing}
    _ok(7, "knowledge partitions equal brute force; monotonicity holds")


E2E_EXPERT_RULE = {"id": "p300_frontal_late",
                   "if": ["TI_max∈(300,500]", "SP_max_ROI=frontal"],
                   "then": "P300"}


def e2e_config(out, expert_path=None):
    overrides = {
        "out": str(out),
        "seed": 1,
        "synth": {"n_trials": 80, "conditions": [
            {"EVENT": "stimon", "STIM": "s1", "MOD": "visual"},
            {"EVENT": "stimon", "STIM": "s2", "MOD": "visual"},
            {"EVENT": "respon", "STIM": "s1", "MOD": "visual"},
            {"EVENT": "respon", "STIM": "s2", "MOD": "visual"},
        ]},
        "decompose": {"n_components": 2},
        "cluster": {"k": 2},
        "partition": {"expert_rules": str(expert_path) if expert_path else None},
    }
    return load_config(overrides=overrides)


def write_expert(path, rules, pi_min=0.3):
    path.write_text(json.dumps({
        "thresholds": {"beta_sup": 0.2, "beta_conf": 0.8, "pi_min": pi_min},
        "rules": rules,
    }, ensure_ascii=False), encoding="utf-8")


def test_criterion_08_end_to_end_knowledge_recovery(tmp_path):
    started = time.perf_counter()
    out = tmp_path / "e2e"
    expert = tmp_path / "expert.json"
    write_expert(expert, [E2E_EXPERT_RULE])
    run_pipeline(e2e_config(out, expert))

    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    known = [r for r in report["known_high_strength"]
             if r["matched_expert"] == "p300_frontal_late"]
    assert len(known) == 1, "the planted rule must land in the known/high set"
    assert known[0]["consequent"] == ["P300"]
    assert "SP_max_ROI=frontal" in known[0]["antecedent"]
    matched_antecedent = known[0]["antecedent"]

    # emptied expert base: the corresponding mined rule becomes novel
    write_expert(expert, [])
    run_stage("partition", e2e_config(out, expert))
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["counts"]["known_high_strength"] == 0
    novel = [r for r in report["novel_high_strength"]
             if r["antecedent"] == matched_antecedent
             and r["consequent"][0].startswith("CLUSTER=")]
    assert novel, "with no expert rules the mined rule must surface as novel"

    # negated expert rule: the same evidence becomes a contradiction
    write_expert(expert, [{"id": "veto", "if": E2E_EXPERT_RULE["if"],
                           "then": {"not": "P300"}}])
    run_stage("partition", e2e_config(out, expert))
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    contr = [r for r in report["contradictory"]
             if r["contradicted_expert"] == "veto" and r["consequent"] == ["P300"]]
    assert contr, "the mined rule must land in the contradictory set"

    elapsed = time.perf_counter() - started
    assert elapsed <= 60.0, f"end-to-end run took {elapsed:.1f}s"
    _ok(8, "end-to-end known/novel/contradictory knowledge recovery")


def _expert_config(out, seed, overrides=None):
    """The default config, or it with `overrides`, and the shipped expert base."""
    return load_config(overrides={**(overrides or {}), "out": str(out), "seed": seed,
                                  "partition": {"expert_rules": str(EXPERT_EXAMPLE)}})


def _sweep(tmp_path, run):
    """run(out, seed) for seeds 0-19; returns the seeds whose report lists the
    planted rule as known with high strength, and those whose report lists
    any contradiction."""
    recovered = []
    contradicted = []
    for seed in range(20):
        out = tmp_path / f"seed{seed}"
        run(out, seed)
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        if any(r["matched_expert"] == "p300_frontal_late"
               for r in report["known_high_strength"]):
            recovered.append(seed)
        if report["contradictory"]:
            contradicted.append(seed)
    return recovered, contradicted


@pytest.mark.filterwarnings("ignore:fastica did not converge:RuntimeWarning")
def test_criterion_08_recovery_across_seeds(tmp_path):
    """The default config with the shipped expert base, seeds 0-19 at 100
    trials: the planted rule is known with high strength in at least 18 of
    20 runs (19 measured; one seed of margin for BLAS rounding), and no run
    reports a contradiction, since the testbed plants no late occipital
    pattern for the veto rule to catch."""
    recovered, contradicted = _sweep(
        tmp_path, lambda out, seed: run_pipeline(_expert_config(out, seed)))
    assert len(recovered) >= 18, f"recovered only on seeds {recovered}"
    assert not contradicted, f"false contradictions on seeds {contradicted}"
    _ok(8, f"planted rule recovered on {len(recovered)}/20 seeds, no false contradiction")


@pytest.mark.filterwarnings("ignore:fastica did not converge:RuntimeWarning")
def test_criterion_08_recovery_across_seeds_many_rows(tmp_path):
    """The benchmark's many_rows config (16 conditions, 160 trials, 64
    summary rows), seeds 0-19: the planted rule is known with high strength
    in at least 16 of 20 runs (17 measured; one seed of margin), with no
    contradiction. EM clusters the rows on their pattern attributes; when it
    also one-hot encoded EVENT/STIM/MOD it split the P300 rows by condition,
    and 8 of 20 were recovered."""
    spec = json.loads((ROOT / "bench" / "spec.json").read_text(encoding="utf-8"))
    many_rows = spec["workloads"]["many_rows"]["config"]
    recovered, contradicted = _sweep(
        tmp_path, lambda out, seed: run_pipeline(_expert_config(out, seed, many_rows)))
    assert len(recovered) >= 16, f"recovered only on seeds {recovered}"
    assert not contradicted, f"false contradictions on seeds {contradicted}"
    _ok(8, f"many_rows: planted rule recovered on {len(recovered)}/20 seeds")


# source templates with no frontal late pattern, by montage
NULL_TEMPLATES = {
    "p300_zero": lambda montage: [testbed.p300_template(montage, amplitude=0.0),
                                  testbed.occipital_template(montage)],
    "occ_only": lambda montage: [testbed.occipital_template(montage)],
}


@pytest.mark.filterwarnings("ignore:fastica did not converge:RuntimeWarning")
@pytest.mark.parametrize("case", list(NULL_TEMPLATES))
def test_criterion_08_no_recovery_without_the_planted_source(tmp_path, case):
    """Epochs with no frontal late source (the P300 at zero amplitude beside
    the occipital source, or the occipital source alone), at the default
    config otherwise, seeds 0-19: the planted rule is never known and no run
    reports a contradiction (0 of 20 each, measured)."""
    montage = testbed.default_montage()

    def run(out, seed):
        config = _expert_config(out, seed)
        synth = config["synth"]
        testbed.generate_dataset(
            NULL_TEMPLATES[case](montage), 0.1, synth["noise_std"], synth["n_trials"],
            seed, montage, synth["conditions"],
        ).save(out / "epochs")
        for stage in STAGES[STAGES.index("decompose"):]:
            run_stage(stage, config)

    recovered, contradicted = _sweep(tmp_path, run)
    assert not recovered, f"planted rule known on seeds {recovered}"
    assert not contradicted, f"contradictions on seeds {contradicted}"
    _ok(8, f"{case}: planted rule never known, no contradiction over 20 seeds")


def test_criterion_09_reproducibility(tmp_path):
    expert = tmp_path / "expert.json"
    write_expert(expert, [E2E_EXPERT_RULE])
    sums = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        run_pipeline(e2e_config(out, expert))
        sums.append(artifact_checksums(out))
    assert sums[0] == sums[1]
    assert len(sums[0]) >= 14
    _ok(9, "byte-identical artifacts across two identical runs")


def test_criterion_10_averaging_snr_scaling():
    montage = testbed.default_montage()
    template = testbed.p300_template(montage)
    rms = {}
    for n in (10, 40):
        noisy = testbed.generate_dataset([template], 0.0, 1.0, n, seed=99,
                                         montage=montage)
        clean = testbed.generate_dataset([template], 0.0, 0.0, n, seed=99,
                                         montage=montage)
        residual = (testbed.average_epochs(noisy)[()]
                    - testbed.average_epochs(clean)[()])
        rms[n] = float(np.sqrt(np.mean(residual**2)))
    ratio = rms[40] / rms[10]
    assert abs(ratio - 0.5) <= 0.1
    _ok(10, "residual-noise RMS halves from 10 to 40 trials")
