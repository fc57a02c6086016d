import dataclasses
import warnings

import numpy as np
import pytest

from nof import clustering
from nof.clustering import (
    ClusterModel,
    DivisiveConfig,
    EMConfig,
    EncodingConfig,
    Taxonomy,
    TaxonomyClass,
    agglomerative_hierarchy,
    bic,
    classes_to_json,
    divisive_hierarchy,
    em_fit,
    em_predict,
    encode_observations,
    select_k,
    taxonomy_to_classes,
)
from nof.errors import ConfigError, NumericalError
from nof.features import COLUMNS, read_summary_csv
from nof.pipeline import load_config, run_stage

from helpers import (
    adjusted_rand_index,
    assert_loglik_monotone,
    best_two_partition_by_sse,
    loop_em_fit,
    loop_em_restarts,
    loop_log_gaussians_diag,
    loop_m_step,
    scipy_agglomerative_hierarchy,
    scipy_logsumexp,
)


def summary_row(**columns):
    row = dict(zip(COLUMNS, ("Fz", "frontal", "Oz", "occipital", -1.0, 2.0, 0.5,
                             0.9, 400.0, "stimon", "s1", "visual")))
    assert set(columns) <= set(row)
    return {**row, **columns}


def two_blobs(seed=0, n=100, sep=10.0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, 2))
    b = rng.normal(size=(n, 2)) + sep
    X = np.vstack([a, b])
    labels = np.array([0] * n + [1] * n)
    return X, labels


class TestEncoding:
    def test_one_hot_and_zscore(self):
        rows = [summary_row(TI_max=100.0, EVENT="e1"),
                summary_row(TI_max=300.0, EVENT="e2"),
                summary_row(TI_max=200.0, EVENT="e1")]
        om = encode_observations(rows)
        ti = om.X[:, list(om.columns).index("TI_max")]
        assert ti.mean() == pytest.approx(0.0, abs=1e-12)
        assert ti.std() == pytest.approx(1.0, abs=1e-12)
        assert "EVENT=e1" in om.columns and "EVENT=e2" in om.columns
        col = om.X[:, list(om.columns).index("EVENT=e1")]
        assert col.tolist() == [1.0, 0.0, 1.0]

    def test_constant_numeric_column_not_scaled(self):
        rows = [summary_row(), summary_row()]
        om = encode_observations(rows)
        ti = om.X[:, list(om.columns).index("TI_max")]
        assert np.array_equal(ti, np.zeros(2))  # centered only

    def test_scaling_invariance_of_memberships(self):
        rng = np.random.default_rng(3)
        rows = [
            summary_row(IN_min=float(rng.normal()), IN_max=float(rng.normal() + 3),
                        IN_mean=float(rng.normal()), SP_cor=float(rng.uniform(-1, 1)),
                        TI_max=float(rng.uniform(0, 1000)),
                        EVENT=("e1" if i % 2 else "e2"))
            for i in range(12)
        ]
        om_scaled = encode_observations(rows, EncodingConfig(scale=True))
        # manually z-score the numeric block, then encode scale-free
        om_raw = encode_observations(rows, EncodingConfig(scale=False))
        X = om_raw.X.copy()
        n_num = 5
        mu = X[:, :n_num].mean(axis=0)
        sd = X[:, :n_num].std(axis=0)
        sd[sd == 0] = 1.0
        X[:, :n_num] = (X[:, :n_num] - mu) / sd
        assert np.array_equal(X, om_scaled.X)
        a = em_fit(X, 2, EMConfig(seed=1))
        b = em_fit(om_scaled.X, 2, EMConfig(seed=1))
        assert np.array_equal(a.assignments, b.assignments)

    def test_empty_rows_rejected(self):
        with pytest.raises(ConfigError):
            encode_observations([])


class TestEmFit:
    def test_k1_closed_form(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(40, 3)) * [1.0, 2.0, 0.5] + [0.0, 1.0, -2.0]
        model = em_fit(X, 1, EMConfig(seed=0))
        np.testing.assert_allclose(model.means[0], X.mean(axis=0), atol=1e-10)
        np.testing.assert_allclose(model.variances[0], X.var(axis=0), atol=1e-10)
        assert model.weights[0] == pytest.approx(1.0, abs=1e-12)
        assert_loglik_monotone(model)

    def test_two_gaussians_recovered(self):
        X, labels = two_blobs(seed=7)
        model = em_fit(X, 2, EMConfig(seed=0))
        assert adjusted_rand_index(model.assignments, labels) >= 0.99
        assert_loglik_monotone(model)

    def test_weights_sum_to_one(self):
        X, _ = two_blobs(seed=8, n=40)
        model = em_fit(X, 3, EMConfig(seed=0))
        assert abs(model.weights.sum() - 1.0) <= 1e-12

    def test_k_exceeding_rows_rejected(self):
        X = np.zeros((4, 2))
        with pytest.raises(ConfigError):
            em_fit(X, 5, EMConfig(seed=0))

    def test_k_below_one_rejected(self):
        with pytest.raises(ConfigError):
            em_fit(np.zeros((4, 2)), 0)

    def test_seeded_determinism(self):
        X, _ = two_blobs(seed=9, n=30)
        a = em_fit(X, 2, EMConfig(seed=4))
        b = em_fit(X, 2, EMConfig(seed=4))
        assert np.array_equal(a.assignments, b.assignments)
        assert a.log_likelihood == b.log_likelihood

    def test_monotone_loglik_random_fits(self):
        for seed in range(6):
            rng = np.random.default_rng(seed)
            X = rng.normal(size=(30, 3))
            for k in (1, 2, 3):
                model = em_fit(X, k, EMConfig(seed=seed, n_restarts=2))
                assert_loglik_monotone(model)

    def test_duplicate_rows_survive_floor(self):
        X = np.ones((10, 2))
        model = em_fit(X, 1, EMConfig(seed=0))
        assert np.isfinite(model.log_likelihood)

    def test_covariance_eigenvalues_respect_floor(self):
        rng = np.random.default_rng(22)
        X = rng.normal(size=(40, 3))
        X[:, 2] = 0.0  # degenerate dimension forces the floor to bite
        model = em_fit(X, 2, EMConfig(seed=0))
        floor = 1e-6 * float(np.sum(X.var(axis=0))) / X.shape[1]
        assert model.variances.min() >= floor * (1 - 1e-9)


class TestEmPredict:
    def _symmetric_model(self):
        return ClusterModel(
            k=2,
            weights=np.array([0.5, 0.5]),
            means=np.array([[-2.0, 0.0], [2.0, 0.0]]),
            variances=np.ones((2, 2)),
            assignments=np.array([0, 1]),
            log_likelihood=0.0,
            n_iter=1,
        )

    def test_cluster_mean_assigned_to_own_cluster(self):
        model = self._symmetric_model()
        assign, _ = em_predict(model, np.array([[-2.0, 0.0], [2.0, 0.0]]))
        assert assign.tolist() == [0, 1]

    def test_equidistant_point_splits_half_half(self):
        model = self._symmetric_model()
        _, resp = em_predict(model, np.array([[0.0, 0.0]]))
        np.testing.assert_allclose(resp[0], [0.5, 0.5], atol=1e-9)

    def test_responsibilities_rows_sum_to_one(self):
        model = self._symmetric_model()
        rng = np.random.default_rng(11)
        _, resp = em_predict(model, rng.normal(size=(20, 2)))
        np.testing.assert_allclose(resp.sum(axis=1), 1.0, atol=1e-12)

    def test_training_data_reproduces_fit_assignments(self):
        X, _ = two_blobs(seed=12, n=50)
        model = em_fit(X, 2, EMConfig(seed=0))
        assign, _ = em_predict(model, X)
        assert np.array_equal(assign, model.assignments)

    def test_dimension_mismatch_rejected(self):
        model = self._symmetric_model()
        with pytest.raises(ConfigError):
            em_predict(model, np.zeros((3, 5)))


class TestSelectK:
    def test_bic_picks_two_for_two_blobs(self):
        X, _ = two_blobs(seed=13, n=80)
        model = select_k(X, 4, EMConfig(seed=0))
        assert model.k == 2

    def test_bic_value_consistency(self):
        X, _ = two_blobs(seed=14, n=30)
        model = em_fit(X, 2, EMConfig(seed=0))
        d = X.shape[1]
        p = (2 - 1) + 2 * d + 2 * d
        expected = -2 * model.log_likelihood + p * np.log(len(X))
        assert bic(model, len(X)) == pytest.approx(expected)

    @pytest.mark.parametrize("seed", range(4))
    def test_pattern_pair_not_split_into_singletons(self, seed):
        # rows 0/1 and 2/3 each hold one pattern, identical but for a
        # condition column; one-row components would have unbounded
        # likelihood on the floored variances and win BIC at k = n
        X = np.array([[2.0, 2.0, 0.0], [2.0, 2.0, 1.0],
                      [-2.0, 0.0, 0.0], [-2.0, 0.0, 1.0]])
        model = select_k(X, 4, EMConfig(seed=seed))
        assert model.k == 2
        assert model.assignments[0] == model.assignments[1]
        assert model.assignments[2] == model.assignments[3]

    def test_no_chosen_component_below_two_rows(self):
        X, _ = two_blobs(seed=15, n=12)
        model = select_k(X, 6, EMConfig(seed=0))
        assert np.bincount(model.assignments, minlength=model.k).min() >= 2

    def test_bic_by_k_records_every_k_tried(self):
        X = np.array([[2.0, 2.0, 0.0], [2.0, 2.0, 1.0],
                      [-2.0, 0.0, 0.0], [-2.0, 0.0, 1.0]])
        model = select_k(X, 6, EMConfig(seed=0))
        # k = 5 and 6 exceed the 4 rows; k = 3 and 4 leave a one-row component
        assert model.bic_by_k == {1: bic(em_fit(X, 1, EMConfig(seed=0)), 4),
                                  2: bic(model, 4), 3: None, 4: None}
        assert em_fit(X, 2, EMConfig(seed=0)).bic_by_k == {}


# The benchmark workloads' summary tables: paper_default's 8 rows (n < d) and
# many_rows' 16 conditions x 4 factors = 64 rows (n > d).
MANY_CONDITIONS = [{"EVENT": e, "STIM": f"s{i}", "MOD": m}
                   for e in ("stimon", "respon") for i in range(4)
                   for m in ("visual", "auditory")]


@pytest.fixture(scope="module")
def testbed_tables(tmp_path_factory):
    tables = {}
    for name, seed, synth, shape in (
        ("paper_default", 2, {}, (8, 25)),
        ("many_rows", 0, {"n_trials": 160, "conditions": MANY_CONDITIONS}, (64, 27)),
    ):
        out = tmp_path_factory.mktemp(name)
        config = load_config(overrides={"out": str(out), "seed": seed, "synth": synth})
        for stage in ("synth", "decompose", "extract"):
            run_stage(stage, config)
        rows = read_summary_csv(out / "summary.csv")
        tables[name] = encode_observations(rows).X
        assert tables[name].shape == shape
    return tables


def assert_same_fit(got, want):
    """Bit-identical ClusterModels."""
    for f in dataclasses.fields(ClusterModel):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert type(a) is type(b), f.name
        assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b, f.name


class TestStackedEmMatchesLoops:
    """The closed-form E-step, the stacked M-step and the numpy logsumexp give
    the same bits as the per-component Cholesky and M-step loops and scipy's
    logsumexp in tests/helpers.py."""

    def test_log_gaussians_and_m_step(self, testbed_tables):
        rng = np.random.default_rng(0)
        for X in testbed_tables.values():
            floor = clustering._floor_value(X)
            for k in range(1, 7):
                for _ in range(12):
                    resp = rng.dirichlet(np.ones(k), size=len(X))
                    got = clustering._m_step(X, resp, floor)
                    want = loop_m_step(X, resp, floor)
                    for a, b in zip(got, want):
                        assert np.array_equal(a, b)
                    _, means, variances = want
                    log_dens = clustering._log_gaussians(X, means, variances)
                    assert log_dens.flags.c_contiguous
                    ref = loop_log_gaussians_diag(X, means, variances)
                    assert np.array_equal(log_dens, ref)

    def _fits(self, tables):
        fits = []
        for X in tables.values():
            fits += [em_fit(X, k) for k in range(1, 7)]
            fits.append(select_k(X, 6))
        return fits

    def test_em_fit_and_select_k(self, testbed_tables, monkeypatch):
        closed_form = self._fits(testbed_tables)
        monkeypatch.setattr(clustering, "_log_gaussians", loop_log_gaussians_diag)
        monkeypatch.setattr(clustering, "_m_step", loop_m_step)
        monkeypatch.setattr(clustering, "_logsumexp", scipy_logsumexp)
        looped = self._fits(testbed_tables)
        for got, want in zip(closed_form, looped, strict=True):
            assert_same_fit(got, want)

    def test_em_predict(self, testbed_tables):
        X = testbed_tables["many_rows"]
        model = em_fit(X, 4, EMConfig())
        log_joint = np.log(model.weights) + loop_log_gaussians_diag(
            X, model.means, model.variances)
        resp = np.exp(log_joint - scipy_logsumexp(log_joint)[:, None])
        assign, got = em_predict(model, X)
        assert np.array_equal(got, resp)
        assert np.array_equal(assign, np.argmax(resp, axis=1))

    @pytest.mark.parametrize("case", ["normal", "ties", "neg_inf", "large"])
    def test_logsumexp(self, case):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(64, 6))
        if case == "ties":
            a = np.round(a)                      # many rows with tied maxima
            a[:, 3] = a.max(axis=1)              # every row has at least two
        elif case == "neg_inf":
            a[:, 2] = -np.inf                    # a zero-weight component
            a[0, :] = -np.inf
        elif case == "large":
            a = a * 1e4 + 1e4
            a[::2, 1] = a[::2, 0]
        assert np.array_equal(clustering._logsumexp(a), scipy_logsumexp(a))


class TestRestartsSteppedTogether:
    """em_fit steps its restarts together, yet each restart ends as it does
    when fitted alone, and the best one wins as in the restart loop of
    tests/helpers.py."""

    def _fits(self, tables, config):
        return [fit for X in tables.values()
                for fit in [clustering.em_fit(X, k, config) for k in range(1, 7)]
                + [clustering.select_k(X, 6, config)]]

    @pytest.mark.parametrize("n_restarts", [1, 4, 7])
    def test_em_fit_and_select_k_match_the_restart_loop(self, testbed_tables, monkeypatch,
                                                        n_restarts):
        config = EMConfig(seed=3, n_restarts=n_restarts)
        stepped = self._fits(testbed_tables, config)
        monkeypatch.setattr(clustering, "em_fit", loop_em_fit)
        for got, want in zip(stepped, self._fits(testbed_tables, config), strict=True):
            assert_same_fit(got, want)

    def test_unconverged_restarts_beside_converged_ones(self, testbed_tables, monkeypatch):
        # at 4 iterations some restarts of a fit stop unconverged, and are
        # assigned by a final E-step, while others have converged
        monkeypatch.setattr(clustering, "_EM_MAX_ITER", 4)
        config = EMConfig(n_restarts=7)
        mixed = 0
        for X in testbed_tables.values():
            for k in range(1, 7):
                restarts = loop_em_restarts(X, k, config)
                mixed += len({m.converged for m in restarts}) == 2
                assert_same_fit(em_fit(X, k, config), loop_em_fit(X, k, config))
        assert mixed >= 3


class TestEmErrors:
    def test_singular_covariance_names_component(self):
        model = ClusterModel(
            k=2, weights=np.array([0.5, 0.5]), means=np.zeros((2, 2)),
            variances=np.array([[1.0, 1.0], [1.0, 0.0]]),
            assignments=np.array([0, 1]), log_likelihood=0.0, n_iter=1,
        )
        with pytest.raises(NumericalError, match="^cluster 1 covariance is singular"):
            em_predict(model, np.zeros((3, 2)))

    def test_loglik_decrease_names_k_and_iteration(self, monkeypatch):
        m_step = clustering._m_step
        calls = []

        def worse_second_step(X, resp, floor):
            weights, means, variances = m_step(X, resp, floor)
            calls.append(1)
            return weights, means + 100.0 * (len(calls) == 2), variances

        monkeypatch.setattr(clustering, "_m_step", worse_second_step)
        X, _ = two_blobs(seed=3, n=30)
        with pytest.raises(NumericalError, match=(
                r"^EM log-likelihood decreased at iteration 2 "
                r"\(k=2\): -?[0-9.]+ -> -?[0-9.]+$")):
            em_fit(X, 2, EMConfig(n_restarts=1))


ONE_D = np.array([[0.0], [1.0], [10.0], [11.0]])


class TestDivisive:
    def test_first_split_matches_exhaustive_sse(self):
        tax = divisive_hierarchy(ONE_D, DivisiveConfig(seed=0))
        got = {frozenset(tax.root.left.indices), frozenset(tax.root.right.indices)}
        left, right = best_two_partition_by_sse(ONE_D)
        assert got == {left, right}
        assert got == {frozenset({0, 1}), frozenset({2, 3})}

    def test_single_observation_single_leaf(self):
        tax = divisive_hierarchy(np.array([[3.0]]), DivisiveConfig(seed=0))
        assert tax.root.is_leaf and tax.root.indices == (0,)

    def test_duplicates_do_not_split(self):
        tax = divisive_hierarchy(np.ones((5, 2)), DivisiveConfig(seed=0))
        assert tax.root.is_leaf

    def test_heights_monotone_root_to_leaves(self):
        rng = np.random.default_rng(15)
        tax = divisive_hierarchy(rng.normal(size=(20, 2)), DivisiveConfig(seed=1))

        def walk(node):
            for child in (node.left, node.right):
                if child is not None:
                    assert child.height <= node.height + 1e-12
                    walk(child)

        walk(tax.root)


class TestAgglomerative:
    def test_hand_computed_merge_order(self):
        tax = agglomerative_hierarchy(ONE_D, "single")
        merges = [(set(a), set(b), h) for a, b, h in tax.merges]
        assert merges[0] == ({0}, {1}, 1.0)
        assert merges[1] == ({2}, {3}, 1.0)
        assert merges[2] == ({0, 1}, {2, 3}, 9.0)

    def test_identical_points_merge_at_zero(self):
        tax = agglomerative_hierarchy(np.array([[2.0], [2.0]]), "single")
        assert tax.merges[0][2] == 0.0

    def test_single_point_no_merges(self):
        tax = agglomerative_hierarchy(np.array([[1.0]]), "complete")
        assert tax.merges == [] and tax.root.is_leaf

    def test_merge_count_is_n_minus_one(self):
        rng = np.random.default_rng(18)
        X = rng.normal(size=(9, 3))
        for linkage in ("single", "complete", "average"):
            tax = agglomerative_hierarchy(X, linkage)
            assert len(tax.merges) == 8

    def test_heights_nondecreasing(self):
        rng = np.random.default_rng(19)
        X = rng.normal(size=(15, 2))
        for linkage in ("single", "complete", "average"):
            heights = [h for _, _, h in agglomerative_hierarchy(X, linkage).merges]
            assert all(b >= a - 1e-12 for a, b in zip(heights, heights[1:]))

    def test_complete_linkage_final_height(self):
        tax = agglomerative_hierarchy(ONE_D, "complete")
        assert tax.merges[-1][2] == 11.0

    def test_unknown_linkage_rejected(self):
        with pytest.raises(ConfigError):
            agglomerative_hierarchy(ONE_D, "ward")

    def test_heights_match_linkage_definition(self):
        # each merge height is the min / max / mean of the pairwise Euclidean
        # distances between the two merged clusters
        rng = np.random.default_rng(20)
        reduce = {"single": np.min, "complete": np.max, "average": np.mean}
        for _ in range(10):
            X = rng.normal(size=(int(rng.integers(2, 30)), int(rng.integers(1, 6))))
            dist = np.sqrt(((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2))
            for linkage, fn in reduce.items():
                for a, b, h in agglomerative_hierarchy(X, linkage).merges:
                    expected = fn(dist[np.ix_(a, b)])
                    assert h == pytest.approx(expected, rel=1e-12, abs=0.0)

    @staticmethod
    def assert_same_as_scipy(X, tmp_path):
        for linkage in ("single", "complete", "average"):
            ours, theirs = agglomerative_hierarchy(X, linkage), scipy_agglomerative_hierarchy(
                X, linkage)
            assert ours.merges == theirs.merges, (linkage, X.shape)
            ours.to_json(tmp_path / "ours.json")
            theirs.to_json(tmp_path / "theirs.json")
            assert (tmp_path / "ours.json").read_bytes() == (tmp_path / "theirs.json").read_bytes()

    def test_matches_scipy_linkage_on_random_inputs(self, tmp_path):
        # exact floats: the distances are summed in pdist's order and updated
        # by scipy's Lance-Williams arithmetic
        rng = np.random.default_rng(21)
        for _ in range(150):
            X = rng.normal(size=(int(rng.integers(1, 26)), int(rng.integers(1, 31))))
            self.assert_same_as_scipy(X, tmp_path)

    def test_matches_scipy_linkage_on_ties_and_duplicates(self, tmp_path):
        # small-integer points tie exactly and repeat, so the merge order
        # rests on the neighbour search keeping scipy's tie rules
        rng = np.random.default_rng(22)
        for trial in range(150):
            n, d = int(rng.integers(2, 26)), int(rng.integers(1, 31))
            if trial % 2:
                X = np.round(rng.normal(size=(n, d)))
            else:
                X = rng.integers(0, 3, size=(n, d)).astype(float)
            X[n - 1] = X[0]
            self.assert_same_as_scipy(X, tmp_path)

    def test_matches_scipy_linkage_on_two_hundred_points(self, tmp_path):
        X = np.random.default_rng(23).normal(size=(200, 6))
        self.assert_same_as_scipy(X, tmp_path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_observation_names_its_row(self, bad):
        X = np.random.default_rng(24).normal(size=(5, 3))
        X[3, 1] = X[4, 0] = bad
        for linkage in ("single", "complete", "average"):
            with pytest.raises(ConfigError, match="observation 3 "):
                agglomerative_hierarchy(X, linkage)

    def test_overflowing_distance_rejected(self):
        with pytest.raises(ConfigError, match="overflows"):
            agglomerative_hierarchy(np.array([[1e200], [-1e200], [0.0]]), "average")

    def test_square_symmetric_hollow_matrix_is_observations(self):
        # scipy's linkage warns that such a matrix looks like distances;
        # here it is four observations of four attributes, without a warning
        X = np.array([[0.0, 1.0, 2.0, 3.0], [1.0, 0.0, 1.0, 2.0],
                      [2.0, 1.0, 0.0, 1.0], [3.0, 2.0, 1.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for linkage in ("single", "complete", "average"):
                assert len(agglomerative_hierarchy(X, linkage).merges) == 3


class TestTaxonomyClasses:
    def test_cut_at_root_single_class(self):
        tax = agglomerative_hierarchy(ONE_D, "single")
        classes = taxonomy_to_classes(tax, height=tax.root.height)
        named = [c for c in classes if c.parent == "ROOT"]
        assert len(named) == 1 and named[0].members == (0, 1, 2, 3)

    def test_four_leaves_four_singletons(self):
        tax = agglomerative_hierarchy(ONE_D, "single")
        classes = [c for c in taxonomy_to_classes(tax, leaf_count=4) if c.parent]
        assert [c.members for c in classes] == [(0,), (1,), (2,), (3,)]

    def test_two_class_cut(self):
        tax = agglomerative_hierarchy(ONE_D, "single")
        classes = [c for c in taxonomy_to_classes(tax, leaf_count=2) if c.parent]
        assert [c.members for c in classes] == [(0, 1), (2, 3)]
        assert all(c.parent == "ROOT" for c in classes)
        assert [c.name for c in classes] == ["C1", "C2"]

    def test_divisive_cut_matches_too(self):
        tax = divisive_hierarchy(ONE_D, DivisiveConfig(seed=0))
        classes = [c for c in taxonomy_to_classes(tax, leaf_count=2) if c.parent]
        assert {c.members for c in classes} == {(0, 1), (2, 3)}

    def test_partition_laws_random_cuts(self):
        rng = np.random.default_rng(20)
        for trial in range(12):
            n = int(rng.integers(2, 25))
            X = rng.normal(size=(n, int(rng.integers(1, 4))))
            tax = (
                agglomerative_hierarchy(X, ("single", "complete", "average")[trial % 3])
                if trial % 2
                else divisive_hierarchy(X, DivisiveConfig(seed=trial))
            )
            cuts = [dict(height=float(h)) for h in
                    rng.uniform(0, tax.root.height + 1, size=3)]
            cuts += [dict(leaf_count=int(rng.integers(1, len(tax.leaves()) + 1)))]
            for cut in cuts:
                classes = [c for c in taxonomy_to_classes(tax, **cut) if c.parent]
                members = [i for c in classes for i in c.members]
                assert sorted(members) == list(range(n))
                assert len(members) == len(set(members))

    def test_invalid_cuts_rejected(self):
        tax = agglomerative_hierarchy(ONE_D, "single")
        with pytest.raises(ConfigError):
            taxonomy_to_classes(tax)
        with pytest.raises(ConfigError):
            taxonomy_to_classes(tax, height=1.0, leaf_count=2)
        with pytest.raises(ConfigError):
            taxonomy_to_classes(tax, leaf_count=99)
        with pytest.raises(ConfigError):
            taxonomy_to_classes(tax, height=-0.5)

    def test_classes_json(self, tmp_path):
        tax = agglomerative_hierarchy(ONE_D, "single")
        classes = taxonomy_to_classes(tax, leaf_count=2)
        path = tmp_path / "classes.json"
        classes_to_json(classes, path)
        import json

        doc = json.loads(path.read_text())
        assert doc[0]["name"] == "ROOT" and doc[1]["parent"] == "ROOT"


class TestModelClasses:
    def test_class_j_holds_the_rows_of_component_j(self):
        model = ClusterModel(k=3, weights=np.full(3, 1 / 3), means=np.zeros((3, 1)),
                             variances=np.ones((3, 1)), assignments=np.array([2, 0, 2, 0, 0]),
                             log_likelihood=0.0, n_iter=1)
        classes = model.classes()
        assert classes == [
            TaxonomyClass("ROOT", None, (0, 1, 2, 3, 4)),
            TaxonomyClass("C1", "ROOT", (1, 3, 4)),
            TaxonomyClass("C2", "ROOT", ()),  # a component that won no row
            TaxonomyClass("C3", "ROOT", (0, 2)),
        ]
        assert model.labels() == ["C3", "C1", "C3", "C1", "C1"]


class TestModelSerialization:
    def test_json_round_trip(self, tmp_path):
        X, _ = two_blobs(seed=21, n=20)
        model = em_fit(X, 2, EMConfig(seed=0))
        path = tmp_path / "model.json"
        model.to_json(path)
        again = ClusterModel.from_json(path)
        assert np.array_equal(again.means, model.means)
        assert np.array_equal(again.assignments, model.assignments)
        assert again.log_likelihood == model.log_likelihood
        assert again.labels() == model.labels()
        chosen = select_k(X, 3, EMConfig(seed=0))  # with a BIC curve
        chosen.to_json(path)
        assert_same_fit(ClusterModel.from_json(path), chosen)

    def test_taxonomy_json(self, tmp_path):
        tax = agglomerative_hierarchy(ONE_D, "single")
        path = tmp_path / "tax.json"
        tax.to_json(path)
        import json

        doc = json.loads(path.read_text())
        assert doc["n"] == 4
        assert sorted(doc["root"]["indices"]) == [0, 1, 2, 3]
