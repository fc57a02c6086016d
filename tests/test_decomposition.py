import json

import numpy as np
import pytest

from nof.decomposition import (
    FactorDecomposition,
    FastIcaConfig,
    WhitenedData,
    backproject,
    center_and_whiten,
    fastica,
)
from nof.errors import ConfigError, NumericalError
from nof.testbed import EpochTensor, generate_dataset, p300_template

from conftest import wrap_as_epochs


def laplace_sources(rng, k, n):
    s = rng.laplace(size=(k, n))
    s -= s.mean(axis=1, keepdims=True)
    s /= s.std(axis=1, keepdims=True)
    return s


def match_factors(estimated, truth):
    """Greedy |corr| matching; returns the matched |corr| per true source."""
    corr = np.corrcoef(np.vstack([estimated, truth]))[: len(estimated), len(estimated):]
    corr = np.abs(corr)
    matched = []
    used = set()
    for j in range(truth.shape[0]):
        order = np.argsort(-corr[:, j])
        pick = next(i for i in order if i not in used)
        used.add(pick)
        matched.append(corr[pick, j])
    return matched


class TestWhitening:
    def test_diagonal_scaling_example(self):
        rng = np.random.default_rng(0)
        raw = rng.standard_normal((2, 2000))
        raw[0] *= 2.0  # sample covariance ~ diag(4, 1)
        epochs = wrap_as_epochs(raw, n_trials=4)
        white = center_and_whiten(epochs)
        cov = np.cov(white.whitened)
        np.testing.assert_allclose(cov, np.eye(2), atol=1e-10)

    def test_random_input_cov_identity(self):
        rng = np.random.default_rng(1)
        epochs = wrap_as_epochs(rng.standard_normal((4, 1000)), n_trials=2)
        white = center_and_whiten(epochs)
        cov = np.cov(white.whitened)
        np.testing.assert_allclose(cov, np.eye(4), atol=1e-8)

    def test_constant_channel_reported_by_name(self):
        rng = np.random.default_rng(2)
        data = rng.standard_normal((3, 300))
        data[1] = 7.5
        epochs = wrap_as_epochs(data)
        with pytest.raises(NumericalError, match="ch1"):
            center_and_whiten(epochs)

    def test_components_ordered_by_eigenvalue(self):
        rng = np.random.default_rng(3)
        data = rng.standard_normal((3, 3000))
        data[0] *= 3.0
        white = center_and_whiten(wrap_as_epochs(data))
        assert np.all(np.diff(white.eigenvalues) <= 0)

    def test_whitening_dewhitening_identity(self):
        rng = np.random.default_rng(4)
        white = center_and_whiten(wrap_as_epochs(rng.standard_normal((5, 800))))
        np.testing.assert_allclose(
            white.whitening @ white.dewhitening, np.eye(5), atol=1e-8
        )

    def test_n_components_beyond_rank_rejected(self):
        rng = np.random.default_rng(5)
        base = rng.standard_normal((2, 400))
        data = np.vstack([base, base[0] + base[1]])  # rank 2
        with pytest.raises(NumericalError, match="rank"):
            center_and_whiten(wrap_as_epochs(data), 3)

    def test_variance_threshold_selection(self):
        rng = np.random.default_rng(6)
        data = rng.standard_normal((2, 5000))
        data[0] *= 2.0  # eigenvalues ~ (4, 1): top component ~ 80% variance
        assert center_and_whiten(wrap_as_epochs(data), 0.7).n_components == 1
        assert center_and_whiten(wrap_as_epochs(data), 0.99).n_components == 2

    def test_retained_variance_fraction(self):
        rng = np.random.default_rng(7)
        data = rng.standard_normal((2, 5000))
        data[0] *= 2.0
        white = center_and_whiten(wrap_as_epochs(data), 1)
        assert 0.7 <= white.retained_variance <= 0.9

    def test_whitening_already_white_data_changes_nothing(self):
        rng = np.random.default_rng(8)
        white = center_and_whiten(wrap_as_epochs(rng.standard_normal((4, 2000)), n_trials=4))
        again = center_and_whiten(wrap_as_epochs(white.whitened, n_trials=4))
        np.testing.assert_allclose(np.cov(again.whitened), np.eye(4), atol=1e-8)

    def test_too_few_samples_rejected(self):
        rng = np.random.default_rng(9)
        with pytest.raises(ConfigError):
            center_and_whiten(wrap_as_epochs(rng.standard_normal((5, 5))))


def identity_whitened(sources):
    k, n = sources.shape
    return WhitenedData(
        whitened=sources,
        whitening=np.eye(k),
        dewhitening=np.eye(k),
        mean=np.zeros(k),
        retained_variance=1.0,
        eigenvalues=np.ones(k),
        channels=tuple(f"ch{i}" for i in range(k)),
        n_trials=1,
        n_timepoints=n,
    )


class TestFastIca:
    def test_independent_input_gives_signed_permutation(self):
        rng = np.random.default_rng(10)
        sources = laplace_sources(rng, 2, 20000)
        dec = fastica(identity_whitened(sources), FastIcaConfig(seed=0))
        for row in dec.unmixing:
            assert np.max(np.abs(row)) >= 0.99

    def test_two_laplace_sources_recovered(self):
        rng = np.random.default_rng(11)
        sources = laplace_sources(rng, 2, 20000)
        mixed = np.array([[2.0, 1.0], [1.0, 1.0]]) @ sources
        epochs = wrap_as_epochs(mixed, n_trials=4)
        dec = fastica(center_and_whiten(epochs), FastIcaConfig(seed=1))
        matched = match_factors(dec.activations(epochs), sources)
        assert all(r >= 0.95 for r in matched)

    def test_more_factors_than_components_rejected(self):
        rng = np.random.default_rng(12)
        white = center_and_whiten(wrap_as_epochs(rng.standard_normal((3, 600))), 2)
        with pytest.raises(ConfigError):
            fastica(white, FastIcaConfig(n_factors=3))

    def test_unmixing_mixing_identity(self, two_pattern_decomposition):
        _, dec = two_pattern_decomposition
        np.testing.assert_allclose(
            dec.unmixing @ dec.mixing, np.eye(dec.n_factors), atol=1e-6
        )

    def test_unit_variance_activations(self, two_pattern_epochs, two_pattern_decomposition):
        _, dec = two_pattern_decomposition
        np.testing.assert_allclose(
            dec.activations(two_pattern_epochs).std(axis=1), 1.0, atol=1e-9
        )

    def test_sign_convention_peak_channel_positive(self, two_pattern_decomposition):
        _, dec = two_pattern_decomposition
        for j in range(dec.n_factors):
            topo = dec.mixing[:, j]
            assert topo[int(np.argmax(np.abs(topo)))] > 0

    def test_rotation_rows_orthonormal(self, two_pattern_decomposition):
        # normalized rows of (unmixing . dewhitening) must be orthonormal
        white, dec = two_pattern_decomposition
        M = dec.unmixing @ white.dewhitening
        M = M / np.linalg.norm(M, axis=1, keepdims=True)
        np.testing.assert_allclose(M @ M.T, np.eye(M.shape[0]), atol=1e-6)

    def test_seeded_determinism_bit_identical(self):
        rng = np.random.default_rng(13)
        sources = laplace_sources(rng, 3, 5000)
        mix = np.random.default_rng(14).standard_normal((6, 3))
        epochs = wrap_as_epochs(mix @ sources, n_trials=5)
        white = center_and_whiten(epochs, 3)
        a = fastica(white, FastIcaConfig(seed=21))
        b = fastica(white, FastIcaConfig(seed=21))
        assert np.array_equal(a.unmixing, b.unmixing)
        assert np.array_equal(a.activations(epochs), b.activations(epochs))
        assert np.array_equal(a.mixing, b.mixing)

    def test_amari_style_diagonal_dominance(self):
        rng = np.random.default_rng(15)
        sources = laplace_sources(rng, 3, 20000)
        mix = rng.standard_normal((8, 3))
        epochs = wrap_as_epochs(mix @ sources, n_trials=4)
        dec = fastica(center_and_whiten(epochs, 3), FastIcaConfig(seed=2))
        gain = dec.unmixing @ mix
        gain = gain / np.max(np.abs(gain), axis=1, keepdims=True)
        dominant = set()
        for row in gain:
            j = int(np.argmax(np.abs(row)))
            assert j not in dominant, "two rows share a dominant source"
            dominant.add(j)
            off = np.delete(np.abs(row), j)
            assert np.max(off) <= 0.2

    def test_nonconvergence_flagged(self):
        rng = np.random.default_rng(16)
        sources = laplace_sources(rng, 2, 4000)
        white = identity_whitened(sources)
        with pytest.warns(RuntimeWarning, match="converge"):
            dec = fastica(white, FastIcaConfig(seed=0, max_iter=1))
        assert not dec.converged

    def test_cube_contrast_available(self):
        rng = np.random.default_rng(17)
        sources = laplace_sources(rng, 2, 20000)
        dec = fastica(identity_whitened(sources), FastIcaConfig(seed=0, contrast="cube"))
        matched = match_factors(dec.activations(wrap_as_epochs(sources)), sources)
        assert all(r >= 0.95 for r in matched)

    def test_unknown_contrast_rejected(self):
        rng = np.random.default_rng(18)
        white = identity_whitened(laplace_sources(rng, 2, 100))
        with pytest.raises(ConfigError):
            fastica(white, FastIcaConfig(contrast="nope"))

    def test_json_round_trip(self, tmp_path, two_pattern_decomposition):
        _, dec = two_pattern_decomposition
        path = tmp_path / "dec.json"
        dec.to_json(path)
        again = FactorDecomposition.from_json(path)
        assert np.array_equal(again.unmixing, dec.unmixing)
        assert np.array_equal(again.mixing, dec.mixing)
        assert np.array_equal(again.mean, dec.mean)
        assert again.channels == dec.channels
        assert again.converged == dec.converged
        assert again.factor_ids == dec.factor_ids
        assert again.n_trials == dec.n_trials

    def test_json_holds_only_the_model(self, tmp_path, two_pattern_decomposition):
        _, dec = two_pattern_decomposition
        path = tmp_path / "dec.json"
        dec.to_json(path)
        assert set(json.loads(path.read_text())) == {
            "factor_ids", "channels", "unmixing", "mixing", "mean",
            "converged", "n_iter", "n_trials", "n_timepoints",
        }

    def test_activations_reject_other_epoch_shape(self, two_pattern_epochs,
                                                   two_pattern_decomposition):
        _, dec = two_pattern_decomposition
        data = two_pattern_epochs.data[:-1]
        shorter = EpochTensor(data=data, fs=two_pattern_epochs.fs,
                              t0=two_pattern_epochs.t0, montage=two_pattern_epochs.montage,
                              trial_info=two_pattern_epochs.trial_info[:-1])
        with pytest.raises(ConfigError, match="epoch tensor shape"):
            dec.activations(shorter)


class TestBackproject:
    def test_full_subset_reconstructs_retained_projection(self, two_pattern_epochs,
                                                           two_pattern_decomposition):
        white, dec = two_pattern_decomposition
        full = backproject(dec, list(dec.factor_ids), two_pattern_epochs)
        reconstructed = white.dewhitening @ white.whitened
        np.testing.assert_allclose(full, reconstructed, atol=1e-6)

    def test_complement_pair_linearity(self, two_pattern_epochs, two_pattern_decomposition):
        _, dec = two_pattern_decomposition
        ids = list(dec.factor_ids)
        left = backproject(dec, ids[:1], two_pattern_epochs)
        right = backproject(dec, ids[1:], two_pattern_epochs)
        both = backproject(dec, ids, two_pattern_epochs)
        np.testing.assert_allclose(left + right, both, atol=1e-10)

    def test_unknown_factor_rejected(self, two_pattern_epochs, two_pattern_decomposition):
        _, dec = two_pattern_decomposition
        with pytest.raises(ConfigError, match="unknown factor"):
            backproject(dec, ["FA99"], two_pattern_epochs)

    def test_empty_subset_rejected(self, two_pattern_epochs, two_pattern_decomposition):
        _, dec = two_pattern_decomposition
        with pytest.raises(ConfigError):
            backproject(dec, [], two_pattern_epochs)

    def test_planted_topography_recovered(self, montage):
        tpl = p300_template(montage)
        epochs = generate_dataset([tpl], mixing_noise=0.05, noise_std=0.3,
                                  n_trials=40, seed=19, montage=montage)
        white = center_and_whiten(epochs, 1)
        dec = fastica(white, FastIcaConfig(seed=3))
        topo = dec.mixing[:, 0]
        corr = np.corrcoef(topo, tpl.topography)[0, 1]
        assert abs(corr) >= 0.95
        # and via the back-projected single-factor signal: its dominant
        # spatial direction must also match the planted topography
        contribution = backproject(dec, ["FA1"], epochs)
        u, _, _ = np.linalg.svd(contribution, full_matrices=False)
        corr = np.corrcoef(u[:, 0], tpl.topography)[0, 1]
        assert abs(corr) >= 0.95
