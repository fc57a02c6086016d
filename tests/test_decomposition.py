import json

import numpy as np
import pytest

from nof.decomposition import (
    FactorDecomposition,
    FastIcaConfig,
    WhitenedData,
    center_and_whiten,
    fastica,
)
from nof.errors import ConfigError, NumericalError
from nof.pipeline import _PRESETS as PRESETS
from nof.testbed import EpochTensor, generate_dataset, p300_template, two_pattern_preset

from conftest import wrap_as_epochs
from helpers import (
    allocating_activations,
    allocating_fastica,
    traced_peak,
    var_center_and_whiten,
)


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

    @pytest.mark.parametrize("value", [7.3, 1 / 3])
    def test_constant_channel_off_its_float_mean_reported(self, montage, value):
        # the float mean of 25000 samples of 7.3 is not 7.3, so the variance
        # of this constant channel comes out near 1e-31, not 0
        _, templates = two_pattern_preset(montage)
        epochs = generate_dataset(templates, 0.1, 1.0, 100, seed=0, montage=montage)
        epochs.data[:, 5, :] = value
        with pytest.raises(NumericalError, match=f"{montage.channels[5]!r} is constant"):
            center_and_whiten(epochs)

    def test_components_ordered_by_eigenvalue(self):
        rng = np.random.default_rng(3)
        data = rng.standard_normal((3, 3000))
        data[0] *= 3.0
        white = center_and_whiten(wrap_as_epochs(data))
        # dewhitening's column j is eigenvector j scaled by the square root of
        # its eigenvalue
        assert np.all(np.diff(np.linalg.norm(white.dewhitening, axis=0)) < 0)

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

    def test_n_components_below_one_rejected(self):
        data = np.random.default_rng(5).standard_normal((2, 400))
        with pytest.raises(ConfigError, match=">= 1"):
            center_and_whiten(wrap_as_epochs(data), 0)

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


class TestFactorSpace:
    def test_mixing_reconstructs_retained_projection(self, two_pattern_epochs,
                                                      two_pattern_decomposition):
        white, dec = two_pattern_decomposition
        full = dec.mixing @ dec.activations(two_pattern_epochs)
        reconstructed = white.dewhitening @ white.whitened
        np.testing.assert_allclose(full, reconstructed, atol=1e-6)

    def test_planted_topography_recovered(self, montage):
        tpl = p300_template(montage)
        epochs = generate_dataset([tpl], mixing_noise=0.05, noise_std=0.3,
                                  n_trials=40, seed=19, montage=montage)
        white = center_and_whiten(epochs, 1)
        dec = fastica(white, FastIcaConfig(seed=3))
        topo = dec.mixing[:, 0]
        corr = np.corrcoef(topo, tpl.topography)[0, 1]
        assert abs(corr) >= 0.95


def _same_bytes(a, b, fields):
    return all(getattr(a, f).tobytes() == getattr(b, f).tobytes() for f in fields)


class TestInPlaceAgainstAllocatingOracles:
    """Whitening centers its one copy of the epochs in place and FastICA
    reuses two work arrays; both must equal, byte for byte, the forms that
    allocate a new array for every step."""

    @pytest.mark.parametrize("n_trials", [1, 2, 100])
    @pytest.mark.parametrize("noise_std", [0.0, 1.0])
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_bytes_equal_the_oracles(self, montage, preset, noise_std, n_trials):
        templates = PRESETS[preset](montage)
        for seed in range(4):
            epochs = generate_dataset(templates, 0.1, noise_std, n_trials, seed, montage)
            white = center_and_whiten(epochs)
            assert _same_bytes(white, var_center_and_whiten(epochs), (
                "whitened", "whitening", "dewhitening", "mean"))
            k = min(2, white.n_components)
            white = center_and_whiten(epochs, k)
            oracle_white = var_center_and_whiten(epochs, k)
            config = FastIcaConfig(seed=seed + 1)
            dec = fastica(white, config)
            oracle = allocating_fastica(oracle_white, config)
            assert _same_bytes(dec, oracle, ("unmixing", "mixing", "mean"))
            assert (dec.n_iter, dec.converged) == (oracle.n_iter, oracle.converged)
            assert dec.activations(epochs).tobytes() == allocating_activations(
                dec, epochs).tobytes()

    def test_unconverged_bytes_equal_the_oracle(self, two_pattern_epochs):
        white = center_and_whiten(two_pattern_epochs, 4)
        config = FastIcaConfig(seed=5, max_iter=3)
        with pytest.warns(RuntimeWarning, match="converge"):
            dec = fastica(white, config)
        with pytest.warns(RuntimeWarning, match="converge"):
            oracle = allocating_fastica(white, config)
        assert not dec.converged and dec.n_iter == oracle.n_iter == 3
        assert _same_bytes(dec, oracle, ("unmixing", "mixing"))

    def test_single_trial_epochs_left_unchanged(self, montage):
        # one trial concatenates to a reshape of epochs.data, which the
        # in-place centering must not write through
        _, templates = two_pattern_preset(montage)
        epochs = generate_dataset(templates, 0.1, 1.0, 1, seed=3, montage=montage)
        before = epochs.data.tobytes()
        dec = fastica(center_and_whiten(epochs, 2), FastIcaConfig(seed=4))
        assert epochs.data.tobytes() == before
        dec.activations(epochs)
        assert epochs.data.tobytes() == before


class TestOverwrite:
    """overwrite=True centers a channels-major tensor in its own buffer; the
    result is the same, byte for byte, as the default's and the oracle's."""

    FIELDS = ("whitened", "whitening", "dewhitening", "mean")

    @staticmethod
    def _channels_major(epochs, tmp_path):
        epochs.save(tmp_path)
        return EpochTensor.load(tmp_path, channels_major=True)

    @pytest.mark.parametrize("n_components", [None, 4])
    @pytest.mark.parametrize("n_trials", [1, 30])
    def test_bytes_equal_the_default_and_the_oracle(self, montage, tmp_path, n_trials,
                                                    n_components):
        _, templates = two_pattern_preset(montage)
        epochs = generate_dataset(templates, 0.1, 1.0, n_trials, seed=6, montage=montage)
        default = center_and_whiten(epochs, n_components)
        oracle = var_center_and_whiten(epochs, n_components)
        white = center_and_whiten(self._channels_major(epochs, tmp_path), n_components,
                                  overwrite=True)
        assert _same_bytes(white, default, self.FIELDS)
        assert _same_bytes(white, oracle, self.FIELDS)

    def test_centers_a_channels_major_tensor_in_place(self, two_pattern_epochs, tmp_path):
        epochs = self._channels_major(two_pattern_epochs, tmp_path)
        white = center_and_whiten(epochs, 4, overwrite=True)
        assert np.array_equal(epochs.data, two_pattern_epochs.data - white.mean[:, None])

    def test_default_leaves_a_channels_major_tensor_untouched(self, two_pattern_epochs,
                                                              tmp_path):
        epochs = self._channels_major(two_pattern_epochs, tmp_path)
        center_and_whiten(epochs, 4)
        assert epochs.data.tobytes() == two_pattern_epochs.data.tobytes()

    def test_trials_major_tensor_is_copied(self, two_pattern_epochs):
        before = two_pattern_epochs.data.tobytes()
        center_and_whiten(two_pattern_epochs, 4, overwrite=True)
        assert two_pattern_epochs.data.tobytes() == before


class TestPeakMemory:
    """Extra memory traced while a call runs, over epochs already loaded."""

    def test_whitening_holds_one_copy(self, two_pattern_epochs):
        white, peak = traced_peak(center_and_whiten, two_pattern_epochs, 4)
        assert peak <= two_pattern_epochs.data.nbytes + white.whitened.nbytes + 64 * 1024

    def test_overwrite_holds_no_copy(self, two_pattern_epochs, tmp_path):
        two_pattern_epochs.save(tmp_path)
        epochs = EpochTensor.load(tmp_path, channels_major=True)
        white, peak = traced_peak(center_and_whiten, epochs, 4, overwrite=True)
        assert peak <= white.whitened.nbytes + 64 * 1024

    def test_activations_hold_one_copy(self, two_pattern_epochs, two_pattern_decomposition):
        _, dec = two_pattern_decomposition
        act, peak = traced_peak(dec.activations, two_pattern_epochs)
        assert peak <= two_pattern_epochs.data.nbytes + act.nbytes + 64 * 1024

    def test_fastica_no_more_than_the_allocating_form(self, two_pattern_epochs):
        white = center_and_whiten(two_pattern_epochs, 4)
        config = FastIcaConfig(seed=8)
        _, peak = traced_peak(fastica, white, config)
        _, oracle_peak = traced_peak(allocating_fastica, white, config)
        # two k x n work arrays where the allocating form peaks at three
        assert peak <= oracle_peak - white.whitened.nbytes + 64 * 1024
