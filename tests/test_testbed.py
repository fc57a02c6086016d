import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nof.errors import ConfigError, NumericalError
from nof.pipeline import _PRESETS as PRESETS
from nof.testbed import (
    ChannelMontage,
    EpochTensor,
    SourceTemplate,
    average_epochs,
    default_montage,
    gaussian_source,
    generate_dataset,
    p300_template,
    two_pattern_preset,
)

from conftest import make_montage
from helpers import loop_generate_dataset, traced_peak


class TestMontage:
    def test_default_montage_shape(self):
        m = default_montage()
        assert len(m.channels) == 32
        assert len(set(m.channels)) == 32
        assert all(c in m.roi_of for c in m.channels)
        assert "frontal" in m.rois() and "occipital" in m.rois()

    def test_roi_lookup(self):
        m = default_montage()
        assert m.roi("Fz") == "frontal"
        assert m.roi("Oz") == "occipital"

    def test_too_few_channels_rejected(self):
        with pytest.raises(ConfigError):
            ChannelMontage(("only",), {"only": "roi"})

    def test_duplicate_channels_rejected(self):
        with pytest.raises(ConfigError):
            ChannelMontage(("a", "a"), {"a": "roi"})

    def test_missing_roi_rejected(self):
        with pytest.raises(ConfigError):
            ChannelMontage(("a", "b"), {"a": "roi"})

    def test_csv_lists_each_channel_and_its_roi(self, tmp_path):
        m = default_montage()
        path = tmp_path / "montage.csv"
        m.save_csv(path)
        assert path.read_text().splitlines() == ["channel,roi"] + [
            f"{c},{m.roi(c)}" for c in m.channels]


class TestSourceTemplate:
    def test_polarity_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            SourceTemplate(
                name="bad",
                topography=np.ones(3),
                waveform=np.array([0.0, -1.0, 0.0]),
                fs=100.0,
                peak_latency_ms=10.0,
                polarity="positive",
            )

    def test_peak_outside_window_rejected(self):
        with pytest.raises(ConfigError):
            gaussian_source("x", np.ones(3), fs=100.0, n_samples=10,
                            peak_ms=500.0, width_ms=10.0, amplitude=1.0)

    def test_gaussian_source_peaks_where_asked(self):
        t = gaussian_source("x", np.ones(4), fs=250.0, n_samples=250,
                            peak_ms=400.0, width_ms=50.0, amplitude=2.0)
        peak_idx = int(np.argmax(t.waveform))
        assert peak_idx == 100  # 400 ms at 250 Hz
        assert t.polarity == "positive"


class TestGenerateDataset:
    def test_zero_noise_identity(self, montage):
        tpl = p300_template(montage)
        epochs = generate_dataset([tpl], mixing_noise=0.0, noise_std=0.0,
                                  n_trials=5, seed=0, montage=montage)
        expected = np.outer(tpl.topography, tpl.waveform)
        for i in range(5):
            assert np.array_equal(epochs.data[i], expected)

    def test_p300_preset_average_peaks_late_and_frontal(self, montage):
        tpl = p300_template(montage)
        epochs = generate_dataset([tpl], mixing_noise=0.05, noise_std=1.0,
                                  n_trials=80, seed=2, montage=montage)
        avg = average_epochs(epochs)[()]
        fz = montage.index("Fz")
        peak_idx = int(np.argmax(np.abs(avg[fz])))
        peak_ms = epochs.t0 + peak_idx * 1000.0 / epochs.fs
        assert 300.0 <= peak_ms <= 500.0
        assert avg[fz, peak_idx] > 0
        frontal_idx = [i for i, c in enumerate(montage.channels) if montage.roi(c) == "frontal"]
        assert avg[frontal_idx, peak_idx].mean() > 0

    def test_noise_has_the_requested_std(self, montage):
        _, templates = two_pattern_preset(montage)
        noisy = generate_dataset(templates, mixing_noise=0.0, noise_std=2.5,
                                 n_trials=50, seed=7, montage=montage)
        clean = generate_dataset(templates, mixing_noise=0.0, noise_std=0.0,
                                 n_trials=50, seed=7, montage=montage)
        assert abs(np.std(noisy.data - clean.data) / 2.5 - 1.0) <= 0.05

    def test_deterministic_for_seed(self, montage):
        _, templates = two_pattern_preset(montage)
        a = generate_dataset(templates, 0.1, 1.0, 10, seed=42, montage=montage)
        b = generate_dataset(templates, 0.1, 1.0, 10, seed=42, montage=montage)
        assert np.array_equal(a.data, b.data)
        assert a.trial_info == b.trial_info

    def test_conditions_cycle_round_robin(self, montage):
        tpl = p300_template(montage)
        conds = [{"EVENT": "stimon", "STIM": "a", "MOD": "visual"},
                 {"EVENT": "respon", "STIM": "b", "MOD": "auditory"}]
        epochs = generate_dataset([tpl], 0.0, 0.0, 5, seed=0,
                                  montage=montage, conditions=conds)
        stims = [t["STIM"] for t in epochs.trial_info]
        assert stims == ["a", "b", "a", "b", "a"]

    def test_empty_templates_rejected(self, montage):
        with pytest.raises(ConfigError):
            generate_dataset([], 0.0, 0.0, 1, seed=0, montage=montage)

    def test_mismatched_windows_rejected(self, montage):
        a = p300_template(montage, n_samples=250)
        b = p300_template(montage, n_samples=200)
        with pytest.raises(ConfigError, match="window"):
            generate_dataset([a, b], 0.0, 0.0, 1, seed=0, montage=montage)

    def test_negative_noise_rejected(self, montage):
        tpl = p300_template(montage)
        with pytest.raises(ConfigError):
            generate_dataset([tpl], 0.0, -1.0, 1, seed=0, montage=montage)


class TestGeneratorInPlace:
    """generate_dataset writes into one array and must equal, byte for byte,
    the loop that sums each trial into a zero array and adds the scaled
    noise draw afterwards."""

    @pytest.mark.parametrize("n_trials", [1, 2, 100])
    @pytest.mark.parametrize("noise_std", [0.0, 1.0])
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_bytes_equal_the_loop(self, montage, preset, noise_std, n_trials):
        templates = PRESETS[preset](montage)
        for seed in range(4):
            epochs = generate_dataset(templates, 0.1, noise_std, n_trials, seed, montage)
            oracle = loop_generate_dataset(templates, 0.1, noise_std, n_trials, seed)
            assert epochs.data.tobytes() == oracle.tobytes()

    def test_zero_weight_channel_stays_positive_zero(self, montage):
        # 0.0 * a negative waveform is -0.0, and so is 0.0 * a negative noise
        # sample; the loop adds them to +0.0 and writes +0.0
        topo = np.ones(len(montage.channels))
        topo[3] = 0.0
        templates = [
            gaussian_source("N1", topo, 250.0, 250, 100.0, 20.0, -3.0),
            gaussian_source("N2", topo * 0.5, 250.0, 250, 300.0, 40.0, -2.0),
        ]
        epochs = generate_dataset(templates, 0.1, 0.0, 6, seed=1, montage=montage)
        oracle = loop_generate_dataset(templates, 0.1, 0.0, 6, seed=1)
        assert epochs.data.tobytes() == oracle.tobytes()
        assert not np.signbit(epochs.data[:, 3]).any()

    def test_peak_memory_is_one_tensor(self, montage):
        templates = PRESETS["two_pattern"](montage)
        epochs, peak = traced_peak(generate_dataset, templates, 0.1, 1.0, 100, 7, montage)
        trial_bytes = epochs.data[0].nbytes
        # the tensor, one pattern per template, the signal and its term
        bound = epochs.data.nbytes + (len(templates) + 2) * trial_bytes
        assert peak <= bound + 64 * 1024


class TestAverageEpochs:
    def _tensor(self, data, info=None):
        m = make_montage({"a": "r", "b": "r"})
        n = len(data)
        info = info or [{"EVENT": "e", "STIM": "s", "MOD": "m"}] * n
        return EpochTensor(np.asarray(data, dtype=float), fs=100.0, t0=0.0,
                           montage=m, trial_info=info)

    def test_two_identical_trials(self):
        trial = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
        epochs = self._tensor([trial, trial])
        assert np.array_equal(average_epochs(epochs)[()], np.asarray(trial))

    def test_opposite_trials_cancel(self):
        v = np.array([[1.0, -2.0, 0.5], [3.0, 0.0, -1.0]])
        epochs = self._tensor([v, -v])
        assert np.array_equal(average_epochs(epochs)[()], np.zeros_like(v))

    def test_noise_rms_scales_with_inverse_sqrt_n(self, montage):
        tpl = p300_template(montage)
        rms = {}
        for n in (10, 40):
            noisy = generate_dataset([tpl], 0.0, 1.0, n, seed=5, montage=montage)
            clean = generate_dataset([tpl], 0.0, 0.0, n, seed=5, montage=montage)
            residual = average_epochs(noisy)[()] - average_epochs(clean)[()]
            rms[n] = np.sqrt(np.mean(residual**2))
        assert abs(rms[40] / rms[10] - 0.5) <= 0.1  # 0.5 plus/minus 20%

    def test_grouping_counts(self):
        info = [
            {"EVENT": "e1", "STIM": "s1", "MOD": "m"},
            {"EVENT": "e1", "STIM": "s2", "MOD": "m"},
            {"EVENT": "e2", "STIM": "s1", "MOD": "m"},
        ]
        epochs = self._tensor([np.ones((2, 3)) * i for i in range(3)], info)
        by_event = average_epochs(epochs, ["EVENT"])
        assert set(by_event) == {("e1",), ("e2",)}
        assert np.array_equal(by_event[("e1",)], np.ones((2, 3)) * 0.5)
        by_both = average_epochs(epochs, ["EVENT", "STIM"])
        assert len(by_both) == 3

    def test_missing_key_rejected(self):
        epochs = self._tensor([np.ones((2, 3))])
        with pytest.raises(ConfigError):
            average_epochs(epochs, ["NOPE"])

    def test_zero_trials_rejected(self):
        m = make_montage({"a": "r", "b": "r"})
        empty = EpochTensor(np.zeros((0, 2, 3)), fs=10.0, t0=0.0,
                            montage=m, trial_info=[])
        with pytest.raises(NumericalError):
            average_epochs(empty)

    @settings(max_examples=25, deadline=None)
    @given(scale=st.floats(-5, 5, allow_nan=False))
    def test_averaging_linearity(self, scale):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(4, 2, 5))
        m = ChannelMontage(("a", "b"), {"a": "r", "b": "r"})
        info = [{"EVENT": "e", "STIM": "s", "MOD": "m"}] * 4
        base = EpochTensor(data.copy(), 100.0, 0.0, m, info)
        scaled = EpochTensor(scale * data, 100.0, 0.0, m, info)
        np.testing.assert_allclose(
            average_epochs(scaled)[()],
            scale * average_epochs(base)[()],
            rtol=1e-13,
            atol=1e-13,
        )


class TestEpochContainer:
    def test_save_load_round_trip(self, tmp_path, montage):
        _, templates = two_pattern_preset(montage)
        epochs = generate_dataset(templates, 0.1, 0.5, 6, seed=1, montage=montage)
        epochs.save(tmp_path / "epochs")
        loaded = EpochTensor.load(tmp_path / "epochs")
        assert np.array_equal(loaded.data, epochs.data)
        assert loaded.fs == epochs.fs and loaded.t0 == epochs.t0
        assert loaded.montage == epochs.montage
        assert loaded.trial_info == epochs.trial_info

    @pytest.mark.parametrize("n_trials", [1, 6])
    @pytest.mark.parametrize("version", [(1, 0), (2, 0)])
    @pytest.mark.parametrize("dtype", ["<f8", ">f8", "<f4"])
    def test_channels_major_load_equals_the_default(self, tmp_path, montage, n_trials,
                                                    version, dtype):
        _, templates = two_pattern_preset(montage)
        epochs = generate_dataset(templates, 0.1, 0.5, n_trials, seed=2, montage=montage)
        epochs.save(tmp_path)
        _save_raw(tmp_path / "data.npy", epochs.data.astype(dtype), version=version)
        default = EpochTensor.load(tmp_path)
        loaded = EpochTensor.load(tmp_path, channels_major=True)
        assert loaded.data.shape == default.data.shape
        assert loaded.data.dtype == default.data.dtype == np.float64
        assert np.array_equal(loaded.data, default.data)
        assert loaded.data.transpose(1, 0, 2).flags.c_contiguous
        assert loaded.montage == default.montage and loaded.trial_info == default.trial_info


def _save_raw(path, data, **kwargs):
    with open(path, "wb") as fh:
        np.lib.format.write_array(fh, data, **kwargs)


class TestChannelsMajorRejectsMalformedData:
    """Every malformed data.npy raises ConfigError naming the file."""

    @pytest.fixture
    def container(self, tmp_path, montage):
        _, templates = two_pattern_preset(montage)
        epochs = generate_dataset(templates, 0.1, 1.0, 4, seed=1, montage=montage)
        epochs.save(tmp_path)
        return tmp_path, epochs.data

    def _rejects(self, directory, match):
        with pytest.raises(ConfigError, match=match) as info:
            EpochTensor.load(directory, channels_major=True)
        assert str(directory / "data.npy") in str(info.value)

    @pytest.mark.parametrize("cut", [1, 8 * 250, 4 * 32 * 250 * 8])
    def test_truncated(self, container, cut):
        directory, _ = container
        path = directory / "data.npy"
        path.write_bytes(path.read_bytes()[:-cut])
        self._rejects(directory, "truncated")

    def test_header_cut_short(self, container):
        directory, _ = container
        path = directory / "data.npy"
        path.write_bytes(path.read_bytes()[:20])
        self._rejects(directory, "EOF")

    def test_shape_differs_from_meta(self, container):
        directory, data = container
        _save_raw(directory / "data.npy", data[:-1])
        self._rejects(directory, r"data shape \[3, 32, 250\] disagrees with meta")

    def test_fortran_order(self, container):
        directory, data = container
        _save_raw(directory / "data.npy", np.asfortranarray(data))
        self._rejects(directory, "Fortran order")

    def test_object_dtype(self, container):
        directory, data = container
        _save_raw(directory / "data.npy", data.astype(object), allow_pickle=True)
        self._rejects(directory, "unsupported data dtype object")

    def test_unsupported_format_version(self, container):
        directory, data = container
        _save_raw(directory / "data.npy", data, version=(3, 0))
        self._rejects(directory, r"unsupported \.npy format version \(3, 0\)")
