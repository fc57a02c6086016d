import numpy as np
import pytest

from nof.decomposition import FactorDecomposition, FastIcaConfig, center_and_whiten, fastica
from nof.errors import ConfigError
from nof.features import (
    COLUMNS,
    FactorSummary,
    conditions_of,
    extract_summary,
    read_summary_csv,
    summarize_dataset,
    write_summary_csv,
)
from nof.testbed import EpochTensor, generate_dataset, p300_template

from conftest import make_montage

HEADER = "SP_max,SP_max_ROI,SP_min,SP_min_ROI,IN_min,IN_max,IN_mean,ROI,SP_cor,TI_max,EVENT,STIM,MOD"


def manual_setup(mixing, activations, montage, fs=250.0, t0=0.0, n_trials=1,
                 info=None):
    """Build a decomposition plus matching epochs from explicit matrices."""
    mixing = np.asarray(mixing, dtype=float)
    activations = np.asarray(activations, dtype=float)
    n_channels, n_factors = mixing.shape
    samples = activations.shape[1]
    n_tp = samples // n_trials
    dec = FactorDecomposition(
        unmixing=np.linalg.pinv(mixing),
        mixing=mixing,
        factor_ids=tuple(f"FA{i + 1}" for i in range(n_factors)),
        channels=tuple(montage.channels),
        mean=np.zeros(n_channels),
        converged=True,
        n_iter=1,
        n_trials=n_trials,
        n_timepoints=n_tp,
    )
    data = (mixing @ activations).reshape(n_channels, n_trials, n_tp).transpose(1, 0, 2)
    info = info or [{"EVENT": "stimon", "STIM": "s1", "MOD": "visual"}] * n_trials
    epochs = EpochTensor(data=data, fs=fs, t0=t0, montage=montage, trial_info=info)
    return dec, epochs


TRIO = {"Fz": "frontal", "Cz": "central", "Oz": "occipital"}


class TestExtractSummary:
    def test_argmax_channels_and_rois(self):
        m = make_montage(TRIO)
        dec, epochs = manual_setup([[0.9], [0.1], [-0.4]], np.ones((1, 8)), m, n_trials=2)
        row = extract_summary(dec, epochs, "FA1", {"EVENT": "stimon"},
                              template=np.array([0.9, 0.1, -0.4]))
        assert row.sp_max == "Fz" and row.sp_max_roi == "frontal"
        assert row.sp_min == "Oz" and row.sp_min_roi == "occipital"
        assert row.roi == "frontal"

    def test_latency_index_arithmetic(self):
        m = make_montage(TRIO)
        act = np.zeros((1, 250))
        act[0, 100] = 1.0
        dec, epochs = manual_setup([[1.0], [0.5], [0.2]], act, m, fs=250.0, t0=0.0)
        row = extract_summary(dec, epochs, "FA1", {}, template=np.array([1.0, 0.5, 0.2]))
        assert row.ti_max == 400.0

    def test_latency_respects_t0(self):
        m = make_montage(TRIO)
        act = np.zeros((1, 250))
        act[0, 100] = 1.0
        dec, epochs = manual_setup([[1.0], [0.5], [0.2]], act, m, fs=250.0, t0=-200.0)
        row = extract_summary(dec, epochs, "FA1", {}, template=np.array([1.0, 0.5, 0.2]))
        assert row.ti_max == 200.0

    def test_self_correlation_is_one(self):
        m = make_montage(TRIO)
        topo = np.array([0.9, 0.1, -0.4])
        dec, epochs = manual_setup(topo[:, None], np.ones((1, 8)), m, n_trials=2)
        row = extract_summary(dec, epochs, "FA1", {}, template=topo)
        assert abs(row.sp_cor - 1.0) <= 1e-12

    def test_template_sign_flip_negates_correlation_exactly(self):
        m = make_montage(TRIO)
        topo = np.array([0.9, 0.1, -0.4])
        dec, epochs = manual_setup(topo[:, None], np.ones((1, 8)), m, n_trials=2)
        template = np.array([0.7, -0.2, 0.1])
        plus = extract_summary(dec, epochs, "FA1", {}, template=template)
        minus = extract_summary(dec, epochs, "FA1", {}, template=-template)
        assert plus.sp_cor == -minus.sp_cor

    def test_positive_scaling_leaves_argmax_attributes_unchanged(self):
        m = make_montage(TRIO)
        topo = np.array([0.9, 0.1, -0.4])
        act = np.linspace(-1, 1, 8)[None, :]
        base, epochs = manual_setup(topo[:, None], act, m, n_trials=2)
        scaled, epochs2 = manual_setup(2.5 * topo[:, None], act, m, n_trials=2)
        t = np.array([1.0, 0.0, 0.0])
        a = extract_summary(base, epochs, "FA1", {}, template=t)
        b = extract_summary(scaled, epochs2, "FA1", {}, template=t)
        assert (a.sp_max, a.sp_min, a.sp_max_roi, a.sp_min_roi) == (
            b.sp_max, b.sp_min, b.sp_max_roi, b.sp_min_roi
        )

    def test_amplitudes_at_peak_channel(self):
        m = make_montage(TRIO)
        act = np.array([[1.0, -2.0, 3.0, 0.0]])
        dec, epochs = manual_setup([[2.0], [1.0], [0.5]], act, m)
        row = extract_summary(dec, epochs, "FA1", {}, template=np.array([1.0, 0, 0]),
                              mean_channel_set=("Fz",))
        # waveform at Fz is 2 * activation
        assert row.in_min == -4.0 and row.in_max == 6.0
        assert row.in_mean == pytest.approx(2 * act.mean())

    def test_ti_max_uses_absolute_peak(self):
        m = make_montage(TRIO)
        act = np.array([[0.5, -3.0, 1.0, 0.0]])
        dec, epochs = manual_setup([[1.0], [0.2], [0.1]], act, m, fs=1000.0)
        row = extract_summary(dec, epochs, "FA1", {}, template=np.array([1.0, 0, 0]))
        assert row.ti_max == 1.0  # sample index 1 at 1 kHz

    def test_all_zero_activation_degenerate(self):
        m = make_montage(TRIO)
        dec, epochs = manual_setup([[1.0], [0.5], [0.2]], np.zeros((1, 10)), m, t0=-40.0)
        with pytest.warns(UserWarning, match="all-zero"):
            row = extract_summary(dec, epochs, "FA1", {}, template=np.array([1.0, 0, 0]))
        assert row.in_min == row.in_max == row.in_mean == 0.0
        assert row.ti_max == -40.0

    def test_tie_in_argmax_warns_and_uses_lowest_index(self):
        m = make_montage(TRIO)
        dec, epochs = manual_setup([[0.5], [0.5], [-0.5]], np.ones((1, 8)), m, n_trials=2)
        with pytest.warns(UserWarning, match="tie"):
            row = extract_summary(dec, epochs, "FA1", {}, template=np.array([1.0, 0, 0]))
        assert row.sp_max == "Fz"

    def test_empty_condition_rejected(self):
        m = make_montage(TRIO)
        dec, epochs = manual_setup([[1.0], [0.5], [0.2]], np.ones((1, 8)), m, n_trials=2)
        with pytest.raises(ConfigError, match="no trials"):
            extract_summary(dec, epochs, "FA1", {"EVENT": "nope"},
                            template=np.array([1.0, 0, 0]))

    def test_template_length_mismatch_rejected(self):
        m = make_montage(TRIO)
        dec, epochs = manual_setup([[1.0], [0.5], [0.2]], np.ones((1, 8)), m, n_trials=2)
        with pytest.raises(ConfigError, match="template"):
            extract_summary(dec, epochs, "FA1", {}, template=np.array([1.0, 0.5]))

    def test_empty_mean_channel_set_rejected(self):
        m = make_montage(TRIO)
        dec, epochs = manual_setup([[1.0], [0.5], [0.2]], np.ones((1, 8)), m, n_trials=2)
        with pytest.raises(ConfigError, match="nonempty"):
            extract_summary(dec, epochs, "FA1", {}, template=np.array([1.0, 0, 0]),
                            mean_channel_set=())

    def test_montage_mismatch_rejected(self):
        dec, epochs = manual_setup([[1.0], [0.5], [0.2]], np.ones((1, 8)),
                                   make_montage(TRIO), n_trials=2)
        other = make_montage({"Fp1": "frontal", "Cz": "central", "Oz": "occipital"})
        renamed = EpochTensor(data=epochs.data, fs=epochs.fs, t0=epochs.t0,
                              montage=other, trial_info=epochs.trial_info)
        with pytest.raises(ConfigError, match="montage"):
            extract_summary(dec, renamed, "FA1", {}, template=np.array([1.0, 0, 0]))

    def test_ti_max_on_sample_grid(self):
        m = make_montage(TRIO)
        rng = np.random.default_rng(0)
        dec, epochs = manual_setup([[1.0], [0.4], [0.2]],
                                   rng.normal(size=(1, 50)), m, fs=250.0, t0=-100.0)
        row = extract_summary(dec, epochs, "FA1", {}, template=np.array([1.0, 0, 0]))
        steps = (row.ti_max - epochs.t0) * epochs.fs / 1000.0
        assert abs(steps - round(steps)) < 1e-9

    def test_planted_p300_attributes(self, montage):
        tpl = p300_template(montage)
        epochs = generate_dataset([tpl], mixing_noise=0.05, noise_std=0.5,
                                  n_trials=60, seed=23, montage=montage)
        dec = fastica(center_and_whiten(epochs, 1), FastIcaConfig(seed=5))
        row = extract_summary(dec, epochs, "FA1", {}, template=tpl.topography)
        assert 300.0 <= row.ti_max <= 500.0
        assert row.sp_max_roi == "frontal"


class TestSummarizeDataset:
    def test_row_cardinality(self):
        m = make_montage(TRIO)
        info = [
            {"EVENT": "e1", "STIM": "s", "MOD": "m"},
            {"EVENT": "e2", "STIM": "s", "MOD": "m"},
        ] * 2
        rng = np.random.default_rng(1)
        dec, epochs = manual_setup(rng.normal(size=(3, 3)),
                                   rng.normal(size=(3, 4 * 6)), m,
                                   n_trials=4, info=info)
        rows = summarize_dataset(dec, epochs, template=np.array([1.0, 0, 0]))
        assert len(rows) == 3 * 2
        assert conditions_of(epochs) == [
            {"EVENT": "e1", "STIM": "s", "MOD": "m"},
            {"EVENT": "e2", "STIM": "s", "MOD": "m"},
        ]

    def test_roi_consistency_invariant(self, two_pattern_epochs, two_pattern_decomposition,
                                        two_pattern_templates):
        _, dec = two_pattern_decomposition
        rows = summarize_dataset(dec, two_pattern_epochs,
                                 template=two_pattern_templates[0].topography)
        montage = two_pattern_epochs.montage
        for row in rows:
            assert row.sp_max_roi == montage.roi(row.sp_max)
            assert row.sp_min_roi == montage.roi(row.sp_min)
            assert -1.0 <= row.sp_cor <= 1.0

    def test_planted_sources_correlate_with_own_templates(
        self, two_pattern_epochs, two_pattern_decomposition, two_pattern_templates
    ):
        _, dec = two_pattern_decomposition
        p300, occ = two_pattern_templates
        own, swapped = {}, {}
        for tpl, other in ((p300, occ), (occ, p300)):
            cors = [
                abs(extract_summary(dec, two_pattern_epochs, f,
                                    {"STIM": "s1"}, template=tpl.topography).sp_cor)
                for f in dec.factor_ids
            ]
            best = int(np.argmax(cors))
            own[tpl.name] = cors[best]
            swapped[tpl.name] = abs(
                extract_summary(dec, two_pattern_epochs, dec.factor_ids[best],
                                {"STIM": "s1"}, template=other.topography).sp_cor
            )
        assert all(v >= 0.9 for v in own.values())
        assert all(v <= 0.5 for v in swapped.values())

    def test_reloaded_decomposition_gives_same_rows(
        self, tmp_path, two_pattern_epochs, two_pattern_decomposition, two_pattern_templates
    ):
        _, dec = two_pattern_decomposition
        path = tmp_path / "dec.json"
        dec.to_json(path)
        template = two_pattern_templates[0].topography
        again = FactorDecomposition.from_json(path)
        assert summarize_dataset(again, two_pattern_epochs, template) == summarize_dataset(
            dec, two_pattern_epochs, template
        )


class TestSummaryCsv:
    def _rows(self):
        return [
            FactorSummary("Fz", "frontal", "Oz", "occipital", -1.25, 4.5,
                          0.3333333333333333, "frontal", 0.98765, 400.0,
                          "stimon", "s1", "visual"),
            FactorSummary("Oz", "occipital", "Fz", "frontal", -4.0, 1.0,
                          -0.125, "occipital", -0.5, 150.0,
                          "stimon", "s2", "visual"),
        ]

    def test_header_exact(self, tmp_path):
        path = tmp_path / "summary.csv"
        write_summary_csv(self._rows(), path)
        assert path.read_text().splitlines()[0] == HEADER

    def test_round_trip_identical(self, tmp_path):
        rows = self._rows()
        path = tmp_path / "summary.csv"
        write_summary_csv(rows, path)
        again, clusters = read_summary_csv(path)
        assert again == rows
        assert clusters is None

    def test_cluster_column_round_trip(self, tmp_path):
        rows = self._rows()
        path = tmp_path / "summary.csv"
        write_summary_csv(rows, path, clusters=["C1", "C2"])
        assert path.read_text().splitlines()[0] == HEADER + ",CLUSTER"
        again, clusters = read_summary_csv(path)
        assert again == rows
        assert clusters == ["C1", "C2"]

    def test_column_constant_matches_header(self):
        assert ",".join(COLUMNS) == HEADER

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ConfigError):
            read_summary_csv(path)
