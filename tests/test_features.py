import dataclasses
from collections import Counter

import numpy as np
import pytest

from nof.decomposition import FactorDecomposition, FastIcaConfig, center_and_whiten, fastica
from nof.errors import ConfigError, ParseError
from nof.features import (
    COLUMNS,
    _condition_average,
    conditions_of,
    extract_summary,
    read_summary_csv,
    summarize_dataset,
    write_summary_csv,
)
from nof.testbed import EpochTensor, generate_dataset, p300_template

from conftest import make_montage
from helpers import masked_condition_average

HEADER = "SP_max,SP_max_ROI,SP_min,SP_min_ROI,IN_min,IN_max,IN_mean,SP_cor,TI_max,EVENT,STIM,MOD"


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
        assert row["SP_max"] == "Fz" and row["SP_max_ROI"] == "frontal"
        assert row["SP_min"] == "Oz" and row["SP_min_ROI"] == "occipital"

    def test_latency_index_arithmetic(self):
        m = make_montage(TRIO)
        act = np.zeros((1, 250))
        act[0, 100] = 1.0
        dec, epochs = manual_setup([[1.0], [0.5], [0.2]], act, m, fs=250.0, t0=0.0)
        row = extract_summary(dec, epochs, "FA1", {}, template=np.array([1.0, 0.5, 0.2]))
        assert row["TI_max"] == 400.0

    def test_latency_respects_t0(self):
        m = make_montage(TRIO)
        act = np.zeros((1, 250))
        act[0, 100] = 1.0
        dec, epochs = manual_setup([[1.0], [0.5], [0.2]], act, m, fs=250.0, t0=-200.0)
        row = extract_summary(dec, epochs, "FA1", {}, template=np.array([1.0, 0.5, 0.2]))
        assert row["TI_max"] == 200.0

    def test_self_correlation_is_one(self):
        m = make_montage(TRIO)
        topo = np.array([0.9, 0.1, -0.4])
        dec, epochs = manual_setup(topo[:, None], np.ones((1, 8)), m, n_trials=2)
        row = extract_summary(dec, epochs, "FA1", {}, template=topo)
        assert abs(row["SP_cor"] - 1.0) <= 1e-12

    def test_template_sign_flip_negates_correlation_exactly(self):
        m = make_montage(TRIO)
        topo = np.array([0.9, 0.1, -0.4])
        dec, epochs = manual_setup(topo[:, None], np.ones((1, 8)), m, n_trials=2)
        template = np.array([0.7, -0.2, 0.1])
        plus = extract_summary(dec, epochs, "FA1", {}, template=template)
        minus = extract_summary(dec, epochs, "FA1", {}, template=-template)
        assert plus["SP_cor"] == -minus["SP_cor"]

    def test_positive_scaling_leaves_argmax_attributes_unchanged(self):
        m = make_montage(TRIO)
        topo = np.array([0.9, 0.1, -0.4])
        act = np.linspace(-1, 1, 8)[None, :]
        base, epochs = manual_setup(topo[:, None], act, m, n_trials=2)
        scaled, epochs2 = manual_setup(2.5 * topo[:, None], act, m, n_trials=2)
        t = np.array([1.0, 0.0, 0.0])
        a = extract_summary(base, epochs, "FA1", {}, template=t)
        b = extract_summary(scaled, epochs2, "FA1", {}, template=t)
        assert (a["SP_max"], a["SP_min"], a["SP_max_ROI"], a["SP_min_ROI"]) == (
            b["SP_max"], b["SP_min"], b["SP_max_ROI"], b["SP_min_ROI"]
        )

    def test_amplitudes_at_peak_channel(self):
        m = make_montage(TRIO)
        act = np.array([[1.0, -2.0, 3.0, 0.0]])
        dec, epochs = manual_setup([[2.0], [1.0], [0.5]], act, m)
        row = extract_summary(dec, epochs, "FA1", {}, template=np.array([1.0, 0, 0]),
                              mean_channel_set=("Fz",))
        # waveform at Fz is 2 * activation
        assert row["IN_min"] == -4.0 and row["IN_max"] == 6.0
        assert row["IN_mean"] == pytest.approx(2 * act.mean())

    def test_ti_max_uses_absolute_peak(self):
        m = make_montage(TRIO)
        act = np.array([[0.5, -3.0, 1.0, 0.0]])
        dec, epochs = manual_setup([[1.0], [0.2], [0.1]], act, m, fs=1000.0)
        row = extract_summary(dec, epochs, "FA1", {}, template=np.array([1.0, 0, 0]))
        assert row["TI_max"] == 1.0  # sample index 1 at 1 kHz

    def test_all_zero_activation_degenerate(self):
        m = make_montage(TRIO)
        dec, epochs = manual_setup([[1.0], [0.5], [0.2]], np.zeros((1, 10)), m, t0=-40.0)
        with pytest.warns(UserWarning, match="all-zero"):
            row = extract_summary(dec, epochs, "FA1", {}, template=np.array([1.0, 0, 0]))
        assert row["IN_min"] == row["IN_max"] == row["IN_mean"] == 0.0
        assert row["TI_max"] == -40.0

    def test_tie_in_argmax_warns_and_uses_lowest_index(self):
        m = make_montage(TRIO)
        dec, epochs = manual_setup([[0.5], [0.5], [-0.5]], np.ones((1, 8)), m, n_trials=2)
        with pytest.warns(UserWarning, match="tie"):
            row = extract_summary(dec, epochs, "FA1", {}, template=np.array([1.0, 0, 0]))
        assert row["SP_max"] == "Fz"

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
        steps = (row["TI_max"] - epochs.t0) * epochs.fs / 1000.0
        assert abs(steps - round(steps)) < 1e-9

    def test_planted_p300_attributes(self, montage):
        tpl = p300_template(montage)
        epochs = generate_dataset([tpl], mixing_noise=0.05, noise_std=0.5,
                                  n_trials=60, seed=23, montage=montage)
        dec = fastica(center_and_whiten(epochs, 1), FastIcaConfig(seed=5))
        row = extract_summary(dec, epochs, "FA1", {}, template=tpl.topography)
        assert 300.0 <= row["TI_max"] <= 500.0
        assert row["SP_max_ROI"] == "frontal"


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
            assert row["SP_max_ROI"] == montage.roi(row["SP_max"])
            assert row["SP_min_ROI"] == montage.roi(row["SP_min"])
            assert -1.0 <= row["SP_cor"] <= 1.0

    def test_planted_sources_correlate_with_own_templates(
        self, two_pattern_epochs, two_pattern_decomposition, two_pattern_templates
    ):
        _, dec = two_pattern_decomposition
        p300, occ = two_pattern_templates
        own, swapped = {}, {}
        for tpl, other in ((p300, occ), (occ, p300)):
            cors = [
                abs(extract_summary(dec, two_pattern_epochs, f,
                                    {"STIM": "s1"}, template=tpl.topography)["SP_cor"])
                for f in dec.factor_ids
            ]
            best = int(np.argmax(cors))
            own[tpl.name] = cors[best]
            swapped[tpl.name] = abs(
                extract_summary(dec, two_pattern_epochs, dec.factor_ids[best],
                                {"STIM": "s1"}, template=other.topography)["SP_cor"]
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


class _NoAverage:
    """Stands in for epoch data whose trials must never be averaged."""

    def __init__(self, data):
        self.shape = data.shape

    def mean(self, *args, **kwargs):
        raise AssertionError("trials averaged before the epochs were checked")

    def __getitem__(self, index):
        raise AssertionError("trials averaged before the epochs were checked")


class _CountingRows:
    """Stands in for epoch data and counts the reads of each trial."""

    def __init__(self, data):
        self._data = data
        self.shape = data.shape
        self.reads = Counter()

    def __getitem__(self, trial):
        self.reads[trial] += 1
        return self._data[trial]


class _CountingPasses(list):
    """Stands in for trial metadata and counts the passes over it."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


class TestConditionAverages:
    def _four_conditions(self):
        m = make_montage(TRIO)
        info = [
            {"EVENT": event, "STIM": stim, "MOD": "visual"}
            for event in ("e1", "e2") for stim in ("s1", "s2")
        ] * 3
        rng = np.random.default_rng(7)
        return manual_setup(rng.normal(size=(3, 3)), rng.normal(size=(3, 12 * 10)), m,
                            t0=-100.0, n_trials=12, info=info)

    def test_equals_extract_summary_per_factor_and_condition(self):
        dec, epochs = self._four_conditions()
        dec = dataclasses.replace(dec, mean=np.array([0.25, -1.5, 3.0]))
        template = np.array([1.0, 0.5, -0.2])
        conds = conditions_of(epochs)
        assert len(conds) == 4 and len(dec.factor_ids) == 3
        rows = summarize_dataset(dec, epochs, template, mean_channel_set=["Fz", "Oz"])
        assert rows == [
            extract_summary(dec, epochs, f, c, template, mean_channel_set=["Fz", "Oz"])
            for f in dec.factor_ids for c in conds
        ]

    def test_each_trial_read_once(self):
        dec, epochs = self._four_conditions()
        template = np.array([1.0, 0.5, -0.2])
        expected = summarize_dataset(dec, epochs, template)
        counting = _CountingRows(epochs.data)
        epochs.data = counting
        assert summarize_dataset(dec, epochs, template) == expected
        assert counting.reads == Counter(range(epochs.n_trials))

    def test_trial_metadata_grouped_in_one_pass(self):
        dec, epochs = self._four_conditions()
        template = np.array([1.0, 0.5, -0.2])
        expected = summarize_dataset(dec, epochs, template)
        epochs.trial_info = _CountingPasses(epochs.trial_info)
        assert summarize_dataset(dec, epochs, template) == expected
        assert epochs.trial_info.passes == 1

    def test_topography_tie_warns_once_per_factor(self):
        _, epochs = self._four_conditions()
        dec, _ = manual_setup([[1.0], [1.0], [0.2]], np.ones((1, 120)), epochs.montage,
                              n_trials=12, info=epochs.trial_info)
        with pytest.warns(UserWarning) as record:
            rows = summarize_dataset(dec, epochs, np.array([1.0, 0, 0]))
        assert len(rows) == 4
        assert [str(w.message) for w in record].count(
            "tie in topography argmax; using lowest channel index") == 1

    def test_condition_without_trials_rejected(self):
        # NaN differs from itself, so its condition selects no trial
        nan = float("nan")
        m = make_montage(TRIO)
        dec, epochs = manual_setup([[1.0], [0.5], [0.2]], np.ones((1, 8)), m, n_trials=2,
                                   info=[{"EVENT": nan, "STIM": "s", "MOD": "m"}] * 2)
        with pytest.raises(ConfigError, match="selects no trials"):
            summarize_dataset(dec, epochs, np.array([1.0, 0, 0]), group_by=("EVENT",))

    # interleaved, uneven and single-trial conditions of 31 trials
    @pytest.mark.parametrize("trials", [
        list(range(0, 31, 3)),
        [i for i in range(31) if i % 3 and i != 29],
        [29],
    ], ids=["interleaved", "uneven", "single"])
    def test_bit_identical_to_masked_mean(self, trials):
        rng = np.random.default_rng(11)
        dec, epochs = manual_setup(rng.normal(size=(3, 3)), rng.normal(size=(3, 31 * 40)) * 1e3,
                                   make_montage(TRIO), n_trials=31, info=[{"EVENT": "e"}] * 31)
        # a zero channel mean keeps the sign of a zero average visible
        dec = dataclasses.replace(dec, mean=np.array([0.25, 0.0, -3.0]))
        epochs.data[29, 1] = -0.0
        epochs.data[0, 1, :5] = -0.0
        ours = _condition_average(dec, epochs, trials)
        oracle = masked_condition_average(dec, epochs, trials)
        assert np.array_equal(ours, oracle)
        assert np.array_equal(np.signbit(ours), np.signbit(oracle))

    def test_montage_checked_before_any_average(self):
        dec, epochs = self._four_conditions()
        other = make_montage({"Fp1": "frontal", "Cz": "central", "Oz": "occipital"})
        renamed = EpochTensor(data=epochs.data, fs=epochs.fs, t0=epochs.t0,
                              montage=other, trial_info=epochs.trial_info)
        renamed.data = _NoAverage(epochs.data)
        with pytest.raises(ConfigError, match="montage"):
            summarize_dataset(dec, renamed, np.array([1.0, 0, 0]))
        with pytest.raises(ConfigError, match="montage"):
            extract_summary(dec, renamed, "FA1", {}, template=np.array([1.0, 0, 0]))


class TestSummaryCsv:
    def _rows(self):
        return [
            dict(zip(COLUMNS, ("Fz", "frontal", "Oz", "occipital", -1.25, 4.5,
                               0.3333333333333333, 0.98765, 400.0,
                               "stimon", "s1", "visual"))),
            dict(zip(COLUMNS, ("Oz", "occipital", "Fz", "frontal", -4.0, 1.0,
                               -0.125, -0.5, 150.0,
                               "stimon", "s2", "visual"))),
        ]

    def test_header_exact(self, tmp_path):
        path = tmp_path / "summary.csv"
        write_summary_csv(self._rows(), path)
        assert path.read_text().splitlines()[0] == HEADER

    def test_round_trip_identical(self, tmp_path):
        rows = self._rows()
        path = tmp_path / "summary.csv"
        write_summary_csv(rows, path)
        again = read_summary_csv(path)
        assert again == rows
        # keys in COLUMNS order: the decision tree breaks gain ties by it
        assert all(list(row) == list(COLUMNS) for row in again)
        assert isinstance(again[0]["IN_min"], float) and again[0]["SP_max"] == "Fz"

    def test_column_constant_matches_header(self):
        assert ",".join(COLUMNS) == HEADER

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        # cluster labels live in cluster_model.json, not in a CLUSTER column
        for header in ("a,b,c", HEADER + ",CLUSTER"):
            path.write_text(header + "\n1,2,3\n")
            with pytest.raises(ConfigError, match="summary header"):
                read_summary_csv(path)

    @pytest.mark.parametrize("edit", ["drop", "extra"])
    def test_row_field_count_must_match_header(self, tmp_path, edit):
        path = tmp_path / "summary.csv"
        write_summary_csv(self._rows(), path)
        lines = path.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] if edit == "drop" else lines[2] + ",x"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="^line 3: expected"):
            read_summary_csv(path)

    def test_non_number_names_its_column_and_line(self, tmp_path):
        path = tmp_path / "summary.csv"
        write_summary_csv(self._rows(), path)
        lines = path.read_text().splitlines()
        fields = lines[1].split(",")
        fields[COLUMNS.index("IN_min")] = "abc"
        lines[1] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="^line 2: IN_min 'abc' is not a number$"):
            read_summary_csv(path)
