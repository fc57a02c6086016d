"""Synthetic multichannel epoch generation and trial averaging.

Every downstream stage is verified against data produced here, so the
generator keeps an exactly reproducible contract: all randomness flows
from the explicit seed, and the noise draw is made even when noise_std
is zero so the signal part of a dataset can be regenerated bit-identically
by re-running with noise_std=0.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, MissingInputError, NumericalError

METADATA_KEYS = ("EVENT", "STIM", "MOD")

DEFAULT_CONDITION = {"EVENT": "stimon", "STIM": "s1", "MOD": "visual"}


@dataclass(frozen=True)
class ChannelMontage:
    """Ordered channel list plus a total channel -> ROI map."""

    channels: tuple[str, ...]
    roi_of: dict[str, str]

    def __post_init__(self):
        if len(self.channels) < 2:
            raise ConfigError("montage needs at least 2 channels")
        if len(set(self.channels)) != len(self.channels):
            raise ConfigError("montage channel names must be unique")
        missing = [c for c in self.channels if c not in self.roi_of]
        if missing:
            raise ConfigError(f"channels without ROI: {missing}")

    def roi(self, channel: str) -> str:
        return self.roi_of[channel]

    def index(self, channel: str) -> int:
        return self.channels.index(channel)

    def channels_in(self, roi: str) -> tuple[str, ...]:
        return tuple(c for c in self.channels if self.roi_of[c] == roi)

    def rois(self) -> tuple[str, ...]:
        seen: list[str] = []
        for c in self.channels:
            r = self.roi_of[c]
            if r not in seen:
                seen.append(r)
        return tuple(seen)

    def save_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["channel", "roi"])
            for c in self.channels:
                w.writerow([c, self.roi_of[c]])

    @classmethod
    def load_csv(cls, path: str | Path) -> "ChannelMontage":
        path = Path(path)
        if not path.exists():
            raise MissingInputError(f"montage file not found: {path}")
        channels: list[str] = []
        roi_of: dict[str, str] = {}
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != ["channel", "roi"]:
                raise ConfigError(f"montage header must be 'channel,roi', got {header}")
            for row in reader:
                if len(row) != 2:
                    raise ConfigError(f"malformed montage row: {row}")
                channels.append(row[0])
                roi_of[row[0]] = row[1]
        return cls(tuple(channels), roi_of)


_DEFAULT_ROIS = {
    "frontal": ("Fp1", "Fp2", "F7", "F3", "Fz", "F4", "F8"),
    "central": ("FC1", "FC2", "C3", "Cz", "C4", "CP1", "CP2"),
    "temporal_left": ("FC5", "T7", "CP5"),
    "temporal_right": ("FC6", "T8", "CP6"),
    "parietal": ("P7", "P3", "Pz", "P4", "P8"),
    "occipital": ("PO3", "POz", "PO4", "O1", "Oz", "O2", "Iz"),
}


def default_montage() -> ChannelMontage:
    """32-channel montage with six ROIs, the desk-scale default."""
    channels: list[str] = []
    roi_of: dict[str, str] = {}
    for roi, chans in _DEFAULT_ROIS.items():
        for c in chans:
            channels.append(c)
            roi_of[c] = roi
    return ChannelMontage(tuple(channels), roi_of)


@dataclass(frozen=True)
class SourceTemplate:
    """A ground-truth source: rank-1 (topography x waveform) pattern.

    The waveform is sampled at fs starting at t0 ms relative to the event,
    so waveform length fixes the epoch duration.
    """

    name: str
    topography: np.ndarray
    waveform: np.ndarray
    fs: float
    peak_latency_ms: float
    polarity: str
    t0: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "topography", np.asarray(self.topography, dtype=float))
        object.__setattr__(self, "waveform", np.asarray(self.waveform, dtype=float))
        if self.fs <= 0:
            raise ConfigError("fs must be positive")
        if self.polarity not in ("positive", "negative"):
            raise ConfigError(f"polarity must be positive|negative, got {self.polarity!r}")
        if self.waveform.ndim != 1 or self.waveform.size == 0:
            raise ConfigError("waveform must be a nonempty 1-D array")
        lo = self.t0
        hi = self.t0 + self.waveform.size * 1000.0 / self.fs
        if not (lo <= self.peak_latency_ms < hi):
            raise ConfigError(
                f"peak_latency_ms {self.peak_latency_ms} outside epoch window [{lo}, {hi})"
            )
        peak = int(np.argmax(np.abs(self.waveform)))
        sign = np.sign(self.waveform[peak])
        want = 1.0 if self.polarity == "positive" else -1.0
        if sign != 0 and sign != want:
            raise ConfigError(
                f"polarity {self.polarity!r} does not match waveform sign at peak"
            )

    @property
    def n_samples(self) -> int:
        return int(self.waveform.size)


def gaussian_source(
    name: str,
    topography: np.ndarray,
    fs: float,
    n_samples: int,
    peak_ms: float,
    width_ms: float,
    amplitude: float,
    t0: float = 0.0,
) -> SourceTemplate:
    """Build a template with a Gaussian bump waveform peaking at peak_ms."""
    t = t0 + np.arange(n_samples) * 1000.0 / fs
    waveform = amplitude * np.exp(-0.5 * ((t - peak_ms) / width_ms) ** 2)
    polarity = "positive" if amplitude >= 0 else "negative"
    return SourceTemplate(
        name=name,
        topography=topography,
        waveform=waveform,
        fs=fs,
        peak_latency_ms=peak_ms,
        polarity=polarity,
        t0=t0,
    )


def roi_topography(
    montage: ChannelMontage,
    roi_weights: dict[str, float],
    peak_channel: str | None = None,
    peak_weight: float = 1.0,
    floor: float = 0.05,
) -> np.ndarray:
    """Per-channel weights from per-ROI weights, with an optional single
    strongest channel so argmax extraction is unambiguous."""
    topo = np.full(len(montage.channels), floor, dtype=float)
    for i, c in enumerate(montage.channels):
        r = montage.roi_of[c]
        if r in roi_weights:
            topo[i] = roi_weights[r]
    if peak_channel is not None:
        topo[montage.index(peak_channel)] = peak_weight
    return topo


def p300_template(
    montage: ChannelMontage,
    fs: float = 250.0,
    n_samples: int = 250,
    t0: float = 0.0,
    peak_ms: float = 400.0,
    amplitude: float = 5.0,
) -> SourceTemplate:
    """Frontal-positive pattern peaking at 400 ms by default."""
    topo = roi_topography(
        montage, {"frontal": 0.8, "central": 0.3}, peak_channel="Fz", peak_weight=1.0
    )
    return gaussian_source("P300", topo, fs, n_samples, peak_ms, 55.0, amplitude, t0)


def occipital_template(
    montage: ChannelMontage,
    fs: float = 250.0,
    n_samples: int = 250,
    t0: float = 0.0,
    peak_ms: float = 150.0,
    amplitude: float = -4.0,
) -> SourceTemplate:
    """Occipital-negative early pattern, the default second planted source."""
    topo = roi_topography(
        montage, {"occipital": 0.8, "parietal": 0.3}, peak_channel="Oz", peak_weight=1.0
    )
    return gaussian_source("OCC150", topo, fs, n_samples, peak_ms, 35.0, amplitude, t0)


def two_pattern_preset(
    montage: ChannelMontage | None = None,
    fs: float = 250.0,
    n_samples: int = 250,
    t0: float = 0.0,
) -> tuple[ChannelMontage, list[SourceTemplate]]:
    """Canonical two-source benchmark: frontal-positive late + occipital-negative early."""
    if montage is None:
        montage = default_montage()
    return montage, [
        p300_template(montage, fs, n_samples, t0),
        occipital_template(montage, fs, n_samples, t0),
    ]


@dataclass
class EpochTensor:
    """trials x channels x timepoints recording with per-trial metadata."""

    data: np.ndarray
    fs: float
    t0: float
    montage: ChannelMontage
    trial_info: list[dict[str, str]] = field(default_factory=list)

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.ndim != 3:
            raise ConfigError("data must be trials x channels x timepoints")
        if self.fs <= 0:
            raise ConfigError("fs must be positive")
        if self.data.shape[1] != len(self.montage.channels):
            raise ConfigError(
                f"channel dimension {self.data.shape[1]} does not match montage "
                f"({len(self.montage.channels)} channels)"
            )
        if len(self.trial_info) != self.data.shape[0]:
            raise ConfigError("trial_info length must equal trial count")

    @property
    def n_trials(self) -> int:
        return self.data.shape[0]

    @property
    def n_channels(self) -> int:
        return self.data.shape[1]

    @property
    def n_timepoints(self) -> int:
        return self.data.shape[2]

    def times(self) -> np.ndarray:
        """Sample times in ms relative to the event."""
        return self.t0 + np.arange(self.n_timepoints) * 1000.0 / self.fs

    def save(self, directory: str | Path) -> None:
        """Write meta.json plus data.npy (float64, C-order, trials x channels x timepoints)."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        meta = {
            "fs": self.fs,
            "t0": self.t0,
            "shape": list(self.data.shape),
            "dtype": "float64",
            "data_file": "data.npy",
            "montage": {
                "channels": list(self.montage.channels),
                "roi": {c: self.montage.roi_of[c] for c in self.montage.channels},
            },
            "trials": self.trial_info,
        }
        with open(directory / "meta.json", "w") as fh:
            fh.write(json.dumps(meta, sort_keys=True))
        np.save(directory / "data.npy", np.ascontiguousarray(self.data, dtype=np.float64))

    @classmethod
    def load(cls, directory: str | Path) -> "EpochTensor":
        directory = Path(directory)
        meta_path = directory / "meta.json"
        if not meta_path.exists():
            raise MissingInputError(f"epoch container not found: {meta_path}")
        with open(meta_path) as fh:
            meta = json.load(fh)
        data = np.load(directory / meta["data_file"])
        if list(data.shape) != meta["shape"]:
            raise ConfigError(
                f"data shape {list(data.shape)} disagrees with meta {meta['shape']}"
            )
        montage = ChannelMontage(
            tuple(meta["montage"]["channels"]), dict(meta["montage"]["roi"])
        )
        return cls(
            data=data,
            fs=float(meta["fs"]),
            t0=float(meta["t0"]),
            montage=montage,
            trial_info=[dict(t) for t in meta["trials"]],
        )


def generate_dataset(
    templates: list[SourceTemplate],
    mixing_noise: float,
    noise_std: float,
    n_trials: int,
    seed: int,
    montage: ChannelMontage,
    conditions: list[dict[str, str]] | None = None,
) -> EpochTensor:
    """Simulate epochs: sum of jitter-scaled rank-1 sources plus white noise.

    Each trial is sum_k (1 + mixing_noise * eps_k) * outer(topography_k, waveform_k)
    with i.i.d. Gaussian sample noise of standard deviation noise_std added on top.
    Trial metadata cycles round-robin through `conditions`.
    """
    if not templates:
        raise ConfigError("template list must be nonempty")
    if n_trials < 1:
        raise ConfigError("n_trials must be >= 1")
    if noise_std < 0:
        raise ConfigError("noise_std must be >= 0")
    fs = templates[0].fs
    t0 = templates[0].t0
    n_samples = templates[0].n_samples
    for t in templates[1:]:
        if t.fs != fs or t.t0 != t0 or t.n_samples != n_samples:
            raise ConfigError(
                f"template {t.name!r} window (fs={t.fs}, t0={t.t0}, n={t.n_samples}) "
                f"does not match {templates[0].name!r}"
            )
    n_channels = len(montage.channels)
    for t in templates:
        if t.topography.size != n_channels:
            raise ConfigError(
                f"template {t.name!r} topography length {t.topography.size} "
                f"does not match montage ({n_channels} channels)"
            )
    if conditions is None:
        conditions = [dict(DEFAULT_CONDITION)]
    rng = np.random.default_rng(seed)
    gains = 1.0 + mixing_noise * rng.standard_normal((n_trials, len(templates)))
    # Drawn unconditionally so the signal part reproduces with noise_std=0.
    noise = rng.standard_normal((n_trials, n_channels, n_samples))
    data = np.zeros((n_trials, n_channels, n_samples))
    patterns = [np.outer(t.topography, t.waveform) for t in templates]
    for i in range(n_trials):
        for k, pat in enumerate(patterns):
            data[i] += gains[i, k] * pat
    data += noise_std * noise
    trial_info = [dict(conditions[i % len(conditions)]) for i in range(n_trials)]
    return EpochTensor(data=data, fs=fs, t0=t0, montage=montage, trial_info=trial_info)


def signal_power(templates: list[SourceTemplate]) -> float:
    """Mean squared amplitude of the noise-free trial over channels and time."""
    if not templates:
        raise ConfigError("template list must be nonempty")
    signal = sum(np.outer(t.topography, t.waveform) for t in templates)
    return float(np.mean(signal**2))


def noise_std_for_snr(templates: list[SourceTemplate], snr: float) -> float:
    """Noise standard deviation giving signal/noise variance ratio ~= snr."""
    if snr <= 0:
        raise ConfigError("snr must be positive")
    return float(np.sqrt(signal_power(templates) / snr))


def average_epochs(
    epochs: EpochTensor, group_by: list[str] | tuple[str, ...] = ()
) -> dict[tuple[str, ...], np.ndarray]:
    """Elementwise mean across trials within each metadata group.

    Keys are tuples of the group_by values in order; with empty group_by the
    single key is the empty tuple.
    """
    if epochs.n_trials == 0:
        raise NumericalError("cannot average an epoch tensor with zero trials")
    groups: dict[tuple[str, ...], list[int]] = {}
    for i, info in enumerate(epochs.trial_info):
        try:
            key = tuple(info[k] for k in group_by)
        except KeyError as exc:
            raise ConfigError(f"trial {i} lacks metadata key {exc.args[0]!r}") from exc
        groups.setdefault(key, []).append(i)
    return {
        key: epochs.data[idx].mean(axis=0) for key, idx in sorted(groups.items())
    }
