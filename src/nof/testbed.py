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
from numpy.lib import format as npy_format

from .errors import ConfigError, MissingInputError, NumericalError, parsing

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


# Every epoch is one window: _N_SAMPLES samples at _FS Hz, starting at 0 ms.
_FS = 250.0
_N_SAMPLES = 250


@dataclass(frozen=True)
class SourceTemplate:
    """A ground-truth source: rank-1 (topography x waveform) pattern, its
    waveform sampled on the epoch window."""

    name: str
    topography: np.ndarray
    waveform: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "topography", np.asarray(self.topography, dtype=float))
        object.__setattr__(self, "waveform", np.asarray(self.waveform, dtype=float))


def gaussian_source(
    name: str, topography: np.ndarray, peak_ms: float, width_ms: float, amplitude: float
) -> SourceTemplate:
    """Build a template with a Gaussian bump waveform peaking at peak_ms."""
    t = np.arange(_N_SAMPLES) * 1000.0 / _FS
    waveform = amplitude * np.exp(-0.5 * ((t - peak_ms) / width_ms) ** 2)
    return SourceTemplate(name, topography, waveform)


def roi_topography(
    montage: ChannelMontage, roi_weights: dict[str, float], peak_channel: str
) -> np.ndarray:
    """Per-channel weights from per-ROI weights (0.05 outside them), with
    peak_channel at 1.0 so argmax extraction is unambiguous."""
    topo = np.full(len(montage.channels), 0.05, dtype=float)
    for i, c in enumerate(montage.channels):
        r = montage.roi_of[c]
        if r in roi_weights:
            topo[i] = roi_weights[r]
    topo[montage.index(peak_channel)] = 1.0
    return topo


def p300_template(montage: ChannelMontage, amplitude: float = 5.0) -> SourceTemplate:
    """Frontal-positive pattern peaking at 400 ms."""
    topo = roi_topography(montage, {"frontal": 0.8, "central": 0.3}, "Fz")
    return gaussian_source("P300", topo, 400.0, 55.0, amplitude)


def occipital_template(montage: ChannelMontage) -> SourceTemplate:
    """Occipital-negative early pattern peaking at 150 ms, the default second
    planted source."""
    topo = roi_topography(montage, {"occipital": 0.8, "parietal": 0.3}, "Oz")
    return gaussian_source("OCC150", topo, 150.0, 35.0, -4.0)


def two_pattern_preset(
    montage: ChannelMontage | None = None,
) -> tuple[ChannelMontage, list[SourceTemplate]]:
    """Canonical two-source benchmark: frontal-positive late + occipital-negative early."""
    if montage is None:
        montage = default_montage()
    return montage, [p300_template(montage), occipital_template(montage)]


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
    def load(cls, directory: str | Path, channels_major: bool = False) -> "EpochTensor":
        """Read a container written by `save`.

        With channels_major, `data` is the trials-major view of a C-order
        channels x trials x timepoints array, filled one trial at a time, so
        that `data.transpose(1, 0, 2)` is C-contiguous and no trials-major
        copy of the tensor is ever held. The values are those of the default
        read.
        """
        directory = Path(directory)
        meta_path = directory / "meta.json"
        if not meta_path.exists():
            raise MissingInputError(f"epoch container not found: {meta_path}")
        with parsing(meta_path), open(meta_path) as fh:
            meta = json.load(fh)
            data_path = directory / meta["data_file"]
            shape = list(meta["shape"])
            fs, t0 = float(meta["fs"]), float(meta["t0"])
            montage = ChannelMontage(
                tuple(meta["montage"]["channels"]), dict(meta["montage"]["roi"])
            )
            trial_info = [dict(t) for t in meta["trials"]]
        if channels_major:
            data = _read_channels_major(data_path, shape)
        else:
            data = np.load(data_path)
        if list(data.shape) != shape:
            raise ConfigError(
                f"{data_path}: data shape {list(data.shape)} disagrees with meta {shape}"
            )
        return cls(data=data, fs=fs, t0=t0, montage=montage, trial_info=trial_info)


def _read_channels_major(path: Path, shape: list[int]) -> np.ndarray:
    """The 3-D array in the .npy file `path`, as the (1, 0, 2) transpose of a
    new C-order array, read trial by trial through one reused trial buffer.

    The header must give `shape`, C order and a numeric dtype, and the file
    must hold every trial; otherwise ConfigError names the file.
    """
    with open(path, "rb") as fh:
        try:
            version = npy_format.read_magic(fh)
            if version == (1, 0):
                header = npy_format.read_array_header_1_0(fh)
            elif version == (2, 0):
                header = npy_format.read_array_header_2_0(fh)
            else:
                raise ValueError(f"unsupported .npy format version {version}")
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        file_shape, fortran_order, dtype = header
        if list(file_shape) != shape:
            raise ConfigError(
                f"{path}: data shape {list(file_shape)} disagrees with meta {shape}"
            )
        if len(file_shape) != 3:
            raise ConfigError(f"{path}: data must be trials x channels x timepoints")
        if fortran_order:
            raise ConfigError(f"{path}: data is stored in Fortran order, not C order")
        if dtype.kind not in "biuf":
            raise ConfigError(f"{path}: unsupported data dtype {dtype}")
        n_trials, n_channels, n_timepoints = file_shape
        out = np.empty((n_channels, n_trials, n_timepoints))
        trial = np.empty((n_channels, n_timepoints), dtype=dtype)
        for i in range(n_trials):
            if fh.readinto(trial) != trial.nbytes:
                raise ConfigError(f"{path}: truncated after {i} of {n_trials} trials")
            out[:, i, :] = trial
    return out.transpose(1, 0, 2)


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

    The noise is drawn straight into the output array and scaled there, so
    the tensor is the only full-size allocation. Each trial's signal starts
    from +0.0 and adds the templates' gain-scaled patterns in template order,
    then is added to that trial's noise: a zero-weight sample of a noise-free
    trial is +0.0, never -0.0.
    """
    if not templates:
        raise ConfigError("template list must be nonempty")
    if n_trials < 1:
        raise ConfigError("n_trials must be >= 1")
    # written so that NaN fails too
    if not 0 <= noise_std < np.inf:
        raise ConfigError(f"noise_std must be finite and >= 0, got {noise_std}")
    if not 0 <= mixing_noise < np.inf:
        raise ConfigError(f"mixing_noise must be finite and >= 0, got {mixing_noise}")
    if conditions is None:
        conditions = [DEFAULT_CONDITION]
    if not conditions:
        raise ConfigError("conditions must be nonempty")
    n_channels = len(montage.channels)
    for t in templates:
        if t.topography.shape != (n_channels,) or t.waveform.shape != (_N_SAMPLES,):
            raise ConfigError(
                f"template {t.name!r} has {t.topography.size} weights and "
                f"{t.waveform.size} samples; the montage has {n_channels} channels "
                f"and the epoch window {_N_SAMPLES} samples"
            )
    rng = np.random.default_rng(seed)
    gains = 1.0 + mixing_noise * rng.standard_normal((n_trials, len(templates)))
    # Drawn unconditionally so the signal part reproduces with noise_std=0.
    data = np.empty((n_trials, n_channels, _N_SAMPLES))
    rng.standard_normal(out=data)
    data *= noise_std
    patterns = [np.outer(t.topography, t.waveform) for t in templates]
    signal = np.empty((n_channels, _N_SAMPLES))
    term = np.empty_like(signal)
    for i in range(n_trials):
        signal.fill(0.0)
        for k, pat in enumerate(patterns):
            np.multiply(gains[i, k], pat, out=term)
            signal += term
        data[i] += signal
    trial_info = [dict(conditions[i % len(conditions)]) for i in range(n_trials)]
    return EpochTensor(data=data, fs=_FS, t0=0.0, montage=montage, trial_info=trial_info)


def mean_of_trials(epochs: EpochTensor, trials: list[int]) -> np.ndarray:
    """Elementwise channels x timepoints mean of the given trials.

    The trials are added one at a time, in the order given, to a zero array.
    """
    total = np.zeros(epochs.data.shape[1:])
    for i in trials:
        total += epochs.data[i]
    total /= len(trials)
    return total


def average_epochs(
    epochs: EpochTensor, group_by: list[str] | tuple[str, ...] = ()
) -> dict[tuple[str, ...], np.ndarray]:
    """Elementwise mean across trials within each metadata group.

    Keys are tuples of the group_by values in order; with empty group_by the
    single key is the empty tuple.
    """
    if epochs.n_trials == 0:
        raise NumericalError("cannot average an epoch tensor with zero trials")
    groups = group_trials(epochs, group_by)
    return {key: mean_of_trials(epochs, idx) for key, idx in groups.items()}


def group_trials(
    epochs: EpochTensor, group_by: list[str] | tuple[str, ...]
) -> dict[tuple[str, ...], list[int]]:
    """Ascending trial indices per tuple of group_by values, keys sorted,
    from one pass over the trial metadata."""
    groups: dict[tuple[str, ...], list[int]] = {}
    for i, info in enumerate(epochs.trial_info):
        try:
            key = tuple(info[k] for k in group_by)
        except KeyError as exc:
            raise ConfigError(f"trial {i} lacks metadata key {exc.args[0]!r}") from exc
        groups.setdefault(key, []).append(i)
    return {key: groups[key] for key in sorted(groups)}
