"""Per-factor, per-condition summary attributes.

Each factor x condition pair collapses to one row of 13 spatiotemporal
attributes; the CSV of those rows is the contract between the front half of
the pipeline (signal processing) and the back half (mining).

Definitions, since the attribute names alone do not fix formulas:
  * SP_max / SP_min are the argmax/argmin channels of the factor topography
    (plain weights, not magnitudes); ties break to the lowest channel index
    with a warning.
  * IN_min / IN_max / TI_max come from the factor's back-projected waveform
    at the SP_max channel, averaged over the condition's trials. TI_max uses
    the maximum |amplitude| so negative deflections get correct latencies.
  * IN_mean is the mean over both time and a configurable channel set of the
    back-projected factor signal.
  * SP_cor is the zero-lag Pearson correlation between the factor topography
    and a target-pattern topography.
"""
from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .decomposition import FactorDecomposition
from .errors import ConfigError, MissingInputError
from .testbed import EpochTensor, METADATA_KEYS

COLUMNS = (
    "SP_max",
    "SP_max_ROI",
    "SP_min",
    "SP_min_ROI",
    "IN_min",
    "IN_max",
    "IN_mean",
    "ROI",
    "SP_cor",
    "TI_max",
    "EVENT",
    "STIM",
    "MOD",
)

NUMERIC_COLUMNS = ("IN_min", "IN_max", "IN_mean", "SP_cor", "TI_max")
CATEGORICAL_COLUMNS = tuple(c for c in COLUMNS if c not in NUMERIC_COLUMNS)


@dataclass(frozen=True)
class FactorSummary:
    sp_max: str
    sp_max_roi: str
    sp_min: str
    sp_min_roi: str
    in_min: float
    in_max: float
    in_mean: float
    roi: str
    sp_cor: float
    ti_max: float
    event: str
    stim: str
    mod: str

    def as_row(self) -> dict[str, float | str]:
        """Column-name keyed view in the canonical CSV order."""
        return {
            "SP_max": self.sp_max,
            "SP_max_ROI": self.sp_max_roi,
            "SP_min": self.sp_min,
            "SP_min_ROI": self.sp_min_roi,
            "IN_min": self.in_min,
            "IN_max": self.in_max,
            "IN_mean": self.in_mean,
            "ROI": self.roi,
            "SP_cor": self.sp_cor,
            "TI_max": self.ti_max,
            "EVENT": self.event,
            "STIM": self.stim,
            "MOD": self.mod,
        }


def _argmax_with_tie_warning(values: np.ndarray, what: str) -> int:
    best = int(np.argmax(values))
    if np.sum(values == values[best]) > 1:
        warnings.warn(f"tie in {what}; using lowest channel index", UserWarning)
    return best


def _pearson(a: np.ndarray, b: np.ndarray) -> float:
    a = a - a.mean()
    b = b - b.mean()
    denom = np.sqrt(np.sum(a**2) * np.sum(b**2))
    if denom == 0:
        warnings.warn("correlation undefined for constant input; returning 0.0", UserWarning)
        return 0.0
    return float(np.clip(np.sum(a * b) / denom, -1.0, 1.0))


def _select_trials(epochs: EpochTensor, condition: dict[str, str]) -> list[int]:
    out = [
        i
        for i, info in enumerate(epochs.trial_info)
        if all(info.get(k) == v for k, v in condition.items())
    ]
    if not out:
        raise ConfigError(f"condition {condition} selects no trials")
    return out


def _condition_value(
    condition: dict[str, str], key: str, epochs: EpochTensor, trials: list[int]
) -> str:
    if key in condition:
        return condition[key]
    values = {epochs.trial_info[i].get(key, "") for i in trials}
    if len(values) == 1:
        return values.pop()
    warnings.warn(f"condition does not pin {key}; selected trials mix values", UserWarning)
    return "mixed"


def extract_summary(
    dec: FactorDecomposition,
    epochs: EpochTensor,
    factor: str,
    condition: dict[str, str],
    template: np.ndarray,
    mean_channel_set: list[str] | tuple[str, ...] | None = None,
) -> FactorSummary:
    """One summary row for a factor under a metadata condition."""
    dec.check_epochs(epochs)
    template = np.asarray(template, dtype=float)
    if template.size != epochs.n_channels:
        raise ConfigError(
            f"template length {template.size} does not match channel count {epochs.n_channels}"
        )
    if mean_channel_set is None:
        mean_channel_set = epochs.montage.channels
    if not mean_channel_set:
        raise ConfigError("mean_channel_set must be nonempty")
    mean_idx = [epochs.montage.index(c) for c in mean_channel_set]

    j = dec.factor_index(factor)
    topo = dec.mixing[:, j]
    i_max = _argmax_with_tie_warning(topo, "topography argmax")
    i_min = _argmax_with_tie_warning(-topo, "topography argmin")
    sp_max = epochs.montage.channels[i_max]
    sp_min = epochs.montage.channels[i_min]

    trials = _select_trials(epochs, condition)
    in_condition = np.zeros(epochs.n_trials, dtype=bool)
    in_condition[trials] = True
    # The activation is linear in the data, so project the condition average.
    # `where` averages the trials in place; a fancy-indexed copy of a long
    # recording fragments the heap and peak RSS grows with every re-run.
    trial_avg = epochs.data.mean(axis=0, where=in_condition[:, None, None])
    avg_act = dec.unmixing[j] @ (trial_avg - dec.mean[:, None])
    if not np.any(avg_act):
        warnings.warn(f"factor {factor} has an all-zero averaged activation", UserWarning)
    wave_at_max = topo[i_max] * avg_act
    in_min = float(wave_at_max.min())
    in_max = float(wave_at_max.max())
    peak = int(np.argmax(np.abs(wave_at_max)))
    ti_max = float(epochs.t0 + peak * 1000.0 / epochs.fs)
    in_mean = float(np.mean(np.outer(topo[mean_idx], avg_act)))

    return FactorSummary(
        sp_max=sp_max,
        sp_max_roi=epochs.montage.roi(sp_max),
        sp_min=sp_min,
        sp_min_roi=epochs.montage.roi(sp_min),
        in_min=in_min,
        in_max=in_max,
        in_mean=in_mean,
        roi=epochs.montage.roi(sp_max),
        sp_cor=_pearson(topo, template),
        ti_max=ti_max,
        event=_condition_value(condition, "EVENT", epochs, trials),
        stim=_condition_value(condition, "STIM", epochs, trials),
        mod=_condition_value(condition, "MOD", epochs, trials),
    )


def conditions_of(
    epochs: EpochTensor, group_by: tuple[str, ...] = METADATA_KEYS
) -> list[dict[str, str]]:
    """Distinct metadata combinations, in sorted order."""
    try:
        seen = sorted({tuple(info[k] for k in group_by) for info in epochs.trial_info})
    except KeyError as exc:
        raise ConfigError(f"trial metadata lacks key {exc.args[0]!r}") from exc
    return [dict(zip(group_by, key)) for key in seen]


def summarize_dataset(
    dec: FactorDecomposition,
    epochs: EpochTensor,
    template: np.ndarray,
    mean_channel_set: list[str] | tuple[str, ...] | None = None,
    group_by: tuple[str, ...] = METADATA_KEYS,
) -> list[FactorSummary]:
    """All factor x condition rows, factor-major, conditions sorted."""
    conds = conditions_of(epochs, group_by)
    rows: list[FactorSummary] = []
    for factor in dec.factor_ids:
        for cond in conds:
            rows.append(
                extract_summary(dec, epochs, factor, cond, template, mean_channel_set)
            )
    return rows


def _fmt(value: float | str) -> str:
    if isinstance(value, str):
        return value
    return repr(float(value))


def write_summary_csv(
    rows: list[FactorSummary], path: str | Path, clusters: list[str] | None = None
) -> None:
    """Write the 13-column summary CSV; `clusters` appends a CLUSTER column."""
    header = list(COLUMNS) + (["CLUSTER"] if clusters is not None else [])
    if clusters is not None and len(clusters) != len(rows):
        raise ConfigError("cluster labels must match row count")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for i, row in enumerate(rows):
            values = [_fmt(row.as_row()[c]) for c in COLUMNS]
            if clusters is not None:
                values.append(clusters[i])
            w.writerow(values)


def read_summary_csv(path: str | Path) -> tuple[list[FactorSummary], list[str] | None]:
    """Read a summary CSV, returning rows and the CLUSTER column if present."""
    path = Path(path)
    if not path.exists():
        raise MissingInputError(f"summary file not found: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header[: len(COLUMNS)]) != COLUMNS:
            raise ConfigError(
                f"summary header must start with {','.join(COLUMNS)}, got {header}"
            )
        has_cluster = header == list(COLUMNS) + ["CLUSTER"]
        if not has_cluster and header != list(COLUMNS):
            raise ConfigError(f"unexpected summary columns: {header}")
        rows: list[FactorSummary] = []
        clusters: list[str] = []
        for rec in reader:
            named = dict(zip(header, rec))
            rows.append(
                FactorSummary(
                    sp_max=named["SP_max"],
                    sp_max_roi=named["SP_max_ROI"],
                    sp_min=named["SP_min"],
                    sp_min_roi=named["SP_min_ROI"],
                    in_min=float(named["IN_min"]),
                    in_max=float(named["IN_max"]),
                    in_mean=float(named["IN_mean"]),
                    roi=named["ROI"],
                    sp_cor=float(named["SP_cor"]),
                    ti_max=float(named["TI_max"]),
                    event=named["EVENT"],
                    stim=named["STIM"],
                    mod=named["MOD"],
                )
            )
            if has_cluster:
                clusters.append(named["CLUSTER"])
    return rows, (clusters if has_cluster else None)
