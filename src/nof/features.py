"""Per-factor, per-condition summary attributes.

Each factor x condition pair collapses to one row of 12 spatiotemporal
attributes, a dict keyed by the names in COLUMNS, in that order (the decision
tree breaks gain ties by it). summary.csv, those rows and nothing else, is the
contract between the front half of the pipeline (signal processing) and the
back half (mining); the cluster labels live in cluster_model.json.

Definitions, since the attribute names alone do not fix formulas:
  * SP_max / SP_min are the argmax/argmin channels of the factor topography
    (plain weights, not magnitudes); ties break to the lowest channel index
    with a warning.
  * IN_min / IN_max / TI_max come from the factor's back-projected waveform
    at the SP_max channel, averaged over the condition's trials. TI_max uses
    the maximum |amplitude| so negative deflections get correct latencies.
    The activation is linear in the data, so each condition's trials are
    averaged once and every factor projects that average.
  * IN_mean is the mean over both time and every channel of the
    back-projected factor signal.
  * SP_cor is the zero-lag Pearson correlation between the factor topography
    and a target-pattern topography.
"""
from __future__ import annotations

import csv
import warnings
from pathlib import Path

import numpy as np

from .classification import Row
from .decomposition import FactorDecomposition
from .errors import ConfigError, MissingInputError, ParseError
from .testbed import EpochTensor, METADATA_KEYS, group_trials, mean_of_trials

COLUMNS = (
    "SP_max",
    "SP_max_ROI",
    "SP_min",
    "SP_min_ROI",
    "IN_min",
    "IN_max",
    "IN_mean",
    "SP_cor",
    "TI_max",
) + METADATA_KEYS

NUMERIC_COLUMNS = ("IN_min", "IN_max", "IN_mean", "SP_cor", "TI_max")
CATEGORICAL_COLUMNS = tuple(c for c in COLUMNS if c not in NUMERIC_COLUMNS)


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


def _check_inputs(
    dec: FactorDecomposition, epochs: EpochTensor, template: np.ndarray
) -> np.ndarray:
    """The template as a float array, once it and the epochs fit `dec`."""
    dec.check_epochs(epochs)
    template = np.asarray(template, dtype=float)
    if template.size != epochs.n_channels:
        raise ConfigError(
            f"template length {template.size} does not match channel count {epochs.n_channels}"
        )
    return template


def _condition_average(
    dec: FactorDecomposition, epochs: EpochTensor, trials: list[int]
) -> np.ndarray:
    """The centered channels x timepoints average of the selected trials."""
    # summed trial by trial: bit-identical to a masked mean, and no copy is made
    avg = mean_of_trials(epochs, trials)
    avg -= dec.mean[:, None]
    return avg


def _factor_part(
    dec: FactorDecomposition, epochs: EpochTensor, j: int, template: np.ndarray
) -> tuple[dict[str, str | float], float, np.ndarray]:
    """What every row of factor j shares: its spatial columns, its topography
    weight at SP_max and its whole topography."""
    topo = dec.mixing[:, j]
    i_max = _argmax_with_tie_warning(topo, "topography argmax")
    i_min = _argmax_with_tie_warning(-topo, "topography argmin")
    sp_max = epochs.montage.channels[i_max]
    sp_min = epochs.montage.channels[i_min]
    spatial = {
        "SP_max": sp_max,
        "SP_max_ROI": epochs.montage.roi(sp_max),
        "SP_min": sp_min,
        "SP_min_ROI": epochs.montage.roi(sp_min),
        "SP_cor": _pearson(topo, template),
    }
    return spatial, topo[i_max], topo


def _summary_row(
    dec: FactorDecomposition,
    epochs: EpochTensor,
    j: int,
    factor: tuple[dict[str, str | float], float, np.ndarray],
    condition: dict[str, str],
    trials: list[int],
    centered_avg: np.ndarray,
) -> Row:
    spatial, weight_at_max, topo = factor
    avg_act = dec.unmixing[j] @ centered_avg
    if not np.any(avg_act):
        warnings.warn(
            f"factor {dec.factor_ids[j]} has an all-zero averaged activation", UserWarning
        )
    wave_at_max = weight_at_max * avg_act
    peak = int(np.argmax(np.abs(wave_at_max)))

    row = {
        **spatial,
        "IN_min": float(wave_at_max.min()),
        "IN_max": float(wave_at_max.max()),
        "IN_mean": float(np.mean(np.outer(topo, avg_act))),
        "TI_max": float(epochs.t0 + peak * 1000.0 / epochs.fs),
        **{k: _condition_value(condition, k, epochs, trials) for k in METADATA_KEYS},
    }
    # keys in COLUMNS order: the decision tree breaks gain ties by it
    return {c: row[c] for c in COLUMNS}


def extract_summary(
    dec: FactorDecomposition,
    epochs: EpochTensor,
    factor: str,
    condition: dict[str, str],
    template: np.ndarray,
) -> Row:
    """One summary row for a factor under a metadata condition."""
    template = _check_inputs(dec, epochs, template)
    j = dec.factor_index(factor)
    trials = _select_trials(epochs, condition)
    centered_avg = _condition_average(dec, epochs, trials)
    part = _factor_part(dec, epochs, j, template)
    return _summary_row(dec, epochs, j, part, condition, trials, centered_avg)


def summarize_dataset(
    dec: FactorDecomposition, epochs: EpochTensor, template: np.ndarray
) -> list[Row]:
    """All factor x condition rows, factor-major, conditions sorted; a
    condition is one combination of the METADATA_KEYS values.

    Equal to `extract_summary` for every factor and condition, but the
    trials are grouped by condition in one pass, each condition's trials are
    averaged once for all factors, and each factor's spatial columns are
    computed once for all conditions.
    """
    template = _check_inputs(dec, epochs, template)
    conds = []
    for key, trials in group_trials(epochs, METADATA_KEYS).items():
        cond = dict(zip(METADATA_KEYS, key))
        # a value unequal to itself (NaN) matches no trial in extract_summary
        if any(v != v for v in key):
            raise ConfigError(f"condition {cond} selects no trials")
        conds.append((cond, trials, _condition_average(dec, epochs, trials)))
    rows: list[Row] = []
    for j in range(dec.n_factors):
        part = _factor_part(dec, epochs, j, template)
        rows.extend(
            _summary_row(dec, epochs, j, part, cond, trials, centered_avg)
            for cond, trials, centered_avg in conds
        )
    return rows


def _fmt(value: float | str) -> str:
    if isinstance(value, str):
        return value
    return repr(float(value))


def write_summary_csv(rows: list[Row], path: str | Path) -> None:
    """Write the 12-column summary CSV."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(COLUMNS)
        w.writerows([_fmt(row[c]) for c in COLUMNS] for row in rows)


def read_summary_csv(path: str | Path) -> list[Row]:
    """Read a summary CSV back into rows, numeric columns as floats."""
    path = Path(path)
    if not path.exists():
        raise MissingInputError(f"summary file not found: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != list(COLUMNS):
            raise ConfigError(f"summary header must be {','.join(COLUMNS)}, got {header}")
        rows: list[Row] = []
        for lineno, rec in enumerate(reader, start=2):
            if len(rec) != len(COLUMNS):
                raise ParseError(f"expected {len(COLUMNS)} fields, got {len(rec)}", line=lineno)
            row: Row = dict(zip(COLUMNS, rec))
            for c in NUMERIC_COLUMNS:
                try:
                    row[c] = float(row[c])
                except ValueError:
                    raise ParseError(f"{c} {row[c]!r} is not a number", line=lineno) from None
            rows.append(row)
    return rows
