"""PCA whitening and FastICA source separation over concatenated epochs.

Trials are concatenated along time before decomposition. Only the model is
stored; factor activations are recomputed from it and the epochs. The FastICA
variant is the symmetric (parallel) fixed-point iteration with a tanh or cubic
contrast, fully deterministic for a fixed seed.
"""
from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, MissingInputError, NumericalError
from .testbed import EpochTensor

_RANK_RTOL = 1e-10


@dataclass
class WhitenedData:
    """Channel data projected onto a unit-covariance principal subspace."""

    whitened: np.ndarray      # components x samples
    whitening: np.ndarray     # components x channels
    dewhitening: np.ndarray   # channels x components
    mean: np.ndarray          # per-channel mean removed before projection
    retained_variance: float
    eigenvalues: np.ndarray   # descending, length = components
    channels: tuple[str, ...]
    n_trials: int
    n_timepoints: int

    @property
    def n_components(self) -> int:
        return self.whitened.shape[0]


def _concatenate(epochs: EpochTensor) -> np.ndarray:
    """channels x (trials * timepoints), trials laid out contiguously in time."""
    return np.ascontiguousarray(
        epochs.data.transpose(1, 0, 2).reshape(epochs.n_channels, -1)
    )


def center_and_whiten(
    epochs: EpochTensor, n_components: int | float | None = None
) -> WhitenedData:
    """Remove the channel means and whiten via the covariance eigenbasis.

    n_components may be an integer count, a non-integer variance-fraction
    threshold in (0, 1), or None for the full numerical rank (integral floats
    count as counts). Components come out ordered by descending eigenvalue
    and the sample covariance (ddof=1) of the output is the identity.
    """
    X = _concatenate(epochs)
    n_channels, n_samples = X.shape
    if n_samples <= n_channels:
        raise ConfigError(
            f"need more samples ({n_samples}) than channels ({n_channels}) to whiten"
        )
    variances = X.var(axis=1)
    dead = np.flatnonzero(variances == 0.0)
    if dead.size:
        name = epochs.montage.channels[int(dead[0])]
        raise NumericalError(f"channel {name!r} has zero variance")
    mean = X.mean(axis=1)
    Xc = X - mean[:, None]
    cov = (Xc @ Xc.T) / (n_samples - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    rank = int(np.sum(eigvals > eigvals[0] * _RANK_RTOL))
    if n_components is None:
        m = rank
    elif isinstance(n_components, float) and not float(n_components).is_integer():
        if not 0 < n_components <= 1:
            raise ConfigError("variance threshold must lie in (0, 1]")
        frac = np.cumsum(eigvals) / np.sum(eigvals)
        m = int(np.searchsorted(frac, n_components - 1e-12) + 1)
        m = min(m, rank)
    else:
        m = int(n_components)
        if m < 1:
            raise ConfigError("n_components must be >= 1")
        if m > rank:
            raise NumericalError(
                f"requested {m} components but the data rank is {rank}"
            )
    kept = eigvals[:m]
    scale = 1.0 / np.sqrt(kept)
    whitening = scale[:, None] * eigvecs[:, :m].T
    dewhitening = eigvecs[:, :m] * np.sqrt(kept)[None, :]
    whitened = whitening @ Xc
    return WhitenedData(
        whitened=whitened,
        whitening=whitening,
        dewhitening=dewhitening,
        mean=mean,
        retained_variance=float(np.sum(kept) / np.sum(eigvals)),
        eigenvalues=kept,
        channels=tuple(epochs.montage.channels),
        n_trials=epochs.n_trials,
        n_timepoints=epochs.n_timepoints,
    )


@dataclass
class FastIcaConfig:
    contrast: str = "tanh"   # "tanh" (log-cosh negentropy proxy) or "cube"
    tol: float = 1e-6
    max_iter: int = 500
    seed: int = 0
    n_factors: int | None = None


@dataclass
class FactorDecomposition:
    """Factors FA1..FAk: the ICA model in channel space.

    Activations are `unmixing @ (X - mean)` on the decomposed epochs; their
    rows have unit population variance and the mixing columns (factor
    topographies) absorb the scale. Each topography is flipped so its
    largest-magnitude channel weight is positive. n_trials and n_timepoints
    record the decomposed epoch shape, so that check_epochs can reject epochs
    the model was not fitted on.
    """

    unmixing: np.ndarray      # factors x channels
    mixing: np.ndarray        # channels x factors
    factor_ids: tuple[str, ...]
    channels: tuple[str, ...]
    mean: np.ndarray          # per-channel mean removed before unmixing
    converged: bool
    n_iter: int
    n_trials: int
    n_timepoints: int

    @property
    def n_factors(self) -> int:
        return len(self.factor_ids)

    def factor_index(self, factor_id: str) -> int:
        try:
            return self.factor_ids.index(factor_id)
        except ValueError:
            raise ConfigError(f"unknown factor id {factor_id!r}") from None

    def check_epochs(self, epochs: EpochTensor) -> None:
        """Raise ConfigError unless `epochs` has the decomposed channels and shape."""
        if (epochs.n_trials, epochs.n_timepoints) != (self.n_trials, self.n_timepoints):
            raise ConfigError("decomposition does not match the epoch tensor shape")
        if tuple(self.channels) != tuple(epochs.montage.channels):
            raise ConfigError("decomposition channel space does not match the montage")

    def activations(self, epochs: EpochTensor) -> np.ndarray:
        """factors x (trials * timepoints) activations of the concatenated epochs."""
        self.check_epochs(epochs)
        return self.unmixing @ (_concatenate(epochs) - self.mean[:, None])

    def to_json(self, path: str | Path) -> None:
        doc = {
            "factor_ids": list(self.factor_ids),
            "channels": list(self.channels),
            "unmixing": _mat_doc(self.unmixing),
            "mixing": _mat_doc(self.mixing),
            "mean": list(map(float, self.mean)),
            "converged": self.converged,
            "n_iter": self.n_iter,
            "n_trials": self.n_trials,
            "n_timepoints": self.n_timepoints,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, sort_keys=True)

    @classmethod
    def from_json(cls, path: str | Path) -> "FactorDecomposition":
        path = Path(path)
        if not path.exists():
            raise MissingInputError(f"decomposition file not found: {path}")
        with open(path) as fh:
            doc = json.load(fh)
        return cls(
            unmixing=_mat_undoc(doc["unmixing"]),
            mixing=_mat_undoc(doc["mixing"]),
            factor_ids=tuple(doc["factor_ids"]),
            channels=tuple(doc["channels"]),
            mean=np.asarray(doc["mean"], dtype=float),
            converged=bool(doc["converged"]),
            n_iter=int(doc["n_iter"]),
            n_trials=int(doc["n_trials"]),
            n_timepoints=int(doc["n_timepoints"]),
        )


def _mat_doc(m: np.ndarray) -> dict:
    return {"shape": list(m.shape), "data": [float(v) for v in m.ravel(order="C")]}


def _mat_undoc(doc: dict) -> np.ndarray:
    return np.asarray(doc["data"], dtype=float).reshape(doc["shape"], order="C")


def _contrast_tanh(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    g = np.tanh(u)
    return g, (1.0 - g**2).mean(axis=1)


def _contrast_cube(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return u**3, (3.0 * u**2).mean(axis=1)


def _sym_decorrelate(W: np.ndarray) -> np.ndarray:
    # W <- (W W^T)^{-1/2} W, keeping all rows mutually orthonormal.
    s, u = np.linalg.eigh(W @ W.T)
    if np.min(s) <= 0:
        raise NumericalError("rotation collapsed during symmetric decorrelation")
    return (u * (1.0 / np.sqrt(s))) @ u.T @ W


def fastica(white: WhitenedData, config: FastIcaConfig | None = None) -> FactorDecomposition:
    """Symmetric fixed-point ICA on whitened data.

    Returns the decomposition in channel space; non-convergence keeps the
    best iterate, flags converged=False and emits a warning.
    """
    config = config or FastIcaConfig()
    Z = white.whitened
    m, n_samples = Z.shape
    k = m if config.n_factors is None else int(config.n_factors)
    if k < 1:
        raise ConfigError("need at least one factor")
    if k > m:
        raise ConfigError(
            f"requested {k} factors but only {m} whitened components exist"
        )
    if n_samples < k:
        raise ConfigError("fewer samples than requested factors")
    if config.contrast == "tanh":
        contrast = _contrast_tanh
    elif config.contrast == "cube":
        contrast = _contrast_cube
    else:
        raise ConfigError(f"unknown contrast {config.contrast!r}")

    rng = np.random.default_rng(config.seed)
    W = _sym_decorrelate(rng.standard_normal((k, m)))
    converged = False
    n_iter = config.max_iter
    for it in range(1, config.max_iter + 1):
        U = W @ Z
        g, g_prime = contrast(U)
        W_new = _sym_decorrelate((g @ Z.T) / n_samples - g_prime[:, None] * W)
        lim = float(np.max(np.abs(np.abs(np.einsum("ij,ij->i", W_new, W)) - 1.0)))
        W = W_new
        if lim < config.tol:
            converged = True
            n_iter = it
            break
    if not converged:
        warnings.warn(
            f"fastica did not converge within {config.max_iter} iterations",
            RuntimeWarning,
        )

    scales = (W @ Z).std(axis=1)
    if np.any(scales == 0):
        raise NumericalError("a factor activation has zero variance")
    unmixing = W @ white.whitening / scales[:, None]
    mixing = white.dewhitening @ W.T * scales[None, :]
    # Sign convention: strongest-|weight| channel of each topography positive.
    for j in range(k):
        peak = int(np.argmax(np.abs(mixing[:, j])))
        if mixing[peak, j] < 0:
            mixing[:, j] = -mixing[:, j]
            unmixing[j, :] = -unmixing[j, :]
    factor_ids = tuple(f"FA{i + 1}" for i in range(k))
    return FactorDecomposition(
        unmixing=unmixing,
        mixing=mixing,
        factor_ids=factor_ids,
        channels=white.channels,
        mean=white.mean.copy(),
        converged=converged,
        n_iter=n_iter,
        n_trials=white.n_trials,
        n_timepoints=white.n_timepoints,
    )


def backproject(
    dec: FactorDecomposition,
    factor_subset: list[str] | tuple[str, ...],
    epochs: EpochTensor,
) -> np.ndarray:
    """Channel-space contribution (channels x samples) of the chosen factors.

    Contributions are relative to the removed channel mean; summing over all
    factors reconstructs the retained-subspace projection of the centered input.
    """
    if not factor_subset:
        raise ConfigError("factor subset must be nonempty")
    idx = [dec.factor_index(f) for f in factor_subset]
    return dec.mixing[:, idx] @ dec.activations(epochs)[idx, :]
