"""PCA whitening and FastICA source separation over concatenated epochs.

Trials are concatenated along time before decomposition. Only the model is
stored; factor activations are recomputed from it and the epochs. The FastICA
variant is the symmetric (parallel) fixed-point iteration with the tanh
(log-cosh) contrast, one factor per whitened component, fully deterministic
for a fixed seed.
"""
from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, MissingInputError, NumericalError
from .testbed import EpochTensor

_RANK_RTOL = 1e-10
# FastICA stops once every unmixing row turns by less than this between iterations
_ICA_TOL = 1e-6


@dataclass
class WhitenedData:
    """Channel data projected onto a unit-covariance principal subspace."""

    whitened: np.ndarray      # components x samples
    whitening: np.ndarray     # components x channels
    dewhitening: np.ndarray   # channels x components, column norms sqrt(eigenvalues), descending
    mean: np.ndarray          # per-channel mean removed before projection
    channels: tuple[str, ...]
    n_trials: int
    n_timepoints: int

    @property
    def n_components(self) -> int:
        return self.whitened.shape[0]


def _concatenate(epochs: EpochTensor, overwrite: bool = False) -> np.ndarray:
    """channels x (trials * timepoints), trials laid out contiguously in time.

    A fresh C-order copy, even for one trial, so callers may center it in
    place without touching `epochs.data`; with overwrite, a view of
    `epochs.data` instead whenever its (1, 0, 2) transpose is C-contiguous.
    """
    X = epochs.data.transpose(1, 0, 2)
    if not (overwrite and X.flags.c_contiguous):
        X = np.array(X, order="C")
    return X.reshape(epochs.n_channels, -1)


def center_and_whiten(
    epochs: EpochTensor, n_components: int | None = None, *, overwrite: bool = False
) -> WhitenedData:
    """Remove the channel means and whiten via the covariance eigenbasis.

    n_components is a count of at least 1, no more than the numerical rank,
    or None for the full rank. Components come out ordered by descending
    eigenvalue and the sample covariance (ddof=1) of the output is the
    identity.

    A constant channel (every sample equal, whatever its value) raises
    NumericalError naming it. The epochs are concatenated into a
    channels x samples copy that is centered in place, so the call holds one
    copy of the tensor besides `epochs.data`. With overwrite, like scipy's
    `overwrite_a`, a tensor loaded with `EpochTensor.load(...,
    channels_major=True)` is centered in `epochs.data` itself and no copy is
    made: `epochs.data` then holds the centered samples. Other layouts are
    copied as without it. The result is the same either way.
    """
    X = _concatenate(epochs, overwrite)
    n_channels, n_samples = X.shape
    if n_samples <= n_channels:
        raise ConfigError(
            f"need more samples ({n_samples}) than channels ({n_channels}) to whiten"
        )
    dead = np.flatnonzero(X.max(axis=1) == X.min(axis=1))
    if dead.size:
        name = epochs.montage.channels[int(dead[0])]
        raise NumericalError(f"channel {name!r} is constant (zero variance)")
    mean = X.mean(axis=1)
    X -= mean[:, None]
    cov = (X @ X.T) / (n_samples - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    rank = int(np.sum(eigvals > eigvals[0] * _RANK_RTOL))
    if n_components is None:
        m = rank
    else:
        m = int(n_components)
        if m < 1:
            raise ConfigError("n_components must be >= 1")
        if m > rank:
            raise NumericalError(f"requested {m} components but the data rank is {rank}")
    kept = eigvals[:m]
    scale = 1.0 / np.sqrt(kept)
    whitening = scale[:, None] * eigvecs[:, :m].T
    dewhitening = eigvecs[:, :m] * np.sqrt(kept)[None, :]
    whitened = whitening @ X
    return WhitenedData(
        whitened=whitened,
        whitening=whitening,
        dewhitening=dewhitening,
        mean=mean,
        channels=tuple(epochs.montage.channels),
        n_trials=epochs.n_trials,
        n_timepoints=epochs.n_timepoints,
    )


@dataclass
class FastIcaConfig:
    max_iter: int = 500
    seed: int = 0


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
        X = _concatenate(epochs)
        X -= self.mean[:, None]
        return self.unmixing @ X

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
        # json.dumps encodes in C; json.dump always runs the pure-Python encoder
        with open(path, "w") as fh:
            fh.write(json.dumps(doc, sort_keys=True))

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


def _sym_decorrelate(W: np.ndarray) -> np.ndarray:
    # W <- (W W^T)^{-1/2} W, keeping all rows mutually orthonormal.
    s, u = np.linalg.eigh(W @ W.T)
    if np.min(s) <= 0:
        raise NumericalError("rotation collapsed during symmetric decorrelation")
    return (u * (1.0 / np.sqrt(s))) @ u.T @ W


def fastica(white: WhitenedData, config: FastIcaConfig | None = None) -> FactorDecomposition:
    """Symmetric fixed-point ICA on whitened data, one factor per whitened
    component.

    Returns the decomposition in channel space; non-convergence keeps the
    best iterate, flags converged=False and emits a warning.
    """
    config = config or FastIcaConfig()
    Z = white.whitened
    k, n_samples = Z.shape
    if n_samples < k:
        raise ConfigError("fewer samples than whitened components")

    rng = np.random.default_rng(config.seed)
    W = _sym_decorrelate(rng.standard_normal((k, k)))
    converged = False
    n_iter = config.max_iter
    # two k x n work arrays, reused by every iteration: g = tanh(W Z), h = 1 - g^2
    g = np.empty((k, n_samples))
    h = np.empty_like(g)
    for it in range(1, config.max_iter + 1):
        np.tanh(np.matmul(W, Z, out=g), out=g)
        np.square(g, out=h)
        g_prime = np.subtract(1.0, h, out=h).mean(axis=1)
        W_new = _sym_decorrelate((g @ Z.T) / n_samples - g_prime[:, None] * W)
        lim = float(np.max(np.abs(np.abs(np.einsum("ij,ij->i", W_new, W)) - 1.0)))
        W = W_new
        if lim < _ICA_TOL:
            converged = True
            n_iter = it
            break
    if not converged:
        warnings.warn(
            f"fastica did not converge within {config.max_iter} iterations",
            RuntimeWarning,
        )

    del h  # std allocates one k x n temporary of its own
    scales = np.matmul(W, Z, out=g).std(axis=1)
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

