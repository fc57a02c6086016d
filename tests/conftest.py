import os
from pathlib import Path

import numpy as np
import pytest

from nof import decomposition, testbed

# Tests that start `python -m nof.cli` or `import nof` in a subprocess need
# the same source tree that pytest's `pythonpath` setting puts on sys.path.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)


@pytest.fixture(scope="session")
def montage():
    return testbed.default_montage()


@pytest.fixture(scope="session")
def two_pattern_epochs(montage):
    """Seeded two-source dataset shared by the signal-path tests."""
    _, templates = testbed.two_pattern_preset(montage)
    return testbed.generate_dataset(
        templates=templates,
        mixing_noise=0.1,
        noise_std=0.5,
        n_trials=60,
        seed=11,
        montage=montage,
        conditions=[
            {"EVENT": "stimon", "STIM": "s1", "MOD": "visual"},
            {"EVENT": "stimon", "STIM": "s2", "MOD": "visual"},
        ],
    )


@pytest.fixture(scope="session")
def two_pattern_templates(montage):
    _, templates = testbed.two_pattern_preset(montage)
    return templates


@pytest.fixture(scope="session")
def two_pattern_decomposition(two_pattern_epochs):
    white = decomposition.center_and_whiten(two_pattern_epochs, 2)
    dec = decomposition.fastica(white, seed=3)
    return white, dec


def make_montage(spec: dict[str, str]) -> testbed.ChannelMontage:
    """Tiny montage helper: {'Fz': 'frontal', ...} in insertion order."""
    return testbed.ChannelMontage(tuple(spec.keys()), dict(spec))


def wrap_as_epochs(data: np.ndarray, fs: float = 250.0, t0: float = 0.0,
                   n_trials: int = 1, info: dict | None = None):
    """channels x samples matrix -> EpochTensor with a generic montage."""
    n_channels, n_samples = data.shape
    if n_samples % n_trials:
        raise ValueError("samples must divide into trials")
    m = testbed.ChannelMontage(
        tuple(f"ch{i}" for i in range(n_channels)),
        {f"ch{i}": "roi0" for i in range(n_channels)},
    )
    shaped = data.reshape(n_channels, n_trials, -1).transpose(1, 0, 2)
    info = info or dict(testbed.DEFAULT_CONDITION)
    return testbed.EpochTensor(
        data=shaped, fs=fs, t0=t0, montage=m,
        trial_info=[dict(info) for _ in range(n_trials)],
    )
