"""Frequency-grid construction.

The paper's two Example-2 test cases differ only in how the 100 sample
frequencies are distributed over the band: Test 1 uses a uniform grid, Test 2
uses "poorly distributed samples concentrated in the high-frequency band"
(ill-conditioned data).  The generators here produce both, plus logarithmic
grids for Bode-style validation sweeps.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_positive_integer

__all__ = [
    "linear_frequencies",
    "log_frequencies",
    "clustered_frequencies",
]


def _check_band(f_min: float, f_max: float) -> tuple[float, float]:
    f_min, f_max = float(f_min), float(f_max)
    if f_min <= 0 or f_max <= f_min:
        raise ValueError(f"require 0 < f_min < f_max, got ({f_min}, {f_max})")
    return f_min, f_max


def linear_frequencies(f_min: float, f_max: float, count: int) -> np.ndarray:
    """Uniformly spaced frequencies in Hz over ``[f_min, f_max]`` (paper Test 1)."""
    count = check_positive_integer(count, "count")
    f_min, f_max = _check_band(f_min, f_max)
    return np.linspace(f_min, f_max, count)


def log_frequencies(f_min: float, f_max: float, count: int) -> np.ndarray:
    """Logarithmically spaced frequencies in Hz over ``[f_min, f_max]``."""
    count = check_positive_integer(count, "count")
    f_min, f_max = _check_band(f_min, f_max)
    return np.logspace(np.log10(f_min), np.log10(f_max), count)


def clustered_frequencies(
    f_min: float,
    f_max: float,
    count: int,
    *,
    cluster_fraction: float = 0.85,
    cluster_start_fraction: float = 0.7,
) -> np.ndarray:
    """Ill-conditioned grid: most samples crowded into the top of the band (paper Test 2).

    ``cluster_fraction`` of the points are placed uniformly in the sub-band
    ``[f_min + cluster_start_fraction*(f_max - f_min), f_max]``; the remaining
    points cover the rest of the band sparsely.  The result is sorted and
    strictly increasing.
    """
    count = check_positive_integer(count, "count")
    f_min, f_max = _check_band(f_min, f_max)
    if not 0.0 < cluster_fraction < 1.0:
        raise ValueError("cluster_fraction must lie in (0, 1)")
    if not 0.0 < cluster_start_fraction < 1.0:
        raise ValueError("cluster_start_fraction must lie in (0, 1)")
    n_cluster = max(1, int(round(count * cluster_fraction)))
    n_sparse = max(1, count - n_cluster)
    n_cluster = count - n_sparse
    split = f_min + cluster_start_fraction * (f_max - f_min)
    sparse = np.linspace(f_min, split, n_sparse, endpoint=False)
    cluster = np.linspace(split, f_max, n_cluster)
    freqs = np.sort(np.concatenate([sparse, cluster]))
    # enforce strict monotonicity (duplicate frequencies would make the
    # Loewner denominators vanish)
    eps = (f_max - f_min) * 1e-12
    for i in range(1, freqs.size):
        if freqs[i] <= freqs[i - 1]:
            freqs[i] = freqs[i - 1] + eps
    return freqs
