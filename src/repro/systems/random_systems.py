"""Random benchmark-system generators.

The paper's Example 1 samples scattering matrices from a known *order-150
system with 30 ports* and then studies how many samples each interpolation
flavour needs to recover it.  The authors do not publish that system, so this
module generates random stable MIMO state-space systems with controllable
order, port count, damping and frequency range -- the properties that matter
for the experiment -- and exposes :func:`example1_system` as the fixed,
seeded stand-in used by the Example-1 reproduction.

The generated systems have poles placed as damped complex-conjugate pairs
spread log-uniformly over a configurable frequency band, which mimics the
resonance structure of interconnect/package models far better than an i.i.d.
Gaussian ``A`` matrix would.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.systems.statespace import StateSpace
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.validation import check_positive_integer

__all__ = [
    "random_stable_system",
    "example1_system",
]


def _pole_block(omega: float, zeta: float) -> np.ndarray:
    """Real 2x2 block realizing the conjugate pole pair ``-zeta*omega +/- j*omega*sqrt(1-zeta^2)``."""
    real = -zeta * omega
    imag = omega * np.sqrt(max(0.0, 1.0 - zeta * zeta))
    return np.array([[real, imag], [-imag, real]])


def random_stable_system(
    order: int,
    n_ports: int,
    *,
    freq_min_hz: float = 1e1,
    freq_max_hz: float = 1e5,
    damping_min: float = 0.005,
    damping_max: float = 0.15,
    feedthrough: Optional[float] = 0.1,
    gain_scale: float = 1.0,
    seed: RandomState = None,
) -> StateSpace:
    """Generate a random stable MIMO state-space system with resonant dynamics.

    Parameters
    ----------
    order:
        State dimension.  Odd orders get one additional real pole.
    n_ports:
        Number of inputs = number of outputs (square system, as for S-parameters).
    freq_min_hz, freq_max_hz:
        Band over which the resonance (natural) frequencies are spread
        log-uniformly.
    damping_min, damping_max:
        Range of damping ratios (uniform) for the complex pole pairs.
    feedthrough:
        Standard deviation of the random ``D`` matrix; ``None`` or ``0`` for
        no direct feed-through.
    gain_scale:
        Overall scale of the ``B``/``C`` maps.
    seed:
        Seed / generator for reproducibility.

    Returns
    -------
    StateSpace
        A real, stable system with ``order`` states and ``n_ports`` ports.
    """
    order = check_positive_integer(order, "order")
    n_ports = check_positive_integer(n_ports, "n_ports")
    if freq_min_hz <= 0 or freq_max_hz <= freq_min_hz:
        raise ValueError("require 0 < freq_min_hz < freq_max_hz")
    if not 0 < damping_min <= damping_max < 1:
        raise ValueError("require 0 < damping_min <= damping_max < 1")
    rng = ensure_rng(seed)

    n_pairs = order // 2
    blocks = []
    state_weights = np.zeros(order)
    if n_pairs:
        log_lo, log_hi = np.log10(freq_min_hz), np.log10(freq_max_hz)
        freqs = 10.0 ** rng.uniform(log_lo, log_hi, size=n_pairs)
        zetas = rng.uniform(damping_min, damping_max, size=n_pairs)
        blocks = [_pole_block(2.0 * np.pi * f, z) for f, z in zip(freqs, zetas)]
    a = np.zeros((order, order))
    pos = 0
    for i, blk in enumerate(blocks):
        a[pos : pos + 2, pos : pos + 2] = blk
        # weight chosen so each mode's resonant peak is O(1):
        # peak ~ ||c_mode|| * ||b_mode|| / (zeta * omega) and the Gaussian
        # port maps give ||b_mode|| ~ sqrt(n_ports) * weight
        omega = 2.0 * np.pi * freqs[i]
        state_weights[pos : pos + 2] = np.sqrt(zetas[i] * omega / n_ports)
        pos += 2
    if pos < order:
        # one leftover real pole for odd orders, placed mid-band
        zeta = rng.uniform(damping_min, damping_max)
        omega = 2.0 * np.pi * np.sqrt(freq_min_hz * freq_max_hz) * zeta
        a[pos, pos] = -omega
        state_weights[pos] = np.sqrt(omega / n_ports)

    b = rng.normal(size=(order, n_ports))
    c = rng.normal(size=(n_ports, order))
    b = gain_scale * b * state_weights[:, np.newaxis]
    c = c * state_weights[np.newaxis, :]

    if feedthrough:
        d = rng.normal(scale=float(feedthrough), size=(n_ports, n_ports))
    else:
        d = np.zeros((n_ports, n_ports))
    return StateSpace(a, b, c, d)


#: Seed used for the fixed Example-1 benchmark system so every run of the
#: experiments, tests and benchmarks sees exactly the same system.
EXAMPLE1_SEED = 20100613  # DAC 2010 opened on June 13, 2010


def example1_system(
    *,
    order: int = 150,
    n_ports: int = 30,
    seed: RandomState = EXAMPLE1_SEED,
) -> StateSpace:
    """The fixed order-150, 30-port benchmark system of the paper's Example 1.

    The paper samples 8 scattering matrices from "an order-150 system with 30
    ports"; the exact system is not published, so this function returns a
    seeded random stable system with those dimensions, a modest direct
    feed-through (so that ``rank(D0) > 0`` and Theorem 3.5's
    ``order + rank(D0)`` bound is exercised), and resonances across the
    10 Hz - 100 kHz band shown in the paper's Fig. 2.
    """
    return random_stable_system(
        order,
        n_ports,
        freq_min_hz=1e1,
        freq_max_hz=1e5,
        damping_min=0.02,
        damping_max=0.3,
        feedthrough=0.05,
        seed=seed,
    )
