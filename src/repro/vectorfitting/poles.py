"""Initial pole placement for vector fitting.

Gustavsen & Semlyen recommend starting poles as lightly damped complex
conjugate pairs whose imaginary parts are spread over the frequency band of
the data, with real parts a fixed (small) fraction of the imaginary parts.
Good starting poles matter mostly for convergence speed; the relocation
iteration moves them to the correct positions regardless.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_positive_integer
from repro.vectorfitting.kernels import PoleGrouping

__all__ = ["initial_poles", "sort_poles"]


def sort_poles(poles: np.ndarray) -> np.ndarray:
    """Order poles with conjugate pairs adjacent (positive imaginary part first).

    Poles group by :meth:`~repro.vectorfitting.kernels.PoleGrouping.from_poles`.
    Real poles come first (sorted ascending), then each conjugate pair as
    its upper-half-plane member followed by that member's exact conjugate,
    sorted by ``(|Im|, Re)``.  Unpaired positives -- the upper-half-plane
    input convention -- are then mirrored while room remains; a genuine
    pair is never displaced to make that room.  Any leftover unpaired pole
    (no room for a mirror, or a lower-half-plane pole whose partner was lost
    to relocation round-off) is replaced by a *real* pole at its own real
    part, so the result always groups without unpaired poles.  Mirroring
    takes priority over leftover fills: when a mirrored positive consumes
    the last slots, a leftover is dropped rather than realified.
    """
    poles = np.asarray(poles, dtype=complex).ravel()
    n = poles.size
    grouping = PoleGrouping.from_poles(poles)

    def order(values):
        return sorted(values.tolist(), key=lambda p: (abs(p.imag), p.real))

    first = poles[grouping.pair_first]
    uppers = np.where(first.imag > 0, first, poles[grouping.pair_second])
    unpaired = poles[grouping.unpaired_indices]
    ordered = [complex(r, 0.0) for r in sorted(poles[grouping.real_indices].real.tolist())]
    for pole in order(uppers):
        # the exact conjugate, not the stored partner (which may differ in
        # the last bits), so every emitted pair is exactly conjugate
        ordered += [pole, pole.conjugate()]
    leftovers: list[complex] = []
    for pole in order(unpaired[unpaired.imag > 0]):
        if len(ordered) + 2 <= n:
            ordered += [pole, pole.conjugate()]
        else:
            leftovers.append(pole)
    leftovers += unpaired[unpaired.imag < 0].tolist()
    for pole in leftovers:
        # distinct real fills (one per leftover pole, at its own real part)
        # keep the partial-fraction basis columns independent
        if len(ordered) >= n:
            break
        ordered.append(complex(pole.real, 0.0))
    return np.asarray(ordered, dtype=complex)


def initial_poles(
    n_poles: int,
    f_min_hz: float,
    f_max_hz: float,
    *,
    damping_ratio: float = 0.01,
    spacing: str = "linear",
) -> np.ndarray:
    """Generate starting poles spread over ``[f_min_hz, f_max_hz]``.

    Parameters
    ----------
    n_poles:
        Total number of poles.  An odd count gets one extra real pole at the
        low end of the band; the rest are complex conjugate pairs (stored
        adjacently, ``+j`` imaginary part first).
    f_min_hz, f_max_hz:
        Frequency band of the data.
    damping_ratio:
        Ratio ``|Re| / |Im|`` of the starting poles (Gustavsen's 1 %).
    spacing:
        ``"linear"`` or ``"log"`` spacing of the imaginary parts.

    Returns
    -------
    numpy.ndarray
        Complex array of length ``n_poles`` with conjugate pairs adjacent.
    """
    n_poles = check_positive_integer(n_poles, "n_poles")
    if f_min_hz <= 0 or f_max_hz <= f_min_hz:
        raise ValueError("require 0 < f_min_hz < f_max_hz")
    if damping_ratio <= 0:
        raise ValueError("damping_ratio must be positive")
    if spacing not in ("linear", "log"):
        raise ValueError(f"spacing must be 'linear' or 'log', got {spacing!r}")

    n_pairs = n_poles // 2
    has_real = n_poles % 2 == 1
    w_min = 2.0 * np.pi * f_min_hz
    w_max = 2.0 * np.pi * f_max_hz
    if n_pairs:
        if spacing == "linear":
            omegas = np.linspace(w_min, w_max, n_pairs)
        else:
            omegas = np.logspace(np.log10(w_min), np.log10(w_max), n_pairs)
    else:
        omegas = np.zeros(0)
    poles = []
    if has_real:
        poles.append(complex(-w_min, 0.0))
    for omega in omegas:
        poles.append(complex(-damping_ratio * omega, omega))
        poles.append(complex(-damping_ratio * omega, -omega))
    return np.asarray(poles, dtype=complex)
