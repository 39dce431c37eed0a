"""System analysis: poles and stability.

These routines serve two purposes in the reproduction:

* validating the substrates (the random benchmark systems and the circuits
  produced by the MNA engine must be stable before they are sampled), and
* characterising the models recovered by VFTI / MFTI (pole locations, order,
  stability of the identified descriptor system).

Everything works on :class:`~repro.systems.statespace.DescriptorSystem`
instances, singular ``E`` included: the poles are the generalized
eigenvalues of ``(A, E)``.
"""

from __future__ import annotations

import numpy as np

from repro.systems.statespace import DescriptorSystem
from repro.utils.blas import generalized_eigvals

__all__ = [
    "poles",
    "finite_poles",
    "spectral_abscissa",
    "is_stable",
]

#: Magnitude above which a generalized eigenvalue is treated as "infinite"
#: (an algebraic constraint of the descriptor pencil rather than a dynamic pole).
_INFINITE_POLE_THRESHOLD = 1e12


def poles(system: DescriptorSystem) -> np.ndarray:
    """All generalized eigenvalues of the pencil ``(A, E)`` including infinite ones.

    Infinite eigenvalues are returned as ``numpy.inf`` (with arbitrary sign of
    the imaginary part suppressed).
    """
    alpha, beta = generalized_eigvals(system.A, system.E)
    alpha = np.asarray(alpha).ravel()
    beta = np.asarray(beta).ravel()
    vals = np.empty(alpha.size, dtype=complex)
    for i, (a, b) in enumerate(zip(alpha, beta)):
        if abs(b) <= abs(a) * 1e-14 or b == 0:
            vals[i] = np.inf
        else:
            vals[i] = a / b
    return vals


def finite_poles(system: DescriptorSystem, *, threshold: float = _INFINITE_POLE_THRESHOLD) -> np.ndarray:
    """Finite generalized eigenvalues of ``(A, E)`` -- the dynamic poles of the system."""
    vals = poles(system)
    finite = vals[np.isfinite(vals)]
    return finite[np.abs(finite) < threshold]


def spectral_abscissa(system: DescriptorSystem) -> float:
    """Largest real part among the finite poles (``-inf`` for a static system)."""
    p = finite_poles(system)
    if p.size == 0:
        return float("-inf")
    return float(np.max(p.real))


def is_stable(system: DescriptorSystem, *, margin: float = 0.0) -> bool:
    """True when every finite pole satisfies ``Re(pole) < -margin``."""
    return spectral_abscissa(system) < -margin
