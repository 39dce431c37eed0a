"""System analysis: poles, stability, Gramians and Hankel singular values.

These routines serve two purposes in the reproduction:

* validating the substrates (the random benchmark systems and the circuits
  produced by the MNA engine must be stable before they are sampled), and
* characterising the models recovered by VFTI / MFTI (pole locations, order,
  stability of the identified descriptor system).

Everything works on :class:`~repro.systems.statespace.DescriptorSystem`
instances; Gramian-based analysis additionally requires an invertible ``E``
(it converts to explicit state-space form internally).
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
    "controllability_gramian",
    "observability_gramian",
    "hankel_singular_values",
    "minimality_defect",
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


def _explicit(system: DescriptorSystem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return ``(A, B, C)`` of the explicit form ``E^{-1}A, E^{-1}B, C``."""
    a = np.linalg.solve(system.E, system.A)
    b = np.linalg.solve(system.E, system.B)
    return a, b, np.array(system.C)


def controllability_gramian(system: DescriptorSystem) -> np.ndarray:
    """Controllability Gramian ``P`` solving ``A P + P A* + B B* = 0``.

    Requires an invertible ``E`` and a (Hurwitz) stable system.
    """
    a, b, _ = _explicit(system)
    if np.max(np.real(np.linalg.eigvals(a))) >= 0:
        raise ValueError("controllability Gramian requires a stable system")
    import scipy.linalg

    return scipy.linalg.solve_lyapunov(a, -b @ b.conj().T)


def observability_gramian(system: DescriptorSystem) -> np.ndarray:
    """Observability Gramian ``Q`` solving ``A* Q + Q A + C* C = 0``."""
    a, _, c = _explicit(system)
    if np.max(np.real(np.linalg.eigvals(a))) >= 0:
        raise ValueError("observability Gramian requires a stable system")
    import scipy.linalg

    return scipy.linalg.solve_lyapunov(a.conj().T, -c.conj().T @ c)


def hankel_singular_values(system: DescriptorSystem) -> np.ndarray:
    """Hankel singular values (square roots of the eigenvalues of ``P Q``), sorted descending."""
    p = controllability_gramian(system)
    q = observability_gramian(system)
    eigvals = np.linalg.eigvals(p @ q)
    eigvals = np.clip(eigvals.real, 0.0, None)
    return np.sort(np.sqrt(eigvals))[::-1]


def minimality_defect(system: DescriptorSystem, *, rtol: float = 1e-9) -> int:
    """Number of Hankel singular values that are numerically zero.

    A defect of zero indicates a (numerically) minimal realization; the
    Loewner realization of Lemma 3.1/3.4 is minimal by construction, and the
    tests use this to verify it.
    """
    hsv = hankel_singular_values(system)
    if hsv.size == 0:
        return 0
    threshold = rtol * float(hsv[0]) if hsv[0] > 0 else 0.0
    return int(np.count_nonzero(hsv <= threshold))
