"""Time-domain simulation of descriptor systems.

The macromodels produced by MFTI/VFTI are ultimately consumed by circuit or
signal-integrity simulators in the time domain, so the reproduction includes a
small simulation layer: impulse and step responses and general linear
simulation (`lsim`-style) with zero-order-hold discretisation.  Systems with a
singular ``E`` are handled by regularising the pencil through the implicit
trapezoidal discretisation, which only needs ``(E - h/2 A)`` to be invertible.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.systems.statespace import DescriptorSystem
from repro.utils.validation import ensure_1d, ensure_2d

__all__ = ["simulate_lsim", "impulse_response", "step_response"]


def simulate_lsim(
    system: DescriptorSystem,
    inputs: np.ndarray,
    time: np.ndarray,
    *,
    x0: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Simulate the response of ``system`` to a sampled input signal.

    The descriptor equation ``E x' = A x + B u`` is integrated with the
    trapezoidal rule (implicit, A-stable), which handles singular ``E``
    provided the pencil ``E - (h/2) A`` is invertible (true for any regular
    pencil and small enough step).

    Parameters
    ----------
    system:
        The descriptor system to simulate.
    inputs:
        Array of shape ``(len(time), m)`` (or ``(len(time),)`` for SISO input).
    time:
        Strictly increasing, uniformly spaced time grid.
    x0:
        Optional initial state (defaults to zero).

    Returns
    -------
    numpy.ndarray
        Output samples of shape ``(len(time), p)``.
    """
    time = ensure_1d(time, "time", dtype=float)
    if time.size < 2:
        raise ValueError("time grid must contain at least two points")
    steps = np.diff(time)
    h = float(steps[0])
    if h <= 0 or not np.allclose(steps, h, rtol=1e-8, atol=0.0):
        raise ValueError("time grid must be uniformly spaced and increasing")

    if np.iscomplexobj(inputs):
        raise TypeError(
            "inputs must be real-valued: the integrator simulates the real "
            "time-domain system, and a silent complex->float cast would drop "
            "the imaginary part"
        )
    u = np.asarray(inputs, dtype=float)
    if u.ndim == 1:
        u = u.reshape(-1, 1)
    u = ensure_2d(u, "inputs")
    if u.shape != (time.size, system.n_inputs):
        raise ValueError(f"inputs must have shape {(time.size, system.n_inputs)}, got {u.shape}")

    n = system.order
    if x0 is not None and np.iscomplexobj(x0):
        raise TypeError(
            "x0 must be real-valued: a silent complex->float cast would drop "
            "the imaginary part of the initial state"
        )
    x = np.zeros(n) if x0 is None else ensure_1d(x0, "x0", dtype=float)
    if x.size != n:
        raise ValueError(f"x0 must have length {n}, got {x.size}")

    e, a, b, c, d = (
        np.asarray(m, dtype=float) for m in (system.E, system.A, system.B, system.C, system.D)
    )
    left = e - 0.5 * h * a
    right = e + 0.5 * h * a
    from scipy.linalg import lu_factor, lu_solve

    # one LU factorization reused every step: backward-stable where the
    # explicit inverse (the former np.linalg.inv here) loses digits on
    # ill-conditioned pencils E - (h/2) A
    lu_piv = lu_factor(left)
    y = np.empty((time.size, system.n_outputs))
    y[0] = c @ x + d @ u[0]
    for k in range(time.size - 1):
        rhs = right @ x + 0.5 * h * b @ (u[k] + u[k + 1])
        x = lu_solve(lu_piv, rhs)
        y[k + 1] = c @ x + d @ u[k + 1]
    return y


def impulse_response(
    system: DescriptorSystem,
    t_final: float,
    n_points: int = 500,
    *,
    input_index: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Approximate impulse response from the selected input to all outputs.

    The Dirac impulse is approximated by a single-sample pulse at ``t = 0``
    whose height is chosen so the trapezoidal quadrature used by the
    integrator assigns it unit area (``2/h``); the result converges to the
    true impulse response as the grid is refined.

    Returns ``(time, outputs)`` with ``outputs`` of shape ``(n_points, p)``.
    """
    if t_final <= 0:
        raise ValueError("t_final must be positive")
    if n_points < 2:
        raise ValueError(f"n_points must be at least 2 to span a time grid, got {n_points}")
    if not 0 <= input_index < system.n_inputs:
        raise ValueError(f"input_index must lie in [0, {system.n_inputs})")
    time = np.linspace(0.0, float(t_final), int(n_points))
    h = time[1] - time[0]
    u = np.zeros((time.size, system.n_inputs))
    u[0, input_index] = 2.0 / h
    return time, simulate_lsim(system, u, time)


def step_response(
    system: DescriptorSystem,
    t_final: float,
    n_points: int = 500,
    *,
    input_index: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Unit step response from the selected input to all outputs.

    Returns ``(time, outputs)`` with ``outputs`` of shape ``(n_points, p)``.
    """
    if t_final <= 0:
        raise ValueError("t_final must be positive")
    if n_points < 2:
        raise ValueError(f"n_points must be at least 2 to span a time grid, got {n_points}")
    if not 0 <= input_index < system.n_inputs:
        raise ValueError(f"input_index must lie in [0, {system.n_inputs})")
    time = np.linspace(0.0, float(t_final), int(n_points))
    u = np.zeros((time.size, system.n_inputs))
    u[:, input_index] = 1.0
    return time, simulate_lsim(system, u, time)
