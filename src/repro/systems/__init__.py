"""Descriptor-system / state-space substrate.

This package implements the LTI modeling target of the paper (eq. 1):

``E x'(t) = A x(t) + B u(t)``, ``y(t) = C x(t) + D u(t)``

with possibly singular ``E`` (a *descriptor system*, DS).  It provides

* :class:`~repro.systems.statespace.DescriptorSystem` -- the central model
  class with transfer-function evaluation ``H(s) = C (sE - A)^{-1} B + D``,
* the shared vectorized sweep-evaluation kernel (batched stacked-pencil
  solves, the shift-invert eigendecomposition fast path and pole-residue
  Cauchy evaluation) in :mod:`repro.systems.evaluation`,
* system analysis (poles, stability) in :mod:`repro.systems.analysis`,
* time-domain simulation in :mod:`repro.systems.timedomain` (per-step
  trapezoidal integration) and the batched spectral (inverse-FFT) pathway in
  :mod:`repro.systems.spectral`,
* pointwise network-parameter conversions (impedance / admittance /
  scattering) in :mod:`repro.systems.interconnect`,
* generators of random benchmark systems (e.g. the order-150, 30-port system
  of the paper's Example 1) in :mod:`repro.systems.random_systems`.
"""

from repro.systems.statespace import DescriptorSystem, StateSpace
from repro.systems.evaluation import (
    EvaluationPlan,
    build_evaluation_plan,
    evaluate_cauchy,
    evaluate_descriptor,
    evaluate_pointwise,
)
from repro.systems.analysis import is_stable, poles, spectral_abscissa
from repro.systems.interconnect import s_to_y, s_to_z, y_to_s, z_to_s
from repro.systems.random_systems import example1_system, random_stable_system
from repro.systems.spectral import (
    SpectralGrid,
    batch_time_responses,
    build_spectral_grid,
    grid_nonuniform_spectrum,
)
from repro.systems.timedomain import impulse_response, simulate_lsim, step_response

__all__ = [
    "DescriptorSystem",
    "StateSpace",
    "EvaluationPlan",
    "build_evaluation_plan",
    "evaluate_descriptor",
    "evaluate_pointwise",
    "evaluate_cauchy",
    "poles",
    "spectral_abscissa",
    "is_stable",
    "s_to_y",
    "s_to_z",
    "y_to_s",
    "z_to_s",
    "random_stable_system",
    "example1_system",
    "impulse_response",
    "step_response",
    "simulate_lsim",
    "SpectralGrid",
    "build_spectral_grid",
    "batch_time_responses",
    "grid_nonuniform_spectrum",
]
