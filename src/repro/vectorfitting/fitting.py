"""The vector-fitting iteration (Gustavsen & Semlyen 1999, fast-VF variant).

Each iteration solves, for the current pole set ``{a_n}``, the linearised
least-squares problem

``sum_n c_n^(j) phi_n(s) + d^(j) - F_j(s) * sum_n ctilde_n phi_n(s) ~= F_j(s)``

jointly over every matrix entry ``j`` (common poles), where ``phi_n`` is the
real-coefficient partial-fraction basis.  Only the *shared* scaling
coefficients ``ctilde`` are actually needed to relocate the poles, so the
per-entry unknowns are eliminated by projecting onto the orthogonal complement
of the per-entry basis -- the "fast VF" trick -- which keeps the cost linear
in the number of matrix entries.  The new poles are the zeros of the scaling
function, obtained as eigenvalues of ``A - b ctilde^T`` in the standard real
block form; unstable poles are flipped into the left half-plane.  After the
pole iteration converges the residues of every entry are identified in a
single joint least-squares solve.

The numerical kernels (basis, relocation companion form, per-entry
projection, residue reconstruction) live in :mod:`repro.vectorfitting.kernels`
as batched array operations over a precomputed
:class:`~repro.vectorfitting.kernels.PoleGrouping`; this module only drives the
iteration.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.data.dataset import FrequencyData
from repro.utils.blas import solve_triangular
from repro.utils.linalg import realify
from repro.vectorfitting.kernels import (
    PoleGrouping,
    partial_fraction_basis,
    relocation_matrices,
    residues_from_coefficients,
    vf_scaling_solve,
)
from repro.vectorfitting.poles import initial_poles, sort_poles
from repro.vectorfitting.rational import PoleResidueModel

__all__ = ["VectorFitResult", "vector_fit"]


@dataclass(frozen=True)
class VectorFitResult:
    """Result of a vector-fitting run.

    Attributes
    ----------
    model:
        The fitted :class:`~repro.vectorfitting.rational.PoleResidueModel`.
    n_poles:
        Number of poles requested (and used).
    n_iterations:
        Pole-relocation iterations actually performed.
    pole_history:
        Relative pole displacement per iteration (convergence trace).
    elapsed_seconds:
        Wall-clock time of the whole fit.
    """

    model: PoleResidueModel
    n_poles: int
    n_iterations: int
    pole_history: tuple[float, ...] = field(default_factory=tuple)
    elapsed_seconds: float = 0.0

    @property
    def order(self) -> int:
        """Reported model order (the number of common poles)."""
        return self.n_poles

    def frequency_response(self, frequencies_hz) -> np.ndarray:
        """Evaluate the fitted model along a frequency grid."""
        return self.model.frequency_response(frequencies_hz)

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"vector-fitting: poles={self.n_poles}, iterations={self.n_iterations}, "
            f"time={self.elapsed_seconds:.3f}s"
        )


def _relocate_poles(
    poles: np.ndarray,
    grouping: PoleGrouping,
    c_tilde: np.ndarray,
    *,
    enforce_stability: bool,
) -> np.ndarray:
    """New poles = eigenvalues of (A - b c_tilde^T) in the real block form."""
    a_mat, b_vec = relocation_matrices(poles, grouping)
    new_poles = np.linalg.eigvals(a_mat - np.outer(b_vec, c_tilde))
    if enforce_stability:
        new_poles = np.where(new_poles.real > 0, -new_poles.real + 1j * new_poles.imag, new_poles)
    return sort_poles(new_poles)


def _solve_residue_system(
    phi1_real: np.ndarray,
    responses_real: np.ndarray,
    qr_factors: Optional[tuple[np.ndarray, np.ndarray]],
) -> np.ndarray:
    """LS coefficients of ``phi1_real @ coeffs ~= responses_real``.

    When the caller already holds the (reduced) QR factors of
    ``phi1_real`` -- :func:`vector_fit` computes them anyway for the
    fast-VF projector -- the solve is just ``R^{-1} Q^T rhs``, skipping
    the ``lstsq`` SVD re-factorisation (round-off-identical for a tall
    full-rank basis; underdetermined systems -- more poles than realified
    samples, where reduced ``R`` is not even square -- and an R-diagonal
    rank guard fall back to ``lstsq``, preserving its minimum-norm
    semantics).
    """
    rows, cols = phi1_real.shape
    if qr_factors is not None and rows >= cols:
        q1, r1 = qr_factors
        diag = np.abs(np.diagonal(r1))
        threshold = max(phi1_real.shape) * np.finfo(float).eps * (
            diag.max() if diag.size else 0.0
        )
        if diag.size and diag.min() > threshold:
            return solve_triangular(r1, q1.T @ responses_real)
    return np.linalg.lstsq(phi1_real, responses_real, rcond=None)[0]


def _fit_residues(
    phi1_real: np.ndarray,
    responses_real: np.ndarray,
    poles: np.ndarray,
    grouping: PoleGrouping,
    shape: tuple[int, int],
    fit_constant: bool,
    qr_factors: Optional[tuple[np.ndarray, np.ndarray]] = None,
) -> PoleResidueModel:
    """Identify residues (and the constant term) with the poles held fixed."""
    coeffs = _solve_residue_system(phi1_real, responses_real, qr_factors)
    n = poles.size
    p, m = shape
    residues = residues_from_coefficients(coeffs, poles, grouping, (p, m))
    if fit_constant:
        d = coeffs[n].reshape(p, m)
    else:
        d = np.zeros((p, m))
    return PoleResidueModel(poles, residues, d)


def vector_fit(
    data: FrequencyData,
    n_poles: int,
    *,
    n_iterations: int = 10,
    starting_poles: Optional[np.ndarray] = None,
    fit_constant: bool = True,
    enforce_stability: bool = True,
    convergence_tolerance: float = 1e-8,
) -> VectorFitResult:
    """Fit a common-pole rational model to sampled frequency data.

    Parameters
    ----------
    data:
        The sampled frequency responses.
    n_poles:
        Number of common poles of the fitted model.
    n_iterations:
        Maximum number of pole-relocation iterations (the paper's Table 1 uses
        10).
    starting_poles:
        Optional explicit starting poles (conjugate pairs adjacent); generated
        over the data band by :func:`~repro.vectorfitting.poles.initial_poles`
        when omitted.
    fit_constant:
        Include the constant term ``D`` in the model.
    enforce_stability:
        Flip unstable relocated poles into the left half-plane.
    convergence_tolerance:
        Stop early when the relative pole displacement falls below this value.

    Returns
    -------
    VectorFitResult
    """
    started = time.perf_counter()
    if n_poles < 1:
        raise ValueError("n_poles must be >= 1")
    freqs = data.frequencies_hz
    s_points = 1j * 2.0 * np.pi * freqs
    p, m = data.n_outputs, data.n_inputs
    n_entries = p * m
    # responses as columns: entry (i_out, i_in) -> column index i_out * m + i_in
    responses = data.samples.reshape(data.n_samples, n_entries)
    responses_real = realify(responses)

    poles = (np.asarray(starting_poles, dtype=complex).ravel()
             if starting_poles is not None
             else initial_poles(n_poles, float(freqs[0]), float(freqs[-1])))
    if poles.size != n_poles:
        raise ValueError(f"starting_poles must contain {n_poles} poles, got {poles.size}")
    poles = sort_poles(poles)

    history: list[float] = []
    iterations_done = 0
    for _ in range(int(n_iterations)):
        grouping = PoleGrouping.from_poles(poles)
        phi = partial_fraction_basis(s_points, poles, grouping)
        columns = [phi, np.ones((s_points.size, 1))] if fit_constant else [phi]
        phi1_real = realify(np.hstack(columns))
        # orthogonal projector onto the complement of the per-entry basis
        q1, _ = np.linalg.qr(phi1_real)

        # fast-VF projection + compact conditioned solve of every matrix
        # entry, batched in one kernel call (falls back to the stacked
        # lstsq reference on ill-conditioned bases)
        c_tilde = vf_scaling_solve(phi, responses, q1)

        new_poles = _relocate_poles(poles, grouping, c_tilde,
                                    enforce_stability=enforce_stability)
        displacement = float(
            np.linalg.norm(np.sort_complex(new_poles) - np.sort_complex(poles))
            / max(np.linalg.norm(poles), 1e-300)
        )
        history.append(displacement)
        poles = new_poles
        iterations_done += 1
        if displacement < convergence_tolerance:
            break

    grouping = PoleGrouping.from_poles(poles)
    phi = partial_fraction_basis(s_points, poles, grouping)
    columns = [phi, np.ones((s_points.size, 1))] if fit_constant else [phi]
    phi1_real = realify(np.hstack(columns))
    # the residue solve reuses fresh QR factors of the final basis instead
    # of re-factorising through lstsq (round-off-identical, rank-guarded)
    q1, r1 = np.linalg.qr(phi1_real)
    model = _fit_residues(
        phi1_real, responses_real, poles, grouping, (p, m), fit_constant,
        qr_factors=(q1, r1),
    )
    elapsed = time.perf_counter() - started
    return VectorFitResult(
        model=model,
        n_poles=int(n_poles),
        n_iterations=iterations_done,
        pole_history=tuple(history),
        elapsed_seconds=float(elapsed),
    )
