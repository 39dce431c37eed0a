"""Sampling-based passivity assessment of fitted macromodels.

Macromodels of passive interconnect must themselves be passive if they are to
be used safely in a transient circuit simulation.  A full Hamiltonian-based
passivity test is outside the scope of this reproduction; instead we provide
the pragmatic sweep-based checks that practitioners run first:

* scattering representation: largest singular value of ``S(j w)`` must not
  exceed one,
* immittance (impedance/admittance) representation: the Hermitian part of
  ``H(j w)`` must be positive semi-definite.

Both checks evaluate a dense frequency sweep (optionally log-spaced well past
the fitting band) and report the violations found.

Following the repository's kernel-module convention the per-frequency checks
are vectorized: one call of the stacked spectral-norm kernel
:func:`~repro.utils.linalg.spectral_norms` (scattering) or one stacked
:func:`numpy.linalg.eigvalsh` (immittance) over the whole sweep replaces the
Python loop, which lives on as the equivalence oracle in ``tests/oracles.py``
(the margins agree with it to a few ulps, so the violation lists can differ
only at a margin within a few ulps of the threshold).  The batched margin
primitives (:func:`scattering_margins`, :func:`immittance_margins`) are the
building blocks of :mod:`repro.vectorfitting.enforcement`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.linalg import spectral_norms

__all__ = [
    "PassivityViolation",
    "passivity_violations",
    "scattering_margins",
    "immittance_margins",
    "is_passive_scattering",
    "is_passive_immittance",
]


@dataclass(frozen=True)
class PassivityViolation:
    """A frequency at which the passivity condition is violated.

    Attributes
    ----------
    frequency_hz:
        The offending frequency.
    metric:
        The violating quantity: the largest singular value (scattering) or the
        most negative eigenvalue of the Hermitian part (immittance).
    """

    frequency_hz: float
    metric: float


def _response(model, frequencies_hz: np.ndarray) -> np.ndarray:
    return np.asarray(model.frequency_response(frequencies_hz))


def _validated_sweep(frequencies_hz, tolerance: float) -> np.ndarray:
    """Input validation of the passivity checks.

    An empty sweep would make every ``is_passive_*`` helper return ``True``
    without checking anything -- a vacuous pass that could certify an
    unchecked model -- and a NaN tolerance makes every violation comparison
    ``False`` with the same silent effect.  Both are caller bugs, so both
    raise instead of passing.
    """
    freqs = np.asarray(frequencies_hz, dtype=float).ravel()
    if freqs.size == 0:
        raise ValueError(
            "passivity check got an empty frequency sweep: an empty sweep "
            "verifies nothing and would report a vacuous pass"
        )
    if not np.isfinite(tolerance) or tolerance < 0.0:
        raise ValueError(
            f"tolerance must be finite and >= 0, got {tolerance!r} "
            "(a NaN tolerance silently passes every frequency)"
        )
    return freqs


def scattering_margins(response: np.ndarray) -> np.ndarray:
    """Largest singular value of every matrix of a stacked sweep.

    One call of :func:`~repro.utils.linalg.spectral_norms` over the
    ``(k, p, m)`` stack.  The values agree with the per-frequency loop's
    ``np.linalg.norm(S, 2)`` to within ``2e-15`` relative (measured on random
    and near-unitary stacks), not bitwise.  Passivity of scattering data
    requires every entry to stay ``<= 1``.  A response holding NaN or
    infinite entries raises :exc:`numpy.linalg.LinAlgError`.
    """
    return spectral_norms(response)


def immittance_margins(response: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of the Hermitian part of every matrix of a sweep.

    One batched :func:`numpy.linalg.eigvalsh` over the stacked Hermitian
    parts ``(H + H^*) / 2``.  Positive-real (passive immittance) data keeps
    every entry ``>= 0``.
    """
    stack = np.asarray(response, dtype=complex)
    if stack.ndim != 3:
        raise ValueError(f"response must have shape (k, p, m), got {stack.shape}")
    if stack.shape[1] != stack.shape[2]:
        raise ValueError(f"immittance matrices must be square, got shape {stack.shape[1:]}")
    if stack.shape[0] == 0:
        return np.empty(0)
    hermitian = 0.5 * (stack + np.conj(np.swapaxes(stack, 1, 2)))
    return np.linalg.eigvalsh(hermitian)[:, 0]


def passivity_violations(
    model,
    frequencies_hz,
    *,
    representation: str = "S",
    tolerance: float = 1e-8,
) -> list[PassivityViolation]:
    """List the frequencies at which the model violates passivity.

    The whole sweep is evaluated through the model's vectorized
    ``frequency_response`` and checked with one stacked spectral-norm /
    eigenvalue call (:func:`scattering_margins` / :func:`immittance_margins`);
    the reported violations match the per-frequency loop's except at a
    margin within a few ulps of the threshold.

    Parameters
    ----------
    model:
        Anything with a ``frequency_response(frequencies_hz)`` method
        (descriptor systems, pole-residue models, macromodel results).
    frequencies_hz:
        The sweep to check.
    representation:
        ``"S"`` for scattering data (unit-disc condition) or ``"Z"``/``"Y"``
        for immittance data (positive-real condition).
    tolerance:
        Violations smaller than this are ignored (numerical slack); must be
        finite and non-negative.

    Raises
    ------
    ValueError
        On an empty sweep (a vacuous pass is a caller bug, not a result) or
        a non-finite / negative tolerance.
    """
    freqs = _validated_sweep(frequencies_hz, tolerance)
    response = _response(model, freqs)
    if representation == "S":
        margins = scattering_margins(response)
        offending = margins > 1.0 + tolerance
    elif representation in ("Z", "Y"):
        margins = immittance_margins(response)
        offending = margins < -tolerance
    else:
        raise ValueError(f"representation must be 'S', 'Z' or 'Y', got {representation!r}")
    return [
        PassivityViolation(float(f), float(metric))
        for f, metric in zip(freqs[offending], margins[offending])
    ]


def is_passive_scattering(model, frequencies_hz, *, tolerance: float = 1e-8) -> bool:
    """True when ``sigma_max(S(j w)) <= 1`` at every checked frequency."""
    return not passivity_violations(model, frequencies_hz, representation="S", tolerance=tolerance)


def is_passive_immittance(model, frequencies_hz, *, tolerance: float = 1e-8) -> bool:
    """True when the Hermitian part of ``H(j w)`` is PSD at every checked frequency."""
    return not passivity_violations(model, frequencies_hz, representation="Z", tolerance=tolerance)
