"""Error metrics matching the paper's definitions.

Section 5 of the paper defines, for samples ``S(f_i)`` and a recovered model
``H``,

``err_i = || H(j 2 pi f_i) - S(f_i) ||_2 / || S(f_i) ||_2``

(spectral-norm relative error per frequency) and the aggregate

``ERR = || err ||_2 / sqrt(k)``

which is the root-mean-square of the per-frequency relative errors.  Those two
are what Table 1 reports; the helpers here compute them from either raw sample
arrays or a model + reference-data pair.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import FrequencyData
from repro.systems.statespace import DescriptorSystem
from repro.utils.linalg import spectral_norms

__all__ = [
    "relative_error_per_frequency",
    "reference_norms",
    "aggregate_error",
    "model_errors",
    "model_aggregate_error",
]


def _stack(samples) -> np.ndarray:
    arr = np.asarray(samples, dtype=complex)
    if arr.ndim == 2:
        arr = arr[np.newaxis]
    if arr.ndim != 3:
        raise ValueError(f"samples must have shape (k, p, m), got {arr.shape}")
    return arr


def reference_norms(reference_samples) -> np.ndarray:
    """Per-frequency spectral norms ``||S(f_i)||_2`` of a sample stack.

    This is the model-independent denominator of every relative-error
    metric; it depends only on the reference dataset, so jobs sharing a
    validation dataset can compute it once (the response cache memoizes it
    by dataset fingerprint).  One call of the stacked spectral-norm kernel
    :func:`~repro.utils.linalg.spectral_norms`, which agrees with
    ``np.linalg.norm(S, 2)`` per frequency to a few ulps.
    """
    return spectral_norms(_stack(reference_samples))


def relative_error_per_frequency(model_samples, reference_samples, *, norms=None) -> np.ndarray:
    """Per-frequency spectral-norm relative error ``err_i`` (paper Section 5).

    Frequencies where the reference matrix is exactly zero contribute the
    absolute (un-normalised) error instead, so the result stays finite.

    ``norms`` optionally supplies precomputed :func:`reference_norms` of
    ``reference_samples`` (same values, computed by the same code), so a
    batch of jobs sharing one reference runs its norm sweep once.
    """
    model = _stack(model_samples)
    reference = _stack(reference_samples)
    if model.shape != reference.shape:
        raise ValueError(
            f"model samples shape {model.shape} does not match reference {reference.shape}"
        )
    num = spectral_norms(model - reference)
    denom = spectral_norms(reference) if norms is None else np.asarray(norms)
    if denom.shape != num.shape:
        raise ValueError(f"norms shape {denom.shape} does not match sweep {num.shape}")
    return np.where(denom == 0.0, num, num / np.where(denom == 0.0, 1.0, denom))


def aggregate_error(model_samples, reference_samples) -> float:
    """The paper's aggregate ``ERR = ||err||_2 / sqrt(k)`` (RMS of relative errors)."""
    err = relative_error_per_frequency(model_samples, reference_samples)
    return float(np.linalg.norm(err) / np.sqrt(err.size))


def model_errors(
    model: DescriptorSystem, reference: FrequencyData, *, response=None, norms=None
) -> np.ndarray:
    """Per-frequency relative errors of ``model`` against a reference data set.

    The model is evaluated through the shared sweep kernel
    (:meth:`~repro.systems.statespace.DescriptorSystem.frequency_response`),
    so dense validation sweeps use the vectorized fast paths.  This is the
    single evaluation code path shared by :func:`validate_model`,
    :meth:`MacromodelResult.errors_against
    <repro.core.results.MacromodelResult.errors_against>` and the fit
    cache's evaluation memoization.

    ``response`` and ``norms`` optionally supply the precomputed model sweep
    over ``reference.frequencies_hz`` and the precomputed
    :func:`reference_norms` of the reference -- the cross-job response
    cache's reuse points.  Both default to computing in place through the
    identical code path, so supplying them never changes the result.
    """
    if response is None:
        response = model.frequency_response(reference.frequencies_hz)
    return relative_error_per_frequency(response, reference.samples, norms=norms)


def model_aggregate_error(
    model: DescriptorSystem, reference: FrequencyData, *, response=None, norms=None
) -> float:
    """The paper's aggregate ``ERR`` of ``model`` against a reference data set."""
    errors = model_errors(model, reference, response=response, norms=norms)
    return float(np.linalg.norm(errors) / np.sqrt(errors.size))
