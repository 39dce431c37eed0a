"""Example 1 of the paper: under-sampled recovery of an order-150, 30-port system.

The paper samples only 8 scattering matrices from an order-150 system with 30
ports and shows that

* the singular values of the VFTI Loewner pencil show no sharp drop (the data
  is insufficient for VFTI), while the MFTI profiles drop sharply at the
  underlying order (Fig. 1),
* the MFTI model matches the original Bode response while the VFTI model does
  not (Fig. 2),
* VFTI needs roughly ``min(m, p)`` times more samples (about 30x here / about
  180 matrix samples) to recover the same system, confirming Theorem 3.5.

The exact benchmark system of the paper is unpublished, so the experiment uses
the fixed seeded system of
:func:`repro.systems.random_systems.example1_system` (same order, same port
count, resonances over the same 10 Hz - 100 kHz band).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core import mfti, vfti
from repro.core.loewner import build_loewner_pencil
from repro.core.results import MacromodelResult
from repro.data import log_frequencies, sample_scattering
from repro.data.dataset import FrequencyData
from repro.metrics.errors import relative_error_per_frequency
from repro.systems.random_systems import EXAMPLE1_SEED, example1_system
from repro.systems.statespace import DescriptorSystem

__all__ = [
    "Example1Config",
    "Figure1Data",
    "Figure2Data",
    "SampleRequirement",
    "singular_value_profiles",
    "singular_value_experiment",
    "bode_experiment",
    "sample_requirement_sweep",
]


@dataclass(frozen=True)
class Example1Config:
    """Parameters of the Example-1 reproduction.

    The defaults reproduce the paper's setting: an order-150 system with 30
    ports, 8 sampled scattering matrices over the 10 Hz - 100 kHz band.
    Smaller settings (used by the test-suite to keep runtimes down) preserve
    the qualitative behaviour.
    """

    order: int = 150
    n_ports: int = 30
    n_samples: int = 8
    f_min_hz: float = 1e1
    f_max_hz: float = 1e5
    seed: int = EXAMPLE1_SEED

    def system(self) -> DescriptorSystem:
        """The (seeded) underlying benchmark system."""
        return example1_system(order=self.order, n_ports=self.n_ports, seed=self.seed)

    def sample_data(self, n_samples: Optional[int] = None) -> FrequencyData:
        """Sample ``n_samples`` scattering matrices over the configured band."""
        count = self.n_samples if n_samples is None else int(n_samples)
        freqs = log_frequencies(self.f_min_hz, self.f_max_hz, count)
        return sample_scattering(self.system(), freqs, label="example1")


@dataclass(frozen=True)
class Figure1Data:
    """Singular-value profiles of the VFTI and MFTI pencils (paper Fig. 1)."""

    vfti_singular_values: dict[str, np.ndarray]
    mfti_singular_values: dict[str, np.ndarray]
    vfti_detected_order: int
    mfti_detected_order: int
    true_order: int
    true_order_with_feedthrough: int

    def mfti_drop_ratio(self) -> float:
        """Ratio across the MFTI pencil's singular-value drop at the detected order."""
        s = self.mfti_singular_values["pencil"]
        idx = self.mfti_detected_order
        if not 0 < idx < s.size:
            return 1.0
        return float(s[idx - 1] / max(s[idx], np.finfo(float).tiny))

    def vfti_drop_ratio(self) -> float:
        """Ratio across the largest consecutive drop of the VFTI pencil profile."""
        s = self.vfti_singular_values["pencil"]
        if s.size < 2:
            return 1.0
        ratios = s[:-1] / np.maximum(s[1:], np.finfo(float).tiny)
        return float(np.max(ratios))


@dataclass(frozen=True)
class Figure2Data:
    """Bode magnitude of the original and the recovered systems (paper Fig. 2)."""

    frequencies_hz: np.ndarray
    original_magnitude: np.ndarray
    mfti_magnitude: np.ndarray
    vfti_magnitude: np.ndarray
    mfti_error: float
    vfti_error: float
    mfti_result: MacromodelResult = field(repr=False)
    vfti_result: MacromodelResult = field(repr=False)


@dataclass(frozen=True)
class SampleRequirement:
    """Result of the sample-count sweep for one method."""

    method: str
    samples_needed: Optional[int]
    error_at_requirement: float
    tolerance: float


def singular_value_profiles(result: MacromodelResult) -> dict[str, np.ndarray]:
    """Fig.-1 singular-value profiles of a Loewner fit, computed on demand.

    Fits run only their realization SVDs, so the profiles of ``L``, ``sL``
    and ``x0*L - sL`` are recomputed here from the complex pencil of the
    fit's tangential data (the real transform is unitary, so they are the
    profiles of the realized pencil too).
    """
    if result.tangential is None:
        raise ValueError(
            f"{result.method} result carries no tangential data "
            "(a fit-cache replay keeps only the model)"
        )
    x0 = result.metadata["options"].x0
    return build_loewner_pencil(result.tangential).singular_values(x0)


def singular_value_experiment(config: Example1Config | None = None) -> Figure1Data:
    """Reproduce Fig. 1: VFTI vs MFTI singular-value patterns on 8 samples."""
    cfg = config or Example1Config()
    system = cfg.system()
    data = cfg.sample_data()

    mfti_result = mfti(data)
    vfti_result = vfti(data)

    d = np.asarray(system.D)
    rank_d = int(np.linalg.matrix_rank(d)) if d.size else 0
    return Figure1Data(
        vfti_singular_values=singular_value_profiles(vfti_result),
        mfti_singular_values=singular_value_profiles(mfti_result),
        vfti_detected_order=vfti_result.realization.order,
        mfti_detected_order=mfti_result.realization.order,
        true_order=system.order,
        true_order_with_feedthrough=system.order + rank_d,
    )


def bode_experiment(
    config: Example1Config | None = None,
    *,
    n_validation: int = 200,
    output_port: int = 0,
    input_port: int = 0,
) -> Figure2Data:
    """Reproduce Fig. 2: Bode magnitude (port 1 -> 1) of original vs recovered models."""
    cfg = config or Example1Config()
    system = cfg.system()
    data = cfg.sample_data()

    mfti_result = mfti(data)
    vfti_result = vfti(data)

    freqs = log_frequencies(cfg.f_min_hz, cfg.f_max_hz, int(n_validation))
    reference = sample_scattering(system, freqs, label="example1 validation")
    mfti_response = mfti_result.frequency_response(freqs)
    vfti_response = vfti_result.frequency_response(freqs)

    mfti_err = relative_error_per_frequency(mfti_response, reference.samples)
    vfti_err = relative_error_per_frequency(vfti_response, reference.samples)
    return Figure2Data(
        frequencies_hz=freqs,
        original_magnitude=np.abs(reference.samples[:, output_port, input_port]),
        mfti_magnitude=np.abs(mfti_response[:, output_port, input_port]),
        vfti_magnitude=np.abs(vfti_response[:, output_port, input_port]),
        mfti_error=float(np.linalg.norm(mfti_err) / math.sqrt(mfti_err.size)),
        vfti_error=float(np.linalg.norm(vfti_err) / math.sqrt(vfti_err.size)),
        mfti_result=mfti_result,
        vfti_result=vfti_result,
    )


def _recovery_error(result: MacromodelResult, reference: FrequencyData) -> float:
    errors = result.errors_against(reference)
    return float(np.linalg.norm(errors) / math.sqrt(errors.size))


def sample_requirement_sweep(
    config: Example1Config | None = None,
    *,
    tolerance: float = 1e-6,
    mfti_counts: Optional[list[int]] = None,
    vfti_counts: Optional[list[int]] = None,
    n_validation: int = 60,
) -> dict[str, SampleRequirement]:
    """Find how many samples each method needs to recover the system (Theorem 3.5).

    Returns a mapping ``{"mfti": ..., "vfti": ...}`` with the smallest tried
    sample count whose validation error falls below ``tolerance`` (``None``
    when no tried count suffices).  The default candidate counts bracket the
    theorem's prediction for MFTI and the ``order(Gamma)``-sample requirement
    for VFTI.
    """
    cfg = config or Example1Config()
    system = cfg.system()
    width = min(system.n_inputs, system.n_outputs)
    rank_d = int(np.linalg.matrix_rank(np.asarray(system.D))) if np.asarray(system.D).size else 0
    predicted = math.ceil((system.order + rank_d) / width)

    if mfti_counts is None:
        mfti_counts = sorted({max(2, predicted - 2), predicted, predicted + 2, predicted + 4})
    if vfti_counts is None:
        vfti_counts = sorted({system.order // 2, system.order, system.order + 2 * rank_d,
                              2 * (system.order + rank_d)})
    freqs = log_frequencies(cfg.f_min_hz, cfg.f_max_hz, int(n_validation))
    reference = sample_scattering(system, freqs, label="validation")

    results: dict[str, SampleRequirement] = {}
    for method, counts, runner in (("mfti", mfti_counts, mfti), ("vfti", vfti_counts, vfti)):
        needed = None
        err_at = float("nan")
        for count in counts:
            count = int(count) + (int(count) % 2)  # even counts split cleanly
            data = cfg.sample_data(count)
            result = runner(data)
            err = _recovery_error(result, reference)
            if err <= tolerance:
                needed = count
                err_at = err
                break
            err_at = err
        results[method] = SampleRequirement(
            method=method,
            samples_needed=needed,
            error_at_requirement=err_at,
            tolerance=tolerance,
        )
    return results
