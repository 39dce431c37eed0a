"""Validation of the minimal-sampling theorem (Theorem 3.5).

The theorem predicts that MFTI recovers a system of order ``n`` with
feed-through rank ``r_D`` from roughly ``(n + r_D)/min(m, p)`` sampled
matrices, whereas VFTI needs at least ``n`` samples.  The experiment

1. builds a known random system,
2. sweeps the number of sampled matrices for both methods,
3. records the recovery error at each count,
4. reports the smallest count that achieves the target accuracy, next to the
   theorem's prediction,
5. additionally records where the singular values of ``L`` and ``sL`` drop,
   which the paper uses as corroborating evidence (ranks ~ ``n`` and
   ``n + r_D`` respectively).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core import mfti, vfti
from repro.core.sampling import minimal_sample_count
from repro.data import log_frequencies, sample_scattering
from repro.experiments.example1 import singular_value_profiles
from repro.systems.random_systems import random_stable_system
from repro.utils.linalg import rank_from_gap

__all__ = ["MinimalSamplingResult", "minimal_sampling_experiment"]


@dataclass(frozen=True)
class MinimalSamplingResult:
    """Outcome of the Theorem-3.5 validation sweep.

    Attributes
    ----------
    system_order, feedthrough_rank, n_ports:
        Ground-truth properties of the benchmark system.
    predicted_mfti_samples:
        The theorem's empirical prediction for MFTI.
    predicted_vfti_samples:
        The ``order(Gamma)`` requirement of VFTI.
    mfti_errors, vfti_errors:
        Mapping from tried sample count to validation error.
    mfti_samples_needed, vfti_samples_needed:
        Smallest tried counts achieving the tolerance (``None`` if none did).
    loewner_rank, shifted_rank, pencil_rank:
        Detected singular-value drop positions of ``L``, ``sL`` and
        ``x0*L - sL`` at the largest tried MFTI sample count.
    tolerance:
        Recovery tolerance used for "needed" counts.
    """

    system_order: int
    feedthrough_rank: int
    n_ports: int
    predicted_mfti_samples: int
    predicted_vfti_samples: int
    mfti_errors: dict[int, float] = field(default_factory=dict)
    vfti_errors: dict[int, float] = field(default_factory=dict)
    mfti_samples_needed: Optional[int] = None
    vfti_samples_needed: Optional[int] = None
    loewner_rank: int = 0
    shifted_rank: int = 0
    pencil_rank: int = 0
    tolerance: float = 1e-6

    @property
    def saving_factor(self) -> float:
        """Measured ratio of VFTI to MFTI sample requirements (``inf`` when VFTI never recovers)."""
        if self.mfti_samples_needed is None:
            return float("nan")
        if self.vfti_samples_needed is None:
            return float("inf")
        return self.vfti_samples_needed / self.mfti_samples_needed


def minimal_sampling_experiment(
    *,
    order: int = 60,
    n_ports: int = 10,
    f_min_hz: float = 1e1,
    f_max_hz: float = 1e5,
    seed: int = 11,
    tolerance: float = 1e-6,
    mfti_counts: Optional[list[int]] = None,
    vfti_counts: Optional[list[int]] = None,
    n_validation: int = 80,
) -> MinimalSamplingResult:
    """Run the Theorem-3.5 sweep on a random stable benchmark system."""
    system = random_stable_system(
        order, n_ports,
        freq_min_hz=f_min_hz, freq_max_hz=f_max_hz,
        feedthrough=0.2, seed=seed,
    )
    d = np.asarray(system.D)
    rank_d = int(np.linalg.matrix_rank(d)) if d.size else 0
    estimate = minimal_sample_count(order, n_ports, n_ports, rank_d=rank_d)

    predicted = estimate.empirical + estimate.empirical % 2
    if mfti_counts is None:
        mfti_counts = sorted({max(2, predicted - 2), predicted, predicted + 2, predicted + 6})
    if vfti_counts is None:
        vfti_counts = sorted({order // 2, order, order + 2 * rank_d + 2,
                              2 * (order + rank_d) // 1})
    validation_freqs = log_frequencies(f_min_hz, f_max_hz, int(n_validation))
    reference = sample_scattering(system, validation_freqs, label="validation")

    def sweep(runner, counts):
        errors: dict[int, float] = {}
        needed = None
        for count in counts:
            count = int(count) + int(count) % 2
            data = sample_scattering(system, log_frequencies(f_min_hz, f_max_hz, count))
            result = runner(data)
            err = result.aggregate_error(reference)
            errors[count] = err
            if needed is None and err <= tolerance:
                needed = count
        return errors, needed

    mfti_errors, mfti_needed = sweep(mfti, mfti_counts)
    vfti_errors, vfti_needed = sweep(vfti, vfti_counts)

    # singular-value drop positions at the largest MFTI sample count
    largest = max(mfti_errors)
    data = sample_scattering(system, log_frequencies(f_min_hz, f_max_hz, largest))
    sv = singular_value_profiles(mfti(data))
    return MinimalSamplingResult(
        system_order=order,
        feedthrough_rank=rank_d,
        n_ports=n_ports,
        predicted_mfti_samples=predicted,
        predicted_vfti_samples=order,
        mfti_errors=mfti_errors,
        vfti_errors=vfti_errors,
        mfti_samples_needed=mfti_needed,
        vfti_samples_needed=vfti_needed,
        loewner_rank=rank_from_gap(sv["loewner"]),
        shifted_rank=rank_from_gap(sv["shifted_loewner"]),
        pencil_rank=rank_from_gap(sv["pencil"]),
        tolerance=tolerance,
    )
