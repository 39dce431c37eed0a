"""Sampling systems into :class:`~repro.data.dataset.FrequencyData`.

These helpers play the role of the "measurement / EM simulation" step in the
paper's pipeline: they evaluate a reference system's transfer function along a
frequency grid and package the result (optionally converting between network
parameters first) so the interpolation algorithms can treat the output exactly
like externally measured data.
"""

from __future__ import annotations

import os

import numpy as np

from repro.data.dataset import FrequencyData
from repro.systems.evaluation import _evaluate_solve
from repro.systems.statespace import DescriptorSystem
from repro.utils.blas import single_thread_blas
from repro.utils.validation import ensure_1d

__all__ = ["sample_system", "sample_scattering", "sample_impedance"]


def sample_system(
    system: DescriptorSystem,
    frequencies_hz: np.ndarray,
    *,
    kind: str = "H",
    reference_impedance: float = 50.0,
    label: str = "",
) -> FrequencyData:
    """Evaluate ``system`` at the given frequencies and wrap the result.

    The system's transfer function is used verbatim (no parameter
    conversion); ``kind`` only labels what those samples represent.

    A :class:`~repro.systems.statespace.DescriptorSystem` (subclasses
    included) is swept at ``s = j 2 pi f`` by the shared kernel's batched
    stacked-pencil solve, which is bitwise identical to the per-point
    reference loop, so generated datasets (and therefore their
    content-addressed cache fingerprints and the golden fixtures derived
    from them) are reproducible bit for bit, independent of whichever fast
    path later model evaluations take.  The solve deals its chunks out to
    one lane per CPU the process may use; each point still gets its own
    ``gesv`` and its own rows of the output, so the lane count changes no
    bit.  Any other source is swept through its own
    ``frequency_response(frequencies_hz)``, as a fitted model offers.

    Either sweep runs with BLAS pinned to one thread
    (:func:`~repro.utils.blas.single_thread_blas`), held across every lane:
    multithreaded LU rounds differently, which would make the datasets
    depend on the host's thread count.  An error in the sweep propagates;
    nothing is swept a second time.
    """
    freqs = ensure_1d(frequencies_hz, "frequencies_hz", dtype=float)
    with single_thread_blas():
        if isinstance(system, DescriptorSystem):
            samples = _evaluate_solve(system.E, system.A, system.B, system.C, system.D,
                                      1j * 2.0 * np.pi * freqs, workers=_usable_cpus())
        else:
            samples = system.frequency_response(freqs)
    return FrequencyData(freqs, samples, kind=kind,
                         reference_impedance=reference_impedance, label=label)


def _usable_cpus() -> int:
    """CPUs the process may run on: its affinity mask, or the host's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def sample_scattering(
    system: DescriptorSystem,
    frequencies_hz: np.ndarray,
    *,
    system_kind: str = "S",
    reference_impedance: float = 50.0,
    label: str = "",
) -> FrequencyData:
    """Sample a system and return scattering-parameter data.

    Parameters
    ----------
    system:
        The reference model.
    frequencies_hz:
        Sample frequencies in Hz.
    system_kind:
        What the system's transfer function represents: ``"S"`` (already
        scattering -- no conversion), ``"Z"`` (impedance, converted pointwise)
        or ``"Y"`` (admittance, converted pointwise).
    reference_impedance:
        Reference impedance used in the conversion.
    label:
        Label stored on the resulting data set.
    """
    if system_kind not in ("S", "Z", "Y"):
        raise ValueError(f"system_kind must be 'S', 'Z' or 'Y', got {system_kind!r}")
    raw = sample_system(system, frequencies_hz, kind=system_kind,
                        reference_impedance=reference_impedance, label=label)
    if system_kind == "S":
        return raw
    return raw.converted("S", z0=reference_impedance)


def sample_impedance(
    system: DescriptorSystem,
    frequencies_hz: np.ndarray,
    *,
    label: str = "",
) -> FrequencyData:
    """Sample a system whose transfer function is an impedance matrix ``Z(s)``."""
    return sample_system(system, frequencies_hz, kind="Z", label=label)
