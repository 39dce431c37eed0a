"""Frequency-domain sampling layer.

This package turns systems (descriptor models, circuits) into the
*measurement data* the interpolation algorithms consume, and back:

* frequency-grid construction -- uniform, logarithmic and the deliberately
  ill-conditioned, high-frequency-clustered grids of the paper's Test 2
  (:mod:`repro.data.frequency`),
* sampling along a grid (:mod:`repro.data.sampler`): scattering or
  impedance matrices, or any transfer function labelled through
  ``sample_system(kind=...)``,
* measurement-noise models (:mod:`repro.data.noise`),
* the :class:`~repro.data.dataset.FrequencyData` container holding the
  samples plus their metadata,
* Touchstone (``.sNp``) file reading and writing so external data can be fed
  into the same pipeline (:mod:`repro.data.touchstone`).
"""

from repro.data.dataset import FrequencyData
from repro.data.frequency import clustered_frequencies, linear_frequencies, log_frequencies
from repro.data.noise import add_measurement_noise, snr_to_sigma
from repro.data.sampler import sample_impedance, sample_scattering, sample_system
from repro.data.touchstone import read_touchstone, write_touchstone

__all__ = [
    "FrequencyData",
    "linear_frequencies",
    "log_frequencies",
    "clustered_frequencies",
    "add_measurement_noise",
    "snr_to_sigma",
    "sample_system",
    "sample_scattering",
    "sample_impedance",
    "read_touchstone",
    "write_touchstone",
]
