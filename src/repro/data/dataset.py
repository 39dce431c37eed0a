"""The :class:`FrequencyData` container.

Every stage of the pipeline -- sampling, noise injection, Touchstone I/O, the
interpolation algorithms and the error metrics -- exchanges data through this
one container: an ordered set of frequencies (Hz) with the corresponding
matrix samples (``k x p x m``), plus metadata about what kind of network
parameter the samples represent and which reference impedance applies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from repro.utils.validation import check_finite

__all__ = ["FrequencyData"]

_VALID_KINDS = ("S", "Z", "Y", "H")


@dataclass(frozen=True)
class FrequencyData:
    """Frequency-domain samples of a multi-port network.

    Attributes
    ----------
    frequencies_hz:
        1-D array of strictly increasing, positive frequencies in Hz.
    samples:
        Complex array of shape ``(k, p, m)``: one ``p x m`` matrix per frequency.
    kind:
        Network-parameter kind: ``"S"`` (scattering), ``"Z"`` (impedance),
        ``"Y"`` (admittance), or ``"H"`` (generic transfer function).
    reference_impedance:
        Port reference impedance in ohms (meaningful for ``"S"`` data).
    label:
        Free-form description used in reports.
    """

    frequencies_hz: np.ndarray
    samples: np.ndarray
    kind: str = "S"
    reference_impedance: float = 50.0
    label: str = ""

    def __post_init__(self):
        freqs = np.asarray(self.frequencies_hz, dtype=float).ravel()
        samples = np.asarray(self.samples, dtype=complex)
        if samples.ndim == 2:
            # single-frequency convenience
            samples = samples[np.newaxis, :, :]
        if samples.ndim != 3:
            raise ValueError(f"samples must have shape (k, p, m), got {samples.shape}")
        if freqs.size != samples.shape[0]:
            raise ValueError(
                f"got {freqs.size} frequencies but {samples.shape[0]} sample matrices"
            )
        if freqs.size == 0:
            raise ValueError("FrequencyData needs at least one sample")
        if np.any(freqs <= 0):
            raise ValueError("frequencies must be strictly positive")
        if np.any(np.diff(freqs) <= 0):
            raise ValueError("frequencies must be strictly increasing")
        if self.kind not in _VALID_KINDS:
            raise ValueError(f"kind must be one of {_VALID_KINDS}, got {self.kind!r}")
        if self.reference_impedance <= 0:
            raise ValueError("reference_impedance must be positive")
        check_finite(samples, "samples")
        freqs.setflags(write=False)
        samples.setflags(write=False)
        object.__setattr__(self, "frequencies_hz", freqs)
        object.__setattr__(self, "samples", samples)

    def __setstate__(self, state):
        # unpickling skips __post_init__, and numpy unpickles arrays writable
        self.__dict__.update(state)
        self.frequencies_hz.setflags(write=False)
        self.samples.setflags(write=False)

    # ------------------------------------------------------------------ #
    # basic views
    # ------------------------------------------------------------------ #
    @property
    def n_samples(self) -> int:
        """Number of sampled frequencies ``k``."""
        return int(self.frequencies_hz.size)

    @property
    def n_outputs(self) -> int:
        """Number of outputs (rows of each sample matrix)."""
        return int(self.samples.shape[1])

    @property
    def n_inputs(self) -> int:
        """Number of inputs (columns of each sample matrix)."""
        return int(self.samples.shape[2])

    @property
    def n_ports(self) -> int:
        """Port count for square data; raises for rectangular samples."""
        if self.n_inputs != self.n_outputs:
            raise ValueError("n_ports is only defined for square sample matrices")
        return self.n_inputs

    @property
    def omega(self) -> np.ndarray:
        """Angular frequencies ``2 pi f`` (rad/s)."""
        return 2.0 * np.pi * self.frequencies_hz

    @property
    def s_points(self) -> np.ndarray:
        """Laplace-variable sample points ``j 2 pi f`` on the imaginary axis."""
        return 1j * self.omega

    def __len__(self) -> int:
        return self.n_samples

    def __iter__(self):
        """Iterate over ``(frequency_hz, sample_matrix)`` pairs."""
        return iter(zip(self.frequencies_hz, self.samples))

    def fingerprint(self) -> str:
        """Content hash of the numerical payload (frequencies, samples, kind, z0).

        Delegates to :func:`repro.cache.dataset_fingerprint`: the free-form
        ``label`` is excluded, so relabelled copies share the fingerprint.
        This is the dataset half of the key fits are cached under.
        """
        from repro.cache.fingerprint import dataset_fingerprint

        return dataset_fingerprint(self)

    # ------------------------------------------------------------------ #
    # transformations
    # ------------------------------------------------------------------ #
    def subset(self, indices: Iterable[int]) -> "FrequencyData":
        """Select a subset of frequencies (result is re-sorted by frequency)."""
        idx = np.asarray(list(indices), dtype=int)
        if idx.size == 0:
            raise ValueError("subset needs at least one index")
        order = np.argsort(self.frequencies_hz[idx])
        idx = idx[order]
        return FrequencyData(
            self.frequencies_hz[idx],
            self.samples[idx],
            kind=self.kind,
            reference_impedance=self.reference_impedance,
            label=self.label,
        )

    def with_samples(self, samples: np.ndarray, *, label: Optional[str] = None) -> "FrequencyData":
        """Return a copy with the sample matrices replaced (e.g. after noise injection)."""
        return FrequencyData(
            self.frequencies_hz,
            samples,
            kind=self.kind,
            reference_impedance=self.reference_impedance,
            label=self.label if label is None else label,
        )

    def converted(self, kind: str, *, z0: Optional[float] = None) -> "FrequencyData":
        """Convert the samples to another network-parameter kind (pointwise).

        Supported conversions: any of ``Z``/``Y``/``S`` to any other.  Generic
        ``H`` data cannot be converted.
        """
        from repro.systems import interconnect as ic

        if kind not in _VALID_KINDS:
            raise ValueError(f"kind must be one of {_VALID_KINDS}, got {kind!r}")
        if kind == self.kind:
            return self
        if self.kind == "H" or kind == "H":
            raise ValueError("generic 'H' data cannot be converted between parameter kinds")
        z0 = self.reference_impedance if z0 is None else float(z0)
        table = {
            ("Z", "S"): lambda m: ic.z_to_s(m, z0),
            ("S", "Z"): lambda m: ic.s_to_z(m, z0),
            ("Y", "S"): lambda m: ic.y_to_s(m, z0),
            ("S", "Y"): lambda m: ic.s_to_y(m, z0),
            ("Z", "Y"): ic.z_to_y,
            ("Y", "Z"): ic.y_to_z,
        }
        convert = table[(self.kind, kind)]
        converted = np.stack([convert(sample) for sample in self.samples])
        return FrequencyData(
            self.frequencies_hz,
            converted,
            kind=kind,
            reference_impedance=z0,
            label=self.label,
        )

    def magnitude(self, output: int = 0, input: int = 0) -> np.ndarray:
        """Magnitude of one transfer-function entry across the sweep (for Bode plots)."""
        return np.abs(self.samples[:, output, input])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FrequencyData(kind={self.kind!r}, k={self.n_samples}, "
            f"shape=({self.n_outputs}, {self.n_inputs}), "
            f"band=[{self.frequencies_hz[0]:.3g}, {self.frequencies_hz[-1]:.3g}] Hz)"
        )
