"""Network-parameter conversions: scattering, impedance and admittance.

Macromodeling data for multi-port interconnect come either as scattering
matrices (S-parameters, the form the paper uses), impedance matrices (Z) or
admittance matrices (Y).  The circuit substrate naturally produces Y or Z
(through modified nodal analysis); this module converts matrix-valued
samples between the three representations, one frequency at a time, so the
benchmark workloads can be expressed in whichever parameters the experiment
needs (:meth:`FrequencyData.converted
<repro.data.dataset.FrequencyData.converted>` applies them to a whole sweep).

Conventions
-----------
All conversions use a real, positive reference impedance ``z0`` (default
50 ohm), identical at every port:

``S = (Z - z0 I)(Z + z0 I)^{-1} = (I - z0 Y)(I + z0 Y)^{-1}``
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_square

__all__ = [
    "z_to_s",
    "s_to_z",
    "y_to_s",
    "s_to_y",
    "z_to_y",
    "y_to_z",
]


def _eye_like(matrix: np.ndarray) -> np.ndarray:
    return np.eye(matrix.shape[0], dtype=complex)


def z_to_s(z: np.ndarray, z0: float = 50.0) -> np.ndarray:
    """Convert an impedance matrix sample to a scattering matrix."""
    z = check_square(np.asarray(z, dtype=complex), "z")
    eye = _eye_like(z)
    return np.linalg.solve((z + z0 * eye).T, (z - z0 * eye).T).T


def s_to_z(s: np.ndarray, z0: float = 50.0) -> np.ndarray:
    """Convert a scattering matrix sample to an impedance matrix.

    Raises
    ------
    numpy.linalg.LinAlgError
        If ``I - S`` is singular (the network has an ideal open/short that has
        no impedance representation).
    """
    s = check_square(np.asarray(s, dtype=complex), "s")
    eye = _eye_like(s)
    return z0 * np.linalg.solve(eye - s, eye + s)


def y_to_s(y: np.ndarray, z0: float = 50.0) -> np.ndarray:
    """Convert an admittance matrix sample to a scattering matrix."""
    y = check_square(np.asarray(y, dtype=complex), "y")
    eye = _eye_like(y)
    return np.linalg.solve((eye + z0 * y).T, (eye - z0 * y).T).T


def s_to_y(s: np.ndarray, z0: float = 50.0) -> np.ndarray:
    """Convert a scattering matrix sample to an admittance matrix."""
    s = check_square(np.asarray(s, dtype=complex), "s")
    eye = _eye_like(s)
    return np.linalg.solve(z0 * (eye + s), eye - s)


def z_to_y(z: np.ndarray) -> np.ndarray:
    """Invert an impedance matrix sample into an admittance matrix."""
    z = check_square(np.asarray(z, dtype=complex), "z")
    return np.linalg.inv(z)


def y_to_z(y: np.ndarray) -> np.ndarray:
    """Invert an admittance matrix sample into an impedance matrix."""
    y = check_square(np.asarray(y, dtype=complex), "y")
    return np.linalg.inv(y)
