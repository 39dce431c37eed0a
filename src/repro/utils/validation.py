"""Argument-validation helpers shared by the public API.

All validators raise :class:`ValueError` (or :class:`TypeError` for wrong
types) with actionable messages that name the offending argument, so that the
higher-level entry points (:func:`repro.core.mfti.mfti`,
:func:`repro.vectorfitting.vector_fit`, the circuit builders, ...) can simply
delegate to them instead of re-implementing the same checks.
"""

from __future__ import annotations

import numbers

import numpy as np

__all__ = [
    "check_finite",
    "check_positive_integer",
    "check_nonnegative_integer",
    "check_square",
    "ensure_1d",
    "ensure_2d",
]


def check_positive_integer(value, name: str) -> int:
    """Validate that ``value`` is a positive integer and return it as ``int``.

    Parameters
    ----------
    value:
        The value to validate.  Anything accepted by :class:`numbers.Integral`
        (including numpy integer scalars) is allowed.
    name:
        Argument name used in error messages.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    value = int(value)
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def check_nonnegative_integer(value, name: str) -> int:
    """Validate that ``value`` is a non-negative integer and return it as ``int``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    value = int(value)
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return value


def check_finite(array: np.ndarray, name: str) -> np.ndarray:
    """Raise if ``array`` contains NaN or infinite entries."""
    array = np.asarray(array)
    if not np.all(np.isfinite(array)):
        raise ValueError(f"{name} must contain only finite values")
    return array


def ensure_1d(array, name: str, *, dtype=None) -> np.ndarray:
    """Convert ``array`` to a 1-D numpy array, raising on higher dimensions."""
    array = np.asarray(array, dtype=dtype)
    if array.ndim == 0:
        array = array.reshape(1)
    if array.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {array.shape}")
    return array


def ensure_2d(array, name: str, *, dtype=None) -> np.ndarray:
    """Convert ``array`` to a 2-D numpy array.

    One-dimensional input is interpreted as a single row; scalars become a
    ``1 x 1`` matrix.  Three or more dimensions raise :class:`ValueError`.
    """
    array = np.asarray(array, dtype=dtype)
    if array.ndim == 0:
        array = array.reshape(1, 1)
    elif array.ndim == 1:
        array = array.reshape(1, -1)
    if array.ndim != 2:
        raise ValueError(f"{name} must be at most two-dimensional, got shape {array.shape}")
    return array


def check_square(matrix: np.ndarray, name: str) -> np.ndarray:
    """Validate that ``matrix`` is a square 2-D array and return it."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {matrix.shape}")
    return matrix
