"""Shared numerical and validation utilities used across the :mod:`repro` package.

The helpers in this package are deliberately small and depend on numpy alone
(:mod:`repro.utils.blas` falls back to scipy only where numpy's build lacks a
LAPACK routine) so that the higher layers -- the descriptor-system library,
the circuit substrate and the Loewner-matrix interpolation core -- can share
one well-tested implementation of the common chores: economic SVDs with rank
detection, stacked spectral norms, argument validation and reproducible
random-number handling.
"""

from repro.utils.linalg import economic_svd, numerical_rank, singular_value_gaps
from repro.utils.rng import ensure_rng
from repro.utils.validation import (
    check_finite,
    check_positive_integer,
    check_square,
    ensure_2d,
)

__all__ = [
    "economic_svd",
    "numerical_rank",
    "singular_value_gaps",
    "ensure_rng",
    "check_finite",
    "check_positive_integer",
    "check_square",
    "ensure_2d",
]
