"""Shared numerical and validation utilities used across the :mod:`repro` package.

The helpers in this package are deliberately small and dependency-free (numpy /
scipy only) so that the higher layers -- the descriptor-system library, the
circuit substrate and the Loewner-matrix interpolation core -- can share one
well-tested implementation of the common chores: economic SVDs with rank
detection, block-diagonal assembly, argument validation and reproducible
random-number handling.
"""

from repro.utils.linalg import (
    block_diag,
    economic_svd,
    numerical_rank,
    singular_value_gaps,
)
from repro.utils.rng import ensure_rng
from repro.utils.validation import (
    check_finite,
    check_positive_integer,
    check_square,
    ensure_2d,
)

__all__ = [
    "block_diag",
    "economic_svd",
    "numerical_rank",
    "singular_value_gaps",
    "ensure_rng",
    "check_finite",
    "check_positive_integer",
    "check_square",
    "ensure_2d",
]
