"""Reproducible random-number-generator handling.

Every stochastic entry point in :mod:`repro` (random benchmark systems, noise
injection, random tangential directions, vector-fitting pole perturbation)
accepts either ``None``, an integer seed, or an existing
:class:`numpy.random.Generator`.  :func:`ensure_rng` normalises all three into
a :class:`numpy.random.Generator` so that experiments are reproducible when a
seed is supplied and independent when it is not.
"""

from __future__ import annotations

from typing import Union

import numpy as np

__all__ = ["ensure_rng"]

RandomState = Union[None, int, np.random.Generator]


def ensure_rng(seed: RandomState = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Parameters
    ----------
    seed:
        ``None`` for a fresh non-deterministic generator, an ``int`` for a
        seeded generator, or an existing :class:`numpy.random.Generator`
        which is returned unchanged.
    """
    if seed is None:
        return np.random.default_rng()
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, (int, np.integer)) and not isinstance(seed, bool):
        return np.random.default_rng(int(seed))
    raise TypeError(
        "seed must be None, an integer, or a numpy.random.Generator, "
        f"got {type(seed).__name__}"
    )
