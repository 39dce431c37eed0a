"""The factorization record the kernel modules call through.

The three kernel modules (``systems/evaluation.py``, ``core/assembly.py``,
``systems/spectral.py``) compute in ``numpy`` directly, except for four
factorizations they fetch from :func:`get_backend` on every call.  The record
holds the plain numpy callables, so calling through it is bitwise identical
to calling them directly, and importing this module loads no scipy.  It
remains because an outside tracer swaps a counting copy into
``_instances["numpy"]``: the swap reaches every kernel call made afterwards,
which a binding captured at import time would not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

__all__ = ["Factorizations", "get_backend"]


@dataclass(frozen=True)
class Factorizations:
    """The factorizations the kernels call, in numpy conventions.

    ``lstsq`` takes ``(a, b)`` and returns numpy's 4-tuple with an ``int``
    rank; the other fields are the numpy callables themselves.
    """

    solve: Callable[..., Any]
    lstsq: Callable[..., Any]
    cholesky: Callable[..., Any]
    irfft: Callable[..., Any]


def _lstsq(a, b):
    solution, residuals, rank, sv = np.linalg.lstsq(a, b, rcond=None)
    return solution, residuals, int(rank), sv


_instances: dict = {
    "numpy": Factorizations(
        solve=np.linalg.solve,
        lstsq=_lstsq,
        cholesky=np.linalg.cholesky,
        irfft=np.fft.irfft,
    ),
}


def get_backend(name: str = "numpy") -> Factorizations:
    """The cached factorization record; ``"numpy"`` is the only name."""
    try:
        return _instances[name]
    except KeyError:
        raise ValueError(f"unknown array backend {name!r}; only 'numpy' exists") from None
