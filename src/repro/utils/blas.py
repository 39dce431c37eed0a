"""Pin numpy's bundled OpenBLAS to one thread around bit-stable sections.

Multithreaded OpenBLAS partitions an LU factorization differently from the
single-thread path, so a stacked ``np.linalg.solve`` rounds differently with
the thread count.  Dataset generation must not depend on it: dataset
fingerprints, golden fixtures and shard manifests pin its output bit for
bit.  :func:`single_thread_blas` sets numpy's bundled OpenBLAS to one thread
for the duration of a ``with`` block and restores the previous count.
:func:`blas_threads` reads the count, so shard results can name it.

The thread count is process-global, so the guard holds a lock while it is
active.  Where the thread controls are absent (numpy built against MKL or
Accelerate), the guard does nothing and warns once.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
import threading
import warnings
from typing import Iterator, Optional

__all__ = ["blas_threads", "single_thread_blas"]

_GETTER = "scipy_openblas_get_num_threads64_"
_SETTER = "scipy_openblas_set_num_threads64_"

_lock = threading.RLock()


@functools.lru_cache(maxsize=None)
def _thread_controls():
    """``(get, set)`` of numpy's bundled OpenBLAS thread count, or ``None``."""
    import numpy

    libs_dir = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs_dir, "*openblas*"))):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        getter = getattr(library, _GETTER, None)
        setter = getattr(library, _SETTER, None)
        if getter is not None and setter is not None:
            getter.argtypes, getter.restype = [], ctypes.c_int
            setter.argtypes, setter.restype = [ctypes.c_int], None
            return getter, setter
    warnings.warn(
        f"numpy's BLAS exports no {_SETTER}; datasets are sampled with the BLAS's "
        "own thread count, so their fingerprints may depend on it",
        RuntimeWarning,
        stacklevel=2,
    )
    return None


@contextlib.contextmanager
def single_thread_blas() -> Iterator[None]:
    """Run the ``with`` block with numpy's OpenBLAS pinned to one thread."""
    controls = _thread_controls()
    if controls is None:
        yield
        return
    get_threads, set_threads = controls
    with _lock:
        previous = get_threads()
        set_threads(1)
        try:
            yield
        finally:
            set_threads(previous)


def blas_threads() -> Optional[int]:
    """numpy's OpenBLAS thread count, or ``None`` where the controls are absent.

    Waits out a :func:`single_thread_blas` block held by another thread, so
    it reports the process's own count rather than the temporary pin.
    """
    controls = _thread_controls()
    if controls is None:
        return None
    with _lock:
        return int(controls[0]())
