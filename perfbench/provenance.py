"""BLAS pinning, checkout guard and provenance of a benchmark process.

:func:`pin_blas_env` must run before numpy is imported anywhere in the
process: OpenBLAS reads its thread count once, when the library loads.
Child processes (the fit server) inherit the pinned environment.  Dataset fingerprints depend on the BLAS thread count, so a
process whose BLAS is not single-threaded runs a different program and the
benchmark refuses to report it.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import sys

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Root of the checkout: the directory that holds ``perfbench/`` and ``src/``.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


class EnvironmentRefused(RuntimeError):
    """The process cannot produce numbers this benchmark stands behind."""


def pin_blas_env() -> None:
    """Pin every BLAS/OpenMP thread pool to one thread (call before numpy)."""
    for name in BLAS_THREAD_VARIABLES:
        os.environ[name] = "1"


def use_checkout_sources() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else.

    Children started by the benchmark inherit ``PYTHONPATH`` so they import
    the same sources.
    """
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise EnvironmentRefused(
            f"no repro sources under {SRC}: run the benchmark from a checkout "
            "that holds src/repro"
        )
    sys.path[:] = [ROOT, SRC] + [p for p in sys.path if p not in (ROOT, SRC)]
    previous = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = SRC + (os.pathsep + previous if previous else "")
    import repro

    location = os.path.dirname(os.path.abspath(repro.__file__))
    if location != os.path.join(SRC, "repro"):
        raise EnvironmentRefused(f"repro was imported from {location}, not {SRC}")


def _openblas_library():
    """The numpy-bundled scipy_openblas library, or ``None``."""
    import numpy

    libs_dir = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs_dir, "*openblas*"))):
        try:
            return ctypes.CDLL(path)
        except OSError:
            continue
    return None


def blas_threads():
    """BLAS thread count actually in effect, read from the library; ``None`` if unknown."""
    library = _openblas_library()
    if library is None:
        return None
    for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
        getter = getattr(library, symbol, None)
        if getter is not None:
            getter.argtypes = []
            getter.restype = ctypes.c_int
            return int(getter())
    return None


def provenance() -> dict:
    """What the numbers were measured on: numpy, BLAS, threads, cores, Python."""
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": numpy.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "python": platform.python_version(),
    }


def require_single_thread(info: dict, *, who: str = "benchmark process") -> None:
    """Refuse when the BLAS reports more than one thread."""
    threads = info.get("blas_threads")
    if threads is None:
        print(f"warning: {who}: BLAS thread count cannot be read; relying on "
              f"{', '.join(BLAS_THREAD_VARIABLES)}=1", file=sys.stderr)
    elif threads != 1:
        raise EnvironmentRefused(
            f"{who}: BLAS runs {threads} threads, not 1; dataset fingerprints "
            "depend on the thread count, so this would measure another program"
        )
