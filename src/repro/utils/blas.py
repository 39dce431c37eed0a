"""numpy's bundled OpenBLAS: its thread count, and the LAPACK calls scipy would make.

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

The same library exports the LAPACK routines behind three scipy calls.
:func:`generalized_eig` and :func:`generalized_eigvals` are
``scipy.linalg.eig(a, b)`` and its homogeneous eigenvalues-only form, and
:func:`solve_triangular` is ``scipy.linalg.solve_triangular``, each bit for
bit: the same ``?ggev``/``?trtrs`` calls, workspace query and
post-processing, on the OpenBLAS that the guard pins.  Importing
``scipy.linalg`` maps scipy's own OpenBLAS next to numpy's (about 19 MB of
resident memory), so the certify path's QZ, ``systems.analysis.poles`` and
vector fitting's triangular solves call these and load no scipy.  Where
numpy's build exports no such routine (MKL, Accelerate, a pre-2.0 wheel),
or for an input these bindings do not cover (a dtype other than
float64/complex128, an empty matrix, a shape scipy itself rejects), they
call scipy.  scipy's ``lu_factor``, which
``simulate_lsim`` uses, stays on scipy: numpy's ``dgetrf`` differs from
scipy's bitwise on random matrices at n = 17, 31, 78, 150 and 311 (equal
only at n = 5 of the six orders tried).
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

import numpy as np

__all__ = [
    "blas_threads",
    "generalized_eig",
    "generalized_eigvals",
    "single_thread_blas",
    "solve_triangular",
]

_GETTER = "scipy_openblas_get_num_threads64_"
_SETTER = "scipy_openblas_set_num_threads64_"

# ctypes types of the Fortran arguments of numpy's ILP64 build, one letter each:
# a character, a 64-bit integer by reference, an array, and gfortran's hidden
# size_t length of each character argument, which follows the explicit ones
_ARGUMENTS = {
    "c": ctypes.c_char_p,
    "i": ctypes.POINTER(ctypes.c_int64),
    "p": ctypes.c_void_p,
    "l": ctypes.c_size_t,
}


def _routine(name: str, restype, arguments: str) -> tuple:
    return name, restype, tuple(_ARGUMENTS[code] for code in arguments)


# (jobvl, jobvr, n, a, lda, b, ldb, alphar, alphai, beta, vl, ldvl, vr, ldvr, work, lwork, info)
_DGGEV = _routine("scipy_dggev_64_", None, "ccipipippppipipiill")
# (jobvl, jobvr, n, a, lda, b, ldb, alpha, beta, vl, ldvl, vr, ldvr, work, lwork, rwork, info)
_ZGGEV = _routine("scipy_zggev_64_", None, "ccipipipppipipipill")
# (n, x, incx)
_DNRM2 = _routine("scipy_dnrm2_64_", ctypes.c_double, "ipi")
_DZNRM2 = _routine("scipy_dznrm2_64_", ctypes.c_double, "ipi")
# (uplo, trans, diag, n, nrhs, a, lda, b, ldb, info)
_DTRTRS = _routine("scipy_dtrtrs_64_", None, "ccciipipiilll")

_LAPACK_DTYPES = (np.dtype(np.float64), np.dtype(np.complex128))
# scipy forms real-input eigenvalues as ``alphar + _I * alphai`` with this
# single-precision unit, so the same product rounds the same way here
_I = np.array(1j, dtype="F")

_lock = threading.RLock()


@functools.lru_cache(maxsize=None)
def _openblas(name: str, restype, argtypes: tuple):
    """``name`` from numpy's bundled OpenBLAS as a typed ``ctypes`` function, or ``None``.

    ``ctypes.CDLL`` functions release the GIL while they run, as scipy's
    wrappers do, so threads still overlap their LAPACK calls.
    """
    libs_dir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs_dir, "*openblas*"))):
        try:
            function = getattr(ctypes.CDLL(path), name)
        except (OSError, AttributeError):
            continue
        function.restype, function.argtypes = restype, argtypes
        return function
    return None


@functools.lru_cache(maxsize=None)
def _thread_controls():
    """``(get, set)`` of numpy's bundled OpenBLAS thread count, or ``None``."""
    getter = _openblas(_GETTER, ctypes.c_int, ())
    setter = _openblas(_SETTER, None, (ctypes.c_int,))
    if getter is not None and setter is not None:
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


def _int(value: int):
    return ctypes.byref(ctypes.c_int64(value))


def _ptr(array: np.ndarray) -> int:
    return array.ctypes.data


def _geneig(a, b, right: bool):
    """scipy's ``_geneig(a, b, left=False, right=right)`` on numpy's ``?ggev``, or ``None``.

    ``None`` where only scipy applies: numpy's build exports no ``?ggev``, or
    the pair is not two non-empty, same-shape square float64/complex128
    matrices.  Non-finite input raises scipy's ``check_finite`` error.
    """
    a, b = np.asarray_chkfinite(a), np.asarray_chkfinite(b)
    if not (
        a.dtype in _LAPACK_DTYPES
        and b.dtype in _LAPACK_DTYPES
        and a.ndim == 2
        and a.shape[0] == a.shape[1]
        and b.shape == a.shape
        and a.size
    ):
        return None
    is_complex = np.complex128 in (a.dtype, b.dtype)
    ggev = _openblas(*(_ZGGEV if is_complex else _DGGEV))
    nrm2 = {np.float64: _openblas(*_DNRM2), np.complex128: _openblas(*_DZNRM2)}
    if ggev is None or None in nrm2.values():
        return None
    dtype = np.complex128 if is_complex else np.float64
    n = a.shape[0]
    a = np.array(a, dtype=dtype, order="F")  # ?ggev overwrites both matrices
    b = np.array(b, dtype=dtype, order="F")
    alphas = (np.empty(n, dtype),) if is_complex else (np.empty(n), np.empty(n))
    beta = np.empty(n, dtype)
    unused = np.empty(1, dtype)
    vr = np.empty((n, n), dtype, order="F") if right else unused
    rwork = (np.empty(8 * n),) if is_complex else ()
    info = ctypes.c_int64()
    pencil = (_int(n), _ptr(a), _int(n), _ptr(b), _int(n), *map(_ptr, (*alphas, beta)))
    tail = (*map(_ptr, rwork), ctypes.byref(info), 1, 1)

    # scipy's workspace query asks for both eigenvector sets; LAPACK's blocked
    # paths follow the lwork it returns
    query = np.empty(1, dtype)
    vectors = (_ptr(unused), _int(n), _ptr(vr), _int(n))
    ggev(b"V", b"V", *pencil, *vectors, _ptr(query), _int(-1), *tail)
    lwork = int(query[0].real)
    work = np.empty(max(lwork, 1), dtype)
    vectors = (_ptr(unused), _int(1), _ptr(vr), _int(n if right else 1))
    ggev(b"N", b"V" if right else b"N", *pencil, *vectors, _ptr(work), _int(lwork), *tail)
    if info.value < 0:
        raise ValueError(
            f"illegal value in argument {-info.value} of internal generalized eig algorithm (ggev)"
        )
    if info.value > 0:
        raise np.linalg.LinAlgError(
            f"generalized eig algorithm (ggev) did not converge (LAPACK info={info.value})"
        )
    alpha = alphas[0] if is_complex else alphas[0] + _I * alphas[1]
    if not right:
        return np.vstack((alpha, beta))

    # alpha/beta, with inf where only beta vanishes and nan where both do
    w = np.empty_like(alpha)
    alpha_zero, beta_zero = alpha == 0, beta == 0
    w[~beta_zero] = alpha[~beta_zero] / beta[~beta_zero]
    w[~alpha_zero & beta_zero] = np.inf
    w[alpha_zero & beta_zero] = np.nan if np.all(alpha.imag == 0) else complex(np.nan, np.nan)
    if not (is_complex or np.all(w.imag == 0.0)):
        # a real ?ggev stores a conjugate pair's vector as its real and
        # imaginary parts in consecutive columns; the second mask line is
        # scipy's workaround for a LAPACK bug (its ticket 709)
        real = vr
        vr = np.array(real, dtype=w.dtype)
        pair = w.imag > 0
        pair[:-1] |= w.imag[1:] < 0
        for i in np.flatnonzero(pair):
            vr.imag[:, i] = real[:, i + 1]
            np.conj(vr[:, i], vr[:, i + 1])
    # scipy's norm() checks each column, then divides it by BLAS nrm2, whose
    # summation order np.linalg.norm does not share
    if not np.isfinite(vr).all():
        raise ValueError("array must not contain infs or NaNs")
    norm = nrm2[vr.dtype.type]
    for i in range(n):
        vr[:, i] /= norm(_int(n), _ptr(vr[:, i]), _int(1))
    return w, vr


def generalized_eig(a, b):
    """``scipy.linalg.eig(a, b)``, bit for bit: eigenvalues and unit right eigenvectors."""
    result = _geneig(a, b, right=True)
    if result is None:
        import scipy.linalg

        return scipy.linalg.eig(a, b)
    return result


def generalized_eigvals(a, b) -> np.ndarray:
    """``scipy.linalg.eig(a, b, right=False, homogeneous_eigvals=True)``, bit for bit.

    Row 0 holds ``alpha`` and row 1 ``beta``: each eigenvalue is
    ``alpha / beta``, and ``beta == 0`` marks an infinite one.
    """
    result = _geneig(a, b, right=False)
    if result is None:
        import scipy.linalg

        return scipy.linalg.eig(a, b, right=False, homogeneous_eigvals=True)
    return result


def solve_triangular(a, b, *, lower: bool = False) -> np.ndarray:
    """``scipy.linalg.solve_triangular(a, b, lower=lower)``, bit for bit, on ``dtrtrs``.

    As in scipy, a matrix that is not Fortran-ordered is solved as its
    transpose, with ``lower`` flipped and ``trans='T'``, and a zero on the
    diagonal raises ``LinAlgError``.  Other input (a dtype other than
    float64, an empty right-hand side, shapes scipy rejects) goes to scipy.
    """
    a, b = np.asarray_chkfinite(a), np.asarray_chkfinite(b)
    trtrs = _openblas(*_DTRTRS)
    if not (
        trtrs is not None
        and a.dtype == np.float64
        and b.dtype == np.float64
        and a.ndim == 2
        and a.shape[0] == a.shape[1]
        and b.ndim in (1, 2)
        and b.shape[0] == a.shape[0]
        and b.size
    ):
        import scipy.linalg

        return scipy.linalg.solve_triangular(a, b, lower=lower)
    trans = b"N"
    if not a.flags.f_contiguous:
        a, lower, trans = a.T, not lower, b"T"
    a = np.asfortranarray(a)
    x = np.array(b, order="F")  # ?trtrs overwrites its right-hand side
    n = a.shape[0]
    info = ctypes.c_int64()
    uplo = b"L" if lower else b"U"
    system = (_int(n), _int(x.size // n), _ptr(a), _int(n), _ptr(x), _int(n))
    trtrs(uplo, trans, b"N", *system, ctypes.byref(info), 1, 1, 1)
    if info.value > 0:
        raise np.linalg.LinAlgError(
            f"singular matrix: resolution failed at diagonal {info.value - 1}"
        )
    if info.value < 0:
        raise ValueError(f"illegal value in {-info.value}-th argument of internal trtrs")
    return x
