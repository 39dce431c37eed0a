"""Tests for :mod:`repro.utils.blas`.

The LAPACK entry points promise scipy's results bit for bit, so scipy is the
oracle here: every comparison is on dtype, shape, memory order and bytes.
"""

import re
import threading

import numpy as np
import pytest
import scipy.linalg

from repro.core import run_fit
from repro.experiments.workloads import passive_macromodel_jobs
from repro.utils import blas
from repro.utils.blas import (
    blas_threads,
    generalized_eig,
    generalized_eigvals,
    single_thread_blas,
    solve_triangular,
)


class TestSingleThreadBlas:
    def test_pins_one_thread_and_restores_the_count(self, two_blas_threads):
        with single_thread_blas():
            assert two_blas_threads() == 1
        assert two_blas_threads() == 2
        assert blas_threads() == 2

    def test_restores_the_count_when_the_block_raises(self, two_blas_threads):
        with pytest.raises(RuntimeError, match="inside"):
            with single_thread_blas():
                raise RuntimeError("inside")
        assert two_blas_threads() == 2

    def test_blas_threads_waits_out_a_pin_held_by_another_thread(self, two_blas_threads):
        """A reader never reports another thread's temporary pin of 1."""
        pinned, release = threading.Event(), threading.Event()
        read: list = []

        def hold_pin():
            with single_thread_blas():
                pinned.set()
                release.wait(30)

        holder = threading.Thread(target=hold_pin)
        reader = threading.Thread(target=lambda: read.append(blas_threads()))
        holder.start()
        try:
            assert pinned.wait(30)
            reader.start()
            reader.join(0.2)
            assert reader.is_alive() and read == []
        finally:
            release.set()
            holder.join(30)
        reader.join(30)
        assert read == [2]


def assert_bitwise(actual, expected):
    """Same dtype, shape, memory order and bytes (NaN payloads included)."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert (actual.dtype, actual.shape) == (expected.dtype, expected.shape)
    assert actual.flags.f_contiguous == expected.flags.f_contiguous
    assert actual.tobytes() == expected.tobytes()


def assert_eig_matches_scipy(a, e):
    w, v = generalized_eig(a, e)
    expected_w, expected_v = scipy.linalg.eig(a, e)
    assert_bitwise(w, expected_w)
    assert_bitwise(v, expected_v)
    assert_bitwise(
        generalized_eigvals(a, e),
        scipy.linalg.eig(a, e, right=False, homogeneous_eigvals=True),
    )


def random_pencil(n: int, kind: str, seed: int = 0):
    rng = np.random.default_rng(seed)
    a, e = rng.standard_normal((2, n, n))
    if kind == "complex":
        a = a + 1j * rng.standard_normal((n, n))
        e = e + 1j * rng.standard_normal((n, n))
    return a, e


def singular_pencil():
    """A pencil whose ``E`` drops rank 3: three eigenvalues are infinite."""
    a, _ = random_pencil(9, "real", seed=3)
    return a, np.diag([1.0, 2.0, 0.0, 3.0, 0.0, 4.0, 5.0, 0.0, 6.0])


@pytest.fixture(scope="module")
def zoo_pencils():
    """``(A, E)`` of the 8 default-zoo fits: the pencils the certify path diagonalizes."""
    systems = [
        run_fit(job.data, method=job.method, options=job.options).system
        for job in passive_macromodel_jobs()
    ]
    return [(np.asarray(system.A), np.asarray(system.E)) for system in systems]


class TestGeneralizedEig:
    def test_default_zoo_fits_match_scipy_bit_for_bit(self, zoo_pencils):
        assert len(zoo_pencils) == 8
        complex_pairs = 0
        for a, e in zoo_pencils:
            assert_eig_matches_scipy(a, e)
            complex_pairs += int(np.any(generalized_eig(a, e)[0].imag > 0))
        assert complex_pairs == 8  # every fit splits conjugate-pair vectors

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("n", [3, 31, 120])
    def test_random_pencils_match_scipy_bit_for_bit(self, n, kind):
        assert_eig_matches_scipy(*random_pencil(n, kind))

    def test_a_singular_descriptor_matrix_gives_scipys_infinite_eigenvalues(self):
        a, e = singular_pencil()
        assert_eig_matches_scipy(a, e)
        assert np.isinf(generalized_eig(a, e)[0]).sum() == 3
        assert np.count_nonzero(generalized_eigvals(a, e)[1] == 0) == 3

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_raises_scipys_error(self, bad):
        a, e = random_pencil(4, "real")
        e[1, 2] = bad
        with pytest.raises(ValueError) as expected:
            scipy.linalg.eig(a, e)
        message = re.escape(str(expected.value))
        with pytest.raises(ValueError, match=message):
            generalized_eig(a, e)
        with pytest.raises(ValueError, match=message):
            generalized_eigvals(e, a)


def triangular_system(n: int, lower: bool, nrhs, seed: int = 0):
    rng = np.random.default_rng(seed)
    factor = np.tril(rng.standard_normal((n, n))) + n * np.eye(n)
    shape = (n,) if nrhs is None else (n, nrhs)
    return (factor if lower else factor.T.copy()), rng.standard_normal(shape)


class TestSolveTriangular:
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("lower", [False, True])
    @pytest.mark.parametrize("nrhs", [None, 4])
    @pytest.mark.parametrize("n", [3, 31, 120])
    def test_matches_scipy_bit_for_bit(self, n, nrhs, lower, order):
        """C-ordered factors take scipy's transposed path, Fortran-ordered the direct one."""
        factor, rhs = triangular_system(n, lower, nrhs)
        factor = np.asarray(factor, order=order)
        assert_bitwise(
            solve_triangular(factor, rhs, lower=lower),
            scipy.linalg.solve_triangular(factor, rhs, lower=lower),
        )

    def test_a_zero_on_the_diagonal_raises_scipys_error(self):
        factor, rhs = triangular_system(5, False, None)
        factor[3, 3] = 0.0
        with pytest.raises(np.linalg.LinAlgError) as expected:
            scipy.linalg.solve_triangular(factor, rhs)
        with pytest.raises(np.linalg.LinAlgError, match=re.escape(str(expected.value))):
            solve_triangular(factor, rhs)

    def test_non_finite_input_raises_scipys_error(self):
        factor, rhs = triangular_system(5, True, 2)
        rhs[2, 1] = np.nan
        with pytest.raises(ValueError) as expected:
            scipy.linalg.solve_triangular(factor, rhs, lower=True)
        with pytest.raises(ValueError, match=re.escape(str(expected.value))):
            solve_triangular(factor, rhs, lower=True)


def test_without_numpys_routines_the_scipy_fallback_gives_the_same_arrays(monkeypatch):
    pencil = random_pencil(31, "real")
    factor, rhs = triangular_system(31, True, 3)

    def solve_all():
        w, v = generalized_eig(*pencil)
        return w, v, generalized_eigvals(*pencil), solve_triangular(factor, rhs, lower=True)

    expected = solve_all()
    calls = []

    def counting(function):
        def wrapper(*args, **kwargs):
            calls.append(function.__name__)
            return function(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(scipy.linalg, "eig", counting(scipy.linalg.eig))
    monkeypatch.setattr(scipy.linalg, "solve_triangular", counting(scipy.linalg.solve_triangular))
    monkeypatch.setattr(blas, "_openblas", lambda *routine: None)
    fallback = solve_all()
    assert calls == ["eig", "eig", "solve_triangular"]
    for got, want in zip(fallback, expected):
        assert_bitwise(got, want)
