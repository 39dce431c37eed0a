"""Shared fixtures for the test-suite.

All fixtures are deliberately small (low orders, few ports, few samples) so
the suite stays fast; the full-scale paper settings are exercised only by the
benchmarks.  Expensive fixtures are session-scoped and immutable.
"""

from __future__ import annotations

import ctypes
import glob
import os
import sys

import numpy as np
import pytest

from repro.circuits.pdn import PdnConfiguration, power_distribution_network
from repro.data import log_frequencies, sample_scattering
from repro.data.noise import add_measurement_noise
from repro.systems.random_systems import random_stable_system


@pytest.fixture(scope="session")
def small_system():
    """Order-20, 4-port stable system with feed-through (rank 4)."""
    return random_stable_system(order=20, n_ports=4, feedthrough=0.1, seed=3)


@pytest.fixture(scope="session")
def siso_system():
    """Order-6 single-port system."""
    return random_stable_system(order=6, n_ports=1, feedthrough=0.2, seed=5)


@pytest.fixture(scope="session")
def medium_system():
    """Order-40, 8-port system used by the heavier core tests."""
    return random_stable_system(order=40, n_ports=8, feedthrough=0.05, seed=11)


@pytest.fixture(scope="session")
def small_data(small_system):
    """8 log-spaced scattering samples of the small system (enough for MFTI recovery)."""
    freqs = log_frequencies(1e1, 1e5, 8)
    return sample_scattering(small_system, freqs, label="small")


@pytest.fixture(scope="session")
def dense_data(small_system):
    """Dense validation sweep of the small system."""
    freqs = log_frequencies(1e1, 1e5, 60)
    return sample_scattering(small_system, freqs, label="small dense")


@pytest.fixture(scope="session")
def noisy_data(small_data):
    """The small data set with 0.1 % relative measurement noise."""
    return add_measurement_noise(small_data, relative_level=1e-3, seed=17)


@pytest.fixture(scope="session")
def many_sample_data(small_system):
    """24 log-spaced samples of the small system (over-sampled for MFTI)."""
    freqs = log_frequencies(1e1, 1e5, 24)
    return sample_scattering(small_system, freqs, label="small oversampled")


@pytest.fixture(scope="session")
def tiny_pdn_system():
    """A small (4x4 grid, 4-port) PDN used by the circuit-level tests."""
    config = PdnConfiguration(n_ports=4, grid_rows=4, grid_cols=4, n_decaps=4, n_bulk_caps=1)
    return power_distribution_network(config)


@pytest.fixture
def rng():
    """Fresh deterministic random generator per test."""
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def fit_cache_dir(tmp_path_factory):
    """Session-unique root directory for on-disk fit caches.

    Shared (same name, same semantics) with ``benchmarks/conftest.py``.
    ``tmp_path_factory`` derives from pytest's numbered, lock-protected
    basetemp, so concurrent pytest runs on one machine each get their own
    store and never collide; within a session the path is stable, so every
    test reuses one deterministic cache location.
    """
    return tmp_path_factory.mktemp("fit-cache")


@pytest.fixture
def svd_calls(monkeypatch):
    """Shapes of every :func:`~repro.utils.linalg.economic_svd` call the test makes.

    Rebinds the function in every ``repro`` module that imported it, so the
    count covers the pencil profiles and the realization alike.
    """
    from repro.utils import linalg

    original = linalg.economic_svd
    calls = []

    def counting(matrix):
        calls.append(np.shape(matrix))
        return original(matrix)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, "economic_svd", None) is original:
            monkeypatch.setattr(module, "economic_svd", counting)
    return calls


@pytest.fixture(scope="session")
def openblas_threads():
    """``(get, set)`` of numpy's bundled OpenBLAS thread count; skips where absent.

    Looked up here rather than through :mod:`repro.utils.blas`, so the tests
    of thread-count independence do not rely on the code they check.
    """
    libs_dir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs_dir, "*openblas*"))):
        library = ctypes.CDLL(path)
        getter = getattr(library, "scipy_openblas_get_num_threads64_", None)
        setter = getattr(library, "scipy_openblas_set_num_threads64_", None)
        if getter is not None and setter is not None:
            getter.argtypes, getter.restype = [], ctypes.c_int
            setter.argtypes, setter.restype = [ctypes.c_int], None
            return getter, setter
    pytest.skip("numpy's bundled OpenBLAS thread controls are not available")


@pytest.fixture
def two_blas_threads(openblas_threads):
    """numpy's OpenBLAS set to two threads for the test, then restored; yields the getter."""
    get_threads, set_threads = openblas_threads
    previous = get_threads()
    set_threads(2)
    try:
        yield get_threads
    finally:
        set_threads(previous)
