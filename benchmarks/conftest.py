"""Shared configuration for the benchmark harness.

Each benchmark module regenerates one evaluation artifact of the paper
(Fig. 1, Fig. 2, Table 1, the Theorem-3.5 sweep) or one ablation.  Workload
construction (building the benchmark system, sampling, adding noise) happens
in module-scoped fixtures so the timed section contains only the algorithm
under study; the regenerated tables/series are printed so a plain
``pytest benchmarks/ --benchmark-only -s`` reproduces the paper's artifacts
textually and written to ``benchmarks/results/`` for later inspection.

Besides the human-readable text reports every module also writes a
machine-readable ``BENCH_<name>.json`` (timings + model errors, stable
schema) through the ``json_reportable`` fixture; CI uploads these as the
benchmark artifact and future perf-regression gates diff them.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import sys

import pytest

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

# the looped oracles the speedup benches time against live with the tests
sys.path.append(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests"))

#: Schema of the ``BENCH_*.json`` exports; bump when the envelope changes.
BENCH_SCHEMA_VERSION = 1

#: The BLAS threading variables a benchmark run must pin to one thread.
BLAS_THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def pytest_configure(config):
    """Refuse to start unless BLAS is pinned to one thread.

    The speedup floors compare serial kernels against loops and executors
    against serial runs; under default BLAS threading the serial side
    silently uses every core and the process executor oversubscribes it, so
    a bench would fail (or pass) for a reason it never names.
    """
    unpinned = {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES
                if os.environ.get(name) != "1"}
    if unpinned:
        settings = ", ".join(f"{name}={value!r}" for name, value in unpinned.items())
        raise pytest.UsageError(
            "the benchmarks need BLAS pinned to one thread: set "
            + " ".join(f"{name}=1" for name in BLAS_THREAD_VARIABLES)
            + f" (unpinned here: {settings})"
        )


def pytest_sessionstart(session):
    """Load scipy before any bench runs.

    The library imports scipy inside the functions that call it (the
    trapezoidal integrator's LU), so the first such call in a
    process pays the import, about 0.3 s.  A bench that times such a call
    once (``bench_timedomain``'s integrator loop) would otherwise time the
    import along with the kernel.
    """
    importlib.import_module("scipy.linalg")


def save_report(name: str, text: str) -> str:
    """Write a formatted report under ``benchmarks/results`` and return its path."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    return path


def _json_safe(value):
    """Map non-finite floats to ``None`` so the export stays RFC-valid JSON."""
    if isinstance(value, dict):
        return {key: _json_safe(entry) for key, entry in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(entry) for entry in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def save_json_report(name: str, payload: dict) -> str:
    """Write ``BENCH_<name>.json`` under ``benchmarks/results`` and return its path.

    The payload is wrapped in a stable envelope (benchmark name + schema
    version) so downstream tooling can validate what it is diffing; ``nan``
    and ``inf`` values (e.g. a saving factor when one method never converged)
    are exported as ``null`` because strict JSON parsers reject the bare
    ``NaN`` / ``Infinity`` tokens Python would otherwise emit.
    """
    document = _json_safe({
        "benchmark": name,
        "schema_version": BENCH_SCHEMA_VERSION,
        **payload,
    })
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"BENCH_{name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True, allow_nan=False)
        handle.write("\n")
    return path


@pytest.fixture(scope="session")
def reportable():
    """Print-and-save helper shared by all benchmark modules."""
    def _report(name: str, text: str) -> None:
        path = save_report(name, text)
        print(f"\n{text}\n[saved to {path}]")
    return _report


@pytest.fixture(scope="session")
def json_reportable():
    """Save a machine-readable ``BENCH_<name>.json`` next to the text report."""
    def _report(name: str, payload: dict) -> None:
        path = save_json_report(name, payload)
        print(f"[machine-readable report saved to {path}]")
    return _report


@pytest.fixture(scope="session")
def fit_cache_dir(tmp_path_factory):
    """Session-unique root directory for on-disk fit caches.

    Shared (same name, same semantics) with ``tests/conftest.py``.
    ``tmp_path_factory`` derives from pytest's numbered, lock-protected
    basetemp, so concurrent pytest runs on one machine each get their own
    store and never collide; within a session the path is stable, so every
    benchmark reuses one deterministic cache location.
    """
    return tmp_path_factory.mktemp("fit-cache")
