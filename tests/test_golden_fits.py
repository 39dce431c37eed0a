"""Golden regression tests: committed reference results for the shared grid.

The cache can only claim "hits are identical to fresh fits" if fresh fits
themselves are stable, so this module pins the repository's first golden
fixtures: for every job of the shared PDN + transmission-line grid
(:func:`repro.experiments.workloads.mixed_batch_jobs`, at reduced test-suite
sizes) the committed ``tests/golden/golden_fits.json`` records

* the dataset fingerprint (so silent drift in the *workload generators* is
  caught separately from drift in the *solvers*),
* the options fingerprint (pinning the method configuration),
* the recovered model order (compared exactly), and
* the error norms vs measurement and vs ground truth (compared within a
  small relative tolerance that absorbs BLAS/LAPACK rounding differences
  but fails on real numerical drift).

Regenerate after an *intentional* numerical change with::

    PYTHONPATH=src python tests/test_golden_fits.py --regenerate

and review the fixture diff like any other code change.
"""

from __future__ import annotations

import json
import math
import os

import pytest

from repro.batch import BatchEngine
from repro.cache import dataset_fingerprint, options_fingerprint

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "golden_fits.json")

#: Relative tolerance on the recorded error norms.  Well above cross-platform
#: BLAS rounding (observed < 1e-9 on the reference grids), far below any
#: behavioural change (method edits move these norms by percents or more).
ERROR_RTOL = 1e-3

#: Reduced sizes of the shared grid -- same builder as the benchmarks and
#: ``examples/batch_sweep.py``, small enough for the tier-1 suite.
GRID_KWARGS = dict(pdn_samples=60, pdn_validation=80, line_sections=20,
                   line_samples=60, line_validation=80)


def _build_jobs():
    from repro.experiments.workloads import mixed_batch_jobs

    return mixed_batch_jobs(**GRID_KWARGS)


def _record_case(job, record) -> dict:
    return {
        "label": record.label,
        "method": record.method,
        "dataset_fingerprint": dataset_fingerprint(job.data),
        "options_fingerprint": options_fingerprint(job.method, job.options),
        "order": record.order,
        "error_vs_data": record.error_vs_data,
        "error_vs_reference": record.error_vs_reference,
    }


def regenerate() -> str:
    """Re-run the grid and rewrite the golden fixture (manual, reviewed step)."""
    jobs = _build_jobs()
    batch = BatchEngine().run(jobs).raise_failures(context="golden job")
    document = {
        "description": "golden references for the shared PDN + transmission-line grid",
        "grid_kwargs": GRID_KWARGS,
        "error_rtol": ERROR_RTOL,
        "cases": [_record_case(job, record) for job, record in zip(jobs, batch.records)],
    }
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return GOLDEN_PATH


@pytest.fixture(scope="module")
def golden():
    if not os.path.exists(GOLDEN_PATH):
        pytest.fail(f"golden fixture missing: {GOLDEN_PATH} "
                    "(run `python tests/test_golden_fits.py --regenerate`)")
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def fresh_batch():
    jobs = _build_jobs()
    return jobs, BatchEngine().run(jobs).raise_failures(context="golden job")


def test_fixture_matches_grid_shape(golden, fresh_batch):
    jobs, batch = fresh_batch
    assert golden["grid_kwargs"] == GRID_KWARGS
    assert [case["label"] for case in golden["cases"]] == [r.label for r in batch.records]


def test_dataset_fingerprints_unchanged(golden, fresh_batch):
    """Workload generators (PDN, transmission line, noise) are bit-stable."""
    jobs, _ = fresh_batch
    for case, job in zip(golden["cases"], jobs):
        assert case["dataset_fingerprint"] == dataset_fingerprint(job.data), (
            f"{case['label']}: the generated dataset drifted -- the workload "
            "builders changed behaviour (not just the solvers)"
        )
        assert case["options_fingerprint"] == options_fingerprint(job.method, job.options)


def test_dataset_fingerprints_independent_of_blas_threads(golden, openblas_threads):
    """Datasets hash the same with a multithreaded OpenBLAS as with one thread."""
    get_threads, set_threads = openblas_threads
    previous = get_threads()
    set_threads(2)
    try:
        jobs = _build_jobs()
        assert get_threads() == 2  # sampling restored the caller's thread count
    finally:
        set_threads(previous)
    drifted = [case["label"] for case, job in zip(golden["cases"], jobs)
               if case["dataset_fingerprint"] != dataset_fingerprint(job.data)]
    assert not drifted, f"dataset fingerprints depend on the BLAS thread count: {drifted}"


def test_orders_and_errors_within_tolerance(golden, fresh_batch):
    """The committed orders are exact; error norms stay within ERROR_RTOL."""
    _, batch = fresh_batch
    failures = []
    for case, record in zip(golden["cases"], batch.records):
        if record.order != case["order"]:
            failures.append(f"{case['label']}: order {record.order} != {case['order']}")
        for field in ("error_vs_data", "error_vs_reference"):
            expected, got = case[field], getattr(record, field)
            if math.isnan(expected) and math.isnan(got):
                continue
            if not math.isclose(got, expected, rel_tol=golden["error_rtol"]):
                failures.append(
                    f"{case['label']}: {field} {got:.9e} drifted from "
                    f"{expected:.9e} (rtol {golden['error_rtol']:g})"
                )
    assert not failures, "numerical drift beyond tolerance:\n  " + "\n  ".join(failures)


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        print(f"golden fixture written to {regenerate()}")
    else:
        print(__doc__)
