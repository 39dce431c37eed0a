"""Table 1 -- interpolation of noisy data on the 14-port PDN workload.

Paper setting: 100 noisy scattering samples of a 14-port power-distribution
network, once uniformly distributed over the band (Test 1) and once
concentrated in the high-frequency band (Test 2, ill-conditioned).  Compared
algorithms: Vector Fitting (10 iterations, n = 140 and n = 280), VFTI, MFTI-1
with ``t_i = 2`` and ``t_i = 3``, and the recursive MFTI-2.  Columns: reduced
order, CPU time, relative error.

The measured INC-board data of the paper is proprietary; the workload here is
the synthetic PDN documented in :mod:`repro.circuits.pdn`.  The Loewner rows of both
tests run as one :class:`~repro.batch.engine.BatchEngine` job grid; the VF
rows are timed individually because vector fitting is not a Loewner
front-end.  The aggregated table (the reproduction of Table 1) is printed
and written to ``benchmarks/results/table1.txt`` plus ``BENCH_table1.json``
once all rows have run.
"""

from __future__ import annotations

import pytest

from repro.batch import BatchEngine
from repro.experiments.example2 import Example2Config, build_pdn_datasets, loewner_table1_jobs
from repro.experiments.reporting import format_table
from repro.metrics import aggregate_error
from repro.vectorfitting import vector_fit

_CONFIG = Example2Config()
_ROWS: list[list] = []
_BATCH_INFO: dict = {}


@pytest.fixture(scope="module")
def workloads():
    test1, test2, validation = build_pdn_datasets(_CONFIG)
    return {"test1": test1, "test2": test2, "validation": validation}


@pytest.mark.parametrize("test", ["test1", "test2"])
@pytest.mark.parametrize("n_poles", list(_CONFIG.vf_pole_counts))
def test_table1_vector_fitting(benchmark, workloads, test, n_poles):
    """Vector fitting rows of Table 1 (10 relocation iterations)."""
    data = workloads[test]
    result = benchmark.pedantic(
        lambda: vector_fit(data, n_poles, n_iterations=_CONFIG.vf_iterations),
        rounds=1, iterations=1,
    )
    err_meas = aggregate_error(result.frequency_response(data.frequencies_hz), data.samples)
    err_truth = aggregate_error(
        result.frequency_response(workloads["validation"].frequencies_hz),
        workloads["validation"].samples,
    )
    _ROWS.append([test, f"VF(10 it) n={n_poles}", result.n_poles,
                  result.elapsed_seconds, err_meas, err_truth])
    benchmark.extra_info.update({"order": result.n_poles, "err_measurement": err_meas,
                                 "err_truth": err_truth})


def test_table1_loewner_batch(benchmark, workloads):
    """All Loewner rows of Table 1 (VFTI, MFTI-1 t=2/3, MFTI-2) as one batch."""
    jobs = [
        job
        for test in ("test1", "test2")
        for job in loewner_table1_jobs(_CONFIG, test, workloads[test],
                                       workloads["validation"])
    ]
    engine = BatchEngine()
    batch = benchmark.pedantic(lambda: engine.run(jobs), rounds=1, iterations=1)
    assert batch.n_failed == 0, batch.failures
    for record in batch.records:
        _ROWS.append([record.tags["test"], record.label, record.order,
                      record.result.elapsed_seconds, record.error_vs_data,
                      record.error_vs_reference])
    _BATCH_INFO.update({
        "executor": batch.executor,
        "n_workers": batch.n_workers,
        "chunk_size": batch.chunk_size,
        "wall_seconds": batch.wall_seconds,
        "total_fit_seconds": batch.total_fit_seconds,
    })
    benchmark.extra_info.update(_BATCH_INFO)


def test_table1_report(benchmark, workloads, reportable, json_reportable):
    """Assemble and print the full Table-1 reproduction from the recorded rows."""
    assert _ROWS, "the algorithm benchmarks must run before the report"
    rows = sorted(_ROWS, key=lambda r: (r[0], r[1]))
    text = benchmark.pedantic(
        lambda: format_table(
            ["test", "algorithm", "reduced order", "time (s)",
             "rel. error vs measurement", "rel. error vs ground truth"],
            rows,
            title="Table 1 (reproduction): interpolation of noisy PDN data",
        ),
        rounds=1, iterations=1,
    )
    reportable("table1.txt", text)
    json_reportable("table1", {
        "batch": _BATCH_INFO,
        "rows": [
            {"test": r[0], "algorithm": r[1], "order": int(r[2]),
             "time_seconds": float(r[3]), "err_measurement": float(r[4]),
             "err_truth": float(r[5])}
            for r in rows
        ],
    })
    # shape assertions of the paper's table: MFTI beats VFTI on both tests,
    # and accuracy improves from t=2 to t=3
    by_key = {(r[0], r[1]): r for r in rows}
    for test in ("test1", "test2"):
        assert by_key[(test, "MFTI-1 t=3")][4] < by_key[(test, "VFTI")][4]
        assert by_key[(test, "MFTI-1 t=3")][4] <= by_key[(test, "MFTI-1 t=2")][4]
        assert by_key[(test, "MFTI-2 (recursive)")][4] < by_key[(test, "VFTI")][4]
