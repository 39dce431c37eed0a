"""Ablation A2 -- SVD realization mode and the choice of the shift ``x0``.

Algorithm 1 step 5 performs one SVD of ``x0*L - sL`` for an ``x0`` chosen from
the sample points; the Loewner literature also uses the two-sided projection
from the SVDs of ``[L, sL]`` and ``[L; sL]``.  This ablation compares both on
the Example-1 workload, including several choices of ``x0``.
"""

from __future__ import annotations

import pytest

from repro.batch import BatchEngine
from repro.data import log_frequencies, sample_scattering
from repro.experiments.ablations import svd_mode_ablation
from repro.experiments.example1 import Example1Config
from repro.experiments.reporting import format_table


@pytest.fixture(scope="module")
def example1_workload():
    config = Example1Config(order=80, n_ports=16, n_samples=10, seed=12)
    system = config.system()
    data = config.sample_data()
    reference = sample_scattering(system, log_frequencies(config.f_min_hz, config.f_max_hz, 80))
    return data, reference


def test_ablation_svd_modes(benchmark, example1_workload, reportable, json_reportable):
    """Compare two-sided projection against the pencil SVD with three shifts."""
    data, reference = example1_workload
    engine = BatchEngine()
    rows = benchmark.pedantic(
        lambda: svd_mode_ablation(data, reference, rank_tolerance=1e-9, engine=engine),
        rounds=1, iterations=1,
    )
    table = format_table(
        ["setting", "order", "time (s)", "error vs ground truth"],
        [[r.setting, r.order, r.time_seconds, r.error] for r in rows],
        title="Ablation A2: SVD realization mode / shift x0 (Example-1 workload)",
    )
    reportable("ablation_svd.txt", table)
    json_reportable("ablation_svd", {
        "executor": engine.executor,
        "rows": [r.to_dict() for r in rows],
    })
    benchmark.extra_info["errors"] = {r.setting: r.error for r in rows}
    # every realization variant recovers the (noise-free, sufficiently sampled) system
    assert all(r.error < 1e-5 for r in rows)
