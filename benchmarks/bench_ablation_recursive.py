"""Ablation A3 -- recursive MFTI parameters (``k0`` and ``Th``).

Algorithm 2 adds ``k0`` samples per iteration and stops once the mean hold-out
tangential error drops below ``Th``.  This ablation sweeps both on the noisy
PDN workload and reports model size, cost and accuracy, making the
cost/accuracy trade-off the paper describes explicit.
"""

from __future__ import annotations

import pytest

from repro.batch import BatchEngine
from repro.experiments.ablations import recursive_parameter_ablation
from repro.experiments.example2 import Example2Config, build_pdn_datasets
from repro.experiments.reporting import format_table


@pytest.fixture(scope="module")
def pdn_workload():
    config = Example2Config()
    test1, _, validation = build_pdn_datasets(config)
    return config, test1, validation


def test_ablation_recursive_parameters(benchmark, pdn_workload, reportable, json_reportable):
    """Sweep k0 in {4, 8, 16} and Th in {5e-2, 1e-2, 2e-3} on the noisy PDN data."""
    config, data, validation = pdn_workload
    engine = BatchEngine()
    rows = benchmark.pedantic(
        lambda: recursive_parameter_ablation(
            data, validation,
            samples_per_iteration=(4, 8, 16),
            thresholds=(5e-2, 1e-2, 2e-3),
            block_size=2,
            rank_tolerance=config.rank_tolerance,
            engine=engine,
        ),
        rounds=1, iterations=1,
    )
    table = format_table(
        ["setting", "order", "time (s)", "error vs ground truth", "iterations"],
        [[r.setting, r.order, r.time_seconds, r.error, r.extra] for r in rows],
        title="Ablation A3: recursive MFTI parameters (noisy PDN, uniform sampling)",
    )
    reportable("ablation_recursive.txt", table)
    json_reportable("ablation_recursive", {
        "executor": engine.executor,
        "rows": [r.to_dict() for r in rows],
    })
    benchmark.extra_info["errors"] = {r.setting: r.error for r in rows}
    # tightening the threshold (at fixed k0) never increases the hold-out-driven model error
    by_k0 = {}
    for r in rows:
        k0 = r.setting.split(",")[0]
        by_k0.setdefault(k0, []).append(r.error)
    for errors in by_k0.values():
        assert errors[-1] <= errors[0] * 1.5
