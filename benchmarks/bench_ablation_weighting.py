"""Ablation A1 -- effect of the tangential block size ``t`` (per-sample weighting).

The paper motivates ``t_i`` as a knob trading accuracy against cost and as a
weighting device for ill-conditioned samples; Table 1 only reports ``t = 2``
and ``t = 3``.  This ablation sweeps ``t`` from 1 (the VFTI information
content) to ``min(m, p)`` on the PDN workload and reports order / time /
error for every setting.
"""

from __future__ import annotations

import pytest

from repro.batch import BatchEngine
from repro.experiments.ablations import weighting_ablation
from repro.experiments.example2 import Example2Config, build_pdn_datasets
from repro.experiments.reporting import format_table


@pytest.fixture(scope="module")
def pdn_workload():
    config = Example2Config()
    test1, _, validation = build_pdn_datasets(config)
    return config, test1, validation


def test_ablation_block_size_sweep(benchmark, pdn_workload, reportable, json_reportable):
    """Sweep t in {1, 2, 3, 5, 8, 14} on the uniform-grid PDN data."""
    config, data, validation = pdn_workload
    sizes = [1, 2, 3, 5, 8, 14]
    engine = BatchEngine()
    rows = benchmark.pedantic(
        lambda: weighting_ablation(data, validation, block_sizes=sizes,
                                   rank_tolerance=config.rank_tolerance,
                                   engine=engine),
        rounds=1, iterations=1,
    )
    table = format_table(
        ["setting", "order", "time (s)", "error vs ground truth"],
        [[r.setting, r.order, r.time_seconds, r.error] for r in rows],
        title="Ablation A1: tangential block size t (PDN, uniform sampling)",
    )
    reportable("ablation_weighting.txt", table)
    json_reportable("ablation_weighting", {
        "executor": engine.executor,
        "rows": [r.to_dict() for r in rows],
    })
    errors = [r.error for r in rows]
    orders = [r.order for r in rows]
    benchmark.extra_info["errors"] = {r.setting: r.error for r in rows}
    # accuracy improves (and model size grows) as more of each sample matrix is used
    assert errors[-1] < errors[0]
    assert orders[-1] >= orders[0]
    assert min(errors[1:]) < errors[0] / 2
