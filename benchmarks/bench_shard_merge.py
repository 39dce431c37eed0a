"""Sharded-run smoke: plan -> run 2 shards through the CLI -> merge -> equal.

The cross-machine acceptance contract of :mod:`repro.batch.sharding`,
exercised end-to-end exactly as an operator would: the shared mixed
MFTI/VFTI grid is planned into two shard manifests, each shard runs in its
own ``python -m repro shard run`` subprocess (rebuilding the workload
from the manifest, sharing one ``DiskStore``), and the merged result must
reproduce the single-process reference bitwise -- record order, numerical
payloads, JSON export and cache counters.

``BENCH_shard_merge.json`` records the equivalence verdict (``n_diffs``,
``json_equal``) and the cache counters; ``benchmarks/baselines/
shard_merge.json`` gates them in CI, so a sharding regression that breaks
merge equivalence fails the build even if every unit test still passes.
"""

from __future__ import annotations

import functools
import json
import os

import pytest

from repro.batch import (
    BatchEngine,
    comparable_json,
    merge_shard_results,
    numerical_differences,
)
from repro.cache import FitCache
from repro.cli import cli_subprocess
from repro.experiments.workloads import mixed_batch_jobs

run_cli = functools.partial(cli_subprocess, "shard")

#: Reduced copy of the shared grid: same 8-job structure as the full
#: ``bench_batch_engine`` grid, scaled so the two CLI subprocesses (which
#: each rebuild the workload) keep the smoke step quick.
GRID_KWARGS = dict(pdn_samples=60, pdn_validation=80, line_sections=20,
                   line_samples=60, line_validation=80)


@pytest.fixture(scope="module")
def job_grid():
    return mixed_batch_jobs(**GRID_KWARGS)


def test_shard_plan_run_merge_equivalence(benchmark, job_grid, reportable,
                                          json_reportable, tmp_path):
    """2-shard CLI cycle reproduces the cached single-process run bitwise."""
    reference_cache = FitCache.on_disk(tmp_path / "store-reference")
    reference = BatchEngine(cache=reference_cache).run(job_grid)
    assert reference.n_failed == 0, reference.failures

    shard_dir = tmp_path / "shards"
    shared_store = tmp_path / "store-sharded"

    def sharded_cycle():
        plan = run_cli("plan", "--workload", "mixed_batch_jobs",
                       "--workload-args", json.dumps(GRID_KWARGS),
                       "--shards", "2", "--out-dir", str(shard_dir),
                       "--cache-dir", str(shared_store))
        assert plan.returncode == 0, plan.stderr
        shard_files = []
        for name in sorted(os.listdir(shard_dir)):
            if not name.endswith(".manifest.json"):
                continue
            run = run_cli("run", str(shard_dir / name))
            assert run.returncode == 0, run.stderr
            shard_files.append(
                str(shard_dir / name).replace(".manifest.json", ".result.npz"))
        return merge_shard_results(shard_files)

    merged = benchmark.pedantic(sharded_cycle, rounds=1, iterations=1)

    diffs = numerical_differences(reference, merged)
    json_equal = comparable_json(reference) == comparable_json(merged)
    assert not diffs, diffs
    assert json_equal

    reportable("shard_merge.txt", "\n\n".join([
        reference.summary_table(title="shard smoke: single-process reference"),
        merged.summary_table(title="shard smoke: merged 2-shard CLI run"),
    ]))
    json_reportable("shard_merge", {
        "n_jobs": reference.n_jobs,
        "n_shards": 2,
        "n_diffs": len(diffs),
        "json_equal": int(json_equal),
        "merged_n_ok": merged.n_ok,
        "merged_n_failed": merged.n_failed,
        "merged_cache_hits": merged.n_cache_hits,
        "merged_cache_misses": merged.n_cache_misses,
        "reference_wall_seconds": reference.wall_seconds,
        "merged_wall_seconds": merged.wall_seconds,
        "jobs": [record.to_dict() for record in merged.records],
    })
    benchmark.extra_info.update({
        "n_diffs": len(diffs),
        "json_equal": json_equal,
    })
