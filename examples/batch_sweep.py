"""Batch macromodeling: fit a mixed method/dataset grid with parallel backends.

This example shows the production-style workflow behind every large sweep in
the repository (port sweeps, noise studies, ablation grids):

1. describe each fit declaratively as a :class:`~repro.batch.FitJob`
   (dataset + method + options + tags + validation data),
2. hand the whole grid to a :class:`~repro.batch.BatchEngine` and pick an
   executor -- ``serial``, ``thread`` or ``process``,
3. read the aggregate report and export the machine-readable JSON,
4. re-run the sweep over a shared on-disk :class:`~repro.cache.FitCache`
   and watch every job replay instead of recompute.

The grid here is the acceptance workload of the batch layer: eight jobs
mixing MFTI and VFTI over a noisy 14-port PDN and a lossy transmission line.
One job is deliberately broken (a single-frequency dataset) to show that the
engine records the failure instead of aborting the sweep.

Run with ``python examples/batch_sweep.py``.
"""

from __future__ import annotations

import os
import tempfile

from repro.batch import BatchEngine, FitJob
from repro.cache import FitCache
from repro.experiments.workloads import mixed_batch_jobs


def build_jobs() -> list[FitJob]:
    # the mixed PDN + transmission-line grid shared with
    # benchmarks/bench_batch_engine.py (smaller PDN sweep here for speed)
    jobs = mixed_batch_jobs(pdn_samples=60, pdn_validation=80)
    # a poison job: one sampled frequency is not enough for any front-end;
    # the engine must record the failure and keep going
    jobs.append(FitJob(jobs[0].data.subset([0]), method="mfti", label="poison/mfti"))
    return jobs


def main() -> None:
    jobs = build_jobs()

    executor = "process" if (os.cpu_count() or 1) >= 2 else "serial"
    with tempfile.TemporaryDirectory(prefix="repro-fit-cache-") as cache_dir:
        # a DiskStore-backed cache is shared across executors and re-runs
        cache = FitCache.on_disk(cache_dir)
        engine = BatchEngine(executor=executor, max_workers=2, cache=cache)
        print(f"running {len(jobs)} jobs with the {engine.executor!r} executor "
              f"({engine.n_workers} workers, chunk size "
              f"{engine.resolve_chunk_size(len(jobs))})\n")

        result = engine.run(jobs)
        print(result.summary_table())

        for failure in result.failures:
            print(f"\ncaptured failure in {failure.label!r}: "
                  f"{failure.error_type}: {failure.error_message}")

        best = result.best()
        print(f"\nmost accurate fit: {best.label} "
              f"(order {best.order}, error {best.error_vs_reference:.2e})")
        print(f"serial-equivalent cost {result.total_fit_seconds:.2f}s, "
              f"wall {result.wall_seconds:.2f}s")

        path = result.save_json(os.path.join("benchmarks", "results", "batch_sweep.json"))
        print(f"JSON export saved to {path}")

        # identical re-sweep: every fit and model evaluation replays from disk
        rerun = engine.run(jobs)
        print(f"\nre-sweep over the warm cache: "
              f"{rerun.n_cache_hits}/{rerun.n_jobs} cache hits, "
              f"wall {rerun.wall_seconds:.2f}s "
              f"({result.wall_seconds / max(rerun.wall_seconds, 1e-9):.0f}x faster)")


if __name__ == "__main__":
    main()
