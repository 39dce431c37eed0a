"""Batch macromodeling engine.

Every production workload in the ROADMAP -- port sweeps, Monte-Carlo noise
studies, netlist families, ablation grids -- fits many datasets with many
method configurations.  This package turns such a sweep into data:

* :class:`~repro.batch.jobs.FitJob` -- one fit, described declaratively
  (dataset + method + options + tags), picklable so it can ship to workers,
* :class:`~repro.batch.engine.BatchEngine` -- runs a job list through a
  pluggable executor (``serial`` / ``thread`` / ``process``) with
  deterministic chunking and per-job error capture,
* :class:`~repro.batch.results.BatchResult` -- ordered records with aggregate
  tables and a stable JSON export for CI artifacts and regression gates.

The engine dispatches through :func:`repro.core.run_fit`, the same entry
point the single-fit path uses, so batch and interactive fits are guaranteed
to run identical code::

    from repro.batch import BatchEngine, FitJob

    jobs = [FitJob(data, method="mfti", options=MftiOptions(block_size=t),
                   tags={"t": t}, reference=validation)
            for t in (1, 2, 3)]
    result = BatchEngine(executor="process", max_workers=4).run(jobs)
    print(result.summary_table())
    result.save_json("sweep.json")

Pass a shared :class:`~repro.cache.FitCache` (``BatchEngine(cache=...)``) and
repeated jobs -- across chunks, executors and whole re-runs -- replay from
the content-addressed fit cache instead of recomputing; per-job hit/miss
statuses land on the records and the batch-level counters in the table
heading and the JSON export.

Batches also scale *across machines*: :mod:`repro.batch.sharding` plans a
deterministic assignment of jobs to shards (:class:`ShardPlan`), ships each
shard as a versioned JSON manifest, runs it through a regular engine on any
machine, and merges the shard results back into one :class:`BatchResult`
that is bitwise-identical to the single-process run.  The
``python -m repro shard`` CLI (:mod:`repro.cli`) drives the plan / run /
merge cycle.
"""

from repro.batch.engine import EXECUTORS, BatchEngine, contiguous_chunks
from repro.batch.jobs import FitJob, JobRecord, run_job
from repro.batch.results import (
    BatchResult,
    comparable_dict,
    comparable_json,
    numerical_differences,
)
from repro.batch.sharding import (
    ShardError,
    ShardPlan,
    ShardResult,
    job_fingerprint,
    load_manifest,
    merge_shard_results,
    read_shard_result,
    run_shard,
    write_manifests,
    write_shard_result,
)

__all__ = [
    "EXECUTORS",
    "BatchEngine",
    "contiguous_chunks",
    "FitJob",
    "JobRecord",
    "run_job",
    "BatchResult",
    "numerical_differences",
    "comparable_dict",
    "comparable_json",
    "ShardError",
    "ShardPlan",
    "ShardResult",
    "job_fingerprint",
    "load_manifest",
    "merge_shard_results",
    "read_shard_result",
    "run_shard",
    "write_manifests",
    "write_shard_result",
]
