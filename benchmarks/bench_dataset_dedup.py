"""Shared-dataset acceptance: shared datasets ship once, evaluate once.

The shape of every scenario grid, made measurable: a 24-job option sweep
over *one* board -- every job fits the same noisy measurement against the
same clean reference (same frequency grid).  Shipped per job, each transport
boundary would carry 48 dataset copies, and each job would re-run the
reference SVD sweep; shared, two.

Three exact gates, one timing gate:

1. **Wire bytes** -- the ``/submit`` document (batch-level dataset table,
   jobs carry fingerprint refs) against the summed per-job dataset documents
   (one ``encode_dataset`` document per job and dataset, what shipping each
   job on its own would cost), both JSON-encoded.  Gated at >= 10x reduction
   (structurally ~20x: 48 dataset documents collapse to 2 table entries);
   the decoded batch must round-trip to fingerprint-identical jobs.
2. **Response-cache counters** -- the serial run's hit/miss tally must equal
   what the sharing structure predicts *exactly*: 48 score lookups (each
   job's ``error_vs_data`` and ``error_vs_reference``), of which
   ``2 * n_jobs - 2 * n_unique_systems`` hit, and the norm lookups of the
   score misses, 2 per unique system over 2 unique datasets.  Off-by-one
   here means a fingerprint unexpectedly collided or missed.
3. **Bitwise identity** -- ``comparable_json`` of the engine run and of the
   uncached ``run_job(..., responses=None)`` path must be string-equal: the
   cache may only ever return what the direct computation produces.
4. **Chunk shipping** -- the engine's own chunk, ``list(enumerate(jobs))``
   pickled as the process executor ships it (pickle's memo stores each
   shared dataset object once), against pickling the chunk with per-job
   dataset copies (what per-job transports deliver): gated on byte
   reduction (>= 10x) and on not being slower to round-trip.
"""

from __future__ import annotations

import json
import pickle
import time

import pytest

from repro.batch import (
    BatchEngine,
    BatchResult,
    FitJob,
    comparable_json,
    job_fingerprint,
    run_job,
)
from repro.cache import dataset_fingerprint, system_fingerprint
from repro.core.options import MftiOptions
from repro.data import log_frequencies, sample_scattering
from repro.data.noise import add_measurement_noise
from repro.serve.protocol import decode_batch, encode_batch, encode_dataset
from repro.systems.random_systems import random_stable_system

#: One shared board: a 4-port order-16 system sampled on one 64-point grid.
BOARD = dict(order=16, n_ports=4, feedthrough=0.1, seed=7)
GRID = dict(start=1e2, stop=1e6, n_samples=64)

#: 24 deterministic option variants (4 block sizes x (identity + 5 seeds)).
BLOCK_SIZES = (1, 2, 3, 4)
RANDOM_SEEDS = (0, 1, 2, 3, 4)


def shared_dataset_jobs() -> list[FitJob]:
    """The 24-job sweep: every job shares one dataset and one reference."""
    system = random_stable_system(**BOARD)
    freqs = log_frequencies(GRID["start"], GRID["stop"], GRID["n_samples"])
    clean = sample_scattering(system, freqs, label="clean reference")
    noisy = add_measurement_noise(clean, relative_level=1e-4, seed=11)
    jobs = []
    for block in BLOCK_SIZES:
        jobs.append(FitJob(noisy, method="mfti",
                           options=MftiOptions(block_size=block),
                           reference=clean, label=f"b{block}/identity",
                           tags={"block": block, "directions": "identity"}))
        for seed in RANDOM_SEEDS:
            jobs.append(FitJob(noisy, method="mfti",
                               options=MftiOptions(block_size=block,
                                                   direction_kind="random",
                                                   direction_seed=seed),
                               reference=clean, label=f"b{block}/s{seed}",
                               tags={"block": block, "seed": seed}))
    return jobs


def distinct_copy_chunk(jobs: list[FitJob]) -> list[tuple]:
    """The chunk as cross-process transports see it: per-job dataset copies.

    Pickle memoizes *object-identical* datasets, so the honest baseline for
    the engine's chunk is a chunk whose jobs hold equal-but-distinct copies --
    what decoding one document per job would produce.
    """
    import numpy as np

    return [
        (index, FitJob(
            job.data.with_samples(np.array(job.data.samples, copy=True)),
            method=job.method, options=job.options, label=job.label,
            tags=job.tags,
            reference=job.reference.with_samples(
                np.array(job.reference.samples, copy=True)),
        ))
        for index, job in enumerate(jobs)
    ]


def round_trip_seconds(ship, rounds: int = 5) -> float:
    """Best-of-N wall time of one ship() round trip (dumps + loads)."""
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        ship()
        best = min(best, time.perf_counter() - started)
    return best


@pytest.fixture(scope="module")
def job_grid():
    return shared_dataset_jobs()


def test_dataset_dedup_ships_once_evaluates_once(benchmark, job_grid,
                                                 reportable, json_reportable):
    """24 jobs, one dataset pair: 10x wire bytes, exact response counters."""
    n_jobs = len(job_grid)

    # -- wire bytes: dataset table vs. one dataset document per job ------- #
    document = encode_batch(job_grid)
    wire_bytes = len(json.dumps(document).encode())
    per_job_dataset_bytes = sum(
        len(json.dumps(encode_dataset(data)).encode())
        for job in job_grid
        for data in (job.data, job.reference)
    )
    wire_reduction = per_job_dataset_bytes / wire_bytes
    decoded_equal = (
        [job_fingerprint(job) for job in decode_batch(document)]
        == [job_fingerprint(job) for job in job_grid]
    )

    # -- response cache: serial run, counters predicted exactly ------------ #
    def serial_run():
        return BatchEngine().run(job_grid)

    result = benchmark.pedantic(serial_run, rounds=1, iterations=1)
    assert result.n_failed == 0, result.failures
    n_unique_datasets = len({dataset_fingerprint(data)
                             for job in job_grid
                             for data in (job.data, job.reference)})
    n_unique_systems = len({system_fingerprint(record.result.system)
                            for record in result.records})
    # per job: 2 score lookups (error_vs_data + _reference), which hit for
    # every job whose system an earlier job scored; the first job of each
    # system misses both and looks up both datasets' norms
    expected_score_hits = 2 * n_jobs - 2 * n_unique_systems
    expected_norm_hits = 2 * n_unique_systems - n_unique_datasets
    expected_hits = expected_score_hits + expected_norm_hits
    expected_misses = 2 * n_unique_systems + n_unique_datasets

    # -- bitwise identity: the cache may not change a single byte ---------- #
    plain = BatchResult(records=tuple(run_job(index, job)
                                      for index, job in enumerate(job_grid)))
    json_equal = comparable_json(result) == comparable_json(plain)

    # -- chunk shipping: the engine's chunk vs. per-copy pickle ------------ #
    engine_chunk = list(enumerate(job_grid))
    chunk = distinct_copy_chunk(job_grid)
    engine_chunk_bytes = len(pickle.dumps(engine_chunk, protocol=pickle.HIGHEST_PROTOCOL))
    naive_bytes = len(pickle.dumps(chunk, protocol=pickle.HIGHEST_PROTOCOL))
    chunk_bytes_reduction = naive_bytes / engine_chunk_bytes

    def ship(items):
        return pickle.loads(pickle.dumps(items, protocol=pickle.HIGHEST_PROTOCOL))

    engine_chunk_seconds = round_trip_seconds(lambda: ship(engine_chunk))
    naive_seconds = round_trip_seconds(lambda: ship(chunk))
    chunk_ship_speedup = naive_seconds / engine_chunk_seconds

    assert decoded_equal and json_equal
    assert (result.n_response_hits, result.n_response_misses) == \
           (expected_hits, expected_misses)

    reportable("dataset_dedup.txt", "\n\n".join([
        result.summary_table(title=f"dataset dedup: {n_jobs} jobs, "
                                   f"{n_unique_datasets} unique datasets"),
        f"wire bytes: per-job datasets={per_job_dataset_bytes} "
        f"batch document={wire_bytes} reduction={wire_reduction:.1f}x",
        f"chunk bytes: naive={naive_bytes} engine={engine_chunk_bytes} "
        f"reduction={chunk_bytes_reduction:.1f}x "
        f"ship speedup={chunk_ship_speedup:.1f}x",
        f"response cache: hits={result.n_response_hits} "
        f"misses={result.n_response_misses} (expected exactly "
        f"{expected_hits}/{expected_misses})",
    ]))
    json_reportable("dataset_dedup", {
        "n_jobs": n_jobs,
        "n_unique_datasets": n_unique_datasets,
        "n_unique_systems": n_unique_systems,
        "n_failed": result.n_failed + plain.n_failed,
        "decoded_equal": int(decoded_equal),
        "json_equal": int(json_equal),
        "per_job_dataset_bytes": per_job_dataset_bytes,
        "wire_bytes": wire_bytes,
        "wire_reduction": wire_reduction,
        "response_hits": result.n_response_hits,
        "response_misses": result.n_response_misses,
        "expected_response_hits": expected_hits,
        "expected_response_misses": expected_misses,
        "naive_chunk_bytes": naive_bytes,
        "engine_chunk_bytes": engine_chunk_bytes,
        "chunk_bytes_reduction": chunk_bytes_reduction,
        "engine_chunk_ship_seconds": engine_chunk_seconds,
        "naive_ship_seconds": naive_seconds,
        "chunk_ship_speedup": chunk_ship_speedup,
        "jobs": [record.to_dict() for record in result.records],
    })
    benchmark.extra_info.update({
        "wire_reduction": round(wire_reduction, 2),
        "chunk_bytes_reduction": round(chunk_bytes_reduction, 2),
        "response_hits": result.n_response_hits,
    })
