"""Serve-dedupe smoke: K identical sweeps against one fit server ~ 1 cold fit.

The serving story of :mod:`repro.serve` -- "many users sweep the same board
at once" -- made measurable: a small port-sweep grid is fitted once locally
(the cold reference), then submitted to a live :class:`ThreadedServer` eight
times over, and in-flight dedupe must collapse the eight sweeps onto one set
of underlying fits.

Two phases, two different guarantees, and a repeat:

1. **Deterministic dedupe** -- one ``/submit`` carrying all eight copies of
   the grid.  Admission and task creation are synchronous, so exactly
   ``n_jobs`` computations start and every duplicate coalesces: the
   ``computed`` / ``coalesced`` counters are *exact* numbers, gated as such.
2. **Concurrent cost** -- eight client threads released by a barrier, each
   submitting the full grid.  Every served result must equal the local
   reference through :func:`comparable_json`, and the wall clock of all
   eight sweeps together is gated against the single cold fit
   (``overhead_ratio``) -- the "K sweeps cost ~ 1 cold fit plus overhead"
   acceptance line.
3. **Datasets ship once** -- the phase-1 client submits the grid again.  The
   server holds the grid's datasets from phase 1, so the repeat must ship
   none of them inline (``repeat_inline_datasets``, read from ``/stats``)
   and still equal the reference (``repeat_json_equal``).

The service runs *cacheless* on purpose: records then carry ``cache: None``
exactly like the local reference (string-equal exports), and any dedupe
failure shows up as real recomputation in the counters and the wall clock
instead of hiding behind a cache hit.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.batch import BatchEngine, comparable_json
from repro.experiments.workloads import port_sweep_jobs
from repro.serve import Client, FitService, ThreadedServer

#: Reduced port-sweep grid (5 jobs: VFTI, MFTI t=1..3, MFTI full) -- large
#: enough that fit time dominates the HTTP round-trips, small enough for the
#: CI smoke budget.
GRID_KWARGS = dict(port_counts=[4], block_sizes=[1, 2, 3], order=24,
                   n_samples=30, n_validation=60)

#: Number of identical sweeps submitted against the server.
K_SWEEPS = 8


@pytest.fixture(scope="module")
def job_grid():
    return port_sweep_jobs(**GRID_KWARGS)


def test_serve_dedupe_k_sweeps_cost_one_fit(benchmark, job_grid, reportable,
                                            json_reportable):
    """Eight identical served sweeps: one set of fits, reference-equal results."""
    engine = BatchEngine(executor="thread", max_workers=4)
    cold_started = time.perf_counter()
    reference = BatchEngine().run(job_grid)
    cold_seconds = time.perf_counter() - cold_started
    assert reference.n_failed == 0, reference.failures
    reference_json = comparable_json(reference)

    n_jobs = len(job_grid)
    # sized so even a total dedupe failure hits the counters, never admission
    service = FitService(engine, max_pending=2 * K_SWEEPS * n_jobs)
    with ThreadedServer(service) as server:
        client = Client(server.host, server.port)

        # -- phase 1: deterministic dedupe (one batch of K copies) ----------
        single_batch = client.submit([job for _ in range(K_SWEEPS)
                                      for job in job_grid])
        assert single_batch.n_failed == 0, single_batch.failures
        phase1 = client.stats()["counters"]

        # -- phase 2: concurrent cost (K clients, barrier start, timed) -----
        barrier = threading.Barrier(K_SWEEPS)
        results: list = [None] * K_SWEEPS
        errors: list = []

        def sweep(slot: int) -> None:
            try:
                barrier.wait(timeout=30)
                results[slot] = Client(server.host, server.port).submit(job_grid)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        def concurrent_sweeps() -> float:
            started = time.perf_counter()
            threads = [threading.Thread(target=sweep, args=(slot,))
                       for slot in range(K_SWEEPS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=600)
            return time.perf_counter() - started

        dedupe_wall_seconds = benchmark.pedantic(concurrent_sweeps,
                                                 rounds=1, iterations=1)
        assert not errors, errors
        final = client.stats()["counters"]

        # -- repeat: the phase-1 client names the datasets it shipped -------
        inline_before = client.stats()["datasets"]["inline"]
        repeat = client.submit(job_grid)
        repeat_inline_datasets = client.stats()["datasets"]["inline"] - inline_before

    json_equal = all(result is not None and comparable_json(result) == reference_json
                     for result in results)
    repeat_json_equal = comparable_json(repeat) == reference_json
    concurrent = {key: final[key] - phase1[key] for key in final}
    overhead_ratio = dedupe_wall_seconds / cold_seconds

    assert json_equal
    assert phase1["computed"] == n_jobs
    assert phase1["coalesced"] == (K_SWEEPS - 1) * n_jobs

    reportable("serve_dedupe.txt", "\n\n".join([
        reference.summary_table(title="serve dedupe: local cold reference"),
        single_batch.summary_table(
            title=f"serve dedupe: one batch of {K_SWEEPS} identical sweeps"),
        f"concurrent phase: {K_SWEEPS} clients, computed={concurrent['computed']}"
        f" coalesced={concurrent['coalesced']}"
        f" overhead_ratio={overhead_ratio:.3f}",
        f"repeat by the phase-1 client: {repeat_inline_datasets} datasets inline,"
        f" json_equal={repeat_json_equal}",
    ]))
    json_reportable("serve_dedupe", {
        "n_jobs": n_jobs,
        "k_sweeps": K_SWEEPS,
        "n_submitted": K_SWEEPS * n_jobs,
        "n_duplicate_jobs": (K_SWEEPS - 1) * n_jobs,
        "json_equal": int(json_equal),
        "n_failed": single_batch.n_failed + sum(
            result.n_failed for result in results if result is not None),
        "dedupe_computed": phase1["computed"],
        "dedupe_coalesced": phase1["coalesced"],
        "rejected": final["rejected"],
        "concurrent_computed": concurrent["computed"],
        "concurrent_coalesced": concurrent["coalesced"],
        "cold_fit_seconds": cold_seconds,
        "dedupe_wall_seconds": dedupe_wall_seconds,
        "overhead_ratio": overhead_ratio,
        "repeat_inline_datasets": repeat_inline_datasets,
        "repeat_json_equal": int(repeat_json_equal),
        "jobs": [record.to_dict() for record in single_batch.records],
    })
    benchmark.extra_info.update({
        "json_equal": json_equal,
        "dedupe_computed": phase1["computed"],
        "overhead_ratio": overhead_ratio,
    })
