"""The batch engine: run many fit jobs through a pluggable executor.

All ROADMAP-scale workloads -- port sweeps, Monte-Carlo noise studies, netlist
families, ablation grids -- are embarrassingly parallel across datasets, so
the engine's job is simple and strict:

* **pluggable executors** -- ``"serial"`` (plain loop, the reference),
  ``"thread"`` (``ThreadPoolExecutor``; the heavy lifting is BLAS/LAPACK,
  which releases the GIL) and ``"process"`` (``ProcessPoolExecutor``; full
  isolation, jobs and results travel by pickle),
* **deterministic chunking** -- jobs are split into contiguous chunks in
  submission order and records are re-assembled in that order, so the output
  is identical (bitwise, for the numerical payload) no matter which executor
  ran the batch or in which order chunks finished.  The guarantee holds for
  deterministic jobs; :class:`~repro.batch.jobs.FitJob` therefore rejects
  live ``numpy.random.Generator`` seeds (use an integer seed), and jobs with
  ``direction_kind="random"`` and ``direction_seed=None`` are nondeterministic
  on *every* executor, serial included,
* **per-job error capture** -- a failing job is recorded, never raised, so one
  bad dataset cannot abort the sweep.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.batch.jobs import FitJob, JobRecord, run_job
from repro.batch.results import BatchResult
from repro.cache.fitcache import FitCache
from repro.cache.responses import ResponseCache
from repro.cache.stores import MemoryStore

__all__ = ["BatchEngine", "EXECUTORS", "contiguous_chunks"]

EXECUTORS = ("serial", "thread", "process")


def contiguous_chunks(items: Sequence, size: int) -> list[list]:
    """Split ``items`` into contiguous chunks of at most ``size`` elements.

    The one deterministic split rule of the batch layer: the engine chunks
    (index, job) pairs for its executors through it, and the shard planner
    (:mod:`repro.batch.sharding`) chunks the hash-ordered job list into
    per-machine shards through the very same function -- so "a shard" is by
    construction nothing more than a coarser engine chunk.
    """
    if size < 1:
        raise ValueError("chunk size must be >= 1")
    return [list(items[start:start + size]) for start in range(0, len(items), size)]


def _run_chunk(
    chunk: Sequence[tuple[int, FitJob]], cache=None, responses=None
) -> list[JobRecord]:
    """Run one contiguous chunk of (index, job) pairs (worker-side entry point).

    ``responses`` is the batch-shared :class:`~repro.cache.ResponseCache`
    (serial and thread executors share one across chunks; process workers
    hold worker-local ones set up by the pool initializer).
    """
    return [run_job(index, job, cache, responses=responses) for index, job in chunk]


#: Per-worker state for the process executor, installed once per worker by
#: :func:`_pool_initializer` instead of travelling with every chunk: the
#: (stripped) fit cache and the worker's :class:`~repro.cache.ResponseCache`.
_WORKER_STATE: dict = {}


def _pool_initializer(cache) -> None:
    """One-time process-worker setup (runs in the worker, once per worker)."""
    _WORKER_STATE["cache"] = cache
    _WORKER_STATE["responses"] = ResponseCache()


def _run_worker_chunk(chunk: Sequence[tuple[int, FitJob]]) -> list[JobRecord]:
    """Worker-side entry point for the process executor.

    The chunk arrives as it was submitted; the caches come from the worker
    state installed by :func:`_pool_initializer`.
    """
    return _run_chunk(chunk, _WORKER_STATE.get("cache"), _WORKER_STATE.get("responses"))


@dataclass(frozen=True)
class BatchEngine:
    """Runs a batch of :class:`~repro.batch.jobs.FitJob` through an executor.

    Attributes
    ----------
    executor:
        ``"serial"``, ``"thread"`` or ``"process"``.
    max_workers:
        Worker count for the pooled executors; ``None`` uses the CPU count.
    chunk_size:
        Jobs per submitted chunk; ``None`` picks ``ceil(n / (4 * workers))``
        so each worker sees a few chunks (cheap load balancing) while keeping
        per-chunk overhead low.  Chunking is deterministic: the same jobs and
        chunk size always produce the same chunks.
    cache:
        Optional shared :class:`~repro.cache.FitCache`: every job dispatches
        through the cached fit path, so repeated jobs -- across chunks,
        executors and whole re-runs -- replay instead of recomputing.  Use a
        :class:`~repro.cache.DiskStore`-backed cache with the ``process``
        executor (workers hold private copies of a memory store); per-job
        hit/miss statuses come back on the records either way.

    Every run shares a cross-job :class:`~repro.cache.ResponseCache`:
    reference-norm sweeps are memoized per unique validation dataset and model
    sweeps per ``(system, grid)`` fingerprint pair, so jobs sharing a
    reference reuse one evaluation.  Values are bitwise-identical to the
    uncached ``run_job(..., responses=None)`` path; per-record hit/miss
    tallies land on the records.  Serial and thread executors share one
    cache per :meth:`run`; each process worker builds its own.

    The process executor pickles each chunk of ``(index, FitJob)`` pairs as
    it is.  Jobs that share a dataset object ship it once per chunk, through
    pickle's memo, and arrive sharing one object again.
    """

    executor: str = "serial"
    max_workers: Optional[int] = None
    chunk_size: Optional[int] = None
    cache: Optional[FitCache] = None

    def __post_init__(self):
        if self.executor not in EXECUTORS:
            raise ValueError(f"executor must be one of {EXECUTORS}, got {self.executor!r}")
        if self.max_workers is not None and self.max_workers < 1:
            raise ValueError("max_workers must be >= 1 when given")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1 when given")

    @classmethod
    def from_config(cls, config: Optional[dict]) -> "BatchEngine":
        """Build an engine from a flat config dict.

        Recognised keys (all optional): ``executor``, ``max_workers``,
        ``chunk_size``, ``cache_dir`` (path -> disk-backed
        :class:`~repro.cache.FitCache`) and ``memory_cache`` (bool -> fresh
        memory-backed cache).  Unknown keys raise rather than being ignored.
        The CLI builds its engines from this dict (``python -m repro batch``,
        ``shard run`` and ``serve`` turn their engine flags into it); the
        fit server's ``/stats`` reports :meth:`to_config`.  The wire protocol
        carries no engine config, and the shard dispatcher forwards engine
        flags to its runner processes instead.
        """
        config = dict(config or {})
        cache_dir = config.pop("cache_dir", None)
        memory_cache = bool(config.pop("memory_cache", False))
        if cache_dir is not None and memory_cache:
            raise ValueError("engine config cannot set both cache_dir and memory_cache")
        kwargs = {}
        for key in ("executor", "max_workers", "chunk_size"):
            if key in config:
                kwargs[key] = config.pop(key)
        if config:
            raise ValueError(
                f"unknown engine config keys: {', '.join(sorted(config))}"
            )
        cache = None
        if cache_dir is not None:
            cache = FitCache.on_disk(cache_dir)
        elif memory_cache:
            cache = FitCache()
        return cls(cache=cache, **kwargs)

    def to_config(self) -> dict:
        """The flat config dict :meth:`from_config` rebuilds this engine from.

        The cache is described structurally (``cache_dir`` for disk stores,
        ``memory_cache`` for memory stores), not by contents -- a rebuilt
        memory-backed engine starts cold.
        """
        config: dict = {"executor": self.executor}
        if self.max_workers is not None:
            config["max_workers"] = self.max_workers
        if self.chunk_size is not None:
            config["chunk_size"] = self.chunk_size
        if self.cache is not None:
            store = self.cache.store
            if isinstance(store, MemoryStore):
                config["memory_cache"] = True
            else:
                config["cache_dir"] = str(store.root)
        return config

    @property
    def n_workers(self) -> int:
        """Resolved worker count (1 for the serial executor)."""
        if self.executor == "serial":
            return 1
        return self.max_workers or os.cpu_count() or 1

    def resolve_chunk_size(self, n_jobs: int) -> int:
        """The chunk size actually used for a batch of ``n_jobs``."""
        if self.chunk_size is not None:
            return self.chunk_size
        workers = max(1, self.n_workers)
        return max(1, -(-n_jobs // (4 * workers)))

    def _chunks(
        self, jobs: Sequence[FitJob], indices: Sequence[int]
    ) -> list[list[tuple[int, FitJob]]]:
        size = self.resolve_chunk_size(len(jobs))
        return contiguous_chunks(list(zip(indices, jobs)), size)

    def _worker_cache(self) -> Optional[FitCache]:
        """The cache object actually shipped to executor workers.

        A memory-backed cache cannot propagate state across process workers
        anyway, so for the ``process`` executor its (possibly payload-laden)
        store is replaced by an empty one with the same bound -- shipping
        the populated store would pickle every cached fit once per chunk for
        zero cross-run benefit.  Disk-backed caches travel as-is (they only
        carry a path) and give workers real shared hits.
        """
        if self.cache is None or self.executor != "process":
            return self.cache
        if isinstance(self.cache.store, MemoryStore):
            return FitCache(MemoryStore(self.cache.store.max_entries))
        return self.cache

    def run(
        self, jobs: Iterable[FitJob], *, indices: Optional[Sequence[int]] = None
    ) -> BatchResult:
        """Run every job and return the assembled :class:`BatchResult`.

        Records come back ordered by submission index; failures are embedded
        in their records, so this method only raises on infrastructure errors
        (e.g. an unpicklable job with the process executor).

        Parameters
        ----------
        jobs:
            The jobs to run.
        indices:
            Optional explicit record indices, one per job (default:
            ``0..n-1`` in submission order).  This is how a shard runner
            executes a *subset* of a planned batch while keeping every
            record at its original position, so merging shard results
            reassembles the unsharded record order exactly (see
            :mod:`repro.batch.sharding`).
        """
        job_list = list(jobs)
        started = time.perf_counter()
        if indices is None:
            index_list = list(range(len(job_list)))
        else:
            index_list = [int(index) for index in indices]
            if len(index_list) != len(job_list):
                raise ValueError(
                    f"got {len(index_list)} indices for {len(job_list)} jobs"
                )
            if any(index < 0 for index in index_list):
                raise ValueError("job indices must be non-negative")
            if len(set(index_list)) != len(index_list):
                raise ValueError("job indices must be unique")
        chunks = self._chunks(job_list, index_list)
        cache = self._worker_cache()
        responses = ResponseCache()
        if self.executor == "serial":
            chunk_records = [_run_chunk(chunk, cache, responses) for chunk in chunks]
        elif self.executor == "thread":
            with ThreadPoolExecutor(max_workers=self.n_workers) as pool:
                futures = [pool.submit(_run_chunk, chunk, cache, responses) for chunk in chunks]
                chunk_records = [future.result() for future in futures]
        else:
            # the fit cache and a response cache install once per worker via
            # the pool initializer instead of travelling with every chunk
            with ProcessPoolExecutor(
                max_workers=self.n_workers,
                initializer=_pool_initializer,
                initargs=(cache,),
            ) as pool:
                futures = [pool.submit(_run_worker_chunk, chunk) for chunk in chunks]
                chunk_records = [future.result() for future in futures]
        records = sorted(
            (record for chunk in chunk_records for record in chunk),
            key=lambda record: record.index,
        )
        return BatchResult(
            records=tuple(records),
            executor=self.executor,
            n_workers=self.n_workers,
            chunk_size=self.resolve_chunk_size(len(job_list)) if job_list else 0,
            wall_seconds=time.perf_counter() - started,
        )
