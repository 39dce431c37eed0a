"""Content-addressed dataset interning and the cross-job response cache.

Every scenario grid shares a handful of :class:`~repro.data.dataset.FrequencyData`
objects across dozens of jobs, yet each transport boundary used to re-ship
and each job used to re-evaluate them.  This module provides the shared
building blocks that fix that, keyed on the existing SHA-256 content
fingerprints:

* :class:`DatasetPool` -- an intern table keyed by
  :func:`~repro.cache.fingerprint.dataset_fingerprint` with memoized wire
  documents (so the serve protocol encodes each unique dataset once, not
  once per job).
* :class:`JobTable` -- a pickle-level codec that splits a chunk of
  ``(index, FitJob)`` pairs into (unique datasets, jobs-with-fingerprint-refs)
  so the process executor ships each unique dataset once per chunk.
* :class:`ResponseCache` / :class:`ResponseTally` -- the cross-job response
  cache keyed on ``(system fingerprint, grid fingerprint)`` memoizing
  reference sweeps, plus the model-independent SVD norms of a reference
  dataset, so jobs sharing a validation dataset reuse one evaluation.

Nothing here changes any numerical path: cached values are the same arrays
the direct computation would produce (computed once, frozen read-only), so
results stay bitwise-identical with interning on or off.
"""

from __future__ import annotations

import dataclasses
import pickle
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cache.fingerprint import (
    dataset_fingerprint,
    grid_fingerprint,
    system_fingerprint,
)
from repro.data.dataset import FrequencyData

__all__ = [
    "DatasetPool",
    "JobTable",
    "ResponseCache",
    "ResponseTally",
]


class DatasetPool:
    """Intern table for datasets, keyed by content fingerprint.

    ``intern`` maps a dataset to its fingerprint and keeps the *first*
    instance seen for each; ``get`` resolves a fingerprint back to that
    instance.  The pool also memoizes wire documents (the base64 encoding
    used by :mod:`repro.serve.protocol`) per fingerprint, so encoding a
    24-job batch over one dataset hashes and base64-encodes it once.

    Thread-safe; safe to share across a server's request handlers.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._datasets: Dict[str, FrequencyData] = {}
        self._documents: Dict[str, dict] = {}

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def __contains__(self, fingerprint: str) -> bool:
        with self._lock:
            return fingerprint in self._datasets

    def __len__(self) -> int:
        with self._lock:
            return len(self._datasets)

    def intern(self, data: FrequencyData) -> str:
        """Intern ``data``; return its fingerprint (the ref everything uses)."""
        fingerprint = dataset_fingerprint(data)
        with self._lock:
            self._datasets.setdefault(fingerprint, data)
        return fingerprint

    def get(self, fingerprint: str) -> Optional[FrequencyData]:
        """The interned dataset for ``fingerprint``, or ``None``."""
        with self._lock:
            return self._datasets.get(fingerprint)

    def document(self, data: FrequencyData, build: Callable[[FrequencyData], dict]) -> dict:
        """Memoized wire document for ``data`` (``build`` runs once per content).

        The returned dict is shared between calls; callers must treat it as
        immutable (the serve encoder embeds it verbatim in batch documents).
        """
        fingerprint = self.intern(data)
        with self._lock:
            document = self._documents.get(fingerprint)
        if document is not None:
            return document
        document = build(data)
        with self._lock:
            return self._documents.setdefault(fingerprint, document)


# --------------------------------------------------------------------------- #
# the job-plane codec
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class JobTable:
    """A chunk of jobs split into (unique datasets, jobs with dataset refs).

    What the process executor pickles per chunk: each unique dataset appears
    once in ``datasets`` (fingerprint -> :class:`FrequencyData`) and each job
    travels as ``(index, fields)``, its :class:`~repro.batch.jobs.FitJob`
    fields with ``data``/``reference`` swapped for their fingerprints.
    :meth:`unpack` rebuilds ``(index, FitJob)`` pairs on the worker,
    resolving refs through an optional worker-persistent
    :class:`DatasetPool` so later chunks reuse the datasets already seen.
    """

    jobs: Tuple[Tuple[int, dict], ...]
    datasets: Dict[str, FrequencyData]

    @classmethod
    def pack(cls, chunk: Sequence[tuple]) -> "JobTable":
        """Pack ``(index, FitJob)`` pairs."""
        datasets: Dict[str, FrequencyData] = {}

        def ref(data: Optional[FrequencyData]) -> Optional[str]:
            if data is None:
                return None
            fingerprint = dataset_fingerprint(data)
            datasets.setdefault(fingerprint, data)
            return fingerprint

        stubs: List[Tuple[int, dict]] = []
        for index, job in chunk:
            fields = {field.name: getattr(job, field.name) for field in dataclasses.fields(job)}
            fields.update(data=ref(job.data), reference=ref(job.reference))
            stubs.append((int(index), fields))
        return cls(jobs=tuple(stubs), datasets=datasets)

    def unpack(self, *, pool: Optional[DatasetPool] = None) -> List[tuple]:
        """Rebuild the ``(index, FitJob)`` pairs (worker side)."""
        from repro.batch.jobs import FitJob

        local: Dict[str, FrequencyData] = {}

        def resolve(fingerprint: Optional[str]) -> Optional[FrequencyData]:
            if fingerprint is None:
                return None
            data = local.get(fingerprint)
            if data is None and pool is not None:
                data = pool.get(fingerprint)
            if data is None:
                try:
                    data = self.datasets[fingerprint]
                except KeyError:
                    raise ValueError(
                        f"job table references unknown dataset {fingerprint!r}"
                    ) from None
                if pool is not None:
                    pool.intern(data)
            local[fingerprint] = data
            return data

        return [
            (index, FitJob(**dict(fields, data=resolve(fields["data"]),
                                  reference=resolve(fields["reference"]))))
            for index, fields in self.jobs
        ]

    def payload_nbytes(self) -> int:
        """Pickled size of this table (what actually crosses the pipe)."""
        return len(pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL))


# --------------------------------------------------------------------------- #
# the cross-job response cache
# --------------------------------------------------------------------------- #


class ResponseCache:
    """Memoizes reference-sweep evaluations shared across jobs in a batch.

    Two memo tables, both bounded LRU:

    * ``norms``: ``dataset_fingerprint ->`` the per-frequency largest
      singular values of the dataset (the model-independent denominator of
      every relative-error metric) -- one norm sweep per unique validation
      dataset per batch instead of one per job.
    * ``sweeps``: ``(system_fingerprint, grid_fingerprint) -> model sweep``
      over that grid -- ``error_vs_reference`` and ``time_domain_metrics``
      for a job share one sweep when data and reference share a grid.

    Methods return ``(value, status)`` with status ``"hit"``/``"miss"``;
    cached arrays are frozen read-only and must not be mutated.  Values are
    computed by the same code the uncached path runs, so results are
    bitwise-identical either way.  Thread-safe (the thread executor shares
    one instance across workers); pickling resets the lock and keeps the
    entries.
    """

    def __init__(self, max_entries: int = 128):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = int(max_entries)
        self._lock = threading.Lock()
        self._norms: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self._sweeps: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
        self.norm_hits = 0
        self.norm_misses = 0
        self.sweep_hits = 0
        self.sweep_misses = 0

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def _lookup(self, table: OrderedDict, key) -> Optional[np.ndarray]:
        with self._lock:
            value = table.get(key)
            if value is not None:
                table.move_to_end(key)
            return value

    def _store(self, table: OrderedDict, key, value: np.ndarray) -> np.ndarray:
        value = np.ascontiguousarray(value)
        value.setflags(write=False)
        with self._lock:
            kept = table.setdefault(key, value)
            table.move_to_end(key)
            while len(table) > self.max_entries:
                table.popitem(last=False)
        return kept

    def reference_norms(self, data: FrequencyData) -> Tuple[np.ndarray, str]:
        """Per-frequency largest singular values of ``data`` (memoized)."""
        from repro.metrics.errors import reference_norms

        key = dataset_fingerprint(data)
        value = self._lookup(self._norms, key)
        if value is not None:
            with self._lock:
                self.norm_hits += 1
            return value, "hit"
        value = self._store(self._norms, key, reference_norms(data.samples))
        with self._lock:
            self.norm_misses += 1
        return value, "miss"

    def model_sweep(self, model, data: FrequencyData) -> Tuple[np.ndarray, str]:
        """``model.frequency_response(data.frequencies_hz)`` (memoized)."""
        key = (system_fingerprint(model), grid_fingerprint(data))
        value = self._lookup(self._sweeps, key)
        if value is not None:
            with self._lock:
                self.sweep_hits += 1
            return value, "hit"
        sweep = np.asarray(model.frequency_response(data.frequencies_hz))
        value = self._store(self._sweeps, key, sweep)
        with self._lock:
            self.sweep_misses += 1
        return value, "miss"

    def stats(self) -> dict:
        with self._lock:
            return {
                "norm_hits": self.norm_hits,
                "norm_misses": self.norm_misses,
                "sweep_hits": self.sweep_hits,
                "sweep_misses": self.sweep_misses,
                "norm_entries": len(self._norms),
                "sweep_entries": len(self._sweeps),
            }


class ResponseTally:
    """Per-job view of a shared :class:`ResponseCache` with hit/miss counts.

    ``run_job`` hands one of these to the metric layers; the counts end up
    on the :class:`~repro.batch.jobs.JobRecord` next to the fit-cache
    status.  Returns plain arrays (status folded into the counters).
    """

    __slots__ = ("cache", "hits", "misses")

    def __init__(self, cache: ResponseCache):
        self.cache = cache
        self.hits = 0
        self.misses = 0

    def _count(self, status: str) -> None:
        if status == "hit":
            self.hits += 1
        else:
            self.misses += 1

    def reference_norms(self, data: FrequencyData) -> np.ndarray:
        value, status = self.cache.reference_norms(data)
        self._count(status)
        return value

    def model_sweep(self, model, data: FrequencyData) -> np.ndarray:
        value, status = self.cache.model_sweep(model, data)
        self._count(status)
        return value
