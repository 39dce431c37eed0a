"""The cross-job response cache.

Every scenario grid shares a handful of :class:`~repro.data.dataset.FrequencyData`
objects across dozens of jobs.  :class:`ResponseCache` memoizes reference
sweeps keyed on ``(system fingerprint, grid fingerprint)``, plus the
model-independent SVD norms of a reference dataset, so jobs sharing a
validation dataset reuse one evaluation; :class:`ResponseTally` is the
per-job view that counts hits and misses.

Nothing here changes any numerical path: cached values are the same arrays
the direct computation would produce (computed once, frozen read-only), so
results stay bitwise-identical with the cache on or off.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional, Tuple

import numpy as np

from repro.cache.fingerprint import (
    dataset_fingerprint,
    grid_fingerprint,
    system_fingerprint,
)
from repro.data.dataset import FrequencyData

__all__ = [
    "MAX_ENTRIES",
    "ResponseCache",
    "ResponseTally",
]

#: Entries each of a :class:`ResponseCache`'s two LRU tables keeps.
MAX_ENTRIES = 128


class ResponseCache:
    """Memoizes reference-sweep evaluations shared across jobs in a batch.

    Two memo tables, both LRU-bounded at :data:`MAX_ENTRIES`:

    * ``norms``: ``dataset_fingerprint ->`` the per-frequency largest
      singular values of the dataset (the model-independent denominator of
      every relative-error metric) -- one norm sweep per unique validation
      dataset per batch instead of one per job.
    * ``sweeps``: ``(system_fingerprint, grid_fingerprint) -> model sweep``
      over that grid -- ``error_vs_reference`` and ``time_domain_metrics``
      for a job share one sweep when data and reference share a grid.

    Methods return ``(value, status)`` with status ``"hit"``/``"miss"``;
    cached arrays are frozen read-only and must not be mutated.  Values are
    computed by the same code the uncached path runs, and a model sweep
    depends only on the system and the grid (the system's evaluation plan is
    built from its matrices alone), so a value is the same whichever job
    computed it and whichever sweeps that job skipped: results are
    bitwise-identical either way.  Thread-safe (the thread executor shares
    one instance across workers; each process worker builds its own).
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._norms: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self._sweeps: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
        self.norm_hits = 0
        self.norm_misses = 0
        self.sweep_hits = 0
        self.sweep_misses = 0

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
            while len(table) > MAX_ENTRIES:
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
