"""The cross-job response cache.

Every scenario grid shares a handful of :class:`~repro.data.dataset.FrequencyData`
objects across dozens of jobs.  :class:`ResponseCache` memoizes what jobs
read: the scores of a model against a dataset -- its aggregate error, its
time-domain metrics -- plus the model-independent SVD norms of a reference
dataset, so jobs sharing a model or a validation dataset compute each once;
:class:`ResponseTally` is the per-job view that counts hits and misses.
Model sweeps themselves are not kept: a score is a few floats, a sweep an
``(N, p, m)`` array that only the job computing the score reads.

Nothing here changes any numerical path: cached values are the values the
direct computation produces (computed once, frozen read-only), so results
stay bitwise-identical with the cache on or off.
"""

from __future__ import annotations

import threading
from collections import Counter, OrderedDict
from types import MappingProxyType
from typing import Callable, Mapping, Tuple

import numpy as np

from repro.cache.fingerprint import dataset_fingerprint, system_fingerprint
from repro.data.dataset import FrequencyData

__all__ = [
    "MAX_ENTRIES",
    "ResponseCache",
    "ResponseTally",
]

#: Entries each of a :class:`ResponseCache`'s two LRU tables keeps.
MAX_ENTRIES = 128


def _frozen(value):
    """A read-only form of a memoized value (array, mapping or float)."""
    if isinstance(value, np.ndarray):
        value = np.ascontiguousarray(value)
        value.setflags(write=False)
        return value
    if isinstance(value, Mapping):
        return MappingProxyType(dict(value))
    return value


class _Pending:
    """A value one caller is computing and others wait for."""

    __slots__ = ("done", "value", "failed")

    def __init__(self):
        self.done = threading.Event()
        self.value = None
        self.failed = False


class ResponseCache:
    """Memoizes the scores and reference norms shared across jobs in a batch.

    Two memo tables, both LRU-bounded at :data:`MAX_ENTRIES`:

    * ``norms``: ``dataset_fingerprint ->`` the per-frequency largest
      singular values of the dataset (the model-independent denominator of
      every relative-error metric) -- one norm sweep per unique validation
      dataset per batch instead of one per job.
    * ``scores``: ``(system_fingerprint, dataset_fingerprint) ->`` the
      model's aggregate error against the dataset, and
      ``(system_fingerprint, dataset_fingerprint, spec) ->`` its time-domain
      metrics against a reference -- what a job reads of a model sweep, so a
      job whose model another job already scored sweeps nothing.

    Methods return ``(value, status)`` with status ``"hit"``/``"miss"``;
    cached arrays are frozen read-only and metric mappings are read-only
    views.  Values are computed by the caller's ``compute`` thunk, the same
    code the uncached path runs, and a score depends only on the system and
    the dataset (a model sweep is a function of the system and the grid), so
    a value is the same whichever job computed it: results are
    bitwise-identical either way.

    Thread-safe and single-flight: the thread executor and the fit service
    share one instance across workers, and a caller asking for a key that
    another caller is computing waits for that value (a hit) instead of
    computing it again, so every key is computed once and the tallies do
    not depend on thread timing.  If the computing caller raises, a waiter
    computes the value itself.  ``stats()`` reports score lookups under the
    ``sweep_hits``/``sweep_misses`` keys its readers know.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._tables: dict[str, OrderedDict] = {"norms": OrderedDict(), "scores": OrderedDict()}
        self._pending: dict[tuple, _Pending] = {}
        self._tallies: Counter = Counter()

    def _memoized(self, table: str, key, compute: Callable[[], object]):
        """``table[key]``, computed by ``compute()`` exactly once across callers."""
        memo = self._tables[table]
        while True:
            with self._lock:
                if key in memo:
                    memo.move_to_end(key)
                    self._tallies[table, "hit"] += 1
                    return memo[key], "hit"
                pending = self._pending.get((table, key))
                owner = pending is None
                if owner:
                    pending = self._pending[table, key] = _Pending()
            if owner:
                break
            pending.done.wait()
            if not pending.failed:
                with self._lock:
                    self._tallies[table, "hit"] += 1
                return pending.value, "hit"
        try:
            value = _frozen(compute())
        except BaseException:
            with self._lock:
                del self._pending[table, key]
            pending.failed = True
            pending.done.set()
            raise
        with self._lock:
            memo[key] = value
            while len(memo) > MAX_ENTRIES:
                memo.popitem(last=False)
            self._tallies[table, "miss"] += 1
            del self._pending[table, key]
        pending.value = value
        pending.done.set()
        return value, "miss"

    def reference_norms(self, data: FrequencyData) -> Tuple[np.ndarray, str]:
        """Per-frequency largest singular values of ``data`` (memoized)."""
        from repro.metrics.errors import reference_norms

        return self._memoized("norms", dataset_fingerprint(data),
                              lambda: reference_norms(data.samples))

    def aggregate_error(self, model, data: FrequencyData,
                        compute: Callable[[], float]) -> Tuple[float, str]:
        """The aggregate error of ``model`` against ``data``: ``compute()``, memoized."""
        key = ("error", system_fingerprint(model), dataset_fingerprint(data))
        return self._memoized("scores", key, lambda: float(compute()))

    def time_domain(self, model, reference: FrequencyData, spec,
                    compute: Callable[[], Mapping[str, float]]
                    ) -> Tuple[Mapping[str, float], str]:
        """The time-domain metrics of ``model`` against ``reference`` under ``spec``.

        ``compute()``, memoized by the model, the reference dataset and the
        spec's canonical fields; the value is a read-only mapping.
        """
        key = ("time_domain", system_fingerprint(model), dataset_fingerprint(reference),
               tuple(spec.canonical_items()))
        return self._memoized("scores", key, compute)

    def stats(self) -> dict:
        with self._lock:
            tallies = self._tallies
            return {
                "norm_hits": tallies["norms", "hit"],
                "norm_misses": tallies["norms", "miss"],
                # score lookups keep the key names /stats readers know
                "sweep_hits": tallies["scores", "hit"],
                "sweep_misses": tallies["scores", "miss"],
                "norm_entries": len(self._tables["norms"]),
                "score_entries": len(self._tables["scores"]),
            }


class ResponseTally:
    """Per-job view of a shared :class:`ResponseCache` with hit/miss counts.

    ``run_job`` hands one of these to the metric layers; the counts end up
    on the :class:`~repro.batch.jobs.JobRecord` next to the fit-cache
    status.  Returns plain values (status folded into the counters).
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

    def aggregate_error(self, model, data: FrequencyData, compute) -> float:
        value, status = self.cache.aggregate_error(model, data, compute)
        self._count(status)
        return value

    def time_domain(self, model, reference: FrequencyData, spec, compute) -> dict[str, float]:
        value, status = self.cache.time_domain(model, reference, spec, compute)
        self._count(status)
        return dict(value)
