"""The :class:`FitCache` front door and the cached dispatch helper.

``FitCache`` ties the pieces together: fingerprint the fit, consult a
pluggable store, reconstruct on a hit, populate on a miss -- while counting
hits / misses / stores / evictions / skips.  :func:`fit_with_cache` is the
one code path every cached fit goes through; ``run_fit(..., cache=...)`` and
the batch engine's per-job runner both delegate here, so interactive and
batch fits share the exact same cache semantics.

Correctness guardrails:

* a fit with ``direction_kind="random"`` and no seed is nondeterministic --
  it is *never* cached (status ``"skipped"``), because a replayed result
  would silently pin one random draw forever;
* results whose metadata cannot be faithfully serialized are computed and
  returned but not stored (:exc:`~repro.cache.serialization.UncacheableResultError`).
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Any, Optional

from repro.cache.fingerprint import evaluation_key, fit_key
from repro.cache.serialization import (
    PAYLOAD_SCHEMA_VERSION,
    UncacheableResultError,
    payload_to_result,
    result_to_payload,
)
from repro.cache.stores import CacheStore, DiskStore, MemoryStore

__all__ = [
    "FitCache",
    "CacheStats",
    "fit_with_cache",
    "is_nondeterministic",
]


@dataclass(frozen=True)
class CacheStats:
    """Snapshot of one cache's counters.

    Attributes
    ----------
    hits, misses:
        Fit lookups that did / did not find a replayable fit (corrupt or
        schema-mismatched entries count as misses).
    eval_hits, eval_misses:
        Same, for cached model evaluations (aggregate errors keyed on
        ``(fit key, evaluation-dataset fingerprint)``).
    stores:
        Entries written to the store (fits and evaluations).
    evictions:
        Entries the store dropped to make room (bounded stores only).
    skips:
        Fits that bypassed the cache entirely: nondeterministic options,
        options without a canonical encoding, or unserializable results.
    """

    hits: int = 0
    misses: int = 0
    eval_hits: int = 0
    eval_misses: int = 0
    stores: int = 0
    evictions: int = 0
    skips: int = 0

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe summary of the counters."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "eval_hits": self.eval_hits,
            "eval_misses": self.eval_misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "skips": self.skips,
        }


class FitCache:
    """Content-addressed cache of macromodel fits over a pluggable store.

    Parameters
    ----------
    store:
        A :class:`~repro.cache.stores.MemoryStore` (default) or
        :class:`~repro.cache.stores.DiskStore`.  Use a disk store whenever
        fits must survive the process or be shared across the batch engine's
        ``process`` workers.

    Notes
    -----
    Thread-safe: a lock serialises store access and counter updates, so one
    cache can back the batch engine's ``thread`` executor.  Picklable: the
    lock is recreated on unpickling, which is how a cache travels to
    ``process`` workers (each worker counts locally; per-job hit/miss status
    is carried back on the job records instead).
    """

    def __init__(self, store: Optional[CacheStore] = None):
        self.store = MemoryStore() if store is None else store
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._eval_hits = 0
        self._eval_misses = 0
        self._stores = 0
        self._evictions = 0
        self._skips = 0

    @classmethod
    def on_disk(cls, root: str | os.PathLike) -> "FitCache":
        """A cache backed by a :class:`DiskStore` rooted at ``root``."""
        return cls(DiskStore(root))

    # ------------------------------------------------------------------ #
    # state
    # ------------------------------------------------------------------ #
    def stats(self) -> CacheStats:
        """Consistent snapshot of the counters."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                eval_hits=self._eval_hits,
                eval_misses=self._eval_misses,
                stores=self._stores,
                evictions=self._evictions,
                skips=self._skips,
            )

    def clear(self) -> int:
        """Drop every stored fit (counters are kept); returns entries removed."""
        with self._lock:
            return self.store.clear()

    def count_skip(self) -> None:
        """Record one fit that bypassed the cache."""
        with self._lock:
            self._skips += 1

    # ------------------------------------------------------------------ #
    # lookup / store
    # ------------------------------------------------------------------ #
    def key_for(self, data, method: str, options) -> str:
        """The content-addressed key of one fit (see :func:`repro.cache.fit_key`)."""
        return fit_key(data, method, options)

    def lookup(self, key: str, *, options=None):
        """The cached :class:`MacromodelResult` under ``key``, or ``None``.

        A present-but-unreadable entry (corruption, schema drift) counts as a
        miss; ``options`` is re-attached to the reconstructed result's
        metadata exactly like a fresh fit records it.
        """
        with self._lock:
            payload = self.store.load(key)
        if payload is not None:
            try:
                result = payload_to_result(payload[0], payload[1], options=options)
            except Exception:  # noqa: BLE001 - corrupt entry == miss
                payload = None
        with self._lock:
            if payload is None:
                self._misses += 1
                return None
            self._hits += 1
        return result

    def store_result(self, key: str, result) -> bool:
        """Serialize and store one fit; ``False`` if the result is uncacheable."""
        try:
            payload = result_to_payload(result)
        except UncacheableResultError:
            with self._lock:
                self._skips += 1
            return False
        with self._lock:
            evicted = self.store.save(key, payload)
            self._stores += 1
            self._evictions += int(evicted)
        return True

    def cached_aggregate_error(self, fit: str, data, *, compute) -> float:
        """The aggregate error of a (cached) fit against ``data``, memoized.

        The error is a pure function of the model (pinned by the ``fit``
        key) and the evaluation dataset, so it is cached under
        :func:`~repro.cache.fingerprint.evaluation_key`.  Warm batch sweeps
        spend essentially all their time re-evaluating models against the
        measurement and validation grids -- this is what makes a fully-warm
        sweep orders of magnitude faster, not just the skipped fits.

        A memoization miss calls ``compute()``, the thunk that computes the
        error the way an uncached evaluation does (the batch layer's reuses
        response-cache sweeps), so memoized and fresh values are the result
        of one implementation; hits never call it.
        """
        key = evaluation_key(fit, data)
        with self._lock:
            payload = self.store.load(key)
        if payload is not None:
            _, meta = payload
            try:
                if (
                    int(meta["schema_version"]) == PAYLOAD_SCHEMA_VERSION
                    and meta["kind"] == "evaluation"
                ):
                    with self._lock:
                        self._eval_hits += 1
                    return float(meta["error"])
            except (KeyError, TypeError, ValueError):
                pass  # corrupt evaluation entry: recompute and overwrite
        value = float(compute())
        meta = {
            "schema_version": PAYLOAD_SCHEMA_VERSION,
            "kind": "evaluation",
            "error": value,
        }
        with self._lock:
            self._eval_misses += 1
            evicted = self.store.save(key, ({}, meta))
            self._stores += 1
            self._evictions += int(evicted)
        return value

    # ------------------------------------------------------------------ #
    # pickling (process-executor workers)
    # ------------------------------------------------------------------ #
    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.Lock()


def is_nondeterministic(options) -> bool:
    """Unseeded random directions: every run draws a different fit.

    The one nondeterminism rule: such fits are never cached here and never
    coalesced by the fit service (:func:`repro.serve.protocol.is_deduplicatable`).
    """
    return (
        getattr(options, "direction_kind", None) == "random"
        and getattr(options, "direction_seed", None) is None
    )


def fit_with_cache(
    data,
    *,
    method: str = "mfti",
    options=None,
    cache: Optional[FitCache] = None,
    **kwargs,
):
    """Run one fit through the cache; returns ``(result, status, key)``.

    ``status`` is ``"hit"`` (replayed from the store), ``"miss"`` (computed
    and stored), or ``"skipped"`` (no cache, nondeterministic
    options, or an unserializable result); ``key`` is the content-addressed
    fit key (``None`` when skipped), reusable for evaluation caching via
    :meth:`FitCache.cached_aggregate_error`.  Keyword-argument shortcuts are
    normalised into the method's options object *before* fingerprinting, so
    ``run_fit(data, method="mfti", block_size=2)`` and the explicit
    ``MftiOptions(block_size=2)`` share one cache entry.
    """
    from repro.core._pipeline import frontend_spec

    spec = frontend_spec(method)
    if options is not None and kwargs:
        # mirror the front-ends' own contract (they raise the same error)
        if cache is not None:
            cache.count_skip()
        return spec.runner(data, options=options, **kwargs), "skipped", None

    opts = options if options is not None else spec.options_type(**kwargs)
    if cache is None:
        return spec.runner(data, options=opts), "skipped", None
    if is_nondeterministic(opts):
        cache.count_skip()
        return spec.runner(data, options=opts), "skipped", None

    try:
        key = cache.key_for(data, method, opts)
    except TypeError:
        # options without a canonical encoding (e.g. live generator seeds)
        cache.count_skip()
        return spec.runner(data, options=opts), "skipped", None

    cached = cache.lookup(key, options=opts)
    if cached is not None:
        return cached, "hit", key
    result = spec.runner(data, options=opts)
    cache.store_result(key, result)
    return result, "miss", key
