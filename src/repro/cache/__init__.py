"""Content-addressed caching of macromodel fits.

Every sweep in the repository -- Table-1 grids, ablations, Monte-Carlo noise
studies -- re-runs identical tangential-interpolation fits; this package
makes repeats free.  A fit is addressed by *content*: the SHA-256 of the
dataset's numerical payload combined with the canonical encoding of the
method name and its options (:func:`fit_key`).  Equal keys mean equal fits,
so a cached result can replace a fresh one bitwise.

Pieces, bottom-up:

* :mod:`repro.cache.fingerprint` -- dataset / options / fit fingerprints,
* :mod:`repro.cache.serialization` -- result <-> (arrays + JSON) payloads,
* :mod:`repro.cache.stores` -- :class:`MemoryStore` (bounded LRU) and
  :class:`DiskStore` (compressed NPZ + JSON sidecars, corruption-safe),
* :mod:`repro.cache.fitcache` -- :class:`FitCache` (counters) and
  :func:`fit_with_cache`, the single cached dispatch path,
* :mod:`repro.cache.responses` -- the cross-job :class:`ResponseCache` of
  model scores keyed on (system fingerprint, dataset fingerprint).

Transparent integration::

    from repro.cache import FitCache
    from repro.core import run_fit

    cache = FitCache.on_disk("~/.cache/repro-fits")
    model = run_fit(data, method="mfti", block_size=2, cache=cache)   # computes
    model = run_fit(data, method="mfti", block_size=2, cache=cache)   # replays

    # batch sweeps: every job of every re-run skips identical fits
    from repro.batch import BatchEngine
    result = BatchEngine(executor="process", cache=cache).run(jobs)
    print(result.n_cache_hits, cache.stats())
"""

from repro.cache.fingerprint import (
    combined_fingerprint,
    dataset_fingerprint,
    evaluation_key,
    fit_key,
    grid_fingerprint,
    options_fingerprint,
    system_fingerprint,
)
from repro.cache.fitcache import CacheStats, FitCache, fit_with_cache
from repro.cache.responses import ResponseCache, ResponseTally
from repro.cache.serialization import (
    PAYLOAD_SCHEMA_VERSION,
    UncacheableResultError,
    payload_to_result,
    result_to_payload,
)
from repro.cache.stores import CacheStore, DiskStore, MemoryStore

__all__ = [
    "dataset_fingerprint",
    "grid_fingerprint",
    "system_fingerprint",
    "options_fingerprint",
    "fit_key",
    "evaluation_key",
    "combined_fingerprint",
    "ResponseCache",
    "ResponseTally",
    "CacheStore",
    "MemoryStore",
    "DiskStore",
    "FitCache",
    "CacheStats",
    "fit_with_cache",
    "UncacheableResultError",
    "result_to_payload",
    "payload_to_result",
    "PAYLOAD_SCHEMA_VERSION",
]
