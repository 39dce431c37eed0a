"""The stable public surface of :mod:`repro`.

**This module is the compatibility contract.**  Everything imported here --
and re-exported from ``repro`` itself -- is public API: signatures and
behaviour only change with a deliberate, documented break.  Anything *not*
listed here (module-private helpers, the ``_pipeline`` internals, the wire
parsers in :mod:`repro.serve.protocol`, the manifest plumbing of
:mod:`repro.batch.sharding` beyond the two functions below) is internal:
useful to read, free to change between versions.

The surface, by layer:

* **Fitting** -- :func:`~repro.core.run_fit` (one dataset, one registered
  method) and the options classes it accepts.
* **Batching** -- :class:`~repro.batch.engine.BatchEngine` over
  :class:`~repro.batch.jobs.FitJob`; an engine is describable by a flat
  config dict (:meth:`BatchEngine.from_config` /
  :meth:`~BatchEngine.to_config`): the CLI builds its engines from one,
  and the fit server's ``/stats`` reports its engine as one.
* **Caching** -- :class:`~repro.cache.FitCache` with its memory/disk stores.
* **Sharding** -- :func:`~repro.batch.sharding.plan_shards` and
  :func:`~repro.batch.sharding.merge_shard_results`;
  the manifest cycle in between is driven by ``python -m repro shard``.
* **Serving** -- :class:`~repro.serve.client.Client` /
  :func:`~repro.serve.client.submit` against a ``python -m repro serve``
  server (or an embedded :class:`~repro.serve.app.ThreadedServer`).
"""

from repro.batch.engine import BatchEngine
from repro.batch.jobs import FitJob, JobRecord
from repro.batch.results import BatchResult
from repro.batch.sharding import merge_shard_results, plan_shards
from repro.cache.fitcache import FitCache
from repro.cache.stores import DiskStore, MemoryStore
from repro.core import run_fit
from repro.core.options import (
    InterpolationOptions,
    MftiOptions,
    RecursiveOptions,
    VftiOptions,
)
from repro.serve.client import Client, submit

__all__ = [
    "BatchEngine",
    "BatchResult",
    "Client",
    "DiskStore",
    "FitCache",
    "FitJob",
    "InterpolationOptions",
    "JobRecord",
    "MemoryStore",
    "MftiOptions",
    "RecursiveOptions",
    "VftiOptions",
    "merge_shard_results",
    "plan_shards",
    "run_fit",
    "submit",
]
