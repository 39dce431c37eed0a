"""Async fit service, shard dispatcher and the synchronous client facade.

The serving layer of the batch stack (see the README's "Serving" section):

* :mod:`repro.serve.protocol` -- the JSON wire format: datasets, job specs
  (canonical-options serialization shared with shard manifests) and records,
  every document pinned by the cache-layer content fingerprints.
* :mod:`repro.serve.app` -- :class:`FitService` (in-flight dedupe by content
  fingerprint, bounded admission queue, counters) wrapped in
  :class:`FitServer`, a stdlib-``asyncio`` HTTP server streaming records back
  as NDJSON.
* :mod:`repro.serve.dispatcher` -- plans a named workload onto shards,
  launches shard runners through a pluggable :class:`Launcher` (a local
  subprocess pool by default), retries lost or straggling shards with
  backoff and merges the results bit-exactly.
* :mod:`repro.serve.client` -- the synchronous :class:`Client` /
  :func:`submit` facade the public API re-exports.
"""

from repro.serve.app import Backpressure, FitServer, FitService, ThreadedServer
from repro.serve.client import Client, ServeError, submit
from repro.serve.dispatcher import (
    DispatchError,
    Launcher,
    SubprocessLauncher,
    dispatch_workload,
    runtime_weights,
)
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    decode_dataset,
    decode_job,
    decode_record,
    encode_dataset,
    encode_job,
    encode_record,
    request_key,
)

__all__ = [
    "Backpressure",
    "Client",
    "DispatchError",
    "FitServer",
    "FitService",
    "Launcher",
    "PROTOCOL_VERSION",
    "ServeError",
    "SubprocessLauncher",
    "ThreadedServer",
    "decode_dataset",
    "decode_job",
    "decode_record",
    "dispatch_workload",
    "encode_dataset",
    "encode_job",
    "encode_record",
    "request_key",
    "runtime_weights",
    "submit",
]
