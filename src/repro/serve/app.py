"""The asyncio fit service: in-flight dedupe, admission control, HTTP front-end.

:class:`FitService` is the serving core: every submitted job is keyed by
:func:`~repro.serve.protocol.request_key` (the content fingerprint of what
the *computation* depends on), and concurrent submissions with the same key
await one shared fit -- the "millions of users sweep the same board" story
collapses to a handful of actual computations.  The dedupe window is the
in-flight lifetime of a fit; cross-time reuse is the
:class:`~repro.cache.FitCache` attached to the engine, exactly as everywhere
else in the batch layer.  Admission is a bounded count of in-flight
computations: a batch that would exceed it is rejected *whole* with
:class:`Backpressure` before any of its work starts, so clients never receive
partial batches.

:class:`FitServer` wraps the service in a minimal stdlib HTTP/1.1 server
(``asyncio.start_server``; no third-party framework) with four routes:

* ``GET /healthz`` -- liveness + protocol version,
* ``GET /stats`` -- service counters, queue depth and cache statistics,
* ``POST /submit`` -- a :func:`~repro.serve.protocol.encode_batch` document;
  the response streams one NDJSON ``record`` event per job *as it
  completes*, then a terminating ``end`` event.  A batch naming a dataset
  the service does not hold is answered 409 with the ``missing``
  fingerprints, and a body longer than :data:`MAX_BODY_BYTES` 413 unread,
* ``POST /shutdown`` -- clean shutdown (used by the CI smoke).

:class:`ThreadedServer` runs the whole thing on a background thread for
tests, benchmarks and the CI smoke step.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import functools
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Optional, Sequence

from repro.batch.engine import BatchEngine
from repro.batch.jobs import FitJob, JobRecord, run_job
from repro.cache.responses import ResponseCache
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    HeldDatasets,
    MissingDatasets,
    ProtocolError,
    decode_batch,
    encode_record,
    is_deduplicatable,
    request_key,
)

__all__ = [
    "MAX_BODY_BYTES",
    "Backpressure",
    "FitService",
    "FitServer",
    "ThreadedServer",
    "serve_forever",
]

#: Largest request body the server reads.  A request declaring a longer
#: ``Content-Length`` is answered 413 before a byte of its body is read.
MAX_BODY_BYTES = 64 * 2**20


class Backpressure(RuntimeError):
    """A submission was rejected because the admission queue is full."""


class FitService:
    """Deduplicating, admission-controlled execution core of the fit server.

    Parameters
    ----------
    engine:
        A :class:`~repro.batch.engine.BatchEngine` describing the execution
        resources: its resolved worker count sizes the service's thread pool
        (fits are BLAS-bound and release the GIL, like the engine's
        ``thread`` executor) and its cache, if any, is shared by every job.
        ``/stats`` reports it as :meth:`BatchEngine.to_config`.
    max_pending:
        Admission bound: the maximum number of *underlying computations*
        (deduped) in flight at once.  A batch that would push past it is
        rejected whole with :class:`Backpressure`.

    The service also keeps the datasets of the batches it decodes in one
    :class:`~repro.serve.protocol.HeldDatasets` table (:attr:`datasets`), so
    a client ships each dataset once and names it by fingerprint afterwards.

    All public methods must run on the event loop thread; the fits themselves
    run on the thread pool.
    """

    def __init__(self, engine: Optional[BatchEngine] = None, *, max_pending: int = 32):
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self.engine = engine if engine is not None else BatchEngine()
        self.max_pending = int(max_pending)
        self._pool = ThreadPoolExecutor(
            max_workers=self.engine.n_workers, thread_name_prefix="repro-serve"
        )
        self._inflight: dict[str, asyncio.Task] = {}
        self._active: set[asyncio.Task] = set()
        # one service-wide cross-job response cache: reference sweeps shared
        # across every submission the service ever handles, exactly like the
        # engine shares one per batch
        self.responses = ResponseCache()
        # the verified datasets of earlier batches, resolved by fingerprint
        self.datasets = HeldDatasets()
        self.counters: dict[str, int] = {
            "submitted": 0,   # jobs accepted into batches
            "completed": 0,   # record answers streamed with status "ok"
            "failed": 0,      # record answers streamed with status "failed"
            "computed": 0,    # underlying fits actually started
            "coalesced": 0,   # jobs answered by awaiting another job's fit
            "rejected": 0,    # jobs turned away by admission control
        }

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #
    @property
    def queue_depth(self) -> int:
        """Number of underlying computations currently in flight."""
        return len(self._active)

    def submit_batch(self, jobs: Sequence[FitJob]) -> list:
        """Admit a batch and return one awaitable record handle per job.

        The admission check and all task creation happen synchronously (no
        ``await`` in between), so two racing batches can never both observe a
        free queue slot and jointly overrun the bound.  Jobs whose
        :func:`request_key` matches an in-flight computation -- including one
        created earlier in this very batch -- coalesce onto it;
        nondeterministic jobs (unseeded random directions) never coalesce.

        Raises
        ------
        Backpressure
            If admitting the batch would exceed ``max_pending`` in-flight
            computations.  Nothing is started in that case.
        """
        jobs = list(jobs)
        loop = asyncio.get_running_loop()
        keys: list[Optional[str]] = []
        batch_new: set[str] = set()
        n_new = 0
        for job in jobs:
            if is_deduplicatable(job):
                key = request_key(job)
                if key not in self._inflight and key not in batch_new:
                    batch_new.add(key)
                    n_new += 1
                keys.append(key)
            else:
                keys.append(None)
                n_new += 1
        if self.queue_depth + n_new > self.max_pending:
            self.counters["rejected"] += len(jobs)
            raise Backpressure(
                f"admission queue full: {self.queue_depth} in flight + "
                f"{n_new} new > max_pending={self.max_pending}"
            )
        self.counters["submitted"] += len(jobs)
        handles = []
        for index, (job, key) in enumerate(zip(jobs, keys)):
            task = self._inflight.get(key) if key is not None else None
            if task is None:
                task = loop.create_task(self._compute(job))
                self._active.add(task)
                task.add_done_callback(self._active.discard)
                if key is not None:
                    self._inflight[key] = task
                    task.add_done_callback(
                        lambda done, key=key: self._inflight.pop(key, None)
                    )
                self.counters["computed"] += 1
            else:
                self.counters["coalesced"] += 1
            handles.append(self._await_record(task, index, job))
        return handles

    async def _compute(self, job: FitJob) -> JobRecord:
        """Run one underlying fit on the thread pool (index rewritten later)."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._pool,
            functools.partial(run_job, 0, job, self.engine.cache, responses=self.responses),
        )

    async def _await_record(self, task: asyncio.Task, index: int, job: FitJob) -> JobRecord:
        """Await the (possibly shared) fit and re-address the record.

        ``asyncio.shield`` keeps a follower's cancellation -- e.g. its client
        disconnecting mid-stream -- from propagating into the shared task
        other submissions are still awaiting.  The record comes back with
        this submission's index, label and tags: dedupe is by computation
        content, so the cosmetic fields are per-request.
        """
        record = await asyncio.shield(task)
        record = dataclasses.replace(
            record, index=index, label=job.label, tags=dict(job.tags)
        )
        self.counters["completed" if record.ok else "failed"] += 1
        return record

    # ------------------------------------------------------------------ #
    # introspection and lifecycle
    # ------------------------------------------------------------------ #
    def stats(self) -> dict[str, Any]:
        """The ``GET /stats`` document: counters, queue depth, cache stats.

        ``"datasets"`` is the held-dataset table: ``entries`` and ``bytes``
        held, datasets decoded ``inline``, refs ``resolved`` from the table
        and refs ``missing`` from it (answered 409).
        """
        document: dict[str, Any] = {
            "protocol_version": PROTOCOL_VERSION,
            "counters": dict(self.counters),
            "queue_depth": self.queue_depth,
            "inflight_keys": len(self._inflight),
            "max_pending": self.max_pending,
            "engine": self.engine.to_config(),
            "cache": (
                self.engine.cache.stats().to_dict()
                if self.engine.cache is not None
                else None
            ),
            "responses": self.responses.stats(),
            "datasets": self.datasets.stats(),
        }
        return document

    def close(self) -> None:
        """Shut down the worker pool (after the server stopped accepting)."""
        self._pool.shutdown(wait=True)


# --------------------------------------------------------------------------- #
# the HTTP layer
# --------------------------------------------------------------------------- #
def _json_bytes(document: Any) -> bytes:
    return (json.dumps(document, sort_keys=True) + "\n").encode()


def _head(status: int, reason: str, content_type: str,
          content_length: Optional[int] = None) -> bytes:
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        "Connection: close",
    ]
    if content_length is not None:
        lines.append(f"Content-Length: {content_length}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


class FitServer:
    """Minimal stdlib HTTP/1.1 front-end around one :class:`FitService`.

    ``port=0`` binds an ephemeral port; the bound port is on :attr:`port`
    after :meth:`start`.  Every connection is ``Connection: close`` -- the
    ``/submit`` response has no predeclared length (records stream as they
    complete), so the response body ends when the server closes the socket,
    which every HTTP/1.1 client understands.
    """

    def __init__(self, service: Optional[FitService] = None, *,
                 host: str = "127.0.0.1", port: int = 0):
        self.service = service if service is not None else FitService()
        self.host = host
        self.port: Optional[int] = None
        self._requested_port = port
        self._server: Optional[asyncio.base_events.Server] = None
        self._shutdown: Optional[asyncio.Event] = None

    async def start(self) -> "FitServer":
        """Bind and start accepting connections."""
        self._shutdown = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle, host=self.host, port=self._requested_port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    def request_shutdown(self) -> None:
        """Flag a clean shutdown (must be called from the loop thread)."""
        if self._shutdown is not None:
            self._shutdown.set()

    async def wait_shutdown(self) -> None:
        """Block until :meth:`request_shutdown` (or ``POST /shutdown``)."""
        await self._shutdown.wait()

    async def close(self) -> None:
        """Stop accepting connections and release the service's pool."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self.service.close()

    # ------------------------------------------------------------------ #
    # request handling
    # ------------------------------------------------------------------ #
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            head = await self._read_head(reader)
            if head is not None:
                method, target, length = head
                if length > MAX_BODY_BYTES:
                    await self._respond_json(writer, 413, "Payload Too Large", {
                        "error": f"request body of {length} bytes exceeds the "
                                 f"{MAX_BODY_BYTES}-byte bound",
                    })
                else:
                    body = await reader.readexactly(length) if length > 0 else b""
                    await self._route(method, target, body, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away; nothing to answer
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    @staticmethod
    async def _read_head(reader: asyncio.StreamReader):
        """``(method, target, Content-Length)`` of the next request, or ``None``."""
        request_line = await reader.readline()
        if not request_line:
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            return None
        method, target = parts[0].upper(), parts[1]
        length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    length = int(value.strip())
                except ValueError:
                    length = 0
        return method, target, length

    async def _route(self, method: str, target: str, body: bytes,
                     writer: asyncio.StreamWriter) -> None:
        target = target.split("?", 1)[0]
        if method == "GET" and target == "/healthz":
            await self._respond_json(writer, 200, "OK", {
                "status": "ok", "protocol_version": PROTOCOL_VERSION,
            })
        elif method == "GET" and target == "/stats":
            await self._respond_json(writer, 200, "OK", self.service.stats())
        elif method == "POST" and target == "/submit":
            await self._handle_submit(body, writer)
        elif method == "POST" and target == "/shutdown":
            await self._respond_json(writer, 200, "OK", {"ok": True})
            self.request_shutdown()
        else:
            await self._respond_json(writer, 404, "Not Found", {
                "error": f"no route for {method} {target}",
            })

    @staticmethod
    async def _respond_json(writer: asyncio.StreamWriter, status: int,
                            reason: str, document: Any) -> None:
        payload = _json_bytes(document)
        writer.write(_head(status, reason, "application/json", len(payload)))
        writer.write(payload)
        await writer.drain()

    async def _handle_submit(self, body: bytes, writer: asyncio.StreamWriter) -> None:
        try:
            jobs = decode_batch(json.loads(body.decode()), self.service.datasets)
        except MissingDatasets as exc:
            # nothing was admitted: the client resends these datasets inline
            await self._respond_json(writer, 409, "Conflict", {
                "error": str(exc), "missing": exc.fingerprints,
            })
            return
        except (ProtocolError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            await self._respond_json(writer, 400, "Bad Request", {"error": str(exc)})
            return
        try:
            handles = self.service.submit_batch(jobs)
        except Backpressure as exc:
            # rejected before anything started and before any bytes streamed,
            # so the client sees one clean, retryable status for the batch
            await self._respond_json(writer, 503, "Service Unavailable", {
                "error": str(exc), "retry": True,
            })
            return
        writer.write(_head(200, "OK", "application/x-ndjson"))
        await writer.drain()
        pending = [asyncio.ensure_future(handle) for handle in handles]
        try:
            for future in asyncio.as_completed(list(pending)):
                record = await future
                writer.write(_json_bytes({
                    "event": "record", "record": encode_record(record),
                }))
                await writer.drain()
            writer.write(_json_bytes({
                "event": "end",
                "n_records": len(handles),
                "counters": dict(self.service.counters),
            }))
            await writer.drain()
        except ConnectionError:
            # receiver vanished mid-stream; shared fits keep running for
            # everyone else (the handles shield them), drop our wrappers
            for future in pending:
                future.cancel()


# --------------------------------------------------------------------------- #
# embedding helpers
# --------------------------------------------------------------------------- #
async def serve_forever(service: Optional[FitService] = None, *,
                        host: str = "127.0.0.1", port: int = 0,
                        ready=None) -> None:
    """Run a :class:`FitServer` until ``POST /shutdown`` (the CLI entry point).

    ``ready`` is an optional callback invoked with the server once it is
    bound (the CLI prints the port through it).
    """
    server = FitServer(service, host=host, port=port)
    await server.start()
    if ready is not None:
        ready(server)
    try:
        await server.wait_shutdown()
    finally:
        await server.close()


class ThreadedServer:
    """A :class:`FitServer` on a background thread, as a context manager.

    The harness of the differential tests, the dedupe benchmark and the CI
    smoke step: enter to get a bound, serving instance (``.host`` /
    ``.port``), exit for a clean shutdown.  The service keeps running even if
    the entering thread does blocking HTTP calls -- that is the point.
    """

    def __init__(self, service: Optional[FitService] = None, *,
                 host: str = "127.0.0.1", port: int = 0):
        self._service = service
        self._host = host
        self._requested_port = port
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[FitServer] = None
        self._thread: Optional[threading.Thread] = None
        self._error: Optional[BaseException] = None

    @property
    def host(self) -> str:
        return self._host

    @property
    def port(self) -> int:
        if self._server is None or self._server.port is None:
            raise RuntimeError("server is not running")
        return self._server.port

    @property
    def service(self) -> FitService:
        if self._server is None:
            raise RuntimeError("server is not running")
        return self._server.service

    def __enter__(self) -> "ThreadedServer":
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-serve-loop")
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("fit server failed to start within 30s")
        if self._error is not None:
            raise RuntimeError(f"fit server failed to start: {self._error}")
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._loop is not None and self._server is not None:
            with contextlib.suppress(RuntimeError):
                self._loop.call_soon_threadsafe(self._server.request_shutdown)
        if self._thread is not None:
            self._thread.join(timeout=30)

    def _run(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as exc:  # noqa: BLE001 - surfaced to the entering thread
            self._error = exc
            self._ready.set()

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._server = FitServer(self._service, host=self._host,
                                 port=self._requested_port)
        await self._server.start()
        self._ready.set()
        try:
            await self._server.wait_shutdown()
        finally:
            await self._server.close()
