"""Synchronous client facade of the fit service.

:class:`Client` wraps the NDJSON-over-HTTP protocol in the same vocabulary
the rest of the batch layer speaks: submit a list of
:class:`~repro.batch.jobs.FitJob`, get a
:class:`~repro.batch.results.BatchResult` back.  Records arrive without
their numerical payloads (``record.result is None`` -- the model matrices
stay server-side), but everything
:func:`~repro.batch.results.comparable_json` compares is transported
bit-exactly, so a served batch is verifiable against a local
:meth:`BatchEngine.run` by string equality.

A :class:`Client` ships each dataset to its server once: later batches name
it by fingerprint.  :func:`submit` is the one-call convenience the public
API re-exports; it builds a fresh client, so it always ships every dataset.
"""

from __future__ import annotations

import http.client
import json
import threading
from typing import Any, Collection, Iterable, Optional

from repro.batch.jobs import FitJob, JobRecord
from repro.batch.results import BatchResult
from repro.serve.app import Backpressure
from repro.serve.protocol import (
    MissingDatasets,
    decode_record,
    encode_batch,
    records_to_batch_result,
)

__all__ = ["Client", "ServeError", "submit"]


class ServeError(RuntimeError):
    """The server answered with an error status or a malformed stream."""


class Client:
    """Blocking HTTP client for one fit server.

    Parameters
    ----------
    host, port:
        Where the server listens (:class:`~repro.serve.app.ThreadedServer`
        exposes both after entering).
    timeout:
        Socket timeout per request; submissions wait for fits to stream
        back, so size it to the workload, not to a ping.

    The client remembers the fingerprints of the datasets the server has
    accepted from it and sends those as bare refs in later batches.  When
    the server no longer holds one (it evicted it, or it restarted), it
    answers 409 with the missing fingerprints: the client forgets them and
    resends the batch once, with every dataset inline.  The memory belongs
    to the client, not to a connection, because every request is its own
    ``Connection: close`` connection.  One client may be shared by threads.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8765, *,
                 timeout: float = 600.0):
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)
        self._held: set[str] = set()  # fingerprints the server accepted
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # plumbing
    # ------------------------------------------------------------------ #
    def _connection(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)

    def _request_json(self, method: str, path: str,
                      body: Optional[bytes] = None) -> Any:
        connection = self._connection()
        try:
            headers = {"Content-Type": "application/json"} if body else {}
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            payload = response.read().decode()
            document = self._parse(payload, context=path)
            if response.status != 200:
                raise ServeError(
                    f"{method} {path} -> {response.status}: "
                    f"{document.get('error', payload.strip())}"
                )
            return document
        finally:
            connection.close()

    @staticmethod
    def _parse(payload: str, *, context: str) -> Any:
        try:
            return json.loads(payload)
        except json.JSONDecodeError as exc:
            raise ServeError(f"{context}: server sent invalid JSON: {exc}") from exc

    # ------------------------------------------------------------------ #
    # the API
    # ------------------------------------------------------------------ #
    def healthz(self) -> dict[str, Any]:
        """``GET /healthz``: liveness + protocol version."""
        return self._request_json("GET", "/healthz")

    def stats(self) -> dict[str, Any]:
        """``GET /stats``: counters, queue depth, cache statistics."""
        return self._request_json("GET", "/stats")

    def shutdown(self) -> dict[str, Any]:
        """``POST /shutdown``: ask the server to stop cleanly."""
        return self._request_json("POST", "/shutdown")

    def submit(self, jobs: Iterable[FitJob]) -> BatchResult:
        """Submit a batch and collect the streamed records into a result.

        Datasets the server accepted from this client earlier travel as
        fingerprints only; on a 409 the batch is resent once with every
        dataset inline.

        Raises
        ------
        Backpressure
            The server rejected the whole batch (HTTP 503); retry later.
        ServeError
            Any other non-200 answer, or a stream that ends without the
            terminating ``end`` event (a crashed server must never look
            like a short batch).
        """
        job_list = list(jobs)
        with self._lock:
            held = frozenset(self._held)
        try:
            return self._submit(job_list, held)
        except MissingDatasets as exc:
            with self._lock:
                self._held.difference_update(exc.fingerprints)
            return self._submit(job_list, ())

    def _submit(self, job_list: list[FitJob], held: Collection[str]) -> BatchResult:
        """One ``POST /submit`` of ``job_list``, the ``held`` datasets by ref."""
        document = encode_batch(job_list, held)
        body = json.dumps(document).encode()
        connection = self._connection()
        try:
            connection.request("POST", "/submit", body=body,
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            if response.status == 503:
                answer = self._parse(response.read().decode(), context="/submit")
                raise Backpressure(answer.get("error", "server rejected the batch"))
            if response.status == 409 and held:
                answer = self._parse(response.read().decode(), context="/submit")
                raise MissingDatasets(answer.get("missing", []))
            if response.status != 200:
                payload = response.read().decode()
                raise ServeError(f"POST /submit -> {response.status}: {payload.strip()}")
            with self._lock:
                self._held.update(document["datasets"])
            records: list[JobRecord] = []
            ended = False
            for raw_line in response:
                line = raw_line.strip()
                if not line:
                    continue
                event = self._parse(line.decode(), context="/submit stream")
                kind = event.get("event")
                if kind == "record":
                    records.append(decode_record(event["record"]))
                elif kind == "end":
                    if event.get("n_records") != len(records):
                        raise ServeError(
                            f"server announced {event.get('n_records')} records, "
                            f"stream carried {len(records)}"
                        )
                    ended = True
                    break
                else:
                    raise ServeError(f"unknown stream event {kind!r}")
            if not ended:
                raise ServeError(
                    "record stream ended without the terminating 'end' event"
                )
            if len(records) != len(job_list):
                raise ServeError(
                    f"submitted {len(job_list)} jobs but received {len(records)} records"
                )
            return records_to_batch_result(records)
        finally:
            connection.close()


def submit(jobs: Iterable[FitJob], *, host: str = "127.0.0.1",
           port: int = 8765, timeout: float = 600.0) -> BatchResult:
    """One-shot convenience: submit ``jobs`` to a running fit server.

    A fresh :class:`Client` sends the request, so every dataset ships inline.
    """
    return Client(host, port, timeout=timeout).submit(jobs)
