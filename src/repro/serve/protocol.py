"""The JSON wire format of the fit service.

One design rule: **nothing travels that the cache layer cannot fingerprint.**
Jobs and records travel as the exact documents of :mod:`repro.batch.jobs`
(:func:`~repro.batch.jobs.job_to_document`,
:func:`~repro.batch.jobs.record_to_document`) -- the codec shard manifests
and shard result files use too.  Every job document carries its
:func:`~repro.batch.jobs.job_fingerprint`, so a client/server build skew that
changes what a spec *means* fails loudly at decode time instead of silently
fitting something else.  Records travel without their numerical payloads
(the model matrices stay on the server); their floats are exact
``float.hex`` tokens, so a served record compares bitwise equal to its
locally computed twin.

Datasets ship their raw arrays (dtype + shape + base64 payload, bitwise
round-trip) once per batch, in a ``"datasets"`` table keyed by
:func:`~repro.cache.dataset_fingerprint`; jobs name them through
``"data_ref"``/``"reference_ref"``, so an N-job sweep over one system ships
its arrays once instead of N times.  The decoder verifies every table entry
against its key.

Across batches a dataset ships once too: a server keeps the datasets it has
decoded and verified in a bounded :class:`HeldDatasets` table, and a ref
that is missing from a batch's ``"datasets"`` table resolves from there.  A client names the
datasets the server already holds (``encode_batch(jobs, held)``) instead of
re-sending them; a ref the server does not hold fails the whole batch with
:class:`MissingDatasets` (HTTP 409, the fingerprints listed) before any of
its jobs starts, and the client resends those datasets inline.
"""

from __future__ import annotations

import base64
from collections import OrderedDict
from typing import Any, Collection, Optional

import numpy as np

from repro.batch.jobs import (
    FitJob,
    JobRecord,
    job_from_document,
    job_to_document,
    record_from_document,
    record_to_document,
    spec_fingerprint_parts,
)
from repro.batch.results import BatchResult
from repro.cache.fingerprint import (
    combined_fingerprint,
    dataset_fingerprint,
    options_fingerprint,
)
from repro.cache.fitcache import is_nondeterministic
from repro.data.dataset import FrequencyData

__all__ = [
    "MAX_HELD_BYTES",
    "PROTOCOL_VERSION",
    "HeldDatasets",
    "MissingDatasets",
    "ProtocolError",
    "encode_dataset",
    "decode_dataset",
    "encode_record",
    "decode_record",
    "encode_batch",
    "decode_batch",
    "request_key",
    "is_deduplicatable",
]

#: Bump whenever any wire document changes shape (the shard layer's schema
#: discipline, applied to HTTP); any other version is refused.  Version 3
#: moved jobs and records onto the shared document codec and dropped the
#: inline per-job datasets of version 1; version 4 lets a job name a dataset
#: the server holds from an earlier batch without shipping it again.
PROTOCOL_VERSION = 4

#: Most dataset bytes (frequencies plus samples) a :class:`HeldDatasets`
#: table keeps; the least recently used datasets go first.
MAX_HELD_BYTES = 64 * 2**20


class ProtocolError(ValueError):
    """A wire document failed validation (shape, fingerprint, version)."""


class MissingDatasets(ProtocolError):
    """A batch names datasets that are neither inline nor held by the server.

    ``fingerprints`` lists them, sorted; the client resends the batch with
    them inline.
    """

    def __init__(self, fingerprints: Collection[str]):
        self.fingerprints = sorted(fingerprints)
        super().__init__(
            f"{len(self.fingerprints)} referenced dataset(s) are not held by "
            "this server; resend them inline"
        )


class HeldDatasets:
    """The datasets a server has decoded and verified, keyed by fingerprint.

    An LRU table bounded at :data:`MAX_HELD_BYTES` of array data, with the
    tallies ``GET /stats`` reports: datasets decoded inline, refs resolved
    from the table and refs answered with :class:`MissingDatasets`.  Not
    thread-safe: the fit service uses it from its event loop only.
    """

    def __init__(self) -> None:
        self._held: "OrderedDict[str, FrequencyData]" = OrderedDict()
        self.nbytes = 0
        self.inline = 0
        self.resolved = 0
        self.missing = 0

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._held

    def resolve(self, fingerprint: str) -> FrequencyData:
        """The held dataset (``KeyError`` when it is not held); marks it recent."""
        self._held.move_to_end(fingerprint)
        return self._held[fingerprint]

    def hold(self, fingerprint: str, data: FrequencyData) -> None:
        """Keep a verified dataset, evicting the least recently used beyond the bound."""
        if fingerprint in self._held:
            self._held.move_to_end(fingerprint)
            return
        self._held[fingerprint] = data
        self.nbytes += _nbytes(data)
        while self.nbytes > MAX_HELD_BYTES:
            _, evicted = self._held.popitem(last=False)
            self.nbytes -= _nbytes(evicted)

    def stats(self) -> dict[str, int]:
        """The ``"datasets"`` entry of ``GET /stats``."""
        return {
            "entries": len(self._held),
            "bytes": self.nbytes,
            "inline": self.inline,
            "resolved": self.resolved,
            "missing": self.missing,
        }


def _nbytes(data: FrequencyData) -> int:
    return int(data.frequencies_hz.nbytes + data.samples.nbytes)


# --------------------------------------------------------------------------- #
# arrays and datasets
# --------------------------------------------------------------------------- #
def _array_spec(array: np.ndarray) -> dict[str, Any]:
    """Bitwise-exact JSON encoding of one array (dtype + shape + base64 data)."""
    contiguous = np.ascontiguousarray(array)
    return {
        "dtype": contiguous.dtype.str,
        "shape": list(contiguous.shape),
        "data": base64.b64encode(contiguous.tobytes()).decode("ascii"),
    }


def _array_from_spec(spec: dict[str, Any]) -> np.ndarray:
    try:
        dtype = np.dtype(spec["dtype"])
        shape = tuple(int(n) for n in spec["shape"])
        raw = base64.b64decode(spec["data"].encode("ascii"), validate=True)
        return np.frombuffer(raw, dtype=dtype).reshape(shape)
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed array spec: {exc}") from exc


def encode_dataset(data: FrequencyData) -> dict[str, Any]:
    """Encode one :class:`FrequencyData` (arrays + metadata + fingerprint)."""
    return {
        "kind": data.kind,
        "reference_impedance": float(data.reference_impedance).hex(),
        "label": data.label,
        "frequencies_hz": _array_spec(data.frequencies_hz),
        "samples": _array_spec(data.samples),
        "fingerprint": dataset_fingerprint(data),
    }


def decode_dataset(spec: dict[str, Any]) -> FrequencyData:
    """Rebuild a dataset and verify it against its embedded fingerprint."""
    try:
        data = FrequencyData(
            _array_from_spec(spec["frequencies_hz"]),
            _array_from_spec(spec["samples"]),
            kind=spec["kind"],
            reference_impedance=float.fromhex(spec["reference_impedance"]),
            label=spec.get("label", ""),
        )
    except ProtocolError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed dataset spec: {exc}") from exc
    expected = spec.get("fingerprint")
    if expected is not None and dataset_fingerprint(data) != expected:
        raise ProtocolError(
            "decoded dataset does not match its embedded fingerprint; "
            "the payload was corrupted in transit"
        )
    return data


# --------------------------------------------------------------------------- #
# jobs, records and batches
# --------------------------------------------------------------------------- #
def is_deduplicatable(job: FitJob) -> bool:
    """Whether two content-identical submissions of ``job`` share one fit.

    Not when the fit cache's nondeterminism rule applies
    (:func:`~repro.cache.fitcache.is_nondeterministic`): unseeded random
    tangential directions make every execution a distinct draw.
    """
    return not is_nondeterministic(job.options)


def request_key(job: FitJob) -> str:
    """In-flight dedupe key: what the *computation* depends on, nothing more.

    Unlike :func:`~repro.batch.jobs.job_fingerprint` this excludes the
    label and tags -- they only decorate the record, so two submissions that
    differ cosmetically still await one fit.  Callers must check
    :func:`is_deduplicatable` first; nondeterministic jobs have no stable key.
    """
    return combined_fingerprint("serve-request", [
        "data:" + dataset_fingerprint(job.data),
        "method:" + str(job.method),
        "options:" + options_fingerprint(job.method, job.options),
        *spec_fingerprint_parts(job),
    ])


#: Records travel as their shared exact document (``result`` excluded).
encode_record = record_to_document


def decode_record(spec: dict[str, Any]) -> JobRecord:
    """Rebuild a served record (``result=None``: payloads stay on the server)."""
    try:
        return record_from_document(spec)
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed record spec: {exc}") from exc


def encode_batch(jobs: list[FitJob], held: Collection[str] = ()) -> dict[str, Any]:
    """The ``POST /submit`` request body for a list of jobs.

    Every unique dataset ships once in the batch-level ``"datasets"`` table,
    keyed by fingerprint; the jobs are :func:`~repro.batch.jobs.job_to_document`
    documents naming their datasets by that key.  The table is consulted
    before a document is built, so each unique dataset is encoded once.
    Datasets whose fingerprint is in ``held`` (those the server has already
    accepted from this client) are left out of the table: the jobs still name
    them, and the server resolves them from its :class:`HeldDatasets`.
    """
    datasets: dict[str, Any] = {}
    for job in jobs:
        for data in (job.data, job.reference):
            if data is not None:
                fingerprint = dataset_fingerprint(data)
                if fingerprint not in datasets and fingerprint not in held:
                    datasets[fingerprint] = encode_dataset(data)
    return {
        "protocol_version": PROTOCOL_VERSION,
        "datasets": datasets,
        "jobs": [job_to_document(job) for job in jobs],
    }


def _referenced(jobs_spec: list) -> set[str]:
    """The dataset fingerprints the job documents name (malformed ones skipped)."""
    refs = set()
    for spec in jobs_spec:
        if isinstance(spec, dict):
            for key in ("data_ref", "reference_ref"):
                if isinstance(spec.get(key), str):
                    refs.add(spec[key])
    return refs


def decode_batch(document: dict[str, Any],
                 held: Optional[HeldDatasets] = None) -> list[FitJob]:
    """Validate and decode a ``POST /submit`` body into jobs.

    Every dataset-table entry is verified against its fingerprint key, and
    every job against its ``job_id``; any other protocol version is refused.

    Without ``held``, every dataset a job names must be in the body's table.
    With it, a named dataset missing from the table resolves from ``held``;
    if ``held`` lacks any, :class:`MissingDatasets` lists them before a
    single inline dataset is decoded.  The inline datasets of a batch that
    decodes in full are then held for later batches; a batch that fails
    verification holds nothing.
    """
    if not isinstance(document, dict):
        raise ProtocolError("submit body must be a JSON object")
    version = document.get("protocol_version")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"client speaks protocol {version!r}, this server speaks {PROTOCOL_VERSION}"
        )
    jobs_spec = document.get("jobs")
    if not isinstance(jobs_spec, list) or not jobs_spec:
        raise ProtocolError("submit body must carry a non-empty 'jobs' list")
    table = document.get("datasets")
    if not isinstance(table, dict):
        raise ProtocolError("the 'datasets' table must be a JSON object")
    datasets: dict[str, FrequencyData] = {}
    if held is not None:
        refs = _referenced(jobs_spec).difference(table)
        missing = [ref for ref in refs if ref not in held]
        if missing:
            held.missing += len(missing)
            raise MissingDatasets(missing)
        datasets.update((ref, held.resolve(ref)) for ref in refs)
    for fingerprint, spec in table.items():
        if not isinstance(spec, dict):
            raise ProtocolError(f"dataset table entry {fingerprint!r} is not an object")
        data = decode_dataset(spec)
        if dataset_fingerprint(data) != fingerprint:
            raise ProtocolError(
                f"dataset table entry {fingerprint!r} decodes to a different "
                "fingerprint; the table is corrupt"
            )
        datasets[fingerprint] = data
    try:
        jobs = [job_from_document(spec, datasets) for spec in jobs_spec]
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"invalid job spec: {exc}") from exc
    if held is not None:
        for fingerprint in table:
            held.hold(fingerprint, datasets[fingerprint])
        held.inline += len(table)
        held.resolved += len(refs)
    return jobs


def records_to_batch_result(records: list[JobRecord]) -> BatchResult:
    """Assemble served records into a client-side :class:`BatchResult`.

    The execution envelope is a placeholder (``executor="serve"``) -- exactly
    the fields :func:`~repro.batch.results.comparable_dict` normalises away,
    so served results compare bit-identically to local runs.
    """
    ordered = tuple(sorted(records, key=lambda record: record.index))
    return BatchResult(
        records=ordered, executor="serve", n_workers=0, chunk_size=0,
        wall_seconds=0.0,
    )
