"""Job specifications and per-job execution for the batch layer.

A :class:`FitJob` is a self-contained description of one macromodel fit --
dataset, method name, options, free-form tags -- that can be shipped to a
worker process (everything it holds is picklable).  :func:`run_job` executes
one job through the shared :func:`repro.core.run_fit` entry point and folds
the outcome, successful or not, into a :class:`JobRecord`: a failing job
yields a record carrying the exception instead of raising, so one bad netlist
never kills a sweep.

Jobs and records cross process and machine boundaries as JSON documents,
and this module holds their one exact codec: :func:`job_to_document` /
:func:`job_from_document` and :func:`record_to_document` /
:func:`record_from_document`.  Shard manifests, shard result files and the
serve wire protocol all go through it, so a new column is added here once.
"""

from __future__ import annotations

import math
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

import numpy as np

from repro.cache.fingerprint import (
    combined_fingerprint,
    dataset_fingerprint,
    grid_fingerprint,
    options_fingerprint,
)
from repro.cache.responses import ResponseTally
from repro.core._pipeline import frontend_spec, run_fit
from repro.core.options import InterpolationOptions, canonical_token, options_from_items
from repro.core.results import MacromodelResult
from repro.data.dataset import FrequencyData
from repro.metrics.errors import model_aggregate_error
from repro.metrics.timedomain import TimeDomainSpec, time_domain_metrics
from repro.vectorfitting.enforcement import PassivitySpec, passivity_metrics

__all__ = [
    "FitJob",
    "JobRecord",
    "run_job",
    "job_fingerprint",
    "spec_fingerprint_parts",
    "job_to_document",
    "job_from_document",
    "record_to_document",
    "record_from_document",
]


@dataclass(frozen=True)
class FitJob:
    """One unit of batch work: fit one dataset with one method configuration.

    Attributes
    ----------
    data:
        The frequency samples to interpolate.
    method:
        Registered front-end name (``"mfti"``, ``"vfti"``, ``"mfti-recursive"``).
    options:
        Options object matching the method; ``None`` uses the method defaults.
    label:
        Human-readable identifier used in reports (defaults to the method name
        plus the dataset label).
    tags:
        Free-form key/value metadata carried through to the record and the
        JSON export (e.g. ``{"workload": "pdn", "test": "test1"}``).
    reference:
        Optional validation data; when given, the record includes the model's
        aggregate error against it.
    time_domain:
        Optional :class:`~repro.metrics.timedomain.TimeDomainSpec`; when given
        (a reference is then required), the record carries the spectral
        time-domain validation metrics computed worker-side.
    passivity:
        Optional :class:`~repro.vectorfitting.enforcement.PassivitySpec`;
        when given (a reference is then required, for the certificate's
        hold-out error delta), the fitted model is passivity-enforced
        worker-side and the record carries the certificate columns.  A model
        that cannot be certified fails the job loudly
        (:class:`~repro.vectorfitting.enforcement.EnforcementFailed` in the
        record) instead of emitting an uncertified row.
    """

    data: FrequencyData
    method: str = "mfti"
    options: Optional[InterpolationOptions] = None
    label: str = ""
    tags: dict[str, Any] = field(default_factory=dict)
    reference: Optional[FrequencyData] = None
    time_domain: Optional[TimeDomainSpec] = None
    passivity: Optional[PassivitySpec] = None

    def __post_init__(self):
        spec = frontend_spec(self.method)  # raises on unknown method names
        if self.options is not None and not isinstance(self.options, spec.options_type):
            raise TypeError(
                f"method {self.method!r} expects {spec.options_type.__name__} options, "
                f"got {type(self.options).__name__}"
            )
        if isinstance(getattr(self.options, "direction_seed", None), np.random.Generator):
            # a live generator's state advances as jobs consume it, and each
            # executor partitions that consumption differently (serial: one
            # stream; process: one snapshot per chunk; thread: racy shared
            # mutation) -- silently breaking cross-executor determinism
            raise TypeError(
                "FitJob options must carry an integer direction_seed (or None), "
                "not a live numpy.random.Generator: shared generator state would "
                "make results depend on the executor"
            )
        if self.time_domain is not None:
            if not isinstance(self.time_domain, TimeDomainSpec):
                raise TypeError(
                    f"time_domain must be a TimeDomainSpec, got "
                    f"{type(self.time_domain).__name__}"
                )
            if self.reference is None:
                raise ValueError(
                    "time_domain metrics compare the model against validation "
                    "data: a job with a time_domain spec needs a reference"
                )
        if self.passivity is not None:
            if not isinstance(self.passivity, PassivitySpec):
                raise TypeError(
                    f"passivity must be a PassivitySpec, got "
                    f"{type(self.passivity).__name__}"
                )
            if self.reference is None:
                raise ValueError(
                    "the passivity certificate's error delta is measured "
                    "against validation data: a job with a passivity spec "
                    "needs a reference"
                )
        if not self.label:
            suffix = f" [{self.data.label}]" if self.data.label else ""
            object.__setattr__(self, "label", f"{self.method}{suffix}")


@dataclass(frozen=True)
class JobRecord:
    """Outcome of one :class:`FitJob`, successful or failed.

    Attributes
    ----------
    index:
        Position of the job in the submitted batch (records are returned in
        this order regardless of executor scheduling).
    label, method, tags:
        Copied from the job.
    status:
        ``"ok"`` or ``"failed"``.
    result:
        The :class:`~repro.core.results.MacromodelResult` (``None`` on failure).
    order:
        Order of the recovered model (``None`` on failure).
    elapsed_seconds:
        Wall-clock time spent on this job (including the failure path).
    error_vs_data:
        Aggregate error of the model against the job's own (possibly noisy)
        measurement data -- the paper's "error vs measurement" column
        (``nan`` on failure).
    error_vs_reference:
        Aggregate error against ``job.reference`` (``nan`` when no reference
        was given or the job failed).
    time_domain:
        Spectral time-domain validation columns
        (:data:`~repro.metrics.timedomain.TIME_DOMAIN_METRIC_KEYS`) when the
        job carried a :class:`~repro.metrics.timedomain.TimeDomainSpec`;
        empty otherwise (and on failure).
    passivity:
        Passivity-certificate columns
        (:data:`~repro.vectorfitting.enforcement.PASSIVITY_METRIC_KEYS`)
        when the job carried a
        :class:`~repro.vectorfitting.enforcement.PassivitySpec`; empty
        otherwise (and on failure).
    cache_status:
        ``"hit"`` / ``"miss"`` / ``"skipped"`` when the batch ran with a
        :class:`~repro.cache.FitCache`, ``None`` otherwise.  Carried on the
        record (not only on the cache object) so the counters survive the
        process executor, whose workers hold private cache copies.
    response_hits, response_misses:
        Cross-job response-cache consultations made while evaluating this
        job (reference-norm sweeps and model sweeps; zero when the batch ran
        without a response cache).  The *values* never depend on these
        counters -- a hit returns exactly what the miss computed -- and the
        split between hits and misses depends on executor scheduling, so
        comparable exports zero them like the timing envelope.
    error_type, error_message, error_traceback:
        Exception details of a failed job (``None`` on success).

    Both errors are computed worker-side by :func:`run_job`, so pooled
    executors parallelise the model evaluations along with the fits.
    """

    index: int
    label: str
    method: str
    tags: dict[str, Any]
    status: str
    result: Optional[MacromodelResult] = None
    order: Optional[int] = None
    elapsed_seconds: float = 0.0
    error_vs_data: float = float("nan")
    error_vs_reference: float = float("nan")
    time_domain: dict[str, float] = field(default_factory=dict)
    passivity: dict[str, float] = field(default_factory=dict)
    cache_status: Optional[str] = None
    response_hits: int = 0
    response_misses: int = 0
    error_type: Optional[str] = None
    error_message: Optional[str] = None
    error_traceback: Optional[str] = None

    @property
    def ok(self) -> bool:
        """Whether the fit succeeded."""
        return self.status == "ok"

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe summary of this record (numerical payloads excluded)."""
        return {
            "index": self.index,
            "label": self.label,
            "method": self.method,
            "tags": dict(self.tags),
            "status": self.status,
            "order": self.order,
            "elapsed_seconds": self.elapsed_seconds,
            "error_vs_data": (
                None if math.isnan(self.error_vs_data) else self.error_vs_data
            ),
            "error_vs_reference": (
                None if math.isnan(self.error_vs_reference) else self.error_vs_reference
            ),
            "time_domain": dict(self.time_domain),
            "passivity": dict(self.passivity),
            "cache": self.cache_status,
            "responses": {"hits": self.response_hits, "misses": self.response_misses},
            "error": (
                None
                if self.ok
                else {"type": self.error_type, "message": self.error_message}
            ),
        }


# --------------------------------------------------------------------------- #
# job identity
# --------------------------------------------------------------------------- #
def _braced(pairs) -> str:
    """``{key=value,...}``: the fingerprint text of a sequence of token pairs."""
    return "{" + ",".join(f"{key}={value}" for key, value in pairs) + "}"


def spec_fingerprint_parts(job: FitJob) -> list[str]:
    """Fingerprint parts of the job's reference and its optional specs.

    The common tail of :func:`job_fingerprint` and
    :func:`repro.serve.protocol.request_key`: the reference and each spec
    shape the record, so both identities must change with them.  A spec
    part is appended only when the spec is set, so every job without one
    keeps the digest it had before the spec existed.
    """
    return [
        "reference:"
        + (dataset_fingerprint(job.reference) if job.reference is not None else "none"),
        *(
            ["timedomain:" + _braced(job.time_domain.canonical_items())]
            if job.time_domain is not None
            else []
        ),
        *(
            ["passivity:" + _braced(job.passivity.canonical_items())]
            if job.passivity is not None
            else []
        ),
    ]


def job_fingerprint(job: FitJob) -> str:
    """Content-addressed identity of one job, reusing the cache fingerprints.

    Covers everything that shapes the job's record: the dataset and optional
    reference (by numerical fingerprint), the method + canonical options
    serialization, the label, the tags and the optional specs.  Two jobs get
    the same fingerprint iff an engine run would produce interchangeable
    records for them -- the identity a shard plan must be stable under and
    the ``job_id`` every job document is verified against.

    Raises
    ------
    TypeError
        If the options or a tag value has no canonical encoding (e.g. a live
        ``numpy.random.Generator``); such jobs cannot cross a process
        boundary as a document.
    """
    return combined_fingerprint("shard-job", [
        "data:" + dataset_fingerprint(job.data),
        "method:" + canonical_token(job.method),
        "options:" + options_fingerprint(job.method, job.options),
        "label:" + canonical_token(job.label),
        "tags:" + _braced(
            (canonical_token(key), canonical_token(job.tags[key])) for key in sorted(job.tags)
        ),
        *spec_fingerprint_parts(job),
    ])


# --------------------------------------------------------------------------- #
# the document codec
# --------------------------------------------------------------------------- #
def job_to_document(job: FitJob) -> dict[str, Any]:
    """The exact JSON document of one job; datasets travel as fingerprints.

    Options travel as ``{"type", "items"}`` canonical items (the method's
    default options when ``job.options`` is ``None``), specs as their field
    dicts, and ``job_id`` pins the whole job.  The dataset arrays do not
    travel here: ``data_ref``/``reference_ref`` name them by
    :func:`~repro.cache.dataset_fingerprint`, and the reader supplies them
    (the wire's dataset table, a shard runner's rebuilt grid).
    """
    options = job.options if job.options is not None else frontend_spec(job.method).options_type()
    return {
        "job_id": job_fingerprint(job),
        "method": job.method,
        "label": job.label,
        "tags": dict(job.tags),
        "options": {
            "type": type(options).__name__,
            "items": [list(item) for item in options.canonical_items()],
        },
        "data_ref": dataset_fingerprint(job.data),
        "reference_ref": (
            dataset_fingerprint(job.reference) if job.reference is not None else None
        ),
        "time_domain": job.time_domain.to_dict() if job.time_domain is not None else None,
        "passivity": job.passivity.to_dict() if job.passivity is not None else None,
    }


def job_from_document(
    document: dict[str, Any], datasets: Mapping[str, FrequencyData]
) -> FitJob:
    """Rebuild a :func:`job_to_document` job, its datasets looked up in ``datasets``.

    Raises
    ------
    KeyError, TypeError, ValueError
        On a malformed document, a dataset fingerprint missing from
        ``datasets``, or a rebuilt job whose :func:`job_fingerprint` differs
        from the document's ``job_id`` (the two sides disagree on what the
        job means).
    """

    def dataset(ref: str) -> FrequencyData:
        if ref not in datasets:
            raise ValueError(f"job references unknown dataset {ref!r}")
        return datasets[ref]

    options = document["options"]
    time_domain, passivity = document["time_domain"], document["passivity"]
    job = FitJob(
        dataset(document["data_ref"]),
        method=document["method"],
        options=options_from_items(options["type"], options["items"]),
        label=document["label"],
        tags=dict(document["tags"]),
        reference=(
            dataset(document["reference_ref"])
            if document["reference_ref"] is not None
            else None
        ),
        time_domain=TimeDomainSpec(**time_domain) if time_domain is not None else None,
        passivity=PassivitySpec(**passivity) if passivity is not None else None,
    )
    if job_fingerprint(job) != document["job_id"]:
        raise ValueError(
            f"decoded job {job.label!r} does not match its embedded fingerprint; "
            "the two sides disagree on the job encoding"
        )
    return job


def _hex_floats(values: dict[str, float]) -> dict[str, str]:
    return {key: float(value).hex() for key, value in values.items()}


def _floats_from_hex(tokens: dict[str, str]) -> dict[str, float]:
    return {key: float.fromhex(token) for key, token in tokens.items()}


def record_to_document(record: JobRecord) -> dict[str, Any]:
    """The exact JSON document of one record, without its numerical payload.

    Every float travels as a ``float.hex`` token (NaN included), so a decoded
    record compares bitwise equal to the one that was encoded.  The fitted
    model does not travel: the serve wire leaves it on the server, shard
    result files store it next to the document.
    """
    return {
        "index": record.index,
        "label": record.label,
        "method": record.method,
        "tags": dict(record.tags),
        "status": record.status,
        "order": record.order,
        "elapsed_seconds": float(record.elapsed_seconds).hex(),
        "error_vs_data": float(record.error_vs_data).hex(),
        "error_vs_reference": float(record.error_vs_reference).hex(),
        "time_domain": _hex_floats(record.time_domain),
        "passivity": _hex_floats(record.passivity),
        "cache_status": record.cache_status,
        "response_hits": int(record.response_hits),
        "response_misses": int(record.response_misses),
        "error_type": record.error_type,
        "error_message": record.error_message,
        "error_traceback": record.error_traceback,
    }


def record_from_document(
    document: dict[str, Any], result: Optional[MacromodelResult] = None
) -> JobRecord:
    """Rebuild a :func:`record_to_document` record, with ``result`` as its payload.

    Raises ``KeyError``, ``TypeError`` or ``ValueError`` on a malformed
    document.
    """
    return JobRecord(
        index=int(document["index"]),
        label=document["label"],
        method=document["method"],
        tags=dict(document["tags"]),
        status=document["status"],
        result=result,
        order=document["order"],
        elapsed_seconds=float.fromhex(document["elapsed_seconds"]),
        error_vs_data=float.fromhex(document["error_vs_data"]),
        error_vs_reference=float.fromhex(document["error_vs_reference"]),
        time_domain=_floats_from_hex(document["time_domain"]),
        passivity=_floats_from_hex(document["passivity"]),
        cache_status=document["cache_status"],
        response_hits=int(document["response_hits"]),
        response_misses=int(document["response_misses"]),
        error_type=document["error_type"],
        error_message=document["error_message"],
        error_traceback=document["error_traceback"],
    )


def run_job(index: int, job: FitJob, cache=None, *, responses=None) -> JobRecord:
    """Execute one job, capturing any exception into the returned record.

    This is a module-level function so the process executor can pickle it; it
    is the only place batch work actually calls into the fitting code.  With
    a :class:`~repro.cache.FitCache` the fit dispatches through the cached
    path and the record carries the per-job hit/miss status; a failing job
    never populates the cache.

    The model is swept at most once per frequency grid the job reads (data
    and reference often share one), and that sweep feeds both the aggregate
    error and the time-domain metrics; it is dropped with the job.
    ``responses`` optionally supplies a batch-shared
    :class:`~repro.cache.ResponseCache`: ``error_vs_data`` and
    ``error_vs_reference`` are then memoized across jobs by (system
    fingerprint, dataset fingerprint), ``time_domain`` by (system, reference,
    spec), and the reference-norm sweeps behind the errors and the passivity
    certificate by dataset fingerprint, and the record carries this job's
    hit/miss tally.  A job whose scores all hit sweeps nothing.  A score is
    a function of the model and the dataset alone (a sweep depends on the
    model and the grid, not on which grid the model met first), so a cached
    value is what the direct computation produces: results are
    bitwise-identical with or without the cache, whichever lookups hit.
    """
    started = time.perf_counter()
    cache_status: Optional[str] = None
    tally = ResponseTally(responses) if responses is not None else None
    try:
        fit_key: Optional[str] = None
        if cache is not None:
            from repro.cache.fitcache import fit_with_cache

            result, cache_status, fit_key = fit_with_cache(
                job.data, method=job.method, options=job.options, cache=cache
            )
        else:
            result = run_fit(job.data, method=job.method, options=job.options)

        system = result.system
        sweeps: dict[str, np.ndarray] = {}

        def sweep(data: FrequencyData) -> np.ndarray:
            """The model over ``data``'s grid, swept once per grid in this job."""
            key = grid_fingerprint(data)
            if key not in sweeps:
                response = np.asarray(system.frequency_response(data.frequencies_hz))
                response.setflags(write=False)
                sweeps[key] = response
            return sweeps[key]

        def evaluate(data: FrequencyData) -> float:
            """Aggregate error vs ``data``, a memoized score with a response cache."""
            def compute() -> float:
                norms = tally.reference_norms(data) if tally is not None else None
                return model_aggregate_error(system, data, response=sweep(data), norms=norms)

            return compute() if tally is None else tally.aggregate_error(system, data, compute)

        if fit_key is not None:
            # memoized evaluations: on warm sweeps the error evaluations
            # dominate the wall clock, not the (skipped) fits.  The
            # response-cache score only runs on an evaluation-memo miss.
            error_vs_data = cache.cached_aggregate_error(
                fit_key, job.data, compute=lambda: evaluate(job.data)
            )
            error_vs_reference = (
                cache.cached_aggregate_error(
                    fit_key, job.reference, compute=lambda: evaluate(job.reference)
                )
                if job.reference is not None
                else float("nan")
            )
        else:
            error_vs_data = evaluate(job.data)
            error_vs_reference = (
                evaluate(job.reference) if job.reference is not None else float("nan")
            )
        time_domain: dict[str, float] = {}
        if job.time_domain is not None:
            def time_domain_scores() -> dict[str, float]:
                return time_domain_metrics(system, job.reference, job.time_domain,
                                           model_samples=sweep(job.reference))

            time_domain = (
                time_domain_scores() if tally is None
                else tally.time_domain(system, job.reference, job.time_domain,
                                       time_domain_scores)
            )
        passivity = (
            passivity_metrics(
                system,
                job.data,
                job.passivity,
                reference=job.reference,
                responses=tally,
            )
            if job.passivity is not None
            else {}
        )
        return JobRecord(
            index=index,
            label=job.label,
            method=job.method,
            tags=dict(job.tags),
            status="ok",
            result=result,
            order=result.order,
            elapsed_seconds=time.perf_counter() - started,
            error_vs_data=error_vs_data,
            error_vs_reference=error_vs_reference,
            time_domain=time_domain,
            passivity=passivity,
            cache_status=cache_status,
            response_hits=tally.hits if tally is not None else 0,
            response_misses=tally.misses if tally is not None else 0,
        )
    except Exception as exc:  # noqa: BLE001 - per-job isolation is the point
        return JobRecord(
            index=index,
            label=job.label,
            method=job.method,
            tags=dict(job.tags),
            status="failed",
            elapsed_seconds=time.perf_counter() - started,
            cache_status=cache_status,
            response_hits=tally.hits if tally is not None else 0,
            response_misses=tally.misses if tally is not None else 0,
            error_type=type(exc).__name__,
            error_message=str(exc),
            error_traceback=traceback.format_exc(),
        )
