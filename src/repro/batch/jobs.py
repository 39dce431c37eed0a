"""Job specifications and per-job execution for the batch layer.

A :class:`FitJob` is a self-contained description of one macromodel fit --
dataset, method name, options, free-form tags -- that can be shipped to a
worker process (everything it holds is picklable).  :func:`run_job` executes
one job through the shared :func:`repro.core.run_fit` entry point and folds
the outcome, successful or not, into a :class:`JobRecord`: a failing job
yields a record carrying the exception instead of raising, so one bad netlist
never kills a sweep.
"""

from __future__ import annotations

import math
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from repro.cache.interning import ResponseTally
from repro.core._pipeline import frontend_spec, run_fit
from repro.core.options import InterpolationOptions
from repro.core.results import MacromodelResult
from repro.data.dataset import FrequencyData
from repro.metrics.errors import model_aggregate_error
from repro.metrics.timedomain import TimeDomainSpec, time_domain_metrics
from repro.vectorfitting.enforcement import PassivitySpec, passivity_metrics

__all__ = ["FitJob", "JobRecord", "run_job"]


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
        job (reference-norm SVDs and model sweeps; zero when the batch ran
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


def run_job(index: int, job: FitJob, cache=None, *, responses=None) -> JobRecord:
    """Execute one job, capturing any exception into the returned record.

    This is a module-level function so the process executor can pickle it; it
    is the only place batch work actually calls into the fitting code.  With
    a :class:`~repro.cache.FitCache` the fit dispatches through the cached
    path and the record carries the per-job hit/miss status; a failing job
    never populates the cache.

    ``responses`` optionally supplies a batch-shared
    :class:`~repro.cache.ResponseCache`: the model sweep and the
    reference-norm SVDs behind ``error_vs_data``/``error_vs_reference``,
    ``time_domain`` and the passivity certificate are then memoized across
    jobs by ``(system fingerprint, grid fingerprint)`` / dataset
    fingerprint, and the record carries this job's hit/miss tally.  Cached
    values are what the direct computation produces, so results are
    bitwise-identical with or without it.
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

        if tally is not None and hasattr(result.system, "prime_evaluation_plan"):
            # Cached sweep values must be pure functions of (system
            # fingerprint, grid fingerprint): a hit on the fit-grid sweep
            # would otherwise leave this system's lazily-built evaluation
            # plan to be seeded by whichever grid misses next, and the
            # plan's shift depends on the seeding grid.  Pinning the plan
            # to the fit grid -- what the first uncached sweep would have
            # built -- keeps miss computations bitwise identical no
            # matter which hits preceded them (or on which worker).
            result.system.prime_evaluation_plan(job.data.frequencies_hz)

        def evaluate(data):
            """Aggregate error vs ``data``, via the response cache if on."""
            if tally is None:
                return result.aggregate_error(data)
            return model_aggregate_error(
                result.system,
                data,
                response=tally.model_sweep(result.system, data),
                norms=tally.reference_norms(data),
            )

        if fit_key is not None:
            # memoized evaluations: on warm sweeps the error evaluations
            # dominate the wall clock, not the (skipped) fits.  The
            # response-cache sweep only runs on an evaluation-memo miss.
            error_vs_data = cache.cached_aggregate_error(
                fit_key, result, job.data, compute=lambda: evaluate(job.data)
            )
            error_vs_reference = (
                cache.cached_aggregate_error(
                    fit_key, result, job.reference, compute=lambda: evaluate(job.reference)
                )
                if job.reference is not None
                else float("nan")
            )
        else:
            error_vs_data = evaluate(job.data)
            error_vs_reference = (
                evaluate(job.reference) if job.reference is not None else float("nan")
            )
        time_domain = (
            time_domain_metrics(
                result.system,
                job.reference,
                job.time_domain,
                model_samples=(
                    tally.model_sweep(result.system, job.reference)
                    if tally is not None
                    else None
                ),
            )
            if job.time_domain is not None
            else {}
        )
        passivity = (
            passivity_metrics(
                result.system,
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
