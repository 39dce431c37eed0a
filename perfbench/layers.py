"""Which public entry point of each layer the traced run wraps, and the
per-layer metrics computed from the recorded spans.

Layers are the repro modules that do measurable work (``data``, ``core``,
``systems``, ``metrics``, ``vectorfitting``, ``cache``, ``batch``,
``serve``); ``circuits``, ``utils`` and ``experiments`` only feed them.
``numpy.linalg`` factorizations are counted as ``linalg.<op>`` spans and
attributed to the layer span that encloses them.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
from typing import Callable

from perfbench.stats import median
from perfbench.tracer import Patch, Span, SpanIndex, Tracer

#: (span name, "module:function") for the plain module-level entry points.
FUNCTION_SPANS = (
    ("data.sample", "repro.data.sampler:sample_scattering"),
    ("data.sample", "repro.data.sampler:sample_impedance"),
    ("data.sample", "repro.data.noise:add_measurement_noise"),
    ("data.sample", "repro.experiments.example2:build_pdn_datasets"),
    ("core.tangential", "repro.core.tangential:build_tangential_data"),
    ("core.pencil", "repro.core.loewner:build_loewner_pencil"),
    ("core.realization", "repro.core.realization:svd_realization"),
    ("core.economic_svd", "repro.utils.linalg:economic_svd"),
    ("systems.plan", "repro.systems.evaluation:build_evaluation_plan"),
    ("metrics.errors", "repro.metrics.errors:model_aggregate_error"),
    ("metrics.errors", "repro.metrics.errors:reference_norms"),
    ("metrics.time_domain", "repro.metrics.timedomain:time_domain_metrics"),
    ("enforce", "repro.vectorfitting.enforcement:enforce_passivity"),
    ("enforce.margin", "repro.vectorfitting.enforcement:passivity_margins"),
    ("enforce.refine", "repro.vectorfitting.enforcement:refine_violation_bands"),
    ("cache.fit", "repro.cache.fitcache:fit_with_cache"),
    ("cache.fingerprint", "repro.cache.fingerprint:dataset_fingerprint"),
    ("serve.decode", "repro.serve.protocol:decode_batch"),
    ("serve.decode", "repro.serve.protocol:decode_record"),
)

LINALG_OPS = ("svd", "eig", "eigvals", "lstsq", "qr", "solve")

#: Every per-layer metric with its unit, in report order.
LAYER_METRICS = {
    "data.sample_s": "s", "data.solve_calls": "count",
    "core.fit_s": "s", "core.fits": "count", "core.tangential_s": "s",
    "core.pencil_s": "s", "core.profile_s": "s", "core.realization_s": "s",
    "core.svd_calls": "count", "core.svd_per_fit": "count",
    "systems.plan_s": "s", "systems.plan_builds": "count", "systems.eig_calls": "count",
    "systems.eval_s": "s", "systems.eval_points": "count",
    "metrics.errors_s": "s", "metrics.time_domain_s": "s",
    "enforce.s": "s", "enforce.margin_s": "s", "enforce.refine_s": "s",
    "enforce.lstsq_calls": "count", "enforce.lstsq_s": "s", "enforce.lstsq_rows": "count",
    "enforce.iterations": "count", "enforce.certified_frac": "ratio",
    "cache.fit_hits": "count", "cache.fit_misses": "count", "cache.fit_hit_ratio": "ratio",
    "cache.fit_lookup_s": "s", "cache.response_hits": "count",
    "cache.response_misses": "count", "cache.response_hit_ratio": "ratio",
    "cache.fingerprint_s": "s", "cache.fingerprint_calls": "count",
    "batch.run_s": "s", "batch.job_s": "s", "batch.overhead_s": "s",
    "batch.worker_busy_frac": "ratio",
    "serve.encode_s": "s", "serve.decode_s": "s", "serve.request_bytes": "bytes",
    "serve.response_bytes": "bytes", "serve.computed": "count", "serve.coalesced": "count",
    "serve.queue_wait_s": "s",
    "trace.overhead_frac": "ratio",
}

#: Metrics derived from other metrics (computed last, not summed across processes).
RATIOS = {
    "core.svd_per_fit": ("core.svd_calls", "core.fits"),
    "cache.fit_hit_ratio": ("cache.fit_hits", ("cache.fit_hits", "cache.fit_misses")),
    "cache.response_hit_ratio": ("cache.response_hits",
                                 ("cache.response_hits", "cache.response_misses")),
}


def _resolve(target: str):
    module_name, _, attribute = target.partition(":")
    return getattr(importlib.import_module(module_name), attribute)


def _load_repro() -> None:
    """Import every module whose bindings the wrappers must replace."""
    for name in ("repro", "repro.experiments.workloads", "repro.batch.engine",
                 "repro.serve", "repro.serve.client", "repro.cache",
                 "repro.vectorfitting.enforcement", "repro.metrics.timedomain"):
        importlib.import_module(name)
    from repro.core._pipeline import available_methods

    available_methods()  # registers the front-ends


def _first_shape(args, kwargs, position: int, name: str):
    value = args[position] if len(args) > position else kwargs.get(name)
    return getattr(value, "shape", None)


def install(tracer: Tracer, scope: str = "full") -> Patch:
    """Wrap the layer entry points; returns the :class:`Patch` that undoes it.

    ``scope`` is ``"full"`` (every layer, in this process) or ``"server"``
    (``"full"`` plus the service's admission-to-start queue wait).
    """
    _load_repro()
    patch = Patch()
    from repro.batch.engine import BatchEngine

    def method(owner, name, span_name):
        patch.set(owner, name, tracer.wrap(owner.__dict__[name], span_name))

    def bytes_after(key):
        def after(span: Span, result) -> None:
            span.attrs[key] = len(json.dumps(result))
        return after

    method(BatchEngine, "run", "batch.run")
    for span_name, target in FUNCTION_SPANS:
        function = _resolve(target)
        patch.everywhere(function, tracer.wrap(function, span_name))

    from repro.core import _pipeline
    from repro.core.loewner import LoewnerPencil

    for name, spec in list(_pipeline._FRONTENDS.items()):
        patch.set_item(_pipeline._FRONTENDS, name, dataclasses.replace(
            spec, runner=tracer.wrap(spec.runner, "core.fit", attrs=lambda a, k, m=name: {
                "method": m})))
    method(LoewnerPencil, "singular_values", "core.profile")

    evaluate = _resolve("repro.systems.evaluation:evaluate_descriptor")
    patch.everywhere(evaluate, tracer.wrap(
        evaluate, "systems.eval",
        attrs=lambda a, k: {"points": int((_first_shape(a, k, 5, "points") or (0,))[0])}))

    for span_name, target, key in (
        ("serve.encode", "repro.serve.protocol:encode_batch", "request_bytes"),
        ("serve.encode", "repro.serve.protocol:encode_record", "response_bytes"),
    ):
        function = _resolve(target)
        patch.everywhere(function, tracer.wrap(function, span_name, after=bytes_after(key)))

    admitted: dict[int, float] = {}
    if scope == "server":
        from repro.serve.app import FitService

        original_submit = FitService.__dict__["submit_batch"]

        def submit_batch(service, jobs):
            now = tracer.clock()
            jobs = list(jobs)
            for job in jobs:
                admitted[id(job)] = now
            return original_submit(service, jobs)

        patch.set(FitService, "submit_batch", submit_batch)

    def job_attrs(args, kwargs) -> dict:
        job = args[1] if len(args) > 1 else kwargs["job"]
        started = admitted.pop(id(job), None)
        return {} if started is None else {"queue_wait": tracer.clock() - started}

    run_job = _resolve("repro.batch.jobs:run_job")
    patch.everywhere(run_job, tracer.wrap(
        run_job, "batch.job", attrs=job_attrs,
        context=lambda a, k: (a[1] if len(a) > 1 else k["job"]).label))

    _install_linalg(tracer, patch)
    return patch


def _install_linalg(tracer: Tracer, patch: Patch) -> None:
    """Count numpy.linalg factorizations, also where the array backend calls them."""
    import numpy.linalg

    from repro import backends

    def lstsq_rows(args, kwargs) -> dict:
        shape = _first_shape(args, kwargs, 0, "a")
        return {"rows": int(shape[0]) if shape else 0}

    wrapped = []  # (original, wrapper)
    for op in LINALG_OPS:
        original = getattr(numpy.linalg, op)
        wrapper = tracer.wrap(original, f"linalg.{op}",
                              attrs=lstsq_rows if op == "lstsq" else None)
        patch.set(numpy.linalg, op, wrapper)
        wrapped.append((original, wrapper))
    # the numpy backend record captured the originals when it was built
    record = backends.get_backend("numpy")
    fields = {}
    for entry in dataclasses.fields(record):
        value = getattr(record, entry.name)
        for original, wrapper in wrapped:
            if value is original:
                fields[entry.name] = wrapper
    patch.set_item(backends._instances, "numpy", dataclasses.replace(record, **fields))


# --------------------------------------------------------------------------- #
# metrics from spans
# --------------------------------------------------------------------------- #
def zero_metrics() -> dict[str, float]:
    return {name: 0.0 for name in LAYER_METRICS}


def span_metrics(spans: list[Span]) -> dict[str, float]:
    """The additive per-layer metrics recorded by one process's spans."""
    index = SpanIndex(spans)
    metrics = zero_metrics()

    def called(name: str) -> Callable[[Span], bool]:
        return lambda span: span.name == name

    def outermost(name: str) -> list[Span]:
        return index.outermost(called(name))

    def total(name: str) -> float:
        return float(sum(span.duration for span in outermost(name)))

    def linalg_inside(op: str, layer: str) -> list[Span]:
        return [span for span in index.spans if span.name == f"linalg.{op}"
                and index.has_ancestor(span, called(layer))]

    for metric, name in (
        ("data.sample_s", "data.sample"), ("core.fit_s", "core.fit"),
        ("core.tangential_s", "core.tangential"), ("core.pencil_s", "core.pencil"),
        ("core.profile_s", "core.profile"), ("core.realization_s", "core.realization"),
        ("systems.plan_s", "systems.plan"), ("systems.eval_s", "systems.eval"),
        ("metrics.errors_s", "metrics.errors"),
        ("metrics.time_domain_s", "metrics.time_domain"),
        ("enforce.s", "enforce"), ("enforce.margin_s", "enforce.margin"),
        ("enforce.refine_s", "enforce.refine"),
        ("cache.fingerprint_s", "cache.fingerprint"),
        ("batch.run_s", "batch.run"), ("batch.job_s", "batch.job"),
        ("serve.encode_s", "serve.encode"), ("serve.decode_s", "serve.decode"),
    ):
        metrics[metric] = total(name)

    metrics["data.solve_calls"] = len(linalg_inside("solve", "data.sample"))
    metrics["core.fits"] = len(outermost("core.fit"))
    metrics["core.svd_calls"] = sum(
        1 for span in index.spans
        if span.name == "core.economic_svd" and index.has_ancestor(span, called("core.fit")))
    plans = [span for span in index.spans if span.name == "systems.plan"]
    metrics["systems.plan_builds"] = len(plans)
    metrics["systems.eig_calls"] = len(linalg_inside("eig", "systems.plan"))
    metrics["systems.eval_points"] = sum(
        span.attrs.get("points", 0) for span in outermost("systems.eval"))
    lstsq = linalg_inside("lstsq", "enforce")
    metrics["enforce.lstsq_calls"] = len(lstsq)
    metrics["enforce.lstsq_s"] = float(sum(span.duration for span in lstsq))
    metrics["enforce.lstsq_rows"] = sum(span.attrs.get("rows", 0) for span in lstsq)
    metrics["cache.fit_lookup_s"] = float(sum(
        index.self_time(span) for span in index.spans if span.name == "cache.fit"))
    metrics["cache.fingerprint_calls"] = sum(
        1 for span in index.spans if span.name == "cache.fingerprint")
    metrics["serve.request_bytes"] = sum(
        span.attrs.get("request_bytes", 0) for span in index.spans)
    metrics["serve.response_bytes"] = sum(
        span.attrs.get("response_bytes", 0) for span in index.spans)
    metrics["serve.queue_wait_s"] = float(sum(
        span.attrs.get("queue_wait", 0.0) for span in index.spans if span.name == "batch.job"))
    return metrics


def record_metrics(result, jobs) -> dict[str, float]:
    """Per-layer metrics read off a :class:`~repro.batch.results.BatchResult`
    of a serial engine run; ``batch.job_s`` is the records' own ``run_job``
    timer."""
    metrics = zero_metrics()
    records = result.records
    metrics["cache.fit_hits"] = result.n_cache_hits
    metrics["cache.fit_misses"] = result.n_cache_misses
    metrics["cache.response_hits"] = result.n_response_hits
    metrics["cache.response_misses"] = result.n_response_misses
    certified = [record for record in records if record.passivity]
    with_spec = sum(1 for job in jobs if job.passivity is not None)
    metrics["enforce.iterations"] = float(sum(
        record.passivity.get("iterations", 0.0) for record in certified))
    metrics["enforce.certified_frac"] = len(certified) / with_spec if with_spec else 0.0
    wall = result.wall_seconds
    busy = sum(record.elapsed_seconds for record in records)
    metrics["batch.job_s"] = busy
    metrics["batch.overhead_s"] = wall - busy  # the one worker ran every job
    metrics["batch.worker_busy_frac"] = busy / wall if wall > 0 else 0.0
    return metrics


def without(metrics: dict[str, float], *names: str) -> dict[str, float]:
    """``metrics`` minus the named entries and every entry under a ``prefix.``."""
    return {name: value for name, value in metrics.items()
            if name not in names and not name.startswith(tuple(n + "." for n in names))}


def median_each(passes: list[dict[str, float]]) -> dict[str, float]:
    """Each metric's median over several traced passes (counts agree exactly)."""
    return {name: median([metrics[name] for metrics in passes]) for name in passes[0]}


def combine(*parts: dict[str, float]) -> dict[str, float]:
    """Sum additive metrics from several sources, then derive the ratios."""
    metrics = zero_metrics()
    for part in parts:
        for name, value in part.items():
            if name not in RATIOS:
                metrics[name] += value
    for name, (numerator, denominator) in RATIOS.items():
        names = denominator if isinstance(denominator, tuple) else (denominator,)
        base = sum(metrics[part] for part in names)
        metrics[name] = metrics[numerator] / base if base else 0.0
    return metrics
