"""Converting :class:`~repro.core.results.MacromodelResult` to/from payloads.

A cached fit is stored as a *payload*: a dict of numpy arrays (the recovered
system matrices and the realization's singular values -- everything that
must round-trip bitwise) plus a JSON-safe metadata dict (method, diagnostics,
front-end metadata).  Both stores persist the same payload, so memory- and
disk-cached fits are reconstructed by exactly the same code.

The tangential data is deliberately *not* stored: it is derivable by
re-running the fit, it dominates the result's footprint, and no downstream
consumer of a cached fit (error metrics, tables, model export) reads it.  A
reconstructed result therefore carries ``tangential=None`` and a system
whose evaluation plan is built on its first sweep: the form every batch
record delivers, whichever path made it (:func:`~repro.batch.jobs.run_job`
drops both from a fresh fit once the job is scored).  No result keeps
its Loewner pencil; ``build_loewner_pencil(result.tangential)`` rebuilds it
from a fresh fit.

Not every result is serializable (front-ends may attach arbitrary metadata);
:exc:`UncacheableResultError` signals "skip caching this one", never a user
error.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.core.realization import RealizationDiagnostics
from repro.core.results import MacromodelResult, RecursiveDiagnostics, RecursiveIteration

__all__ = [
    "UncacheableResultError",
    "result_to_payload",
    "payload_to_result",
    "PAYLOAD_SCHEMA_VERSION",
]

#: Bump whenever the payload layout changes; loads reject other schemas.
#: v2: every evaluation memo is computed through the vectorized sweep
#: kernel -- pre-kernel entries must not replay as if they were fresh fits.
#: v3: fits no longer carry the Fig.-1 singular-value profiles (``sv__*``).
#: v4: evaluation plans of real systems run in real arithmetic, so memoized
#: sweep errors moved at round-off -- v3 entries must not replay them.
#: v5: error norms come from the spectral-norm kernel instead of a stacked
#: SVD, so memoized sweep errors moved at round-off again.
#: v6: the real transform is applied pair by pair and the two-sided SVDs run
#: on triangular QR factors, so fitted models moved at round-off -- v5
#: entries must not replay as if they were fresh fits.
#: v7: evaluation plans take their shift from the system instead of from the
#: first grid swept, so memoized sweep errors moved at round-off again.
#: v8: plan sweeps contract the Cauchy weights against the rank-1 residues in
#: one GEMM, so memoized sweep errors moved at round-off again.
#: v9: recursive fits report every sampled frequency they were realized from
#: as ``n_samples_used`` instead of the selected pairs.
PAYLOAD_SCHEMA_VERSION = 9


class UncacheableResultError(TypeError):
    """The result holds data the cache cannot faithfully serialize."""


def _encode_meta_value(value) -> Any:
    """Encode one metadata value into tagged JSON (exact float round-trip)."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, (complex, np.complexfloating)):
        value = complex(value)
        return {"__complex__": [value.real, value.imag]}
    if isinstance(value, tuple):
        return {"__tuple__": [_encode_meta_value(entry) for entry in value]}
    if isinstance(value, list):
        return [_encode_meta_value(entry) for entry in value]
    if isinstance(value, dict):
        if not all(isinstance(key, str) for key in value):
            raise UncacheableResultError("metadata dict keys must be strings")
        return {key: _encode_meta_value(entry) for key, entry in value.items()}
    if isinstance(value, RecursiveDiagnostics):
        return {"__recursion__": {
            "converged": value.converged,
            "threshold": value.threshold,
            "iterations": [
                {
                    "iteration": it.iteration,
                    "n_samples_used": it.n_samples_used,
                    "model_order": it.model_order,
                    "holdout_error_mean": it.holdout_error_mean,
                    "holdout_error_max": it.holdout_error_max,
                }
                for it in value.iterations
            ],
        }}
    raise UncacheableResultError(
        f"metadata value of type {type(value).__name__} has no cache serialization"
    )


def _decode_meta_value(value) -> Any:
    """Invert :func:`_encode_meta_value`."""
    if isinstance(value, list):
        return [_decode_meta_value(entry) for entry in value]
    if isinstance(value, dict):
        if "__complex__" in value:
            real, imag = value["__complex__"]
            return complex(real, imag)
        if "__tuple__" in value:
            return tuple(_decode_meta_value(entry) for entry in value["__tuple__"])
        if "__recursion__" in value:
            payload = value["__recursion__"]
            return RecursiveDiagnostics(
                iterations=tuple(
                    RecursiveIteration(**iteration) for iteration in payload["iterations"]
                ),
                converged=payload["converged"],
                threshold=payload["threshold"],
            )
        return {key: _decode_meta_value(entry) for key, entry in value.items()}
    return value


def result_to_payload(result: MacromodelResult) -> tuple[dict[str, np.ndarray], dict[str, Any]]:
    """Split a result into ``(arrays, meta)``: numpy payload + JSON-safe metadata.

    ``result.metadata["options"]`` is excluded -- the cache key already pins
    the options, and the caller re-attaches the normalised options object on
    reconstruction (see :func:`repro.cache.fit_with_cache`).

    Raises
    ------
    UncacheableResultError
        If the metadata holds values without a faithful serialization.
    """
    arrays: dict[str, np.ndarray] = {
        "E": np.asarray(result.system.E),
        "A": np.asarray(result.system.A),
        "B": np.asarray(result.system.B),
        "C": np.asarray(result.system.C),
        "D": np.asarray(result.system.D),
    }
    realization = None
    if result.realization is not None:
        diag = result.realization
        arrays["realization_singular_values"] = np.asarray(diag.singular_values)
        realization = {
            "order": diag.order,
            "x0": _encode_meta_value(diag.x0),
            "mode": diag.mode,
            "rank_tolerance": diag.rank_tolerance,
        }

    metadata = {key: value for key, value in result.metadata.items() if key != "options"}
    meta = {
        "schema_version": PAYLOAD_SCHEMA_VERSION,
        "method": result.method,
        "n_samples_used": result.n_samples_used,
        "elapsed_seconds": result.elapsed_seconds,
        "order": result.order,
        "realization": realization,
        "metadata": _encode_meta_value(metadata),
    }
    return arrays, meta


def payload_to_result(
    arrays: dict[str, np.ndarray],
    meta: dict[str, Any],
    *,
    options=None,
) -> MacromodelResult:
    """Reconstruct a :class:`MacromodelResult` from a stored payload.

    Parameters
    ----------
    arrays, meta:
        The two halves produced by :func:`result_to_payload`.
    options:
        The (normalised) options object of the fit; re-attached under
        ``metadata["options"]`` exactly like a fresh fit records it.

    Raises
    ------
    ValueError
        On schema mismatches or missing arrays -- stores catch this and
        treat the entry as corrupt (a miss), never as a user error.
    """
    version = int(meta.get("schema_version", -1))
    if version != PAYLOAD_SCHEMA_VERSION:
        raise ValueError(
            f"cached fit uses payload schema {version}, expected {PAYLOAD_SCHEMA_VERSION}"
        )
    missing = {"E", "A", "B", "C", "D"} - set(arrays)
    if missing:
        raise ValueError(f"cached fit payload is missing matrices: {sorted(missing)}")

    from repro.systems.statespace import DescriptorSystem

    system = DescriptorSystem(arrays["E"], arrays["A"], arrays["B"], arrays["C"], arrays["D"])

    realization: Optional[RealizationDiagnostics] = None
    if meta.get("realization") is not None:
        spec = meta["realization"]
        realization = RealizationDiagnostics(
            order=int(spec["order"]),
            singular_values=np.asarray(arrays["realization_singular_values"]),
            x0=_decode_meta_value(spec["x0"]),
            mode=spec["mode"],
            rank_tolerance=spec["rank_tolerance"],
        )

    metadata = _decode_meta_value(meta.get("metadata", {}))
    if options is not None:
        metadata.setdefault("options", options)
    return MacromodelResult(
        system=system,
        method=meta["method"],
        realization=realization,
        tangential=None,
        n_samples_used=int(meta["n_samples_used"]),
        elapsed_seconds=float(meta["elapsed_seconds"]),
        metadata=metadata,
    )
