"""Content-addressed fingerprints for datasets and fit configurations.

A fit is fully determined by *what* is interpolated (the
:class:`~repro.data.dataset.FrequencyData`) and *how* (the method name plus
its options).  Both halves are hashed into short hex digests:

* :func:`dataset_fingerprint` hashes the numerical content -- frequencies,
  sample matrices (shape, dtype and bytes), parameter kind and reference
  impedance.  The free-form ``label`` is deliberately excluded: renaming a
  dataset must not invalidate cached fits.
* :func:`options_fingerprint` hashes the method name, the options class and
  the canonical field encoding of
  :meth:`~repro.core.options.InterpolationOptions.canonical_items`.
* :func:`fit_key` combines the two into the key the cache stores live under.

All digests are SHA-256 (truncation-free), so collisions are not a practical
concern and equal keys can be treated as equal fits.
"""

from __future__ import annotations

import hashlib
from typing import Optional

import numpy as np

from repro.core.options import InterpolationOptions
from repro.data.dataset import FrequencyData

__all__ = [
    "dataset_fingerprint",
    "grid_fingerprint",
    "system_fingerprint",
    "options_fingerprint",
    "fit_key",
    "evaluation_key",
    "combined_fingerprint",
]

#: Bump when the hashed representation changes so old digests cannot alias.
_FINGERPRINT_VERSION = 1


def _hash_array(digest: "hashlib._Hash", name: str, array: np.ndarray) -> None:
    """Feed one array into the digest: name, dtype, shape, then raw bytes."""
    array = np.ascontiguousarray(array)
    digest.update(f"{name}|{array.dtype.str}|{array.shape}|".encode())
    digest.update(array.tobytes())


def dataset_fingerprint(data: FrequencyData) -> str:
    """SHA-256 hex digest of the numerical content of ``data``.

    Two datasets get the same fingerprint iff they hold bitwise-identical
    frequencies and samples of the same shape, the same parameter kind and
    the same reference impedance -- regardless of label, array memory layout
    or whether the arrays are views or copies.

    The digest is memoized on the instance (safe: ``FrequencyData`` freezes
    its arrays read-only on construction), because every warm cache lookup
    hashes the dataset up to three times -- once for the fit key, once per
    memoized evaluation -- and many jobs share one dataset.
    """
    if not isinstance(data, FrequencyData):
        raise TypeError(f"expected FrequencyData, got {type(data).__name__}")
    memo = getattr(data, "_fingerprint_memo", None)
    if memo is not None:
        return memo
    digest = hashlib.sha256()
    digest.update(f"repro-dataset-v{_FINGERPRINT_VERSION}|".encode())
    digest.update(f"kind:{data.kind}|z0:{float(data.reference_impedance).hex()}|".encode())
    _hash_array(digest, "frequencies_hz", data.frequencies_hz)
    _hash_array(digest, "samples", data.samples)
    fingerprint = digest.hexdigest()
    object.__setattr__(data, "_fingerprint_memo", fingerprint)  # frozen dataclass
    return fingerprint


def grid_fingerprint(data: FrequencyData) -> str:
    """SHA-256 hex digest of *only* the frequency grid of ``data``.

    Two datasets that differ in samples, kind or reference impedance but
    share a bitwise-identical frequency axis get the same grid fingerprint.
    A model sweep ``model.frequency_response(data.frequencies_hz)`` depends
    on the grid alone, so a job whose data and reference share a grid
    sweeps its model once (:func:`~repro.batch.jobs.run_job` keys its
    per-job sweeps on this).  Memoized on the instance like
    :func:`dataset_fingerprint` (the arrays are frozen read-only).
    """
    if not isinstance(data, FrequencyData):
        raise TypeError(f"expected FrequencyData, got {type(data).__name__}")
    memo = getattr(data, "_grid_fingerprint_memo", None)
    if memo is not None:
        return memo
    digest = hashlib.sha256()
    digest.update(f"repro-grid-v{_FINGERPRINT_VERSION}|".encode())
    _hash_array(digest, "frequencies_hz", data.frequencies_hz)
    fingerprint = digest.hexdigest()
    object.__setattr__(data, "_grid_fingerprint_memo", fingerprint)  # frozen dataclass
    return fingerprint


def system_fingerprint(model) -> str:
    """SHA-256 hex digest of the numerical content of a fitted model.

    Accepts either realization the pipeline produces, duck-typed:

    * a descriptor system (``E``/``A``/``B``/``C``/``D`` matrices), or
    * a pole-residue model (``poles``/``residues`` and optional ``d`` term).

    Together with :func:`dataset_fingerprint` this addresses one score of
    the model against a dataset -- the response-cache key.

    The digest is memoized on the instance where the class allows attribute
    writes.  That is safe under the repo-wide convention that fitted models
    are immutable after construction (every transform builds a new object);
    callers that mutate a model in place must not rely on its fingerprint.
    """
    memo = getattr(model, "_system_fingerprint_memo", None)
    if memo is not None:
        return memo
    digest = hashlib.sha256()
    digest.update(f"repro-model-v{_FINGERPRINT_VERSION}|".encode())
    if all(hasattr(model, name) for name in ("E", "A", "B", "C")):
        digest.update(b"descriptor|")
        for name in ("E", "A", "B", "C"):
            _hash_array(digest, name, np.asarray(getattr(model, name)))
        feedthrough = getattr(model, "D", None)
        if feedthrough is not None:
            _hash_array(digest, "D", np.asarray(feedthrough))
    elif hasattr(model, "poles") and hasattr(model, "residues"):
        digest.update(b"pole-residue|")
        _hash_array(digest, "poles", np.asarray(model.poles))
        _hash_array(digest, "residues", np.asarray(model.residues))
        constant = getattr(model, "d", None)
        if constant is not None:
            _hash_array(digest, "d", np.asarray(constant))
    else:
        raise TypeError(
            f"cannot fingerprint {type(model).__name__}: expected a descriptor "
            "system (E/A/B/C[/D]) or a pole-residue model (poles/residues[/d])"
        )
    fingerprint = digest.hexdigest()
    try:
        object.__setattr__(model, "_system_fingerprint_memo", fingerprint)
    except (AttributeError, TypeError):
        pass  # __slots__ or otherwise write-protected: recompute next time
    return fingerprint


def options_fingerprint(method: str, options: Optional[InterpolationOptions]) -> str:
    """SHA-256 hex digest of one fit configuration (method name + options).

    ``None`` options hash like the method's defaults would, because the
    front-ends construct the default options object in that case; callers
    that want the exact equivalence should normalise first (as
    :func:`repro.cache.fit_with_cache` does).

    Raises
    ------
    TypeError
        If the options carry a value without a stable encoding (e.g. a live
        ``numpy.random.Generator`` seed).
    """
    digest = hashlib.sha256()
    digest.update(f"repro-options-v{_FINGERPRINT_VERSION}|method:{method}|".encode())
    if options is None:
        from repro.core._pipeline import frontend_spec

        options = frontend_spec(method).options_type()
    digest.update(f"type:{type(options).__name__}|".encode())
    for name, token in options.canonical_items():
        digest.update(f"{name}={token}|".encode())
    return digest.hexdigest()


def fit_key(data: FrequencyData, method: str, options: Optional[InterpolationOptions]) -> str:
    """The content-addressed key one fit is cached under."""
    digest = hashlib.sha256()
    digest.update(f"repro-fit-v{_FINGERPRINT_VERSION}|".encode())
    digest.update(dataset_fingerprint(data).encode())
    digest.update(b"|")
    digest.update(options_fingerprint(method, options).encode())
    return digest.hexdigest()


def combined_fingerprint(kind: str, parts) -> str:
    """SHA-256 digest of a namespaced, ordered sequence of textual parts.

    The generic combinator behind every *derived* fingerprint that is not a
    dataset or an options hash: the shard planner hashes job identities and
    whole shard plans through it (:mod:`repro.batch.sharding`).  ``kind``
    namespaces the digest (two different kinds can never collide even on
    identical parts) and shares the module-wide :data:`_FINGERPRINT_VERSION`,
    so bumping the fingerprint revision invalidates derived digests along
    with the primary ones.  Parts are length-prefixed, so free-form strings
    (labels, tag encodings) can never alias across part boundaries.
    """
    digest = hashlib.sha256()
    digest.update(f"repro-{kind}-v{_FINGERPRINT_VERSION}|".encode())
    for part in parts:
        if not isinstance(part, str):
            raise TypeError(f"fingerprint parts must be strings, got {type(part).__name__}")
        digest.update(f"{len(part)}:{part}|".encode())
    return digest.hexdigest()


def evaluation_key(fit: str, data: FrequencyData) -> str:
    """The key one model evaluation (aggregate error) is cached under.

    An aggregate error is a pure function of the recovered model and the
    data it is evaluated against; the model is pinned by its ``fit`` key, so
    ``(fit key, evaluation-dataset fingerprint)`` addresses the scalar.  This
    is what lets a *warm* batch sweep skip the (surprisingly dominant) model
    evaluations along with the fits themselves.
    """
    digest = hashlib.sha256()
    digest.update(f"repro-eval-v{_FINGERPRINT_VERSION}|".encode())
    digest.update(fit.encode())
    digest.update(b"|")
    digest.update(dataset_fingerprint(data).encode())
    return digest.hexdigest()
