"""Cross-machine sharding of batch runs: plan, manifest, shard results, merge.

The batch engine's chunk layer is already deterministic -- a batch is a list
of independent :class:`~repro.batch.jobs.FitJob` whose records only depend on
job content, never on scheduling.  This module scales that property across
machines:

* :class:`ShardPlan` -- a deterministic assignment of jobs to ``n`` shards.
  Jobs are identified by content (:func:`job_fingerprint`, built on the cache
  fingerprints), ordered by that hash and split into contiguous chunks with
  the engine's own :func:`~repro.batch.engine.contiguous_chunks`, so the
  assignment is stable under permutation of the submitted job list and
  roughly balanced without any coordination.
* **Shard manifests** -- one versioned JSON document per shard
  (:func:`write_manifests`): the plan fingerprint, the shard's jobs as
  :func:`~repro.batch.jobs.job_to_document` documents with their batch
  index, and the shared cache directory.  A manifest is everything a worker
  machine needs to know *which* jobs to run and to verify it rebuilt exactly
  those jobs.
* **Shard runner** -- :func:`run_shard` validates the rebuilt jobs against
  the manifest (any drift in workload builders or options encoding is an
  error, never silent corruption) and executes the shard's subset through a
  regular :class:`~repro.batch.engine.BatchEngine` -- any executor, cache
  attached -- with every record kept at its *original* batch index.
* **Shard result files** -- :func:`write_shard_result` /
  :func:`read_shard_result` persist a shard's :class:`BatchResult` as one
  ``.npz`` file (numerical payloads via the cache serialization, bitwise
  round-trip; each record's scalars as its
  :func:`~repro.batch.jobs.record_to_document` document).
* :func:`merge_shard_results` -- validates the shard files against each
  other (same plan fingerprint, same schema, same BLAS thread count, no
  missing / duplicate jobs) and reassembles one :class:`BatchResult` whose
  record order and numerical payloads are identical to the single-process
  run of the same batch at that thread count.

Datasets deliberately never travel inside manifests: shards rebuild their
jobs from a *named workload grid* (:data:`repro.experiments.workloads.
WORKLOADS`), which is deterministic by construction, and the manifest's job
fingerprints prove the rebuild reproduced the planned content.  With a
shared-filesystem :class:`~repro.cache.DiskStore` as ``cache_dir``, shards
additionally reuse each other's fits for free.

The ``python -m repro shard`` CLI (:mod:`repro.cli`) drives the plan / run
/ merge cycle from the command line; see the README's "Sharding across
machines" section for the workflow.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
from dataclasses import dataclass
from typing import Any, Iterable, Optional, Sequence, Union

import numpy as np

from repro.batch.engine import BatchEngine, contiguous_chunks
from repro.batch.jobs import (
    FitJob,
    JobRecord,
    job_fingerprint,
    job_to_document,
    record_from_document,
    record_to_document,
)
from repro.batch.results import BatchResult
from repro.cache.fingerprint import combined_fingerprint
from repro.cache.fitcache import FitCache
from repro.cache.serialization import (
    PAYLOAD_SCHEMA_VERSION,
    payload_to_result,
    result_to_payload,
)
from repro.utils.blas import blas_threads

__all__ = [
    "ShardError",
    "ShardPlan",
    "ShardResult",
    "plan_fingerprint",
    "plan_shards",
    "write_manifests",
    "load_manifest",
    "validate_manifest",
    "manifest_name",
    "shard_result_name",
    "run_shard",
    "write_shard_result",
    "read_shard_result",
    "merge_shard_results",
    "MANIFEST_FORMAT",
    "SHARD_RESULT_FORMAT",
    "SHARD_SCHEMA_VERSION",
]

#: ``format`` marker of manifest documents (rejects arbitrary JSON files).
MANIFEST_FORMAT = "repro-shard-manifest"
#: ``format`` marker of shard result files.
SHARD_RESULT_FORMAT = "repro-shard-result"
#: Bump whenever the manifest or shard-result layout changes; mixing schema
#: versions across machines is a validation error, never silent corruption.
#: Version 2 moved job and record entries onto the shared document codec of
#: :mod:`repro.batch.jobs`; version 3 records the runner's BLAS thread count.
SHARD_SCHEMA_VERSION = 3

#: Key of the JSON metadata blob inside a shard-result ``.npz`` archive.
_META_KEY = "__shard_meta__"
#: Per-record array-name prefix inside a shard-result archive.
_RECORD_PREFIX = "record"


class ShardError(ValueError):
    """A manifest or shard result failed validation (wrong plan, schema, jobs)."""


# --------------------------------------------------------------------------- #
# the plan
# --------------------------------------------------------------------------- #
def plan_fingerprint(job_ids: Sequence[str], n_shards: int) -> str:
    """Digest pinning one shard plan: schema, shard count and the ordered jobs.

    The *submission order* of the job ids is part of the digest -- merging
    reassembles records in exactly this order, so two plans over the same
    jobs in different orders are different plans (while the shard
    *assignment* itself is order-independent, see :class:`ShardPlan`).
    """
    return combined_fingerprint("shard-plan", [
        f"schema:{SHARD_SCHEMA_VERSION}",
        f"shards:{int(n_shards)}",
        *job_ids,
    ])


@dataclass(frozen=True)
class ShardPlan:
    """Deterministic assignment of a batch's jobs to ``n_shards`` shards.

    Attributes
    ----------
    n_shards:
        Number of shards the batch is split into (shards may be empty when
        there are fewer jobs than shards).
    job_ids:
        One :func:`job_fingerprint` per job, in submission order.
    assignments:
        The shard index of every job, in submission order.
    fingerprint:
        :func:`plan_fingerprint` of this plan; manifests and shard results
        carry it, and :func:`merge_shard_results` refuses to mix documents
        with different fingerprints.

    The assignment rule is *hash-ordered contiguous chunking*: jobs are
    sorted by their content fingerprint (ties broken by submission index,
    which only ever applies to identical jobs) and the sorted list is split
    into ``ceil(n_jobs / n_shards)``-sized contiguous chunks with the
    engine's :func:`~repro.batch.engine.contiguous_chunks`.  Consequences:

    * every job lands in exactly one shard,
    * permuting the submitted job list never changes which shard a given
      job's *content* lands in (the sort erases submission order),
    * shard sizes differ by at most the chunk size, with no coordination.
    """

    n_shards: int
    job_ids: tuple[str, ...]
    assignments: tuple[int, ...]
    fingerprint: str

    @classmethod
    def from_job_ids(cls, job_ids: Iterable[str], n_shards: int) -> "ShardPlan":
        """Build a plan from precomputed job fingerprints."""
        ids = tuple(str(job_id) for job_id in job_ids)
        if n_shards < 1:
            raise ShardError(f"n_shards must be >= 1, got {n_shards}")
        order = sorted(range(len(ids)), key=lambda index: (ids[index], index))
        chunk = max(1, -(-len(ids) // n_shards))
        assignments = [0] * len(ids)
        for shard, members in enumerate(contiguous_chunks(order, chunk)):
            for index in members:
                assignments[index] = shard
        return cls(
            n_shards=int(n_shards),
            job_ids=ids,
            assignments=tuple(assignments),
            fingerprint=plan_fingerprint(ids, n_shards),
        )

    @classmethod
    def from_jobs(cls, jobs: Sequence[FitJob], n_shards: int) -> "ShardPlan":
        """Fingerprint ``jobs`` and build the plan over them."""
        return cls.from_job_ids([job_fingerprint(job) for job in jobs], n_shards)

    @property
    def n_jobs(self) -> int:
        """Number of planned jobs."""
        return len(self.job_ids)

    def indices_for(self, shard: int) -> tuple[int, ...]:
        """Submission indices of the jobs assigned to ``shard`` (ascending)."""
        if not 0 <= shard < self.n_shards:
            raise ShardError(f"shard index must be in [0, {self.n_shards}), got {shard}")
        return tuple(
            index for index, assigned in enumerate(self.assignments) if assigned == shard
        )


def plan_shards(jobs: Sequence[FitJob], n_shards: int) -> ShardPlan:
    """Plan ``jobs`` onto ``n_shards`` shards: :meth:`ShardPlan.from_jobs`."""
    return ShardPlan.from_jobs(jobs, n_shards)


# --------------------------------------------------------------------------- #
# manifests
# --------------------------------------------------------------------------- #
def manifest_name(shard: int, n_shards: int) -> str:
    """Canonical file name of one shard manifest."""
    return f"shard-{shard:03d}-of-{n_shards:03d}.manifest.json"


def shard_result_name(shard: int, n_shards: int) -> str:
    """Canonical file name of one shard result archive."""
    return f"shard-{shard:03d}-of-{n_shards:03d}.result.npz"


def write_manifests(
    plan: ShardPlan,
    jobs: Sequence[FitJob],
    out_dir: Union[str, os.PathLike],
    *,
    workload: Optional[str] = None,
    workload_kwargs: Optional[dict[str, Any]] = None,
    cache_dir: Optional[str] = None,
) -> list[str]:
    """Write one manifest per shard under ``out_dir``; returns the paths.

    ``workload`` / ``workload_kwargs`` name the entry point of
    :data:`repro.experiments.workloads.WORKLOADS` the jobs were built from,
    so the CLI's ``run`` step can rebuild them on another machine (kwargs
    must be JSON-safe).  ``cache_dir`` is recorded verbatim; point it at a
    shared filesystem and every shard runner attaches the same
    :class:`~repro.cache.DiskStore`.
    """
    if len(jobs) != plan.n_jobs:
        raise ShardError(f"plan covers {plan.n_jobs} jobs, got {len(jobs)}")
    for index, job in enumerate(jobs):
        if job_fingerprint(job) != plan.job_ids[index]:
            raise ShardError(
                f"job {index} ({job.label!r}) does not match the plan fingerprint; "
                "was the job list modified after planning?"
            )
    out_dir = os.fspath(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for shard in range(plan.n_shards):
        manifest = {
            "format": MANIFEST_FORMAT,
            "schema_version": SHARD_SCHEMA_VERSION,
            "plan_fingerprint": plan.fingerprint,
            "shard_index": shard,
            "n_shards": plan.n_shards,
            "n_jobs_total": plan.n_jobs,
            "workload": (
                {"name": workload, "kwargs": dict(workload_kwargs or {})}
                if workload
                else None
            ),
            "cache_dir": cache_dir,
            "jobs": [
                {"index": index, **job_to_document(jobs[index])}
                for index in plan.indices_for(shard)
            ],
        }
        path = os.path.join(out_dir, manifest_name(shard, plan.n_shards))
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")
        paths.append(path)
    return paths


def validate_manifest(manifest: dict) -> dict:
    """Structural validation of one manifest document; returns it unchanged.

    Raises
    ------
    ShardError
        On wrong format markers, schema mismatches, out-of-range shard or
        job indices, or duplicate job indices within the manifest.
    """
    if not isinstance(manifest, dict) or manifest.get("format") != MANIFEST_FORMAT:
        raise ShardError(f"not a shard manifest (format marker {MANIFEST_FORMAT!r} missing)")
    version = manifest.get("schema_version")
    if version != SHARD_SCHEMA_VERSION:
        raise ShardError(
            f"manifest uses schema {version!r}, this build supports {SHARD_SCHEMA_VERSION}"
        )
    for key in ("plan_fingerprint", "shard_index", "n_shards", "n_jobs_total", "jobs"):
        if key not in manifest:
            raise ShardError(f"manifest is missing required key {key!r}")
    n_shards, n_total = manifest["n_shards"], manifest["n_jobs_total"]
    if not 0 <= manifest["shard_index"] < n_shards:
        raise ShardError(
            f"shard_index {manifest['shard_index']} out of range for {n_shards} shards"
        )
    seen: set[int] = set()
    for spec in manifest["jobs"]:
        for key in ("index", "job_id", "method"):
            if key not in spec:
                raise ShardError(f"manifest job spec is missing required key {key!r}")
        index = spec["index"]
        if not 0 <= index < n_total:
            raise ShardError(f"job index {index} out of range for {n_total} jobs")
        if index in seen:
            raise ShardError(f"manifest lists job index {index} twice")
        seen.add(index)
    return manifest


def load_manifest(path: Union[str, os.PathLike]) -> dict:
    """Read and validate one manifest file."""
    try:
        with open(os.fspath(path), encoding="utf-8") as handle:
            manifest = json.load(handle)
    except OSError as exc:
        raise ShardError(f"cannot read manifest {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ShardError(f"manifest {path} is not valid JSON: {exc}") from exc
    return validate_manifest(manifest)


# --------------------------------------------------------------------------- #
# the per-shard runner
# --------------------------------------------------------------------------- #
def run_shard(
    manifest: dict,
    jobs: Sequence[FitJob],
    *,
    engine: Optional[BatchEngine] = None,
    cache: Optional[FitCache] = None,
) -> BatchResult:
    """Execute one manifest's jobs through a :class:`BatchEngine`.

    ``jobs`` is the *full* rebuilt batch (e.g. from the named workload grid
    the manifest references); the runner selects the manifest's subset and
    verifies each selected job's :func:`job_fingerprint` against its spec --
    a drifted workload builder or options encoding fails loudly here instead
    of merging corrupt results later.  Records keep their original batch
    indices, which is what makes the eventual merge order-exact.

    The cache is resolved in precedence order: explicit ``cache`` argument,
    then the engine's own cache, then the manifest's ``cache_dir`` (attached
    as a :class:`~repro.cache.DiskStore`-backed cache).
    """
    validate_manifest(manifest)
    if len(jobs) != manifest["n_jobs_total"]:
        raise ShardError(
            f"manifest plans {manifest['n_jobs_total']} jobs, rebuilt batch has {len(jobs)}"
        )
    engine = engine if engine is not None else BatchEngine()
    if cache is None and engine.cache is None and manifest.get("cache_dir"):
        cache = FitCache.on_disk(manifest["cache_dir"])
    if cache is not None:
        engine = dataclasses.replace(engine, cache=cache)

    indices, subset = [], []
    for spec in manifest["jobs"]:
        index = spec["index"]
        job = jobs[index]
        actual = job_fingerprint(job)
        if actual != spec["job_id"]:
            raise ShardError(
                f"rebuilt job {index} ({job.label!r}) does not match its manifest spec "
                f"({actual[:12]}... != {spec['job_id'][:12]}...); the workload grid "
                "drifted since the plan was written"
            )
        indices.append(index)
        subset.append(job)
    return engine.run(subset, indices=indices)


# --------------------------------------------------------------------------- #
# shard result files
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ShardResult:
    """One shard's :class:`BatchResult` plus the plan identity it belongs to.

    ``blas_threads`` is the runner's OpenBLAS thread count
    (:func:`~repro.utils.blas.blas_threads`; ``None`` where it cannot be
    read): fits round differently under different counts, so shards that
    disagree on it do not merge.
    """

    plan_fingerprint: str
    shard_index: int
    n_shards: int
    n_jobs_total: int
    result: BatchResult
    blas_threads: Optional[int] = None


def write_shard_result(
    path: Union[str, os.PathLike], manifest: dict, result: BatchResult
) -> str:
    """Persist one shard's result as a single ``.npz`` archive; returns ``path``.

    The archive holds the JSON metadata blob (plan identity, the writing
    process's BLAS thread count, one
    :func:`~repro.batch.jobs.record_to_document` document per record) plus
    every successful record's numerical payload through the cache
    serialization (:func:`repro.cache.result_to_payload`), so a read-back
    record is bitwise-identical in everything the batch layer compares.  The
    write is atomic (temp file + ``os.replace``), matching the disk-cache
    discipline.

    Raises
    ------
    ShardError
        If the result's records do not match the manifest's job indices.
    repro.cache.UncacheableResultError
        If a record's result holds metadata without a faithful
        serialization -- such a result cannot ship across machines.
    """
    validate_manifest(manifest)
    planned = sorted(spec["index"] for spec in manifest["jobs"])
    actual = sorted(record.index for record in result.records)
    if planned != actual:
        raise ShardError(
            f"shard result covers indices {actual}, manifest plans {planned}"
        )
    arrays: dict[str, np.ndarray] = {}
    records_meta = []
    for record in result.records:
        meta = {**record_to_document(record), "result_meta": None}
        if record.result is not None:
            payload_arrays, meta["result_meta"] = result_to_payload(record.result)
            for name, array in payload_arrays.items():
                arrays[f"{_RECORD_PREFIX}{record.index:06d}__{name}"] = array
        records_meta.append(meta)
    document = {
        "format": SHARD_RESULT_FORMAT,
        "schema_version": SHARD_SCHEMA_VERSION,
        "payload_schema_version": PAYLOAD_SCHEMA_VERSION,
        "plan_fingerprint": manifest["plan_fingerprint"],
        "shard_index": manifest["shard_index"],
        "n_shards": manifest["n_shards"],
        "n_jobs_total": manifest["n_jobs_total"],
        "blas_threads": blas_threads(),
        "executor": result.executor,
        "n_workers": result.n_workers,
        "chunk_size": result.chunk_size,
        "wall_seconds": result.wall_seconds,
        "records": records_meta,
    }
    arrays[_META_KEY] = np.frombuffer(
        json.dumps(document, sort_keys=True).encode(), dtype=np.uint8
    )
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    handle = tempfile.NamedTemporaryFile(
        dir=directory, prefix=os.path.basename(path) + ".tmp", delete=False
    )
    try:
        with handle:
            np.savez_compressed(handle, **arrays)
        os.replace(handle.name, path)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise
    return path


def read_shard_result(path: Union[str, os.PathLike]) -> ShardResult:
    """Load one shard result archive written by :func:`write_shard_result`.

    Unlike the disk cache -- where an unreadable entry is just a miss -- a
    shard result is the *only* copy of that shard's work, so every defect
    (missing metadata, wrong format marker, schema or payload-schema
    mismatch) raises :class:`ShardError`.
    """
    path = os.fspath(path)
    try:
        with np.load(path, allow_pickle=False) as archive:
            arrays = {name: archive[name] for name in archive.files}
    except Exception as exc:
        raise ShardError(f"cannot read shard result {path}: {exc}") from exc
    if _META_KEY not in arrays:
        raise ShardError(f"shard result {path} has no {_META_KEY} metadata blob")
    try:
        document = json.loads(arrays.pop(_META_KEY).tobytes().decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ShardError(f"shard result {path} holds corrupt metadata: {exc}") from exc
    if document.get("format") != SHARD_RESULT_FORMAT:
        raise ShardError(f"{path} is not a shard result (format marker missing)")
    if document.get("schema_version") != SHARD_SCHEMA_VERSION:
        raise ShardError(
            f"shard result {path} uses schema {document.get('schema_version')!r}, "
            f"this build supports {SHARD_SCHEMA_VERSION}"
        )
    if document.get("payload_schema_version") != PAYLOAD_SCHEMA_VERSION:
        raise ShardError(
            f"shard result {path} carries payload schema "
            f"{document.get('payload_schema_version')!r}, "
            f"this build supports {PAYLOAD_SCHEMA_VERSION}"
        )

    per_record: dict[int, dict[str, np.ndarray]] = {}
    for name, array in arrays.items():
        prefix, sep, payload_name = name.partition("__")
        try:
            index = int(prefix[len(_RECORD_PREFIX):]) if (
                sep and prefix.startswith(_RECORD_PREFIX)) else None
        except ValueError:
            index = None
        if index is None:
            raise ShardError(f"shard result {path} holds unexpected array {name!r}")
        per_record.setdefault(index, {})[payload_name] = array

    records = []
    for meta in document["records"]:
        try:
            # the shipped payload pins the options by fingerprint, not by
            # object, so the rebuilt result carries no metadata["options"]
            result = (
                payload_to_result(per_record.get(int(meta["index"]), {}),
                                  meta["result_meta"], options=None)
                if meta["result_meta"] is not None
                else None
            )
            records.append(record_from_document(meta, result))
        except (KeyError, TypeError, ValueError) as exc:
            raise ShardError(
                f"shard result {path} record {meta.get('index')!r} is corrupt: {exc}"
            ) from exc
    records.sort(key=lambda record: record.index)
    return ShardResult(
        plan_fingerprint=document["plan_fingerprint"],
        shard_index=int(document["shard_index"]),
        n_shards=int(document["n_shards"]),
        n_jobs_total=int(document["n_jobs_total"]),
        blas_threads=document.get("blas_threads"),
        result=BatchResult(
            records=tuple(records),
            executor=document["executor"],
            n_workers=int(document["n_workers"]),
            chunk_size=int(document["chunk_size"]),
            wall_seconds=float(document["wall_seconds"]),
        ),
    )


# --------------------------------------------------------------------------- #
# the merge step
# --------------------------------------------------------------------------- #
def merge_shard_results(
    shards: Iterable[Union[ShardResult, str, os.PathLike]],
) -> BatchResult:
    """Reassemble one :class:`BatchResult` from every shard of a planned run.

    Accepts :class:`ShardResult` objects or paths to shard result files, in
    any order.  Validation before any merging happens:

    * all shards must carry the same plan fingerprint, shard count and total
      job count (mixing runs of different plans is the classic silent-merge
      corruption this layer exists to prevent),
    * all shards must report the same BLAS thread count (fits round
      differently under different counts, so such a merge would match no
      single-process run),
    * no shard index may appear twice,
    * the union of record indices must be exactly ``0 .. n_jobs_total - 1``
      -- a missing or duplicated job is an error, never a shorter result.

    The merged result's records are ordered by their original batch index,
    so record order and numerical payloads match the unsharded run exactly;
    the execution envelope reports ``executor="sharded(<n>)"``, the summed
    worker count, and the slowest shard's wall clock (shards run on
    different machines, so the batch finishes when the last one does).
    """
    loaded = [
        shard if isinstance(shard, ShardResult) else read_shard_result(shard)
        for shard in shards
    ]
    if not loaded:
        raise ShardError("no shard results to merge")
    reference = loaded[0]
    seen_shards: set[int] = set()
    for shard in loaded:
        if shard.plan_fingerprint != reference.plan_fingerprint:
            raise ShardError(
                "cannot merge shard results from different plans: "
                f"{shard.plan_fingerprint[:12]}... != {reference.plan_fingerprint[:12]}..."
            )
        if (shard.n_shards, shard.n_jobs_total) != (
            reference.n_shards,
            reference.n_jobs_total,
        ):
            raise ShardError(
                "shard results disagree on the plan shape: "
                f"({shard.n_shards} shards, {shard.n_jobs_total} jobs) vs "
                f"({reference.n_shards} shards, {reference.n_jobs_total} jobs)"
            )
        if shard.blas_threads != reference.blas_threads:
            raise ShardError(
                "shard results were computed under different BLAS threading: "
                f"shard {shard.shard_index} ran {shard.blas_threads} OpenBLAS thread(s), "
                f"shard {reference.shard_index} ran {reference.blas_threads}; rerun the "
                "shards with one OPENBLAS_NUM_THREADS"
            )
        if shard.shard_index in seen_shards:
            raise ShardError(f"shard index {shard.shard_index} appears twice")
        seen_shards.add(shard.shard_index)

    records: dict[int, JobRecord] = {}
    for shard in loaded:
        for record in shard.result.records:
            if record.index in records:
                raise ShardError(f"job index {record.index} appears in two shards")
            records[record.index] = record
    missing = sorted(set(range(reference.n_jobs_total)) - set(records))
    if missing:
        raise ShardError(
            f"merged run is missing job indices {missing}; "
            f"got {len(loaded)}/{reference.n_shards} shards"
        )
    extra = sorted(set(records) - set(range(reference.n_jobs_total)))
    if extra:
        raise ShardError(f"shard results carry out-of-plan job indices {extra}")
    ordered = tuple(records[index] for index in sorted(records))
    return BatchResult(
        records=ordered,
        executor=f"sharded({reference.n_shards})",
        n_workers=sum(shard.result.n_workers for shard in loaded),
        chunk_size=0,
        wall_seconds=max(shard.result.wall_seconds for shard in loaded),
    )
