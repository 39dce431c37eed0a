"""Aggregated results of a batch run: tables, selection helpers, JSON export.

The :class:`BatchResult` is the store every batch consumer works against: the
benchmarks render its summary table, the CI artifact step serialises it with
:meth:`BatchResult.save_json`, and sweep analyses filter records by tag.  The
JSON schema (``schema_version`` 5: version 4 plus the per-record
``responses`` hit/miss tally and the batch-level response-cache counters;
version 4 added the per-record ``passivity`` certificate dict; version 3 the
``time_domain`` metric dict) is deliberately small and stable -- per-record
scalars plus batch-level aggregates -- so perf-regression gates can diff
exports across commits.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from repro.batch.jobs import JobRecord

__all__ = ["BatchResult", "numerical_differences", "comparable_dict", "comparable_json"]

SCHEMA_VERSION = 5


def _json_safe(value):
    """Map non-finite floats (e.g. inf-valued tags) to ``None`` recursively.

    Keeps the export strictly RFC-valid: ``json.dumps`` would otherwise emit
    bare ``NaN`` / ``Infinity`` tokens that downstream parsers reject.
    """
    if isinstance(value, dict):
        return {key: _json_safe(entry) for key, entry in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(entry) for entry in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def numerical_differences(reference: "BatchResult", other: "BatchResult") -> list[str]:
    """Describe every numerical-payload mismatch between two batch runs.

    This is the engine's cross-executor determinism contract made executable:
    an empty list means the two runs are bitwise-identical in everything but
    timing (record identity/order, model order, system matrices, reference
    errors).  The tests and benchmarks both enforce equivalence through this
    one helper so the contract cannot drift between them.
    """
    if len(reference.records) != len(other.records):
        return [f"record count differs: {len(reference.records)} vs {len(other.records)}"]
    diffs = []
    for a, b in zip(reference.records, other.records):
        if (a.index, a.label, a.status) != (b.index, b.label, b.status):
            diffs.append(f"record identity differs: {(a.index, a.label, a.status)} "
                         f"vs {(b.index, b.label, b.status)}")
            continue
        if a.order != b.order:
            diffs.append(f"{a.label}: order {a.order} vs {b.order}")
        if a.ok and b.ok:
            for attribute in ("E", "A", "B", "C", "D"):
                if not np.array_equal(getattr(a.result.system, attribute),
                                      getattr(b.result.system, attribute)):
                    diffs.append(f"{a.label}: system matrix {attribute} differs")
        for field in ("error_vs_data", "error_vs_reference"):
            err_a, err_b = getattr(a, field), getattr(b, field)
            if not (math.isnan(err_a) and math.isnan(err_b)) and err_a != err_b:
                diffs.append(f"{a.label}: {field} {err_a!r} vs {err_b!r}")
        if a.time_domain != b.time_domain:
            diffs.append(
                f"{a.label}: time_domain {a.time_domain!r} vs {b.time_domain!r}"
            )
        if a.passivity != b.passivity:
            diffs.append(
                f"{a.label}: passivity {a.passivity!r} vs {b.passivity!r}"
            )
    return diffs


def comparable_dict(result: "BatchResult") -> dict[str, Any]:
    """The :meth:`BatchResult.to_dict` export with execution metadata normalised.

    Two equivalent batch runs can never agree on wall-clock times, and a
    merged sharded run legitimately reports a different executor / worker
    count / chunk size than the single-process reference -- those fields
    describe *how* the batch ran, not *what* it computed.  This helper zeroes
    exactly that volatile envelope (``executor``, ``n_workers``,
    ``chunk_size``, ``wall_seconds``, ``total_fit_seconds``, the per-job
    ``elapsed_seconds`` and the response-cache hit/miss tallies -- a serial
    run shares one response cache batch-wide while each process worker holds
    its own, so the hit/miss *split* depends on scheduling even though the
    values never do) and keeps everything else byte-comparable: record
    identity and order, model orders, error values, cache hit/miss statuses
    and counters.  The sharding differential tests and the CI sharded-smoke
    step compare runs through :func:`comparable_json`, so "the merged JSON
    export is identical to the unsharded one" is a single string equality.
    """
    document = result.to_dict()
    document["executor"] = ""
    document["n_workers"] = 0
    document["chunk_size"] = 0
    document["wall_seconds"] = 0.0
    document["total_fit_seconds"] = 0.0
    document["n_response_hits"] = 0
    document["n_response_misses"] = 0
    for job in document["jobs"]:
        job["elapsed_seconds"] = 0.0
        job["responses"] = {"hits": 0, "misses": 0}
    return document


def comparable_json(result: "BatchResult") -> str:
    """The normalised export of :func:`comparable_dict` as canonical JSON."""
    return json.dumps(_json_safe(comparable_dict(result)), indent=2, sort_keys=True,
                      allow_nan=False)


@dataclass(frozen=True)
class BatchResult:
    """Records of one batch run plus how it was executed.

    Attributes
    ----------
    records:
        One :class:`~repro.batch.jobs.JobRecord` per submitted job, in
        submission order.
    executor, n_workers, chunk_size:
        How the batch was run (see :class:`~repro.batch.engine.BatchEngine`).
    wall_seconds:
        End-to-end wall-clock time of the batch.
    """

    records: tuple[JobRecord, ...]
    executor: str = "serial"
    n_workers: int = 1
    chunk_size: int = 0
    wall_seconds: float = 0.0

    # ------------------------------------------------------------------ #
    # selection
    # ------------------------------------------------------------------ #
    @property
    def n_jobs(self) -> int:
        """Number of submitted jobs."""
        return len(self.records)

    @property
    def ok_records(self) -> tuple[JobRecord, ...]:
        """Records of the jobs that succeeded."""
        return tuple(record for record in self.records if record.ok)

    @property
    def failures(self) -> tuple[JobRecord, ...]:
        """Records of the jobs that failed."""
        return tuple(record for record in self.records if not record.ok)

    @property
    def n_ok(self) -> int:
        """Number of successful jobs."""
        return len(self.ok_records)

    @property
    def n_failed(self) -> int:
        """Number of failed jobs."""
        return len(self.failures)

    @property
    def total_fit_seconds(self) -> float:
        """Sum of the per-job times (the serial-equivalent cost of the batch)."""
        return float(sum(record.elapsed_seconds for record in self.records))

    @property
    def n_cache_hits(self) -> int:
        """Jobs replayed from the fit cache (0 when the batch ran uncached)."""
        return sum(1 for record in self.records if record.cache_status == "hit")

    @property
    def n_cache_misses(self) -> int:
        """Jobs that consulted the fit cache but had to compute."""
        return sum(1 for record in self.records if record.cache_status == "miss")

    @property
    def used_cache(self) -> bool:
        """Whether any job of this batch went through a fit cache."""
        return any(record.cache_status is not None for record in self.records)

    @property
    def n_response_hits(self) -> int:
        """Cross-job response-cache hits summed over the records."""
        return sum(record.response_hits for record in self.records)

    @property
    def n_response_misses(self) -> int:
        """Cross-job response-cache misses summed over the records."""
        return sum(record.response_misses for record in self.records)

    @property
    def used_responses(self) -> bool:
        """Whether any job of this batch consulted a response cache."""
        return any(
            record.response_hits or record.response_misses for record in self.records
        )

    def raise_failures(self, *, context: str = "batch job") -> "BatchResult":
        """Fail-fast helper: raise on the first failed record, else return ``self``.

        The error message carries the captured exception type, message and
        full worker-side traceback, so sweeps that expect clean runs (the
        experiment drivers) keep the debugging context per-job capture saved.
        """
        if self.n_failed:
            failure = self.failures[0]
            tags = f" {dict(failure.tags)}" if failure.tags else ""
            raise RuntimeError(
                f"{context} {failure.label!r}{tags} failed: "
                f"{failure.error_type}: {failure.error_message}\n"
                f"{failure.error_traceback}"
            )
        return self

    def with_tag(self, key: str, value: Any = None) -> tuple[JobRecord, ...]:
        """Records whose tags contain ``key`` (and equal ``value`` when given)."""
        return tuple(
            record
            for record in self.records
            if key in record.tags and (value is None or record.tags[key] == value)
        )

    def best(
        self, key: Callable[[JobRecord], float] = lambda r: r.error_vs_reference
    ) -> JobRecord:
        """The successful record minimising ``key`` (default: reference error)."""
        candidates = [r for r in self.ok_records if not math.isnan(key(r))]
        if not candidates:
            raise ValueError("no successful record with a finite key value")
        return min(candidates, key=key)

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    def summary_table(self, *, title: str = "") -> str:
        """Aligned plain-text table of every record (the batch report)."""
        # imported here: repro.experiments (the package) consumes repro.batch
        from repro.experiments.reporting import format_table

        with_cache = self.used_cache
        with_time_domain = any(record.time_domain for record in self.records)
        with_passivity = any(record.passivity for record in self.records)
        rows = []
        for record in self.records:
            row = [
                record.index,
                record.label,
                record.method,
                record.status,
                record.order if record.order is not None else "-",
                record.elapsed_seconds,
                record.error_vs_reference
                if not math.isnan(record.error_vs_reference)
                else "-",
            ]
            if with_time_domain:
                row.append(record.time_domain.get("impulse_l2", "-"))
                row.append(record.time_domain.get("ringing_ratio", "-"))
            if with_passivity:
                row.append(record.passivity.get("worst_margin", "-"))
                row.append(record.passivity.get("perturbation_norm", "-"))
            if with_cache:
                row.append(record.cache_status or "-")
            rows.append(row)
        heading = title or (
            f"batch: {self.n_ok}/{self.n_jobs} ok, executor={self.executor} "
            f"(workers={self.n_workers}), wall={self.wall_seconds:.3f}s"
            + (f", cache hits={self.n_cache_hits}/{self.n_jobs}" if with_cache else "")
            + (
                f", response hits={self.n_response_hits}/"
                f"{self.n_response_hits + self.n_response_misses}"
                if self.used_responses
                else ""
            )
        )
        columns = ["#", "job", "method", "status", "order", "time (s)", "error vs reference"]
        if with_time_domain:
            columns.extend(["impulse L2", "ringing"])
        if with_passivity:
            columns.extend(["passivity margin", "perturbation"])
        if with_cache:
            columns.append("cache")
        return format_table(columns, rows, title=heading)

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe summary of the whole batch."""
        return {
            "schema_version": SCHEMA_VERSION,
            "executor": self.executor,
            "n_workers": self.n_workers,
            "chunk_size": self.chunk_size,
            "n_jobs": self.n_jobs,
            "n_ok": self.n_ok,
            "n_failed": self.n_failed,
            "n_cache_hits": self.n_cache_hits,
            "n_cache_misses": self.n_cache_misses,
            "n_response_hits": self.n_response_hits,
            "n_response_misses": self.n_response_misses,
            "wall_seconds": self.wall_seconds,
            "total_fit_seconds": self.total_fit_seconds,
            "jobs": [record.to_dict() for record in self.records],
        }

    def to_json(self, *, indent: Optional[int] = 2) -> str:
        """The :meth:`to_dict` payload serialised as strict (RFC-valid) JSON."""
        return json.dumps(_json_safe(self.to_dict()), indent=indent, sort_keys=True,
                          allow_nan=False)

    def save_json(self, path: str) -> str:
        """Write the JSON export to ``path`` (directories created) and return it."""
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json() + "\n")
        return path
